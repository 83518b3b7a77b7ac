#!/usr/bin/env python3
"""Run one workload of the wittsen benchmark and print its metrics.

    python3 bench/run.py --workload series --seed 1 --seconds 36 --trace 0

Run from the root of a checkout (the library is imported from its ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gauge as gauge_mod  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUPS_PER_PASS = 5


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: str, seed: int, times: list):
    """Import wittsen afresh, generate the inputs and load the golden file;
    appends the seconds taken to ``times``."""
    t0 = time.perf_counter()
    mods = wl.load_wittsen(ROOT)
    cases = wl.make_cases(workload, seed)
    golden = wl.load_golden(ROOT)
    times.append(time.perf_counter() - t0)
    return mods, cases, golden


def measure(args, budget: float, traced: bool, gauge, setup_times: list):
    """Closed-loop passes until the next one would overrun ``budget``
    seconds (at least one pass). Each pass starts from a fresh import, as a
    new ``wittsen`` process would. The set-ups before each pass are timed
    between two gauge readings, so set-up is sampled across the whole run;
    ``setup_times`` receives them in gauge reference seconds."""
    passes, layers, absent = [], [], {}
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        before, raw = gauge.read(), []
        for _ in range(SETUPS_PER_PASS):
            mods, cases, golden = setup(args.workload, args.seed, raw)
        after = gauge.read()
        setup_times += [gauge.scale(s, before, after) for s in raw]
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install(mods)
        try:
            result = wl.run_pass(wl.Context(mods, ROOT, golden), cases, gauge)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(result)
        if tracer is not None:
            values, absent = tracing.layer_metrics(tracer, args.workload)
            layers.append(values)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return passes, layers, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup_times = []
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _, cases, golden = setup(args.workload, args.seed, [])
    except (OSError, wl.SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gauge = gauge_mod.Gauge()
    try:
        traced = bool(args.trace)
        budget = args.seconds / 2 if traced else args.seconds
        plain, _, _ = measure(args, budget, False, gauge, setup_times)
        tpasses, layers, absent = (measure(args, budget, True, gauge, setup_times)
                                   if traced else ([], [], {}))
    finally:
        shutil.rmtree(ROOT / ".bench_tmp", ignore_errors=True)

    allp = plain + tpasses
    attempted = sum(r.attempted for r in allp)
    failed = sum(r.failed for r in allp)
    wall = statistics.median(r.scaled for r in plain)
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": wl.inputs_digest(cases, golden if args.workload == "report" else b""),
        "cases_per_pass": len(cases), "passes": len(plain), "traced_passes": len(tpasses),
        "pass_seconds": [round(r.seconds, 4) for r in plain],
        "pass_scaled_seconds": [round(r.scaled, 4) for r in plain],
        "gauge_unit_s": round(statistics.median(gauge.readings), 4),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }
    print("# env " + json.dumps(env, sort_keys=True))
    for r in allp:
        for i, reason in r.failures:
            print(f"# FAILED case {i}: {reason}")
    print(f"# fail_frac {failed / attempted:.6f} ({failed} of {attempted} cases)")

    if traced:
        twall = statistics.median(r.scaled for r in tpasses)
        # counts repeat exactly from pass to pass; times take the median
        values = {k: (statistics.median_low if isinstance(layers[0][k], int)
                      else statistics.median)([v[k] for v in layers])
                  for k in layers[0]}
        values["trace.overhead_frac"] = twall / wall - 1
        # self times are raw seconds, so their shares are of the raw pass
        shares = tracing.shares(values, statistics.median(r.seconds for r in tpasses))
        print("# traced shares of a pass " + json.dumps(
            {k: round(v, 4) for k, v in shares.items()}, sort_keys=True))
        for name, reason in sorted(absent.items()):
            print(f"# absent {name}: {reason}")
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif m["name"] not in absent:
            raise KeyError(f"metric {m['name']} was neither measured nor marked absent")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
