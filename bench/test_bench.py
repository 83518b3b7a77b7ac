"""Tests of the benchmark itself: its checks must be able to fail, its
tracing must survive a missing entry point, and a gauged pass must scale
its time by the gauge readings around it.

    python -m pytest -q bench/test_bench.py

Each failure test feeds the benchmark one wrong library result through the
same pass loop the benchmark runs, and passes when it sees fail_frac > 0.
Each has a control that runs the same case unpatched and sees no failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gauge as gauge_mod  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def ctx():
    golden = wl.load_golden(ROOT)
    yield wl.Context(wl.load_wittsen(ROOT), ROOT, golden)
    shutil.rmtree(ROOT / ".bench_tmp", ignore_errors=True)


def fail_frac(ctx, cases):
    result = wl.run_pass(ctx, cases)
    return result.failed / result.attempted


def test_report_with_one_byte_changed_fails(ctx, monkeypatch):
    doc = json.loads(ctx.golden)
    monkeypatch.setattr(ctx.mods["cli"], "build_full_report", lambda cfg: doc)
    assert fail_frac(ctx, [("report", {})]) == 0  # the golden doc round-trips
    cartier = next(c for c in doc["checks"] if c["name"] == "witt.cartier")
    cartier["payload"]["samples"] += 1  # one digit: exit code 0, bytes differ
    assert fail_frac(ctx, [("report", {})]) > 0


def test_delta_row_without_frobenius_identity_fails(ctx, monkeypatch):
    case = ("delta", {"p": 7, "n": 1, "B": 2})
    assert fail_frac(ctx, [case]) == 0
    real = ctx.mods["dpops"].delta_ring_check

    def broken(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep["rows"][1]["frobenius_identity"] = False  # all_ok stays True
        return rep
    monkeypatch.setattr(ctx.mods["dpops"], "delta_ring_check", broken)
    assert fail_frac(ctx, [case]) > 0


def test_wrong_honda_p_series_fails(ctx, monkeypatch):
    case = ("honda", {"p": 2, "n": 2, "bound": 16})
    assert fail_frac(ctx, [case]) == 0
    ea = ctx.mods["exactalg"]
    ring = ea.PolyRing(vars=("x", "v"), bounds=(16, None), modulus=2)
    wrong = ea.TruncPoly(ring, {(4, 1): 1, (8, 3): 1})
    monkeypatch.setattr(ctx.mods["fgl"], "honda_p_series", lambda p, n, b: wrong)
    assert fail_frac(ctx, [case]) > 0


def test_wrong_right_unit_fails(ctx, monkeypatch):
    case = ("bp_right_unit", {"p": 2, "N": 4})
    assert fail_frac(ctx, [case]) == 0
    real = ctx.mods["fgl"].bp_right_unit

    def broken(p, N):
        eta = real(p, N)
        tp = ctx.mods["exactalg"].TruncPoly
        eta[1] = tp.var(eta[1].ring, "v1") + tp.var(eta[1].ring, "t1")
        return eta
    monkeypatch.setattr(ctx.mods["fgl"], "bp_right_unit", broken)
    assert fail_frac(ctx, [case]) > 0


def test_library_exception_counts_as_failure(ctx, monkeypatch):
    def boom(*args):
        raise ArithmeticError("simulated")
    monkeypatch.setattr(ctx.mods["senhom"], "build_zpn_serre", boom)
    assert fail_frac(ctx, [("zpn", {"p": 3, "n": 2, "bound": 10})]) == 1


def test_seed_changes_values_not_sizes():
    a, b = wl.make_cases("homology", 1), wl.make_cases("homology", 2)
    assert wl.make_cases("homology", 1) == a
    assert [(k, len(v.get("E", ()))) for k, v in a] == \
        [(k, len(v.get("E", ()))) for k, v in b]
    assert wl.inputs_digest(a) != wl.inputs_digest(b)


class ConstantGauge(gauge_mod.Gauge):
    """A gauge whose every reading says the machine runs at half the
    reference speed, so a gauged pass must report half its raw seconds."""

    def __init__(self):
        self.readings = []

    def read(self):
        self.readings.append(2 * gauge_mod.REFERENCE_S)
        return self.readings[-1]


def test_gauged_pass_is_scaled_between_readings(ctx, monkeypatch):
    monkeypatch.setattr(wl, "GAUGE_EVERY_S", 0.0)
    g = ConstantGauge()
    cases = [("zpn", {"p": 3, "n": 2, "bound": 10})] * 3
    result = wl.run_pass(ctx, cases, g)
    assert result.failed == 0
    assert len(g.readings) == 1 + len(cases)
    assert result.scaled == pytest.approx(result.seconds / 2)


def test_report_reads_the_gauge_between_checks(ctx, monkeypatch):
    cli = ctx.mods["cli"]
    checks = [cli.check_gabber, cli.check_pn_vanishing]
    monkeypatch.setattr(cli, "ALL_CHECKS", checks)
    monkeypatch.setattr(wl, "GAUGE_EVERY_S", 0.0)
    g = ConstantGauge()
    result = wl.run_pass(ctx, [("report", {})], g)
    assert result.failed == 1  # two checks only: not the golden report
    # one reading to start, one after each check, one after the report
    assert len(g.readings) == 1 + len(checks) + 1
    assert cli.ALL_CHECKS is checks
    assert result.scaled == pytest.approx(result.seconds / 2)


def traced_counts(ctx, cases):
    tracer = tracing.Tracer()
    tracer.install(ctx.mods)
    try:
        assert wl.run_pass(ctx, cases).failed == 0
    finally:
        tracer.uninstall()
    values, absent = tracing.layer_metrics(tracer, "series")
    return {k: v for k, v in values.items() if isinstance(v, int)}, absent


def test_traced_counts_repeat_and_untraced_modules_are_restored(ctx):
    cases = [("honda", {"p": 2, "n": 2, "bound": 16}),
             ("dwork", {"r": [1, -2, 3, 1, 2, -1, 1, 3]}),
             ("zpn", {"p": 3, "n": 2, "bound": 10})]
    mul = ctx.mods["exactalg"].TruncPoly.__mul__
    first, absent = traced_counts(ctx, cases)
    assert traced_counts(ctx, cases) == (first, absent)
    assert not absent
    assert first["fgl.honda_p_series.calls"] == 1
    assert first["exactalg.series.explog.calls"] >= 1
    assert first["exactalg.snf.calls"] > 0
    assert ctx.mods["exactalg"].TruncPoly.__mul__ is mul


def test_missing_entry_points_are_reported_absent(ctx, monkeypatch):
    monkeypatch.delattr(ctx.mods["dpops"], "ZpLattice")
    monkeypatch.delattr(ctx.mods["exactalg"], "truncated_exp_log")
    counts, absent = traced_counts(ctx, [("dwork", {"r": [1, 2, -1, 1, 2, 3, -2, 1]})])
    assert "entry points not found" in absent["dpops.lattice.build.calls"]
    assert "dpops.lattice.generators" in absent
    # exp/log requests are still counted through the TruncPoly methods
    assert counts["exactalg.series.explog.calls"] >= 1


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
