"""Workloads of the wittsen benchmark: seeded inputs, the calls into the
library, and the benchmark's own verification of every output.

A workload is a fixed list of case slots. The seed draws only the values in
each slot (Eisenstein unit and middle coefficients, ghost tuples, Cartier
scalars, Dwork sequences, the fderham parameter); primes, degrees and bounds
stay fixed, so the cost of a pass does not depend on the seed. Every size is
kept inside the range measured on a 2-core machine: one step up is far
dearer (``delta_ring_check(2,1,2)`` takes 203 s against 5.4 s for (3,1,2),
``honda_p_series(2,1,128)`` 48 s against 6.5 s at bound 64,
``bp_right_unit(2,5)`` 32 s against 0.1 s at N = 4).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import random
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

MODULES = ("exactalg", "witt", "fgl", "dpops", "senhom", "targets", "cli")
GOLDEN = Path("tests", "data", "golden_report.json")
WORKLOADS = ("report", "series", "homology")


class SetupError(RuntimeError):
    """The checkout lacks the library or its golden file."""


# ---------------------------------------------------------------------------
# loading the library


def load_wittsen(root: Path) -> dict:
    """Import wittsen afresh from ``root/src``; returns name -> module.

    Earlier imports are dropped first, so module-level caches start empty, as
    they do in each new ``wittsen`` process.
    """
    src = root / "src"
    if not (src / "wittsen" / "__init__.py").is_file():
        raise SetupError(f"no wittsen package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "wittsen" or n.startswith("wittsen.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"wittsen.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"wittsen was imported from {mods['cli'].__file__}, not {src}")
    return mods


def load_golden(root: Path) -> bytes:
    path = root / GOLDEN
    if not path.is_file():
        raise SetupError(f"missing golden report {path}")
    return path.read_bytes()


# ---------------------------------------------------------------------------
# seeded inputs


# Every drawn value is nonzero: a zero would drop the leading term of a
# series and shorten the power loops of exp and log, so the work per case and
# every traced count would change with the seed.


def _unit(rng, p, bound):
    """A nonzero integer in [-bound, bound] prime to p."""
    return rng.choice([k for k in range(-bound, bound + 1) if k % p])


def _nonzero(rng, bound):
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _ghost_tuple(rng, p, n, spread=20):
    """Nonzero ghost components a_0..a_(n-1) with a_m = a_(m+1) mod p^(m+1)
    and p^n | a_(n-1), the condition for exp(sum a_m t^(p^m)/p^m) to be
    p-integral (drawn the way the report draws its Cartier samples)."""
    while True:
        a = [0] * n
        a[n - 1] = p**n * rng.randint(-spread, spread)
        for m in range(n - 2, -1, -1):
            a[m] = a[m + 1] + p ** (m + 1) * rng.randint(-spread, spread)
        if all(a):
            return a


def _eisenstein(rng, p, e):
    """Monic E of degree e, low degree first: E(0) = p * unit and every
    middle coefficient p * unit. Units keep v(E'(pi)) and so the cost of the
    DVR square independent of the draw."""
    return [p * _unit(rng, p, p + 1)] + [p * _unit(rng, p, 2) for _ in range(e - 1)] + [1]


# (p, n, bound) of the Honda p-series; p^n | bound keeps v x^(p^n) inside
HONDA_SLOTS = ((3, 1, 81), (5, 1, 125), (2, 2, 64))
CARTIER_SLOTS = tuple((p, deg) for p in (2, 3) for deg in (8, 10, 12))
CARTIER_SAMPLES = 10  # per slot
CARTIER_LENGTH = 2
DWORK_DEGREES = (8, 10, 12)
DWORK_SAMPLES = 4  # per degree
BP_SLOTS = ((2, 4), (3, 4))
Q_IDENTITY_MAX = 40

DVR_SLOTS = tuple((p, e) for p in (2, 3, 5) for e in (1, 2, 3))
PERFECTOID_SLOTS = ((2, 48), (3, 72), (5, 120))  # the report stops at 20p
ZPN_SLOTS = ((3, 2, 50), (3, 3, 50))  # the report stops at 30
OMEGA2YN_SLOTS = ((3, 2, 50), (3, 3, 50))
DELTA_SLOTS = ((3, 1, 2), (5, 1, 2), (7, 1, 2))  # (p, n, B); K = 18, N = 12
FDERHAM_WEIGHTS, FDERHAM_H = 4, 6


def make_cases(workload: str, seed: int) -> list:
    """The workload's cases as plain data: (kind, params) pairs."""
    rng = random.Random(seed)
    if workload == "report":
        return [("report", {})]
    if workload == "series":
        cases = [("honda", {"p": p, "n": n, "bound": b}) for p, n, b in HONDA_SLOTS]
        for p, deg in CARTIER_SLOTS:
            for _ in range(CARTIER_SAMPLES):
                cases.append(("cartier", {
                    "p": p, "degree": deg,
                    "a": _ghost_tuple(rng, p, CARTIER_LENGTH),
                    "x": [_nonzero(rng, 4) for _ in range(CARTIER_LENGTH)],
                    "xprime": [_nonzero(rng, 4) for _ in range(CARTIER_LENGTH)],
                }))
        for deg in DWORK_DEGREES:
            for _ in range(DWORK_SAMPLES):
                cases.append(("dwork", {"r": [_nonzero(rng, 3) for _ in range(deg)]}))
        cases += [("bp_right_unit", {"p": p, "N": N}) for p, N in BP_SLOTS]
        cases += [("q_identity", {"m": m}) for m in range(1, Q_IDENTITY_MAX + 1)]
        return cases
    if workload == "homology":
        cases = [("dvr", {"p": p, "E": _eisenstein(rng, p, e)}) for p, e in DVR_SLOTS]
        cases += [("perfectoid", {"p": p, "bound": b}) for p, b in PERFECTOID_SLOTS]
        cases += [("zpn", {"p": p, "n": n, "bound": b}) for p, n, b in ZPN_SLOTS]
        cases += [("omega2yn", {"p": p, "n": n, "bound": b}) for p, n, b in OMEGA2YN_SLOTS]
        cases += [("delta", {"p": p, "n": n, "B": B}) for p, n, B in DELTA_SLOTS]
        for params in ({"kind": "additive"},
                       {"kind": "multiplicative", "lam": _nonzero(rng, 3)}):
            params["matrices"] = [_multiplication_matrix(params, w)
                                  for w in range(1, FDERHAM_WEIGHTS + 1)]
            cases.append(("fderham", params))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(cases: list, golden: bytes = b"") -> str:
    h = hashlib.sha256(json.dumps(cases, sort_keys=True).encode())
    h.update(golden)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# closed-form expectations, computed without the library


def v_p(p: int, m: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def dwork_sequence(r: list) -> list:
    """x_n = -sum_{j | n} j r_j^(n/j): then exp(sum x_n t^n/n) = prod (1 - r_j t^j)."""
    return [-sum(j * r[j - 1] ** (n // j) for j in range(1, n + 1) if n % j == 0)
            for n in range(1, len(r) + 1)]


def eprime_valuation(p: int, E: list) -> int:
    """v(E'(pi)) in Z_(p)[pi], v(pi) = 1, v(p) = e: the terms i c_i pi^(i-1)
    have distinct valuations mod e, so the minimum is exact."""
    e = len(E) - 1
    return min(e * v_p(p, i * E[i]) + i - 1 for i in range(1, e + 1) if E[i])


def p_power_torsion(p: int, k: int) -> list:
    """Sorted p^(v_p(j)) for j <= k with p | j: the zpn/omega2yn pattern."""
    return sorted(p ** v_p(p, j) for j in range(1, k + 1) if j % p == 0)


def q_integer_terms(m: int) -> dict:
    """[m]_q at q = 1 + lam*h is sum_k C(m, k+1) lam^k h^k; keys (h, lam)."""
    return {(k, k): math.comb(m, k + 1) for k in range(m)}


# ---------------------------------------------------------------------------
# running and verifying one case


class CaseFailure(Exception):
    """The library's output for a case is wrong."""


def _need(ok, what):
    if not ok:
        raise CaseFailure(what)


# seconds of timed work between two gauge readings
GAUGE_EVERY_S = 1.0


class Stopwatch:
    """Times the calls into the library.

    With a gauge (see gauge.py) it also reads the machine's speed when it is
    made, at every ``checkpoint`` that follows ``GAUGE_EVERY_S`` seconds of
    timed work, and at the forced last checkpoint. Each stretch of timed
    work is scaled by the mean of the readings on either side of it; the
    readings themselves are not timed work."""

    def __init__(self, gauge=None):
        self.gauge = gauge
        self.seconds = self.scaled = self._stretch = 0.0
        self._t0 = None
        self._before = gauge.read() if gauge else None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        dt = time.perf_counter() - self._t0
        self.seconds += dt
        self._stretch += dt

    def checkpoint(self, force=False):
        """Between two library calls: read the gauge if a reading is due."""
        if self.gauge and self._stretch and (force or self._stretch >= GAUGE_EVERY_S):
            after = self.gauge.read()
            self.scaled += self.gauge.scale(self._stretch, self._before, after)
            self._before, self._stretch = after, 0.0


@dataclass
class Context:
    mods: dict
    root: Path
    golden: bytes
    watch: Stopwatch = None

    @property
    def scratch(self) -> Path:
        return self.root / ".bench_tmp"

    def cli(self, argv):
        """wittsen.cli.main(argv) with output going to a file; returns
        (exit code, file bytes)."""
        self.scratch.mkdir(exist_ok=True)
        out = self.scratch / "out.json"
        out.unlink(missing_ok=True)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                rc = self.mods["cli"].main(argv + ["-o", str(out)])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, out.read_bytes() if out.exists() else b""

    @contextmanager
    def checkpoints_between_checks(self):
        """For the length of a report, each entry of ``cli.ALL_CHECKS`` is
        followed by a stopwatch checkpoint, so a gauged pass reads the
        machine's speed between the report's checks rather than only around
        the whole report. Without ``ALL_CHECKS`` nothing is shimmed."""
        cli, watch = self.mods["cli"], self.watch
        checks = getattr(cli, "ALL_CHECKS", None)
        if watch is None or watch.gauge is None or not isinstance(checks, list):
            yield
            return

        def shim(fn):
            def check(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    watch.stop()
                    watch.checkpoint()
                    watch.start()
            return check

        cli.ALL_CHECKS = [shim(fn) for fn in checks]
        try:
            yield
        finally:
            cli.ALL_CHECKS = checks


def call(ctx: Context, kind: str, a: dict):
    """The timed part of a case: calls into wittsen only."""
    m = ctx.mods
    if kind == "report":
        with ctx.checkpoints_between_checks():
            return ctx.cli(["report", "--json"])
    if kind == "honda":
        return m["fgl"].honda_p_series(a["p"], a["n"], a["bound"])
    if kind == "cartier":
        return m["witt"].cartier_character(a["p"], a["a"], a["x"], a["degree"],
                                           xprime_scalars=a["xprime"])
    if kind == "dwork":
        return m["witt"].dwork_factorization(dwork_sequence(a["r"]), len(a["r"]))
    if kind == "bp_right_unit":
        return m["fgl"].bp_right_unit(a["p"], a["N"])
    if kind == "q_identity":
        F = m["fgl"].fgl_construct("multiplicative", Q_IDENTITY_MAX + 1, lam="lam")
        lhs = m["fgl"].divided_n_series(F, a["m"])
        return lhs, m["fgl"].q_integer(a["m"], "lam", lhs.ring)
    if kind == "dvr":
        E = ",".join(str(c) for c in reversed(a["E"]))
        return ctx.cli(["sen", "dvr", "-p", str(a["p"]), "-E", E, "--json"])
    if kind == "perfectoid":
        return m["senhom"].build_perfectoid_serre(a["p"], a["bound"])
    if kind == "zpn":
        return m["senhom"].build_zpn_serre(a["p"], a["n"], a["bound"])
    if kind == "omega2yn":
        return m["senhom"].omega2yn_cohomology(a["p"], a["n"], a["bound"])
    if kind == "delta":
        return m["dpops"].delta_ring_check(a["p"], a["n"], a["B"])
    if kind == "fderham":
        fgl = m["fgl"]
        F = fgl.fgl_construct(a["kind"], FDERHAM_H + 2, lam=a.get("lam"))
        cx = fgl.f_derham_complex(F, FDERHAM_WEIGHTS, FDERHAM_H)
        rep = m["senhom"].fderham_cohomology(cx)
        # the Z-SNF of each weight's multiplication matrix, built from the
        # binomial closed form rather than from the complex
        ea = m["exactalg"]
        snf = [[abs(d) for d in ea.smith_normal_form(ea.IntMatrix.from_rows(mat)).divisors]
               for mat in a["matrices"]]
        return rep, snf
    raise ValueError(f"unknown case kind {kind!r}")


def _multiplication_matrix(a: dict, m: int) -> list:
    """Multiplication by <m>(h) on Z[h]/h^K, lower-triangular Toeplitz; the
    multiplicative law X + Y + lam XY has <m>(h) = sum_k C(m, k+1) lam^k h^k."""
    K = FDERHAM_H
    if a["kind"] == "additive":
        coeffs = [m] + [0] * (K - 1)
    else:
        coeffs = [math.comb(m, k + 1) * a["lam"] ** k for k in range(K)]
    return [[coeffs[i - j] if i >= j else 0 for j in range(K)] for i in range(K)]


def verify(ctx: Context, kind: str, a: dict, out) -> None:
    """Raise CaseFailure unless ``out`` is the correct result of the case."""
    if kind == "report":
        rc, data = out
        _need(rc == 0, f"report exited {rc}")
        _need(data == ctx.golden, "report bytes differ from the golden file")
    elif kind == "honda":
        # v x^(p^n) over F_p[v], compared term by term rather than through
        # the library's own closed-form flag
        p, n = a["p"], a["n"]
        _need(out.ring.vars == ("x", "v") and out.ring.modulus == p
              and out.ring.bounds[0] == a["bound"], f"honda ring {out.ring}")
        _need(out.terms == {(p**n, 1): 1}, f"honda p-series {out!r}")
    elif kind == "cartier":
        _need(out["f_p_integral"] and out["log_identity"] and out["additivity"],
              f"cartier flags {out}")
        _need((out["p"], out["n"], out["degree_bound"])
              == (a["p"], CARTIER_LENGTH, a["degree"]), "cartier echo")
    elif kind == "dwork":
        _need(out["r"] == a["r"], f"dwork r {out['r']} != {a['r']}")
        _need(out["reconstructs"] is True, "dwork product does not reconstruct")
    elif kind == "bp_right_unit":
        # eta_R(v1) = v1 + p t1; at p = 2 also the displayed eta_R(v2)
        tp = ctx.mods["exactalg"].TruncPoly
        ring = out[1].ring
        v1, v2, t1, t2 = (tp.var(ring, s) for s in ("v1", "v2", "t1", "t2"))
        _need(out[1] == v1 + a["p"] * t1, f"eta(v1) = {out[1]!r}")
        if a["p"] == 2:
            want = v2 - 5 * v1 * t1**2 - 3 * v1**2 * t1 + 2 * t2 - 4 * t1**3
            _need(out[2] == want, f"eta(v2) = {out[2]!r}")
        _need(sorted(out) == list(range(1, a["N"] + 1)), "eta keys")
    elif kind == "q_identity":
        lhs, rhs = out
        _need(lhs == rhs, f"<{a['m']}>(h) != [{a['m']}]_q")
        _need(lhs.ring.vars == ("h", "lam"), f"q ring {lhs.ring.vars}")
        want = {k: c for k, c in q_integer_terms(a["m"]).items()
                if k[0] <= lhs.ring.bounds[0]}
        _need(lhs.terms == want, f"<{a['m']}>(h) coefficients")
    elif kind == "dvr":
        rc, data = out
        _need(rc == 0, f"sen dvr exited {rc}")
        (row,) = json.loads(data)["checks"]
        _need(row["name"] == "sen.dvr" and row["status"] == "pass", f"dvr row {row}")
        (payload,) = row["payload"].values()
        _need(payload["consistent"] is True, "dvr square inconsistent")
        want = eprime_valuation(a["p"], a["E"])
        _need(payload["Eprime_valuation"] == want,
              f"v(E'(pi)) {payload['Eprime_valuation']} != {want}")
    elif kind == "perfectoid":
        bound = a["bound"]
        for d in range(bound + 1):
            row = out["homology"].entry(d)
            _need(row["free_rank"] == (d % 2 == 0) and not row["torsion"],
                  f"perfectoid degree {d}: {row}")
        _need(sorted(out["kernel_ranks"]) == list(range(2 * a["p"], bound + 1, 2 * a["p"])),
              "perfectoid kernel degrees")
        _need(all(r == 1 for r in out["kernel_ranks"].values())
              and all(out["surjective"].values()), "perfectoid kernels")
    elif kind == "zpn":
        for k in range(1, a["bound"] // 2 + 1):
            got = out.entry(2 * k - 1)["torsion"]
            _need(got == p_power_torsion(a["p"], k), f"zpn degree {2 * k - 1}: {got}")
        for d in range(0, a["bound"] + 1, 2):
            _need(out.entry(d)["free_rank"] == 1, f"zpn degree {d} rank")
    elif kind == "omega2yn":
        for k in range(1, a["bound"] // 2 + 1):
            row = out.entry(2 * k)
            _need(row["free_rank"] == 1 and row["torsion"] == p_power_torsion(a["p"], k),
                  f"omega2yn degree {2 * k}: {row}")
    elif kind == "delta":
        _need(out["all_ok"] is True, "delta all_ok false")
        _need(len(out["rows"]) == a["B"] + 1, "delta row count")
        for row in out["rows"]:
            # frobenius_identity is not part of the library's all_ok
            _need(row["phi_delta_divisible"] and row["power_identity_divisible"]
                  and row["frobenius_identity"], f"delta row {row}")
    elif kind == "fderham":
        rep, snf = out
        for w, mat in enumerate(a["matrices"], start=1):
            got = rep["weights"][w]["divisors"]
            _need(got == snf[w - 1], f"fderham weight {w}: {got} != Z-SNF {snf[w - 1]}")
            _need(all(y % x == 0 for x, y in zip(got, got[1:])), "divisor chain")
            _need(math.prod(got) == w**FDERHAM_H, f"fderham weight {w} determinant")
            _need(got[0] == math.gcd(*(x for row in mat for x in row)),
                  f"fderham weight {w} first divisor")
    else:
        raise ValueError(f"unknown case kind {kind!r}")


@dataclass
class PassResult:
    seconds: float  # time spent inside the library, summed over cases
    attempted: int
    failed: int
    failures: list  # (case index, reason) of the first few failures
    scaled: float = None  # ``seconds`` in gauge reference seconds, if gauged


def run_pass(ctx: Context, cases: list, gauge=None) -> PassResult:
    """One closed-loop pass: each case is called, then verified, before the
    next starts. Only the calls are timed; with a ``gauge`` the time is also
    scaled to the machine's speed (see ``Stopwatch``)."""
    ctx.watch = watch = Stopwatch(gauge)
    failures = []
    failed = 0
    for i, (kind, params) in enumerate(cases):
        error = None
        watch.start()
        try:
            out = call(ctx, kind, params)
        except Exception as exc:  # any library error is a failed case
            error = exc
        watch.stop()
        watch.checkpoint(force=i == len(cases) - 1)
        if error is not None:
            failed += 1
            failures.append((i, f"{kind}: {type(error).__name__}: {error}"))
            continue
        try:
            verify(ctx, kind, params, out)
        except (CaseFailure, KeyError, TypeError, ValueError, AttributeError) as exc:
            failed += 1
            failures.append((i, f"{kind}: {type(exc).__name__}: {exc}"))
    return PassResult(watch.seconds, len(cases), failed, failures[:5],
                      watch.scaled if gauge else None)
