"""Command-line surface: named checks over the witt / fgl / dpops / senhom
modules, emitted as deterministic text or JSON reports.

Exit codes: 0 all pass (or skipped), 1 some check failed (the row carries a
counterexample; a library identity found broken, an IdentityError, is its
check's fail row too), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, targets
from .exactalg import (
    IdentityError,
    InvalidInputError,
    PrecisionError,
    int_valuation,
    is_prime,
    local_snf,
)
from . import witt as W
from . import fgl as FG
from . import dpops as DP
from . import senhom as SH

REPORT_SEED = 74207281


@dataclass
class RunConfig:
    """The settings a document echoes. The report's checks read L and K; a
    given -p or -D is echoed here too. N is a precision label only: no
    computation reads it."""

    p: int = 3
    N: int = 12
    L: int = 6
    D: int = 40
    K: int = 18
    fmt: str = "text"
    out: str = None

    def echo(self):
        return {"p": self.p, "N": self.N, "L": self.L, "D": self.D, "K": self.K}


def jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if hasattr(x, "terms"):
        return repr(x)
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    return repr(x)


def check(ok, payload=None, counterexample=None, skipped=False):
    status = "skipped" if skipped else ("pass" if ok else "fail")
    row = {"status": status}
    if payload is not None:
        row["payload"] = jsonable(payload)
    if status == "fail" and counterexample is not None:
        row["counterexample"] = jsonable(counterexample)
    return row


def named(name):
    """Name the row of the decorated check, formatted with its keyword
    arguments, and make an IdentityError from the library that row's failure."""
    def decorate(fn):
        defaults = {k: v.default for k, v in inspect.signature(fn).parameters.items()}

        @functools.wraps(fn)
        def run(cfg, **kwargs):
            try:
                row = fn(cfg, **kwargs)
            except IdentityError as exc:
                row = check(False, None, {**exc.where, "error": str(exc)})
            return {"name": name.format_map({**defaults, **kwargs}), **row}
        return run
    return decorate


# ---------------------------------------------------------------------------
# witt checks


@named("witt.gabber")
def check_gabber(cfg: RunConfig):
    rows = []
    for p in targets.GABBER_PRIMES:
        rep = W.check_gabber_identity(p, cfg.L)
        rows.append(rep)
    small_ok = all(
        W.gabber_y(p, L).components == comps
        for (p, L), comps in targets.GABBER_Y_SMALL.items()
    )
    bad = next((r for r in rows if not r["holds"]),
               None if small_ok else {"small_values": targets.GABBER_Y_SMALL})
    return check(bad is None, {"cases": rows, "small_values_ok": small_ok}, bad)


@named("witt.pn-vanishing")
def check_pn_vanishing(cfg: RunConfig):
    rows = [W.check_pn_vanishing(p, n, targets.PN_VANISHING_LENGTH)
            for p, n in targets.PN_VANISHING_GRID]
    flags = ("holds_v", "holds_vfv", "ghost_ok", "holds")
    bad = next((r for r in rows if not all(r[f] for f in flags)), None)
    return check(bad is None, {"cases": rows}, bad)


@named("witt.solve-frobenius")
def check_solve_frobenius(cfg: RunConfig):
    payload = {}
    bad = None
    for p in targets.FROBENIUS_PREIMAGE_ODD:
        res = W.solve_frobenius(W.gabber_y(p, cfg.L))
        payload[f"p{p}"] = {"success": res.success,
                            "side_conditions": res.side_conditions}
        good = (res.success and res.side_conditions["x0_mod_p"] == 1
                and res.side_conditions["higher_components_div_p"]
                and res.side_conditions["ghost_all_one_mod_p"])
        bad = bad or (None if good else {"p": p, **payload[f"p{p}"]})
    res2 = W.solve_frobenius(W.gabber_y(2, cfg.L))
    wit = targets.FROBENIUS_PREIMAGE_FAIL_WITNESS
    payload["p2"] = {"stage": res2.stage, "witness": res2.witness}
    fail_ok = (not res2.success
               and res2.stage == targets.FROBENIUS_PREIMAGE_FAIL_STAGE
               and all(res2.witness[k] == wit[k]
                       for k in ("lhs_coefficient", "rhs_balanced", "modulus")))
    bad = bad or (None if fail_ok else {"p": 2, **payload["p2"], "want": wit})
    for m in targets.FROBENIUS_PREIMAGE_TEICH_POWERS:
        ctx = W.WittContext(2, cfg.L)
        y = W.witt_mul(W.gabber_y(2, cfg.L), W.teichmuller(2**m, ctx))
        res3 = W.solve_frobenius(y)
        good = res3.success and res3.side_conditions["all_components_div_p"]
        payload[f"p2_teich_{m}"] = {"success": res3.success,
                                    "all_components_div_p":
                                    res3.side_conditions["all_components_div_p"]
                                    if res3.success else None}
        bad = bad or (None if good else {"p": 2, "teichmuller_power": m,
                                         **payload[f"p2_teich_{m}"]})
    return check(bad is None, payload, bad)


@named("witt.frobenius-of-p")
def check_frobenius_of_p(cfg: RunConfig):
    rows = [W.frobenius_of_p_identity(p, 4) for p in (2, 3, 5)]
    bad = next((r for r in rows if not (
        r["holds_p_to_p"] and (r["holds_p_squared"] == (r["p"] == 2))
        and r["frobenius_fixes_integers"])), None)
    return check(bad is None, {"cases": rows}, bad)


def _valid_ghost_tuple(rng, p, n):
    a = [0] * n
    a[n - 1] = p**n * rng.randrange(-20, 21)
    for m in range(n - 2, -1, -1):
        a[m] = a[m + 1] + p ** (m + 1) * rng.randrange(-20, 21)
    return a


@named("witt.cartier")
def check_cartier(cfg: RunConfig):
    rng = random.Random(REPORT_SEED)
    bad = None
    count = 0
    for p in targets.CARTIER_PRIMES:
        for _ in range(targets.CARTIER_SAMPLES):
            a = _valid_ghost_tuple(rng, p, 2)
            x = [rng.randrange(-4, 5) for _ in range(2)]
            xp = [rng.randrange(-4, 5) for _ in range(2)]
            rep = W.cartier_character(p, a, x, targets.CARTIER_DEGREE,
                                      xprime_scalars=xp)
            good = rep["f_p_integral"] and rep["additivity"] and rep["log_identity"]
            if not good:
                bad = bad or {"p": p, "a": a, "x": x, "xprime": xp, "report": rep}
            count += 1
    return check(bad is None, {"samples": count}, bad)


@named("witt.dwork")
def check_dwork(cfg: RunConfig):
    D = targets.DWORK_DEGREE
    cases = {
        "all_minus_one": [-1] * D,
        "zero": [0] * D,
        "two_geometric": [-2 - 2**nn for nn in range(1, D + 1)],
    }
    payload = {name: W.dwork_factorization(xs, D) for name, xs in cases.items()}
    want_r = {"all_minus_one": [1] + [0] * (D - 1), "zero": [0] * D}
    bad = next(({"case": name, "report": rep, "want_r": want_r.get(name)}
                for name, rep in payload.items()
                if not rep["reconstructs"] or rep["r"] != want_r.get(name, rep["r"])),
               None)
    return check(bad is None, payload, bad)


# ---------------------------------------------------------------------------
# fgl checks


@named("fgl.nseries")
def check_nseries(cfg: RunConfig, kind="additive", m=2, D=40, p=3, n=1):
    if kind == "honda":
        F = FG.fgl_construct("honda", D, p=p, n=n)
    else:  # for m >= 0, [m](x) is a polynomial of degree at most m
        F = FG.fgl_construct(kind, D if m < 0 else min(D, m + 2),
                             lam="lam" if kind == "multiplicative" else None)
    return check(True, {"kind": kind, "m": m, "series": repr(FG.n_series(F, m))})


@named("fgl.q-identity")
def check_q_identity(cfg: RunConfig, n_max=targets.Q_IDENTITY_MAX):
    F = FG.fgl_construct("multiplicative", n_max + 1, lam="lam")
    bad = None
    for m in range(1, n_max + 1):
        lhs = FG.divided_n_series(F, m)
        if lhs != FG.q_integer(m, "lam", lhs.ring):
            bad = {"m": m}
            break
    return check(bad is None, {"n_max": n_max}, bad)


@named("fgl.honda")
def check_honda(cfg: RunConfig):
    # one p-series per (p, n) serves each m of the grid; a wrong one raises
    rows = [{"p": p, "n": n, "m": m, **exponents, "ok": True}
            for (p, n), group in itertools.groupby(targets.HONDA_GRID, key=lambda r: r[:2])
            for m, exponents in FG.honda_pm_divided_series(
                p, n, [m for _, _, m in group]).items()]
    return check(True, {"cases": rows})


@named("fgl.right-unit")
def check_right_unit(cfg: RunConfig):
    payload = {}
    bad = None
    # only eta(v1) is read at p = 3
    etas = {2: FG.bp_right_unit(2, 2), 3: FG.bp_right_unit(3, 1)}
    for p, eta in etas.items():
        ring = eta[1].ring
        v1 = FG.TruncPoly.var(ring, "v1")
        t1 = FG.TruncPoly.var(ring, "t1")
        payload[f"eta_v1_p{p}"] = repr(eta[1])
        if eta[1] != v1 + p * t1:
            bad = bad or {"p": p, "eta_v1": eta[1], "want": v1 + p * t1}
    eta = etas[2]
    ring = eta[1].ring
    v1, v2 = FG.TruncPoly.var(ring, "v1"), FG.TruncPoly.var(ring, "v2")
    t1, t2 = FG.TruncPoly.var(ring, "t1"), FG.TruncPoly.var(ring, "t2")
    combo, rem = divmod(eta[1] ** 2 - v1**2, 4)
    if not rem.is_zero() or combo != t1**2 + v1 * t1:
        bad = bad or {"quarter_combination": combo, "remainder": rem,
                      "want": t1**2 + v1 * t1}
    expected_v2 = v2 - 5 * v1 * t1**2 - 3 * v1**2 * t1 + 2 * t2 - 4 * t1**3
    if eta[2] != expected_v2:
        bad = bad or {"eta_v2_p2": eta[2], "want": expected_v2}
    payload["eta_v2_p2"] = repr(eta[2])
    payload["quarter_combination"] = repr(combo)
    return check(bad is None, payload, bad)


@named("fgl.b4")
def check_b4(cfg: RunConfig):
    b4 = FG.b4_cobar_class()
    ring = b4.ring
    v1, v2 = FG.TruncPoly.var(ring, "v1"), FG.TruncPoly.var(ring, "v2")
    t1, t2 = FG.TruncPoly.var(ring, "t1"), FG.TruncPoly.var(ring, "t2")
    expected = (5 * t1**4 + 9 * t1**3 * v1 + 7 * t1**2 * v1**2
                - 2 * t1 * t2 + 2 * t1 * v1**3 - t1 * v2 - t2 * v1)
    exact = b4 == expected
    sign_flipped = (not exact) and (b4 == -expected)
    homogeneous = FG.polynomial_degree(b4) == {8}
    payload = {"polynomial": repr(b4), "exact_match": exact,
               "sign_flipped_match": sign_flipped, "homogeneous": homogeneous}
    return check(exact and homogeneous, payload,
                 {"polynomial": b4, "want": expected, "homogeneous": homogeneous})


@named("fgl.fderham")
def check_fderham(cfg: RunConfig):
    """Each weight's divided m-series against [m]_q at q = 1 + lam*h (m for the
    additive law, lam = 0; lam = 1; lam symbolic), and the Smith divisors of
    the additive and lam = 1 weights.

    At lam = 1 the expected divisors come from local_snf over Z_(p), the
    engine's one ring Eisenstein(p, [-p, 1]), not the Z-SNF they check:
    multiplication by [m]_q is triangular with diagonal m, so its i-th
    divisor is the product over the primes p | m of p^(its i-th exponent at
    p), and a rank below 6 leaves fewer than 6 of them."""
    bad = None
    payload = {}
    cx = FG.f_derham_complex(FG.fgl_construct("additive", 8), 5, 6)
    Fm = FG.fgl_construct("multiplicative", 8, lam=1)
    cxm = FG.f_derham_complex(Fm, 4, 6)
    cxs = FG.f_derham_complex(FG.fgl_construct("multiplicative", 8, lam="lam"), 4, 6)
    failed = set()
    for law, lam, weights in (("additive", 0, cx), ("multiplicative_lambda_1", 1, cxm),
                              ("multiplicative_symbolic", "lam", cxs)):
        for m, series in weights.items():
            want = FG.q_integer(m, lam, series.ring)
            if series != want:
                failed.add(law)
                bad = bad or {"law": law, "weight": m, "series": series, "want": want}
    rep = SH.fderham_cohomology(cx)
    for m in range(1, 6):
        if rep["weights"][m]["divisors"] != [m] * 6:
            bad = bad or {"law": "additive", "weight": m,
                          "divisors": rep["weights"][m]["divisors"], "want": [m] * 6}
    payload["additive"] = rep["weights"][3]
    repm = SH.fderham_cohomology(cxm)
    ring = Fm.series_ring("h", 6)
    for m in range(1, 5):
        qm = FG.q_integer(m, 1, ring)
        c = [qm.coeff((k,)) for k in range(6)]
        rows = [{j: (c[i - j],) for j in range(i + 1) if c[i - j]} for i in range(6)]
        expected = [1] * 6
        for p in filter(is_prime, range(2, m + 1)):
            if m % p == 0:
                exps = local_snf(SH.Eisenstein(p, [-p, 1]), rows, 6)
                expected = [d * p**e for d, e in zip(expected, exps)]
        if repm["weights"][m]["divisors"] != expected:
            bad = bad or {"law": "multiplicative_lambda_1", "weight": m,
                          "divisors": repm["weights"][m]["divisors"], "want": expected}
    payload["multiplicative_lambda_1"] = repm["weights"][2]
    payload["symbolic_identity"] = "multiplicative_symbolic" not in failed
    return check(bad is None, payload, bad)


# ---------------------------------------------------------------------------
# sen checks


@named("sen.bokstedt.{variant}")
def check_bokstedt(cfg: RunConfig, p=None, variant="T1", D=None):
    bad = None
    payload = {}
    for pp in [p] if p else targets.BOKSTEDT_PRIMES:
        gen, scale = (2 * pp, pp) if variant == "T1" else (2, 1)
        top = D or gen * targets.BOKSTEDT_J_MAX
        rep = SH.build_line_fiber(pp, gen, scale, top)
        if rep.entry(0)["free_rank"] != 1:
            bad = bad or {"p": pp, "degree": 0, "row": rep.entry(0)}
        for j in range(1, top // gen + 1):
            d = gen * j - 1
            v = int_valuation(pp, j)
            exp = v + 1 if variant == "T1" else v
            expected = [pp**exp] if exp else []
            if rep.entry(d)["torsion"] != expected:
                bad = bad or {"p": pp, "j": j, "degree": d,
                              "got": rep.entry(d)["torsion"], "want": expected}
        payload[f"p{pp}"] = {"degrees_checked": top // gen}
    return check(bad is None, payload, bad)


@named("sen.cmn")
def check_cmn(cfg: RunConfig):
    bad = None
    payload = {}
    for p, n in targets.CMN_GRID:
        bound = 2 * p**n * targets.CMN_K_MAX
        rep = SH.build_line_fiber(p, 2 * p**n, p, bound)
        if rep.entry(0)["free_rank"] != 1:
            bad = bad or {"p": p, "n": n, "degree": 0, "row": rep.entry(0)}
        for k in range(1, targets.CMN_K_MAX + 1):
            d = 2 * k * p**n - 1
            expected = [p ** int_valuation(p, p * k)]
            if rep.entry(d)["torsion"] != expected:
                bad = bad or {"p": p, "n": n, "k": k,
                              "got": rep.entry(d)["torsion"], "want": expected}
        for row in rep.degrees:
            if row["degree"] > 0 and row["degree"] % 2 == 0:
                if row["free_rank"] or row["torsion"]:
                    bad = bad or {"even_degree": row}
        payload[f"p{p}_n{n}"] = {"k_max": targets.CMN_K_MAX}
    return check(bad is None, payload, bad)


@named("sen.perfectoid")
def check_perfectoid(cfg: RunConfig):
    bad = None
    payload = {}
    for p in targets.PERFECTOID_PRIMES:
        bound = targets.PERFECTOID_DEGREE_FACTOR * p
        out = SH.build_perfectoid_serre(p, bound)
        rep = out["homology"]
        for d in range(0, bound + 1):
            row = rep.entry(d)
            want_free = 1 if d % 2 == 0 else 0
            if row["free_rank"] != want_free or row["torsion"]:
                bad = bad or {"p": p, "degree": d, "row": row}
        for d, rank in out["kernel_ranks"].items():
            if rank != 1 or not out["surjective"][d]:
                bad = bad or {"p": p, "kernel_degree": d, "rank": rank}
        if not out["valuation_identity"]:
            bad = bad or {"p": p, "valuation_identity": False}
        payload[f"p{p}"] = {"bound": bound,
                            "kernel_degrees": sorted(out["kernel_ranks"])}
    return check(bad is None, payload, bad)


def _zpn_torsion(p, k):
    return sorted(p ** int_valuation(p, j) for j in range(1, k + 1)
                  if int_valuation(p, j) > 0)


@named("sen.zpn")
def check_zpn(cfg: RunConfig, p=targets.ZPN_P):
    if p == 2:
        return check(True, {"reason": "operator defined for odd primes only"},
                     skipped=True)
    bound = 2 * targets.ZPN_K_MAX
    reps = {}
    bad = None
    for n in targets.ZPN_NS:
        rep = reps[n] = SH.build_zpn_serre(p, n, bound)
        for k in range(1, targets.ZPN_K_MAX + 1):
            expected = _zpn_torsion(p, k)
            if rep.entry(2 * k - 1)["torsion"] != expected:
                bad = bad or {"n": n, "k": k, "got": rep.entry(2 * k - 1)["torsion"],
                              "want": expected}
        for d in range(0, bound + 1, 2):
            if rep.entry(d)["free_rank"] != 1:
                bad = bad or {"n": n, "even_degree": d}
    pair = list(targets.ZPN_NS)
    rows = [[(reps[n].entry(d)["free_rank"], reps[n].entry(d)["torsion"])
             for d in range(0, bound + 1)] for n in pair]
    if rows[0] != rows[1]:
        d = next(d for d, (a, b) in enumerate(zip(*rows)) if a != b)
        bad = bad or {"n_dependent_degree": d, "rows": [reps[n].entry(d) for n in pair]}
    return check(bad is None, {"p": p, "ns": pair, "n_independent": rows[0] == rows[1]}, bad)


@named("sen.omega2yn")
def check_omega2yn(cfg: RunConfig):
    p = targets.ZPN_P
    bound = 2 * targets.ZPN_K_MAX
    bad = None
    hom = SH.build_zpn_serre(p, 2, bound + 1)
    for n in targets.ZPN_NS:
        coh = SH.omega2yn_cohomology(p, n, bound)
        for k in range(1, targets.ZPN_K_MAX + 1):
            row = coh.entry(2 * k)
            expected = _zpn_torsion(p, k)
            if row["free_rank"] != 1 or row["torsion"] != expected:
                bad = bad or {"n": n, "k": k, "row": row, "want": expected}
            if row["torsion"] != hom.entry(2 * k - 1)["torsion"]:
                bad = bad or {"uct_mismatch_at": k, "n": n}
    return check(bad is None, {"p": p, "k_max": targets.ZPN_K_MAX}, bad)


@named("sen.dvr")
def check_dvr(cfg: RunConfig, E=None, p=3):
    """The DVR square over R = Z_(p)[u]/E(u) against its closed form.

    In degree 2j - 1 the two-step fibration leaves an extension of R/E'(pi)
    by R/j, and the known closed form is the cyclic module R/(j E'(pi)), of
    length k_j = v(j E'(pi)). The strict chain square computes it exactly
    while R/j or R/E'(pi) is zero: for j < p, and for every j when E'(pi) is
    a unit. At j = p it splits the extension but keeps its order, so the
    exponents sum to k_j. Past degree 2p - 1 the coherence data the square of
    spectra carries has no chain shadow, and those degrees are not compared.
    The fiber of the derivation alone is (R/E'(pi))^j in degree 2j - 1.
    """
    bad = None
    payload = {}
    for case in [{"p": p, "E": E}] if E else targets.DVR_CASES:
        q = case["p"]
        out = SH.build_dvr_square(q, case["E"], 2 * targets.DVR_J_MAX - 1)
        R = SH.Eisenstein(q, case["E"])
        Eprime = R.from_poly([i * c for i, c in enumerate(R.E)][1:])
        vE = out["Eprime_valuation"]
        case_bad = None
        for j in range(1, targets.DVR_J_MAX + 1):
            d = 2 * j - 1
            kj = R.val(R.mul(R.scalar(j), Eprime))
            row = out["total"].entry(d)
            if vE == 0 or j < q:
                ok = row["exponents"] == ([kj] if kj else []) and not row["free_rank"]
            else:
                ok = j > q or sum(row["exponents"]) == kj and not row["free_rank"]
            if not ok:
                case_bad = case_bad or {"case": case, "j": j, "row": row, "k_j": kj}
            nrow = out["nabla"].entry(d)
            if nrow["exponents"] != ([vE] * j if vE else []) or nrow["free_rank"]:
                case_bad = case_bad or {"case": case, "nabla_degree": d, "row": nrow}
        bad = bad or case_bad
        payload[f"p{q}_E{case['E']}"] = {"Eprime_valuation": vE,
                                         "consistent": case_bad is None}
    return check(bad is None, payload, bad)


# ---------------------------------------------------------------------------
# cartier (operator calculus) checks


def _psi_prints(p, n, m):
    """Whether the Witt components of m print within str()'s digit limit: the
    last is the largest, m^P/p^(n-1) to about one part in p^(p-1)."""
    limit, P = sys.get_int_max_str_digits(), p ** (n - 1)
    if not limit or abs(m) < 2:
        return True
    bound = 10**limit * P
    return P * (abs(m).bit_length() - 1) < bound.bit_length() and abs(m) ** P < bound


@named("cartier.psi")
def check_psi(cfg: RunConfig, m=None, p=3, n=3):
    if m is not None:
        if not _psi_prints(p, n, m):
            raise InvalidInputError(_too_long(("cartier", "psi")))
        return check(True, {"psi": list(DP.psi_eigenvalues(p, n, m))})
    bad = None
    for pp in targets.PSI_PRIMES:
        for mm in range(0, targets.PSI_M_MAX + 1):
            psi = DP.psi_eigenvalues(pp, targets.PSI_J_MAX + 1, mm)
            if not all(isinstance(c, int) for c in psi):
                bad = bad or {"p": pp, "m": mm}
            elif psi[1] != (mm - mm**pp) // pp:
                bad = bad or {"p": pp, "m": mm, "component": 1}
            elif Fraction(psi[2]) != targets.psi2_display(pp, mm):
                bad = bad or {"p": pp, "m": mm, "component": 2}
            else:  # the defining property: every ghost component of psi is m
                ghost = W.ghost_map(W.WittVector(W.WittContext(pp, len(psi)), psi))
                j = next((j for j, w in enumerate(ghost) if w != mm), None)
                if j is not None:
                    bad = bad or {"p": pp, "m": mm, "ghost_component": j}
    return check(bad is None, {"m_max": targets.PSI_M_MAX, "j_max": targets.PSI_J_MAX}, bad)


@named("cartier.psi-tensor")
def check_psi_tensor(cfg: RunConfig):
    rng = random.Random(REPORT_SEED + 1)
    bad = None
    for pp in targets.PSI_PRIMES:
        for _ in range(targets.PSI_TENSOR_SAMPLES):
            a, b = rng.randrange(-60, 61), rng.randrange(-60, 61)
            if not DP.psi_tensor_check(pp, 3, a, b):
                bad = bad or {"p": pp, "a": a, "b": b}
    return check(bad is None, {"samples": targets.PSI_TENSOR_SAMPLES}, bad)


@named("cartier.weyl")
def check_weyl(cfg: RunConfig, M=None):
    bad = None
    payload = {} if M is None else {"M": M}  # the rows are booleans only
    for p, n, bound in targets.WEYL_GRID:
        rep = DP.dp_weyl_operators(p, n, bound if M is None else M)
        for test in ("commutators", "unit_multiple"):
            k = next((k for k, good in rep[test].items() if not good), None)
            if k is not None:
                bad = bad or {"p": p, f"{test}_at": k}
        payload[f"p{p}"] = {"commutators": rep["commutators"],
                            "unit_multiple": rep["unit_multiple"]}
    return check(bad is None, payload, bad)


@named("cartier.delta")
def check_delta(cfg: RunConfig, B=targets.DELTA_RING["B"]):
    t = targets.DELTA_RING
    rep = DP.delta_ring_check(t["p"], t["n"], B, K=cfg.K)
    flags = ("phi_delta_divisible", "power_identity_divisible", "frobenius_identity")
    bad = next((row for row in rep["rows"] if not all(row[f] for f in flags)), None)
    if bad is None and (not rep["all_ok"] or len(rep["rows"]) != B + 1):
        bad = {"all_ok": rep["all_ok"], "rows": len(rep["rows"]), "want_rows": B + 1}
    return check(bad is None, rep, bad)


ALL_CHECKS = [
    check_gabber,
    check_pn_vanishing,
    check_solve_frobenius,
    check_frobenius_of_p,
    check_cartier,
    check_dwork,
    check_q_identity,
    check_honda,
    check_right_unit,
    check_b4,
    check_fderham,
    lambda cfg: check_bokstedt(cfg, variant="T1"),
    lambda cfg: check_bokstedt(cfg, variant="Jp"),
    check_cmn,
    check_perfectoid,
    check_zpn,
    check_omega2yn,
    check_dvr,
    check_psi,
    check_psi_tensor,
    check_weyl,
    check_delta,
]


def build_full_report(cfg: RunConfig) -> dict:
    return _doc(cfg, [fn(cfg) for fn in ALL_CHECKS])


# ---------------------------------------------------------------------------
# the flag table: each check, the flags it reads and their values


class Ints:
    """Integer flag values lo..hi, primes only if asked."""

    def __init__(self, lo, hi, prime=False):
        self.lo, self.hi, self.prime = lo, hi, prime

    def __call__(self, text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not self.lo <= value <= self.hi or (self.prime and not is_prime(value)):
            raise argparse.ArgumentTypeError(f"{value} is not {self}")
        return value

    def __str__(self):
        return f"{'a prime' if self.prime else 'an integer'} in [{self.lo}, {self.hi}]"


class Choice(tuple):
    """A flag that takes one of a few words."""

    def __call__(self, text):
        if text not in self:
            raise argparse.ArgumentTypeError(f"{text!r} is not {self}")
        return text

    def __str__(self):
        return "one of " + ", ".join(self)


class Polynomial:
    """-E: a monic integer polynomial as coefficients, leading first ('1,0,-3'
    is u^2 - 3); the check gets them low degree first."""

    def __init__(self, max_degree, max_coeff):
        self.max_degree, self.max_coeff = max_degree, max_coeff

    def __call__(self, text):
        try:
            coeffs = [int(c) for c in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"-E needs comma-separated integers, got {text!r}") from None
        if (not 2 <= len(coeffs) <= self.max_degree + 1
                or max(map(abs, coeffs)) > self.max_coeff):
            raise argparse.ArgumentTypeError(f"{text!r} is not {self}")
        return coeffs[::-1]

    def __str__(self):
        return (f"the coefficients, leading first, of a degree 1..{self.max_degree} "
                f"polynomial with entries in [-{self.max_coeff}, {self.max_coeff}]")


class Needs:
    """A flag that is read only when the flag `on` is given, with one of
    `values` if any are named."""

    def __init__(self, spec, on, *values):
        self.spec, self.on, self.values = spec, on, values

    def __call__(self, text):
        return self.spec(text)

    def met(self, flags):
        return self.on in flags and (not self.values or flags[self.on] in self.values)

    def __str__(self):
        return f"{self.spec}; needs {_option(self.on)} {'|'.join(self.values)}".rstrip()


PRIME = Ints(2, 97, prime=True)

# Each maximum keeps one run of its check within about 2 s on a 2-core x86
# (times in CHANGES.md). Minimums are domain limits: gabber's y has length
# L - 1 >= 1, solve-frobenius's p = 2 failure witness needs L >= 2, and
# delta's x = (q-1)^2 needs K >= 3.
CHECKS = {
    ("witt", "gabber"): {"L": Ints(2, 6)},  # L = 7 has 4300-digit components
    ("witt", "pn-vanishing"): {},
    ("witt", "solve-frobenius"): {"L": Ints(2, 8)},
    ("witt", "frobenius-of-p"): {},
    ("witt", "cartier"): {},
    ("witt", "dwork"): {},
    ("fgl", "nseries"): {"kind": Choice(("additive", "multiplicative", "honda")),
                         "m": Ints(-100, 100),
                         "D": Needs(Ints(1, 40), "kind", "multiplicative", "honda"),
                         "p": Needs(PRIME, "kind", "honda"),
                         "n": Needs(Ints(1, 6), "kind", "honda")},
    ("fgl", "q-identity"): {"n_max": Ints(1, 60)},
    ("fgl", "honda"): {},
    ("fgl", "right-unit"): {},
    ("fgl", "b4"): {},
    ("fgl", "fderham"): {},
    ("sen", "bokstedt"): {"p": PRIME, "D": Ints(1, 10000),
                          "variant": Choice(("T1", "Jp"))},
    ("sen", "cmn"): {},
    ("sen", "perfectoid"): {},
    ("sen", "zpn"): {"p": PRIME},
    ("sen", "omega2yn"): {},
    # the extension degree 2p - 1 must lie within the 2 * DVR_J_MAX - 1 checked
    ("sen", "dvr"): {"E": Polynomial(12, 10**6),
                     "p": Needs(Ints(2, targets.DVR_J_MAX, prime=True), "E")},
    ("cartier", "psi"): {"m": Ints(-1000, 1000),
                         "p": Needs(Ints(2, 11, prime=True), "m"),
                         "n": Needs(Ints(1, 6), "m")},
    ("cartier", "psi-tensor"): {},
    ("cartier", "weyl"): {"M": Ints(0, 200)},
    ("cartier", "delta"): {"B": Ints(0, 4), "K": Ints(3, 20)},
    ("report",): {"L": Ints(2, 6), "K": Ints(3, 20)},
}
COMMAND_HELP = {
    "witt": "Witt-vector identity suite",
    "fgl": "formal group law suite",
    "sen": "homology builders",
    "cartier": "operator calculus",
    "report": "full named-check suite",
}


def _option(flag):
    return f"-{flag}" if len(flag) == 1 else "--" + flag.replace("_", "-")


@functools.cache
def _parser():
    """The argparse tree of CHECKS, built on the first main() call, and each
    check's subparser by key. A check's namespace holds only the flags given."""
    parser = argparse.ArgumentParser(
        prog="wittsen",
        description="exact identity checks for truncated Witt vectors, "
                    "formal group laws and divided-power operator complexes",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups, subparsers = {}, {}
    for key, flags in CHECKS.items():
        if len(key) == 1:
            sp = commands.add_parser(key[0], help=COMMAND_HELP[key[0]],
                                     argument_default=argparse.SUPPRESS)
        else:
            if key[0] not in groups:
                groups[key[0]] = commands.add_parser(
                    key[0], help=COMMAND_HELP[key[0]]).add_subparsers(
                        dest="check", required=True)
            sp = groups[key[0]].add_parser(key[1], argument_default=argparse.SUPPRESS)
        subparsers[key] = sp
        for flag, spec in flags.items():
            sp.add_argument(_option(flag), dest=flag, type=spec, help=str(spec))
        if flags:
            sp.add_argument("--config", help="file of 'flag = value' lines")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("-o", "--output")
    return parser, subparsers


def _too_long(key):
    lower = ", ".join(_option(f) for f, spec in CHECKS[key].items()
                      if not isinstance(spec, Choice))
    return f"the result has integers too long to print; lower {lower}"


def _read_config_file(path, flags):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in flags:
                raise InvalidInputError(
                    f"config key {key!r} is not a flag of this check "
                    f"(its flags: {', '.join(flags)})")
            try:
                out[key] = flags[key](value)
            except argparse.ArgumentTypeError as exc:
                raise InvalidInputError(f"config {key}: {exc}") from None
    return out


def _emit(doc: dict, cfg: RunConfig) -> int:
    if cfg.fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{doc['tool']} {doc['version']}  config={doc['config']}"]
        for row in doc["checks"]:
            lines.append(f"[{row['status']:>7}] {row['name']}")
            payload = row.get("payload")
            if payload is not None:
                compact = json.dumps(payload, sort_keys=True)
                if len(compact) <= 300:
                    lines.append(f"          {compact}")
            if row["status"] == "fail" and "counterexample" in row:
                lines.append(f"          counterexample: {row['counterexample']}")
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r["status"] != "fail" for r in doc["checks"]) else 1


def _doc(cfg, checks):
    return {
        "tool": "wittsen",
        "version": __version__,
        "config": cfg.echo(),
        "checks": checks,
    }


def main(argv=None) -> int:
    parser, subparsers = _parser()
    flags = vars(parser.parse_args(argv))
    key = tuple(flags.pop(k) for k in ("command", "check") if k in flags)
    error = subparsers[key].error  # usage errors name the check, as argparse's do
    fmt = "json" if flags.pop("json", False) else "text"
    out = flags.pop("output", None)
    table = CHECKS[key]
    try:
        if "config" in flags:
            flags = {**_read_config_file(flags.pop("config"), table), **flags}
        for flag, spec in table.items():
            if flag in flags and isinstance(spec, Needs) and not spec.met(flags):
                raise InvalidInputError(f"{_option(flag)}: {spec}")
    except (InvalidInputError, OSError, UnicodeDecodeError) as exc:
        error(str(exc))

    # -L and -K reach their checks through cfg, as in the report; every other
    # flag is a keyword argument of its check. Checks are looked up by name at
    # call time, like build_full_report.
    cfg = RunConfig(fmt=fmt, out=out,
                    **{k: v for k, v in flags.items() if k in ("p", "L", "D", "K")})
    try:
        if key == ("report",):
            doc = build_full_report(cfg)
        else:
            fn = globals()["check_" + key[1].replace("-", "_")]
            row = fn(cfg, **{k: v for k, v in flags.items() if k not in ("L", "K")})
            doc = _doc(cfg, [row])
    except (InvalidInputError, PrecisionError) as exc:
        error(str(exc))
    try:
        return _emit(doc, cfg)
    except ValueError:  # an integer past str()'s digit limit
        error(_too_long(key))
    except OSError as exc:
        error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
