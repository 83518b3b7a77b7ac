"""Command-line surface: named checks over the witt / fgl / dpops / senhom
modules, emitted as deterministic text or JSON reports.

Exit codes: 0 all pass (or skipped), 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, targets
from .exactalg import (
    IntMatrix,
    InvalidInputError,
    PrecisionError,
    int_valuation,
    is_prime,
    smith_normal_form,
)
from . import witt as W
from . import fgl as FG
from . import dpops as DP
from . import senhom as SH

DEFAULTS = {"p": 3, "N": 12, "L": 6, "D": 40, "K": 18}
REPORT_SEED = 74207281


@dataclass
class RunConfig:
    p: int = 3
    N: int = 12
    L: int = 6
    D: int = 40
    K: int = 18
    fmt: str = "text"
    out: str = None
    extra: dict = field(default_factory=dict)

    def validate(self):
        if not is_prime(self.p):
            raise InvalidInputError(f"{self.p} is not prime")
        for name in ("N", "L", "D", "K"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")

    def echo(self):
        return {"p": self.p, "N": self.N, "L": self.L, "D": self.D, "K": self.K}


def jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, SH.HomologyReport):
        return jsonable(x.to_json_dict())
    if hasattr(x, "terms"):
        return repr(x)
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    return repr(x)


def check(name, ok, payload=None, counterexample=None, skipped=False):
    status = "skipped" if skipped else ("pass" if ok else "fail")
    row = {"name": name, "status": status}
    if payload is not None:
        row["payload"] = jsonable(payload)
    if status == "fail" and counterexample is not None:
        row["counterexample"] = jsonable(counterexample)
    return row


# ---------------------------------------------------------------------------
# witt checks


def check_gabber(cfg: RunConfig):
    rows = []
    for p in targets.GABBER_PRIMES:
        rep = W.check_gabber_identity(p, cfg.L)
        rows.append(rep)
    small_ok = all(
        W.gabber_y(p, L).components == comps
        for (p, L), comps in targets.GABBER_Y_SMALL.items()
    )
    ok = all(r["holds"] for r in rows) and small_ok
    bad = next((r for r in rows if not r["holds"]), None)
    return check("witt.gabber", ok, {"cases": rows, "small_values_ok": small_ok}, bad)


def check_pn_vanishing(cfg: RunConfig):
    rows = [W.check_pn_vanishing(p, n, targets.PN_VANISHING_LENGTH)
            for p, n in targets.PN_VANISHING_GRID]
    ok = all(r["holds"] for r in rows)
    return check("witt.pn-vanishing", ok, {"cases": rows},
                 next((r for r in rows if not r["holds"]), None))


def check_solve_frobenius(cfg: RunConfig):
    payload = {}
    ok = True
    for p in targets.FROBENIUS_PREIMAGE_ODD:
        res = W.solve_frobenius(W.gabber_y(p, cfg.L))
        good = (res.success and res.side_conditions["x0_mod_p"] == 1
                and res.side_conditions["higher_components_div_p"]
                and res.side_conditions["ghost_all_one_mod_p"])
        payload[f"p{p}"] = {"success": res.success,
                            "side_conditions": res.side_conditions}
        ok = ok and good
    res2 = W.solve_frobenius(W.gabber_y(2, cfg.L))
    wit = targets.FROBENIUS_PREIMAGE_FAIL_WITNESS
    fail_ok = (not res2.success
               and res2.stage == targets.FROBENIUS_PREIMAGE_FAIL_STAGE
               and res2.witness["lhs_coefficient"] == wit["lhs_coefficient"]
               and res2.witness["rhs_balanced"] == wit["rhs_balanced"]
               and res2.witness["modulus"] == wit["modulus"])
    payload["p2"] = {"stage": res2.stage, "witness": res2.witness}
    ok = ok and fail_ok
    for m in targets.FROBENIUS_PREIMAGE_TEICH_POWERS:
        ctx = W.WittContext(2, cfg.L)
        y = W.witt_mul(W.gabber_y(2, cfg.L), W.teichmuller(2**m, ctx))
        res3 = W.solve_frobenius(y)
        good = res3.success and res3.side_conditions["all_components_div_p"]
        payload[f"p2_teich_{m}"] = {"success": res3.success,
                                    "all_components_div_p":
                                    res3.side_conditions["all_components_div_p"]
                                    if res3.success else None}
        ok = ok and good
    return check("witt.solve-frobenius", ok, payload)


def check_frobenius_of_p(cfg: RunConfig):
    rows = [W.frobenius_of_p_identity(p, 4) for p in (2, 3, 5)]
    ok = all(
        r["holds_p_to_p"] and (r["holds_p_squared"] == (r["p"] == 2))
        and r["frobenius_fixes_integers"]
        for r in rows
    )
    return check("witt.frobenius-of-p", ok, {"cases": rows},
                 next((r for r in rows if not r["holds_p_to_p"]), None))


def _valid_ghost_tuple(rng, p, n, spread=20):
    a = [0] * n
    a[n - 1] = p**n * rng.randrange(-spread, spread + 1)
    for m in range(n - 2, -1, -1):
        a[m] = a[m + 1] + p ** (m + 1) * rng.randrange(-spread, spread + 1)
    return a


def check_cartier(cfg: RunConfig):
    rng = random.Random(REPORT_SEED)
    ok = True
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
            if not good and bad is None:
                bad = {"p": p, "a": a, "x": x, "xprime": xp, "report": rep}
            ok = ok and good
            count += 1
    return check("witt.cartier", ok, {"samples": count}, bad)


def check_dwork(cfg: RunConfig):
    D = targets.DWORK_DEGREE
    cases = {
        "all_minus_one": [-1] * D,
        "zero": [0] * D,
        "two_geometric": [-2 - 2**nn for nn in range(1, D + 1)],
    }
    payload = {}
    ok = True
    for name, xs in cases.items():
        rep = W.dwork_factorization(xs, D)
        payload[name] = rep
        ok = ok and rep["reconstructs"]
    ok = ok and payload["all_minus_one"]["r"] == [1] + [0] * (D - 1)
    ok = ok and payload["zero"]["r"] == [0] * D
    return check("witt.dwork", ok, payload)


# ---------------------------------------------------------------------------
# fgl checks


def check_q_identity(cfg: RunConfig, n_max=None):
    if n_max is None:
        n_max = targets.Q_IDENTITY_MAX
    elif n_max < 1:
        raise InvalidInputError("--n-max must be >= 1")
    F = FG.fgl_construct("multiplicative", n_max + 1, lam="lam")
    bad = None
    for m in range(1, n_max + 1):
        lhs = FG.divided_n_series(F, m)
        if lhs != FG.q_integer(m, "lam", lhs.ring):
            bad = {"m": m}
            break
    return check("fgl.q-identity", bad is None, {"n_max": n_max}, bad)


def check_honda(cfg: RunConfig):
    rows = []
    ok = True
    for p, n, m in targets.HONDA_GRID:
        data = FG.honda_pm_divided_series(p, n, m)
        rows.append({"p": p, "n": n, "m": m,
                     "v_exponent": data["v_exponent"],
                     "h_exponent": data["h_exponent"],
                     "ok": data["matches_closed_form"]})
        ok = ok and data["matches_closed_form"]
    return check("fgl.honda", ok, {"cases": rows},
                 next((r for r in rows if not r["ok"]), None))


def check_right_unit(cfg: RunConfig):
    payload = {}
    ok = True
    for p in (2, 3):
        eta = FG.bp_right_unit(p, 2)
        ring = eta[1].ring
        v1 = FG.TruncPoly.var(ring, "v1")
        t1 = FG.TruncPoly.var(ring, "t1")
        ok = ok and eta[1] == v1 + p * t1
        payload[f"eta_v1_p{p}"] = repr(eta[1])
    eta = FG.bp_right_unit(2, 2)
    ring = eta[1].ring
    v1, v2 = FG.TruncPoly.var(ring, "v1"), FG.TruncPoly.var(ring, "v2")
    t1, t2 = FG.TruncPoly.var(ring, "t1"), FG.TruncPoly.var(ring, "t2")
    combo = (eta[1] ** 2 - v1**2).map_coeffs(lambda c: Fraction(c, 4))
    ok = ok and combo == t1**2 + v1 * t1
    expected_v2 = v2 - 5 * v1 * t1**2 - 3 * v1**2 * t1 + 2 * t2 - 4 * t1**3
    ok = ok and eta[2] == expected_v2
    payload["eta_v2_p2"] = repr(eta[2])
    payload["quarter_combination"] = repr(combo)
    return check("fgl.right-unit", ok, payload)


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
    ok = exact and homogeneous
    payload = {"polynomial": repr(b4), "exact_match": exact,
               "sign_flipped_match": sign_flipped, "homogeneous": homogeneous}
    return check("fgl.b4", ok, payload)


def check_fderham(cfg: RunConfig):
    ok = True
    payload = {}
    F = FG.fgl_construct("additive", 8)
    rep = SH.fderham_cohomology(FG.f_derham_complex(F, 5, 6))
    for m in range(1, 6):
        ok = ok and rep["weights"][m]["divisors"] == [m] * 6
    payload["additive"] = rep["weights"][3]
    Fm = FG.fgl_construct("multiplicative", 8, lam=1)
    repm = SH.fderham_cohomology(FG.f_derham_complex(Fm, 4, 6))
    ring = Fm.series_ring("h", 6)
    for m in range(1, 5):
        mat = SH.multiplication_matrix(FG.q_integer(m, 1, ring), 6)
        expected = [abs(d) for d in smith_normal_form(IntMatrix.from_rows(mat)).divisors]
        ok = ok and repm["weights"][m]["divisors"] == expected
    payload["multiplicative_lambda_1"] = repm["weights"][2]
    Fs = FG.fgl_construct("multiplicative", 8, lam="lam")
    reps = SH.fderham_cohomology(FG.f_derham_complex(Fs, 4, 6))
    for m in range(1, 5):
        ok = ok and reps["weights"][m]["equals_q_integer"]
    payload["symbolic_identity"] = True
    return check("fgl.fderham", ok, payload)


# ---------------------------------------------------------------------------
# sen checks


def check_bokstedt(cfg: RunConfig, p=None, variant="T1", bound=None):
    ps = [p] if p else list(targets.BOKSTEDT_PRIMES)
    ok = True
    bad = None
    payload = {}
    for pp in ps:
        gen = 2 * pp if variant == "T1" else 2
        top = bound or gen * targets.BOKSTEDT_J_MAX
        rep = SH.build_bokstedt(pp, variant, top)
        good = rep.entry(0)["free_rank"] == 1
        for j in range(1, top // gen + 1):
            d = gen * j - 1
            v = int_valuation(pp, j)
            exp = v + 1 if variant == "T1" else v
            expected = [pp**exp] if exp else []
            if rep.entry(d)["torsion"] != expected:
                good = False
                if bad is None:
                    bad = {"p": pp, "j": j, "degree": d,
                           "got": rep.entry(d)["torsion"], "want": expected}
        payload[f"p{pp}"] = {"degrees_checked": top // gen}
        ok = ok and good
    return check(f"sen.bokstedt.{variant}", ok, payload, bad)


def check_cmn(cfg: RunConfig):
    ok = True
    bad = None
    payload = {}
    for p, n in targets.CMN_GRID:
        bound = 2 * p**n * targets.CMN_K_MAX
        rep = SH.build_serre_cmn(p, n, bound)
        good = rep.entry(0)["free_rank"] == 1
        for k in range(1, targets.CMN_K_MAX + 1):
            d = 2 * k * p**n - 1
            expected = [p ** int_valuation(p, p * k)]
            if rep.entry(d)["torsion"] != expected:
                good = False
                if bad is None:
                    bad = {"p": p, "n": n, "k": k,
                           "got": rep.entry(d)["torsion"], "want": expected}
        for row in rep.degrees:
            if row["degree"] > 0 and row["degree"] % 2 == 0:
                if row["free_rank"] or row["torsion"]:
                    good = False
                    bad = bad or {"even_degree": row}
        payload[f"p{p}_n{n}"] = {"k_max": targets.CMN_K_MAX}
        ok = ok and good
    return check("sen.cmn", ok, payload, bad)


def check_perfectoid(cfg: RunConfig):
    ok = True
    bad = None
    payload = {}
    for p in targets.PERFECTOID_PRIMES:
        bound = targets.PERFECTOID_DEGREE_FACTOR * p
        out = SH.build_perfectoid_serre(p, bound)
        rep = out["homology"]
        good = True
        for d in range(0, bound + 1):
            row = rep.entry(d)
            want_free = 1 if d % 2 == 0 else 0
            if row["free_rank"] != want_free or row["torsion"]:
                good = False
                if bad is None:
                    bad = {"p": p, "degree": d, "row": row}
        for d, rank in out["kernel_ranks"].items():
            if rank != 1 or not out["surjective"][d]:
                good = False
                if bad is None:
                    bad = {"p": p, "kernel_degree": d, "rank": rank}
        payload[f"p{p}"] = {"bound": bound,
                            "kernel_degrees": sorted(out["kernel_ranks"])}
        ok = ok and good
    return check("sen.perfectoid", ok, payload, bad)


def check_zpn(cfg: RunConfig, p=None):
    p = p or targets.ZPN_P
    if p == 2:
        return check("sen.zpn", True,
                     {"reason": "operator defined for odd primes only"},
                     skipped=True)
    bound = 2 * targets.ZPN_K_MAX
    reps = {}
    ok = True
    bad = None
    for n in targets.ZPN_NS:
        rep = SH.build_zpn_serre(p, n, bound)
        reps[n] = rep
        for k in range(1, targets.ZPN_K_MAX + 1):
            d = 2 * k - 1
            expected = sorted(
                p ** int_valuation(p, j)
                for j in range(1, k + 1)
                if int_valuation(p, j) > 0
            )
            if rep.entry(d)["torsion"] != expected:
                ok = False
                bad = bad or {"n": n, "k": k, "got": rep.entry(d)["torsion"],
                              "want": expected}
        for d in range(0, bound + 1, 2):
            if rep.entry(d)["free_rank"] != 1:
                ok = False
                bad = bad or {"n": n, "even_degree": d}
    pair = list(targets.ZPN_NS)
    same = all(
        reps[pair[0]].entry(d)["torsion"] == reps[pair[1]].entry(d)["torsion"]
        and reps[pair[0]].entry(d)["free_rank"] == reps[pair[1]].entry(d)["free_rank"]
        for d in range(0, bound + 1)
    )
    ok = ok and same
    return check("sen.zpn", ok, {"p": p, "ns": pair, "n_independent": same}, bad)


def check_omega2yn(cfg: RunConfig):
    p = targets.ZPN_P
    bound = 2 * targets.ZPN_K_MAX
    ok = True
    bad = None
    hom = SH.build_zpn_serre(p, 2, bound + 1)
    for n in targets.ZPN_NS:
        coh = SH.omega2yn_cohomology(p, n, bound)
        for k in range(1, targets.ZPN_K_MAX + 1):
            row = coh.entry(2 * k)
            expected = sorted(
                p ** int_valuation(p, j)
                for j in range(1, k + 1)
                if int_valuation(p, j) > 0
            )
            if row["free_rank"] != 1 or row["torsion"] != expected:
                ok = False
                bad = bad or {"n": n, "k": k, "row": row, "want": expected}
            if row["torsion"] != hom.entry(2 * k - 1)["torsion"]:
                ok = False
                bad = bad or {"uct_mismatch_at": k, "n": n}
    return check("sen.omega2yn", ok, {"p": p, "k_max": targets.ZPN_K_MAX}, bad)


def check_dvr(cfg: RunConfig, E=None, p=None):
    cases = [{"p": p, "E": E}] if E else targets.DVR_CASES
    ok = True
    bad = None
    payload = {}
    for case in cases:
        desc = SH.DVRDescriptor(case["p"], cfg.N, case["E"])
        bound = 2 * targets.DVR_J_MAX - 1
        out = SH.build_dvr_square(desc, bound)
        R = desc.ring()
        vE = out["Eprime_valuation"]
        good = out["consistent"]
        nab = out["nabla"]
        for j in range(1, targets.DVR_J_MAX + 1):
            d = 2 * j - 1
            if d > bound:
                break
            row = out["total"].entry(d)
            kj = R.val(R.mul(R.scalar(j), R.from_poly(
                [i * c for i, c in enumerate(R.E)][1:])))
            if row.get("r_divisors") != ([kj] if kj else []) or not row.get("cyclic"):
                good = False
                bad = bad or {"case": case, "j": j, "row": row}
            nrow = nab.entry(d)
            want_nab = [vE] * j if vE else []
            if nrow.get("exponents", []) != want_nab:
                good = False
                bad = bad or {"case": case, "nabla_degree": d, "row": nrow}
        row_ext = out["total"].entry(2 * case["p"] - 1)
        if not row_ext.get("extension_order_check"):
            good = False
            bad = bad or {"case": case, "extension_degree": 2 * case["p"] - 1}
        payload[f"p{case['p']}_E{case['E']}"] = {
            "Eprime_valuation": vE,
            "consistent": out["consistent"],
        }
        ok = ok and good
    return check("sen.dvr", ok, payload, bad)


# ---------------------------------------------------------------------------
# cartier (operator calculus) checks


def check_psi(cfg: RunConfig, p=None, n=None, m=None):
    if m is not None:
        psi = DP.psi_eigenvalues(p or cfg.p, 3 if n is None else n, m)
        return check("cartier.psi", True, {"psi": list(psi)})
    ok = True
    bad = None
    for pp in targets.PSI_PRIMES:
        for mm in range(0, targets.PSI_M_MAX + 1):
            psi = DP.psi_eigenvalues(pp, targets.PSI_J_MAX + 1, mm)
            if not all(isinstance(c, int) for c in psi):
                ok, bad = False, {"p": pp, "m": mm}
                break
            if psi[1] != (mm - mm**pp) // pp:
                ok, bad = False, {"p": pp, "m": mm, "component": 1}
                break
            if Fraction(psi[2]) != targets.psi2_display(pp, mm):
                ok, bad = False, {"p": pp, "m": mm, "component": 2}
                break
    return check("cartier.psi", ok,
                 {"m_max": targets.PSI_M_MAX, "j_max": targets.PSI_J_MAX}, bad)


def check_psi_tensor(cfg: RunConfig):
    rng = random.Random(REPORT_SEED + 1)
    ok = True
    bad = None
    for pp in targets.PSI_PRIMES:
        for _ in range(targets.PSI_TENSOR_SAMPLES):
            a, b = rng.randrange(-60, 61), rng.randrange(-60, 61)
            if not DP.psi_tensor_check(pp, 3, a, b):
                ok, bad = False, {"p": pp, "a": a, "b": b}
                break
    return check("cartier.psi-tensor", ok,
                 {"samples": targets.PSI_TENSOR_SAMPLES}, bad)


def check_weyl(cfg: RunConfig, M=None):
    ok = True
    bad = None
    payload = {}
    for p, n, bound in targets.WEYL_GRID:
        if M is not None:
            bound = M
        rep = DP.dp_weyl_operators(p, n, bound)
        for k, good in rep["commutators"].items():
            if not good:
                ok, bad = False, {"p": p, "commutator_at": k}
        for k, good in rep["unit_multiple"].items():
            if not good:
                ok, bad = False, {"p": p, "unit_multiple_at": k}
        payload[f"p{p}"] = {"commutators": rep["commutators"],
                            "unit_multiple": rep["unit_multiple"]}
    return check("cartier.weyl", ok, payload, bad)


def check_delta(cfg: RunConfig, B=None):
    t = targets.DELTA_RING
    if B is None:
        B = t["B"]
    elif B < 0:
        raise InvalidInputError("B must be >= 0")
    rep = DP.delta_ring_check(t["p"], t["n"], B, K=cfg.K, N=cfg.N)
    return check("cartier.delta", rep["all_ok"], rep,
                 None if rep["all_ok"] else rep["rows"])


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
# argument plumbing


def _read_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def _make_config(args) -> RunConfig:
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        for k in DEFAULTS:
            if k in file_values:
                values[k] = int(file_values[k])
    for k in DEFAULTS:
        flag = getattr(args, k, None)
        if flag is not None:
            values[k] = flag
    cfg = RunConfig(**values)
    cfg.fmt = "json" if getattr(args, "json", False) else "text"
    cfg.out = getattr(args, "output", None)
    cfg.validate()
    return cfg


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


def _add_common(sp):
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-N", type=int, default=None)
    sp.add_argument("-L", type=int, default=None)
    sp.add_argument("-D", type=int, default=None)
    sp.add_argument("-K", type=int, default=None)
    sp.add_argument("--config", default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--text", action="store_true")
    sp.add_argument("-o", "--output", default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wittsen",
        description="exact identity checks for truncated Witt vectors, "
                    "formal group laws and divided-power operator complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witt_p = sub.add_parser("witt", help="Witt-vector identity suite")
    witt_p.add_argument("subcheck", choices=[
        "gabber", "pn-vanishing", "solve-frobenius", "frobenius-of-p",
        "cartier", "dwork"])
    _add_common(witt_p)

    fgl_p = sub.add_parser("fgl", help="formal group law suite")
    fgl_p.add_argument("subcheck", choices=[
        "nseries", "q-identity", "honda", "right-unit", "b4", "fderham"])
    fgl_p.add_argument("--kind", default="additive",
                       choices=["additive", "multiplicative", "honda"])
    fgl_p.add_argument("-m", type=int, default=None)
    fgl_p.add_argument("-n", type=int, default=None)
    fgl_p.add_argument("--n-max", type=int, default=None)
    _add_common(fgl_p)

    sen_p = sub.add_parser("sen", help="homology builders")
    sen_p.add_argument("builder", choices=[
        "bokstedt", "cmn", "perfectoid", "zpn", "omega2yn", "dvr"])
    sen_p.add_argument("--variant", default="T1", choices=["T1", "Jp"])
    sen_p.add_argument("-E", default=None,
                       help="monic polynomial coefficients, leading first, "
                            "e.g. '1,0,-3' for u^2 - 3")
    sen_p.add_argument("-n", type=int, default=None)
    _add_common(sen_p)

    car_p = sub.add_parser("cartier", help="operator calculus")
    car_p.add_argument("subcheck", choices=["psi", "psi-tensor", "weyl", "delta"])
    car_p.add_argument("-m", type=int, default=None)
    car_p.add_argument("-n", type=int, default=None)
    car_p.add_argument("-M", type=int, default=None)
    car_p.add_argument("-B", type=int, default=None)
    _add_common(car_p)

    rep_p = sub.add_parser("report", help="full named-check suite")
    _add_common(rep_p)

    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
    except (InvalidInputError, ValueError, OSError) as exc:
        parser.error(str(exc))

    try:
        if args.command == "witt":
            fn = {
                "gabber": check_gabber,
                "pn-vanishing": check_pn_vanishing,
                "solve-frobenius": check_solve_frobenius,
                "frobenius-of-p": check_frobenius_of_p,
                "cartier": check_cartier,
                "dwork": check_dwork,
            }[args.subcheck]
            return _emit(_doc(cfg, [fn(cfg)]), cfg)

        if args.command == "fgl":
            if args.subcheck == "nseries":
                m = args.m if args.m is not None else 2
                if args.kind == "honda":
                    F = FG.fgl_construct("honda", max(8, cfg.D // 4),
                                         p=cfg.p, n=1 if args.n is None else args.n)
                elif args.kind == "multiplicative":
                    F = FG.fgl_construct("multiplicative", min(cfg.D, abs(m) + 2),
                                         lam="lam")
                else:
                    F = FG.fgl_construct("additive", min(cfg.D, abs(m) + 2))
                series = FG.n_series(F, m)
                row = check("fgl.nseries", True,
                            {"kind": args.kind, "m": m, "series": repr(series)})
                return _emit(_doc(cfg, [row]), cfg)
            fn = {
                "q-identity": lambda c: check_q_identity(c, args.n_max),
                "honda": check_honda,
                "right-unit": check_right_unit,
                "b4": check_b4,
                "fderham": check_fderham,
            }[args.subcheck]
            return _emit(_doc(cfg, [fn(cfg)]), cfg)

        if args.command == "sen":
            if args.builder == "bokstedt":
                row = check_bokstedt(cfg, p=cfg.p if args.p else None,
                                     variant=args.variant,
                                     bound=cfg.D if args.D else None)
            elif args.builder == "cmn":
                row = check_cmn(cfg)
            elif args.builder == "perfectoid":
                row = check_perfectoid(cfg)
            elif args.builder == "zpn":
                row = check_zpn(cfg, p=cfg.p if args.p else None)
            elif args.builder == "omega2yn":
                row = check_omega2yn(cfg)
            else:
                if args.E:
                    try:
                        coeffs = [int(c) for c in args.E.split(",")]
                    except ValueError:
                        raise InvalidInputError(
                            f"-E needs comma-separated integers, got {args.E!r}") from None
                    low_first = list(reversed(coeffs))
                    row = check_dvr(cfg, E=low_first, p=cfg.p)
                else:
                    row = check_dvr(cfg)
            return _emit(_doc(cfg, [row]), cfg)

        if args.command == "cartier":
            if args.subcheck == "psi":
                row = check_psi(cfg, p=cfg.p, n=args.n, m=args.m)
            elif args.subcheck == "psi-tensor":
                row = check_psi_tensor(cfg)
            elif args.subcheck == "weyl":
                row = check_weyl(cfg, M=args.M)
            else:
                row = check_delta(cfg, B=args.B)
            return _emit(_doc(cfg, [row]), cfg)

        if args.command == "report":
            return _emit(build_full_report(cfg), cfg)
    except (InvalidInputError, PrecisionError) as exc:
        parser.error(str(exc))
    return 2


if __name__ == "__main__":
    sys.exit(main())
