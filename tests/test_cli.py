import copy
import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import wittsen.cli as cli
import wittsen.targets as targets
from wittsen.cli import main
from wittsen.exactalg import IdentityError, TruncPoly


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# exit codes and flags

def test_gabber_pass(capsys):
    code, out = run_main(["witt", "gabber", "-L", "5"], capsys)
    assert code == 0
    assert "witt.gabber" in out and "pass" in out


def test_usage_error_nonprime():
    with pytest.raises(SystemExit) as e:
        main(["sen", "zpn", "-p", "4"])
    assert e.value.code == 2


def test_usage_error_bad_flag():
    with pytest.raises(SystemExit) as e:
        main(["witt", "gabber", "--no-such-flag"])
    assert e.value.code == 2


def test_zpn_p2_skipped(capsys):
    code, out = run_main(["sen", "zpn", "-p", "2"], capsys)
    assert code == 0
    assert "skipped" in out


def test_solve_frobenius_failure_reported_as_pass(capsys):
    code, out = run_main(["witt", "solve-frobenius"], capsys)
    assert code == 0


def test_psi_values(capsys):
    code, out = run_main(
        ["cartier", "psi", "-p", "2", "-n", "3", "-m", "3", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["payload"]["psi"] == [3, -3, -24]


def test_psi_zero(capsys):
    code, out = run_main(
        ["cartier", "psi", "-p", "2", "-n", "2", "-m", "0", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["checks"][0]["payload"]["psi"] == [0, 0]


def test_nseries_additive(capsys):
    code, out = run_main(
        ["fgl", "nseries", "--kind", "additive", "-m", "7", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["checks"][0]["payload"]["series"] == "7*x"


def test_honda_nseries_is_built_at_its_degree(capsys):
    # [2](x) of the height-1 law at p = 3 is 2x + v x^3 + ...: truncated at
    # degree 1 it is 2x, at degree 35 it is not
    series = {}
    for D in ("1", "35"):
        code, out = run_main(["fgl", "nseries", "--kind", "honda", "-D", D, "--json"],
                             capsys)
        assert code == 0
        series[D] = json.loads(out)["checks"][0]["payload"]["series"]
    assert series["1"] == "2*x"
    assert series["35"].startswith("2*x + x^3*v")


def test_dvr_flag_parsing(capsys):
    code, out = run_main(
        ["sen", "dvr", "-p", "3", "-E", "1,0,-3", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "pass"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _ = run_main(["witt", "dwork", "--json", "-o", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["checks"][0]["name"] == "witt.dwork"


# ---------------------------------------------------------------------------
# config file precedence

def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 5\nD = 30  # comment\n")
    code, out = run_main(
        ["sen", "bokstedt", "--config", str(cfgfile), "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["config"]["p"] == 5 and doc["config"]["D"] == 30
    assert doc["checks"][0]["payload"] == {"p5": {"degrees_checked": 3}}
    code, out = run_main(
        ["sen", "bokstedt", "--config", str(cfgfile), "-p", "2", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["config"]["p"] == 2 and doc["config"]["D"] == 30
    assert doc["checks"][0]["payload"] == {"p2": {"degrees_checked": 7}}
    cfgfile.write_text("p = 5\nL = 4\n")  # sen bokstedt reads no L
    with pytest.raises(SystemExit) as e:
        main(["sen", "bokstedt", "--config", str(cfgfile)])
    assert e.value.code == 2
    assert "'L'" in capsys.readouterr().err


def test_config_file_that_is_not_text_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "bin.cfg"
    cfgfile.write_bytes(b"\xff\xfe\x00bad = 1\n")
    with pytest.raises(SystemExit) as e:
        main(["witt", "gabber", "--config", str(cfgfile)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "wittsen witt gabber: error:" in err and "Traceback" not in err


def test_delta_B0_runs_one_row(capsys):
    code, out = run_main(["cartier", "delta", "-B", "0", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)["checks"][0]["payload"]
    assert payload["B"] == 0
    assert [row["k"] for row in payload["rows"]] == [0]


@pytest.mark.parametrize("flags", [["-B", "-1"], ["-K", "2"]])
def test_delta_bad_flags_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as e:
        main(["cartier", "delta", *flags])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sen", "dvr", "-E", "1,x,-3"],
    ["report", "--config", "/nonexistent/run.cfg"],
    ["cartier", "psi", "-n", "0", "-m", "5"],
    ["fgl", "q-identity", "--n-max", "0"],
    ["fgl", "nseries", "--kind", "honda", "-n", "0"],
    ["cartier", "weyl", "-M", "-1"],
    # flags the check does not read
    ["fgl", "right-unit", "-p", "5"],
    ["sen", "cmn", "-n", "7"],
    ["witt", "dwork", "--text"],
    ["report", "-p", "5"],
    ["report", "-N", "20"],
    ["fgl", "nseries", "-D", "20"],
    # flags read only together with another
    ["sen", "dvr", "-p", "5"],
    ["cartier", "psi", "-p", "5"],
    ["fgl", "nseries", "-p", "5"],
    # out of the domain or past the maximum
    ["witt", "solve-frobenius", "-L", "1"],
    ["report", "-L", "1"],
    ["cartier", "weyl", "-M", "100000000"],
    ["sen", "dvr", "-p", "11", "-E", "1,11"],
    ["witt", "dwork", "-o", "/nonexistent/out.json"],
])
def test_bad_input_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_weyl_M0_is_honoured(capsys, monkeypatch):
    import wittsen.dpops as dpops

    bounds = []
    real = dpops.dp_weyl_operators

    def recording(p, n, M):
        bounds.append(M)
        return real(p, n, M)

    monkeypatch.setattr(dpops, "dp_weyl_operators", recording)
    code, _ = run_main(["cartier", "weyl", "-M", "0"], capsys)
    assert code == 0
    assert bounds and set(bounds) == {0}


def test_honda_raising_p_series_is_a_fail_row(capsys, monkeypatch):
    import wittsen.fgl as fgl

    def raising(p, n, bound):
        raise IdentityError("honda p-series is not v*x^(p^n)", where={"p": 2, "n": 1})

    monkeypatch.setattr(fgl, "honda_p_series", raising)
    code, out = run_main(["fgl", "honda", "--json"], capsys)
    assert code == 1
    row = json.loads(out)["checks"][0]
    assert row["name"] == "fgl.honda" and row["status"] == "fail"
    assert row["counterexample"] == {
        "p": 2, "n": 1, "error": "honda p-series is not v*x^(p^n)"}


@pytest.mark.parametrize("term, error", [((3, 0), "carries v^"), ((3, 2), "not p-integral")],
                         ids=["off-grade", "not-p-integral"])
def test_wrong_honda_coefficient_is_a_fail_row(capsys, monkeypatch, term, error):
    # a term x^3 added to the Z[w] logarithm breaks the grading (x of degree
    # 1, v of degree 1 - p^n), and x^3 w^2 at p = 2 gives [p](x) the term
    # 2 x^3 w^2 = v^2 x^3 / 2: each is a failed check, not a usage error
    # (planted in the logarithm the p-series is solved from)
    import wittsen.fgl as fgl

    real = fgl._honda_log

    def perturbed(p, n, bound):
        logw = real(p, n, bound)
        return logw + TruncPoly(logw.ring, {term: 1})

    monkeypatch.setattr(fgl, "_honda_log", perturbed)
    code, out = run_main(["fgl", "honda", "--json"], capsys)
    assert code == 1
    row = json.loads(out)["checks"][0]
    assert row["name"] == "fgl.honda" and row["status"] == "fail"
    assert row["counterexample"]["p"] == 2 and error in row["counterexample"]["error"]


def test_wrong_honda_law_is_an_nseries_fail_row(capsys, monkeypatch):
    # the same off-grade logarithm as above, reached through fgl nseries
    import wittsen.fgl as fgl

    real = fgl._honda_log_exp

    def perturbed(p, n, bound):
        logw, expw = real(p, n, bound)
        return logw + TruncPoly(logw.ring, {(3, 0): 1}), expw

    monkeypatch.setattr(fgl, "_honda_log_exp", perturbed)
    code, out = run_main(["fgl", "nseries", "--kind", "honda", "-D", "10", "--json"],
                         capsys)
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert row["name"] == "fgl.nseries" and row["status"] == "fail"
    assert row["counterexample"] == {"p": 3, "n": 1, "degree": 3,
                                     "error": "honda term of degree 3 carries v^0"}


def test_fderham_divisors_do_not_trust_the_integer_snf(capsys, monkeypatch):
    # keep only the diagonal of every matrix the Z-SNF reads: the additive
    # law's matrices m*I are unchanged, but multiplication by [2]_q at
    # lambda = 1 now gets the divisors of 2*I, which the check must refuse
    import wittsen.exactalg as exactalg

    real = exactalg.IntMatrix.from_rows

    def diagonal(rows):
        return real([[x if i == j else 0 for j, x in enumerate(row)]
                     for i, row in enumerate(rows)])

    monkeypatch.setattr(exactalg.IntMatrix, "from_rows", staticmethod(diagonal))
    code, out = run_main(["fgl", "fderham", "--json"], capsys)
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert row["name"] == "fgl.fderham" and row["status"] == "fail"
    assert row["counterexample"] == {"law": "multiplicative_lambda_1", "weight": 2,
                                     "divisors": [2] * 6, "want": [1, 1, 1, 1, 1, 64]}


@pytest.mark.parametrize("argv, flag", [
    (["witt", "gabber", "-L", "7"], "-L"),
    (["cartier", "psi", "-p", "3", "-n", "9", "-m", "10"], "-n"),
    # in range, but the components pass str()'s 4300-digit limit
    (["cartier", "psi", "-p", "7", "-n", "6", "-m", "1000"], "-m"),
    (["cartier", "psi", "-p", "7", "-n", "6", "-m", "1000", "--json"], "-m"),
])
def test_oversized_result_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err and "Traceback" not in err


# the largest |m| whose psi components print within str()'s 4300-digit
# limit, for the (p, n) where it is below the flag's maximum of 1000
PSI_PRINTABLE = {(5, 6): 23, (7, 5): 61, (7, 6): 1, (11, 5): 1, (11, 6): 1}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", range(1, 7))
def test_psi_digit_bound_is_checked_before_computing(p, n, capsys, monkeypatch):
    top = PSI_PRINTABLE.get((p, n), 1000)
    argv = lambda m: ["cartier", "psi", "-p", str(p), "-n", str(n), "-m", str(m), "--json"]
    for m in (top, -top):
        code, out = run_main(argv(m), capsys)
        assert code == 0 and len(json.loads(out)["checks"][0]["payload"]["psi"]) == n
    if top == 1000:
        return

    def unreachable(*args):
        raise AssertionError("psi_eigenvalues was called")

    monkeypatch.setattr(importlib.import_module("wittsen.dpops"), "psi_eigenvalues",
                        unreachable)
    for m in (top + 1, -top - 1):
        with pytest.raises(SystemExit) as e:
            main(argv(m))
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            "the result has integers too long to print; lower -m, -p, -n\n")


@pytest.mark.parametrize("argv, module, name", [
    (["witt", "solve-frobenius", "-L", "9"], "witt", "solve_frobenius"),
    (["cartier", "weyl", "-M", "201"], "dpops", "dp_weyl_operators"),
    (["cartier", "delta", "-K", "21"], "dpops", "delta_ring_check"),
    (["cartier", "delta", "-B", "5"], "dpops", "delta_ring_check"),
    (["fgl", "nseries", "--kind", "honda", "-D", "41"], "fgl", "fgl_construct"),
    (["fgl", "q-identity", "--n-max", "61"], "fgl", "fgl_construct"),
    (["sen", "bokstedt", "-D", "10001"], "senhom", "build_line_fiber"),
    (["sen", "dvr", "-E", "1," + "0," * 12 + "3"], "senhom", "build_dvr_square"),
    (["report", "-K", "21"], "witt", "check_gabber_identity"),
])
def test_over_maximum_exits_before_the_library(argv, module, name, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(importlib.import_module(f"wittsen.{module}"), name, unreachable)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_cartier_makes_no_truncpoly_products(monkeypatch):
    # the check runs on integer Hurwitz series (7,569 products and 600
    # substitutions before factors at c t were scaled, 3,446 and 84 after)
    counts = {"__mul__": 0, "substitute": 0}
    for name in counts:
        real = getattr(TruncPoly, name)

        def counting(self, other, real=real, name=name):
            counts[name] += 1
            return real(self, other)
        monkeypatch.setattr(TruncPoly, name, counting)
    assert cli.check_cartier(cli.RunConfig())["status"] == "pass"
    assert counts == {"__mul__": 0, "substitute": 0}


def test_parser_is_built_once(capsys):
    main(["witt", "dwork"])
    parser = cli._parser()
    main(["witt", "dwork"])
    assert cli._parser() is parser
    assert cli._parser.cache_info().misses == 1


def _tamper(module, name, change):
    """Patch wittsen.<module>.<name> to return change(a copy of its result)."""
    def patch(monkeypatch):
        mod = importlib.import_module(f"wittsen.{module}")
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name,
                            lambda *a, **kw: change(copy.deepcopy(real(*a, **kw)), *a))
    return patch


def _set_row(degree, **values):
    def change(rep, *args):
        rep.entry(degree).update(values)
        return rep
    return change


def _fderham(rep, *args):
    rep["weights"][1]["divisors"] = [7]
    return rep


def _unit_times_series(cx, *args):
    # a unit multiple leaves every Smith divisor as it was
    for m, series in cx.items():
        cx[m] = series * (1 + TruncPoly.var(series.ring, "h"))
    return cx


def _symbolic_times_unit(cx, *args):
    # only the symbolic law's h-line carries lam
    return _unit_times_series(cx) if "lam" in cx[1].ring.vars else cx


def _weyl(rep, *args):
    rep["commutators"][1] = False
    return rep


def _delta_flag(rep, *args):  # all_ok still claims success
    rep["rows"][-1]["frobenius_identity"] = False
    return rep


def _delta_drop_row(rep, *args):
    rep["rows"].pop()
    return rep


def _psi_component(j, when=lambda m: True):
    """psi_eigenvalues with component j off by one for the m where when(m)."""
    def change(psi, p, n, m):
        return psi[:j] + (psi[j] + 1,) + psi[j + 1:] if when(m) else psi
    return change


def _zpn(rep, p, n, bound):  # only n = 3 differs, and only where no per-n check looks
    return _set_row(0, torsion=[p])(rep) if n == targets.ZPN_NS[1] else rep


def _inexact_quarter(monkeypatch):
    # every division by 4 leaves 1 over: only the quarter combination divides by 4
    real = TruncPoly.__divmod__

    def divmod_(poly, d):
        q, r = real(poly, d)
        return (q, r + 1) if d == 4 else (q, r)
    monkeypatch.setattr(TruncPoly, "__divmod__", divmod_)


@pytest.mark.parametrize("argv, patch, key", [
    (["witt", "solve-frobenius"],
     lambda mp: mp.setitem(targets.FROBENIUS_PREIMAGE_FAIL_WITNESS, "rhs_balanced", 17),
     "want"),
    (["witt", "dwork"],
     _tamper("witt", "dwork_factorization", lambda r, *a: {**r, "reconstructs": False}),
     "case"),
    (["witt", "frobenius-of-p"],
     _tamper("witt", "frobenius_of_p_identity",
             lambda r, *a: {**r, "holds_p_squared": not r["holds_p_squared"]}),
     "holds_p_squared"),
    (["witt", "frobenius-of-p"],
     _tamper("witt", "frobenius_of_p_identity",
             lambda r, *a: {**r, "frobenius_fixes_integers": False}),
     "frobenius_fixes_integers"),
    (["fgl", "right-unit"],
     _tamper("fgl", "bp_right_unit", lambda eta, p, N: {**eta, 2: 2 * eta[2]} if N > 1 else eta),
     "eta_v2_p2"),
    (["fgl", "b4"], _tamper("fgl", "b4_cobar_class", lambda b4: -b4), "polynomial"),
    (["fgl", "fderham"], _tamper("senhom", "fderham_cohomology", _fderham), "weight"),
    (["sen", "bokstedt"], _tamper("senhom", "build_line_fiber", _set_row(0, free_rank=0)),
     "degree"),
    (["sen", "cmn"], _tamper("senhom", "build_line_fiber", _set_row(0, free_rank=0)),
     "degree"),
    (["sen", "zpn"], _tamper("senhom", "build_zpn_serre", _zpn), "n_dependent_degree"),
    (["sen", "dvr"],
     _tamper("senhom", "build_dvr_square",
             lambda out, *a: {**out, "total": _set_row(1, exponents=[9])(out["total"])}),
     "k_j"),
    (["fgl", "fderham"], _tamper("fgl", "f_derham_complex", _unit_times_series), "series"),
    (["cartier", "weyl"], _tamper("dpops", "dp_weyl_operators", _weyl), "commutators_at"),
    (["cartier", "delta"], _tamper("dpops", "delta_ring_check", _delta_flag),
     "frobenius_identity"),
    (["cartier", "delta"], _tamper("dpops", "delta_ring_check", _delta_drop_row),
     "want_rows"),
    (["witt", "gabber"],
     _tamper("witt", "check_gabber_identity", lambda r, *a: {**r, "holds": False}),
     "holds"),
    (["witt", "gabber"],
     lambda mp: mp.setitem(targets.GABBER_Y_SMALL, (3, 2), (-8, -2017)),
     "small_values"),
    # holds still claims success
    (["witt", "pn-vanishing"],
     _tamper("witt", "check_pn_vanishing", lambda r, *a: {**r, "holds_vfv": False}),
     "holds_vfv"),
    (["witt", "cartier"],
     _tamper("witt", "cartier_character", lambda r, *a: {**r, "additivity": False}),
     "report"),
    (["fgl", "q-identity"],
     _tamper("fgl", "divided_n_series", lambda s, F, m: s + 1 if m == 7 else s), "m"),
    (["cartier", "psi"], _tamper("dpops", "psi_eigenvalues", _psi_component(2)),
     "component"),
    # components 0, 3 and 4 are pinned only by the ghost identity
    (["cartier", "psi"], _tamper("dpops", "psi_eigenvalues", _psi_component(3)),
     "ghost_component"),
    # a wrong tuple for negative weights breaks additivity across signs
    (["cartier", "psi-tensor"],
     _tamper("dpops", "psi_eigenvalues", _psi_component(1, lambda m: m < 0)), "a"),
    (["fgl", "fderham"], _tamper("fgl", "f_derham_complex", _symbolic_times_unit),
     {"law": "multiplicative_symbolic"}),
    # the quarter combination's exact division by 4 leaves a remainder
    (["fgl", "right-unit"], _inexact_quarter, {"remainder": "1"}),
])
def test_failure_names_its_counterexample(argv, patch, key, capsys, monkeypatch):
    patch(monkeypatch)
    code, out = run_main(argv + ["--json"], capsys)
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert row["status"] == "fail" and row["counterexample"]
    if isinstance(key, dict):  # the counterexample's values, not only its keys
        assert key.items() <= row["counterexample"].items()
    else:
        assert key in row["counterexample"]


def test_fderham_symbolic_fail_row_reports_no_symbolic_identity(capsys, monkeypatch):
    _tamper("fgl", "f_derham_complex", _symbolic_times_unit)(monkeypatch)
    code, out = run_main(["fgl", "fderham", "--json"], capsys)
    (row,) = json.loads(out)["checks"]
    assert code == 1 and row["status"] == "fail"
    assert row["payload"]["symbolic_identity"] is False


# ---------------------------------------------------------------------------
# a broken library identity: each site that raises IdentityError, forced by a
# fault planted just upstream of it, is its check's fail row


def _plus(term):
    """The polynomial with the term x^d w^k added."""
    return lambda poly, *args: poly + TruncPoly(poly.ring, {term: 1})


def _log_plus(term):
    """The Z[w] Honda (log, exp) with the term x^d w^k added to the log."""
    def change(log_exp, *args):
        logw, expw = log_exp
        return _plus(term)(logw), expw
    return change


def _exp_plus_p_w_x_pn(log_exp, p, n, bound):
    # graded and p-integral, so it reaches the law: F gains v (X + Y)^(p^n)
    logw, expw = log_exp
    return logw, expw + TruncPoly(expw.ring, {(p**n, 1): p})


def _l1_over_p_at_3(l, p, N, ring):
    # at p = 3 only: fgl b4 reads the right unit at p = 2
    return {**l, 1: l[1].map_coeffs(lambda c: Fraction(c, p))} if p == 3 else l


def _v1_cubed_in_L2(L, p, N, ring):
    return {**L, 2: L[2] + TruncPoly.var(ring, "v1") ** 3} if N > 1 else L


def _p_q_off_at_u(monkeypatch):
    # [p]_q with its u-coefficient one more: 1/[3]_q then has valuation
    # -(n+1) at u^n, past the exponent the recurrence starts from
    import wittsen.dpops as dpops

    real = dpops._p_q_inverse
    monkeypatch.setattr(dpops, "_p_q_inverse",
                        lambda p, d, K: real(p, [d[0], d[1] + 1, *d[2:]], K))


def _last_ghost_off(when):
    """The ghost entries with the last one more, for the calls where
    when(components, modulus)."""
    def change(ghost, p, comps, modulus=0):
        return ghost[:-1] + [ghost[-1] + 1] if when(comps, modulus) else ghost
    return change


def _unguarded_dwork(monkeypatch):
    # the congruence guard off, and x_2 = x_1 mod 2 broken
    import wittsen.witt as witt

    real = witt.dwork_factorization
    monkeypatch.setattr(witt, "is_prime", lambda q: False)
    monkeypatch.setattr(witt, "dwork_factorization",
                        lambda xs, D: real([xs[0], xs[1] + 1, *xs[2:]], D))


def _ramified_products_nonzero(monkeypatch):
    # m_(d-1) * m_d reads 1 in one entry over every ramified ring: only
    # sen.dvr builds complexes over those
    import wittsen.senhom as senhom

    real = senhom.matrix_product
    monkeypatch.setattr(senhom, "matrix_product",
                        lambda ops, P, Q: iter([{0: ops.scalar(1)}]) if ops.e > 1
                        else real(ops, P, Q))


IDENTITY_SITES = {
    "fgl._unscale grading": (
        ["fgl", "nseries", "--kind", "honda", "-D", "10"],
        _tamper("fgl", "_honda_log_exp", _log_plus((3, 0))),
        {"p": 3, "n": 1, "degree": 3}, "carries v^0"),
    "fgl._unscale integrality": (  # x^3 w^2 at p = 2 gives [p](x) v^2 x^3 / 2
        ["fgl", "honda"], _tamper("fgl", "_honda_log", _plus((3, 2))),
        {"p": 2, "n": 1, "degree": 3}, "not p-integral"),
    "fgl.fgl_construct axioms": (
        ["fgl", "nseries", "--kind", "honda", "-D", "4"],
        _tamper("fgl", "_honda_log_exp", _exp_plus_p_w_x_pn),
        {"p": 3, "n": 1, "degree": 3}, "fails axioms"),
    "fgl.honda_p_series": (
        ["fgl", "honda"], _tamper("fgl", "_unscale", lambda series, *a: 2 * series),
        {"p": 2, "n": 1}, "p-series is not"),
    "fgl.formal_inverse": (
        ["fgl", "nseries", "-m", "-2"],
        _tamper("fgl", "_newton", lambda g, *a: g + TruncPoly.var(g.ring, "x") ** 2),
        {"degree": 2}, "F(x, iota(x))"),
    "fgl.divided_n_series": (
        ["fgl", "q-identity", "--n-max", "2"],
        _tamper("fgl", "n_series", lambda series, *a: series + 1), {"m": 1},
        "without h"),
    "fgl.bp_right_unit": (
        ["fgl", "right-unit"], _tamper("fgl", "_l_in_terms_of_v", _l1_over_p_at_3),
        {"p": 3, "n": 1}, "right unit of v_1"),
    "fgl.bp_right_unit exact division": (  # 2 eta_R(v_2) gains the odd v_1^3
        ["fgl", "right-unit"], _tamper("fgl", "_l_in_terms_of_v", _v1_cubed_in_L2),
        {"p": 2, "n": 2}, "right unit of v_2"),
    "fgl.b4_cobar_class": (  # X - 8Y loses 8 eta_R(v_1) t_1, not 0 mod 16
        ["fgl", "b4"],
        _tamper("fgl", "bp_right_unit",
                lambda eta, *a: {**eta, 2: eta[2] + TruncPoly.var(eta[2].ring, "t1")}),
        {"p": 2}, "cobar"),
    "fgl.b4_cobar_class eta_v1": (  # X = eta_R(v_1)^4 - v_1^4 gains 4 v_1^3 t_1
        ["fgl", "b4"],
        _tamper("fgl", "bp_right_unit",
                lambda eta, *a: {**eta, 1: eta[1] + TruncPoly.var(eta[1].ring, "t1")}),
        {"p": 2}, "cobar"),
    "witt._ghost_inverse_components": (  # a Witt sum's entry off by 2, not 0 mod 2^2
        ["witt", "gabber", "-L", "3"],
        _tamper("witt", "_ghost_entries", _last_ghost_off(lambda comps, mod: not mod)),
        {"index": 2}, "does not divide"),
    "witt.solve_frobenius": (  # the preimage x of y at -L 2 has 3 digits
        ["witt", "solve-frobenius", "-L", "2"],
        _tamper("witt", "_ghost_entries",
                _last_ghost_off(lambda comps, mod: mod and len(comps) == 3)),
        {"p": 3, "index": 2}, "F(x) = y"),
    "witt.dwork_factorization": (["witt", "dwork"], _unguarded_dwork, {"n": 2},
                                 "not integral"),
    "senhom.chain_homology": (  # first at u^2 - 3, the first ramified case
        ["sen", "dvr"], _ramified_products_nonzero, {"p": 3, "degree": 3},
        "maps do not compose to zero"),
    "dpops._operator": (  # g_1 + 1/p puts 3/2 at gamma'_2 -> eps for p = 2
        ["sen", "perfectoid"],
        _tamper("dpops", "perfectoid_gamma_values",
                lambda values, p, bound: {**values, 1: values[1] + Fraction(1, p)}),
        {"p": 2, "a": 2}, "non-integral image"),
    "dpops._p_q_inverse": (  # [3]_q = 3 + 4u + u^2 needs 3^10 at u^9; K = 18 gives 3^9
        ["cartier", "delta"], _p_q_off_at_u, {"p": 3, "u_degree": 9}, "not over 3^9"),
    "dpops.ZpLattice": (  # t's constant term 0 becomes 1/3^s
        ["cartier", "delta"],
        _tamper("dpops", "_integer_vector",
                lambda vec, f, K: ([vec[0][0] + 1, *vec[0][1:]], max(vec[1], 1))),
        {"p": 3, "generator": 0}, "constant term"),
}


@pytest.mark.parametrize("argv, plant, where, error", IDENTITY_SITES.values(),
                         ids=IDENTITY_SITES)
def test_broken_identity_is_its_checks_fail_row(argv, plant, where, error, monkeypatch):
    plant(monkeypatch)
    code, out, err = _run(argv + ["--json"])
    assert code == 1 and "Traceback" not in err
    (row,) = json.loads(out)["checks"]
    assert row["name"] == ".".join(argv[:2]) and row["status"] == "fail"
    assert row.get("payload") is None
    assert error in row["counterexample"].pop("error")
    assert row["counterexample"] == where


def test_a_bug_is_not_a_fail_row(monkeypatch):
    # only IdentityError becomes a row; another ArithmeticError is a bug
    import wittsen.witt as witt

    monkeypatch.setattr(witt, "dwork_factorization", lambda xs, D: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        main(["witt", "dwork", "--json"])


def _failed_report_row(name):
    """The `name` row of a report that exits 1, after checking that every
    other row equals the golden file's."""
    code, out, err = _run(["report", "--json"])
    assert code == 1 and "Traceback" not in err
    with open(os.path.join(os.path.dirname(__file__), "data", "golden_report.json")) as fh:
        golden = json.load(fh)
    rows = json.loads(out)["checks"]
    assert len(rows) == len(golden["checks"]) == 22
    for row, want in zip(rows, golden["checks"]):
        if row["name"] != name:
            assert row == want
    (row,) = [row for row in rows if row["name"] == name]
    assert row["status"] == "fail"
    return row


def test_broken_identity_leaves_the_other_report_rows(monkeypatch):
    # the right unit at p = 3 alone: every other check, b4 included, runs as before
    _tamper("fgl", "_l_in_terms_of_v", _l1_over_p_at_3)(monkeypatch)
    assert _failed_report_row("fgl.right-unit")["counterexample"]["p"] == 3


def test_broken_composition_is_the_dvr_fail_row_and_leaves_the_other_report_rows(
        monkeypatch):
    # a square that does not compose to zero is a failed check, not a usage
    # error that would end the report with exit 2
    _ramified_products_nonzero(monkeypatch)
    assert _failed_report_row("sen.dvr")["counterexample"] == {
        "p": 3, "degree": 3, "error": "maps do not compose to zero"}


@pytest.mark.parametrize("patch, named", [
    # k = 3: the degree-6 cokernel should be Z/3, not Z/9
    (_tamper("senhom", "omega2yn_cohomology", _set_row(6, torsion=[9])),
     {"n": 2, "k": 3, "want": [3]}),
    # the cohomology is right, but its UCT partner H_5 of the zpn complex is not
    (_tamper("senhom", "build_zpn_serre", _set_row(5, torsion=[9])),
     {"uct_mismatch_at": 3, "n": 2}),
])
def test_omega2yn_failure_names_its_counterexample(patch, named, capsys, monkeypatch):
    patch(monkeypatch)
    code, out = run_main(["sen", "omega2yn", "--json"], capsys)
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert row["status"] == "fail"
    assert {k: row["counterexample"].get(k) for k in named} == named


def test_perfectoid_gates_on_its_valuation_identity(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("wittsen.senhom"),
                        "factorial_unit_identity", lambda p, gamma_values: False)
    code, out = run_main(["sen", "perfectoid", "--json"], capsys)
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert row["status"] == "fail"
    assert row["counterexample"] == {"p": targets.PERFECTOID_PRIMES[0],
                                     "valuation_identity": False}
    assert {k: sorted(v) for k, v in row["payload"].items()} == {
        f"p{p}": ["bound", "kernel_degrees"] for p in targets.PERFECTOID_PRIMES}


# ---------------------------------------------------------------------------
# full report

def test_report_is_deterministic_and_green(full_report, fresh_report):
    s1 = json.dumps(full_report, indent=2, sort_keys=True)
    s2 = json.dumps(fresh_report, indent=2, sort_keys=True)
    assert s1 == s2
    assert all(row["status"] != "fail" for row in full_report["checks"])


def test_report_matches_golden_file(full_report):
    golden = os.path.join(os.path.dirname(__file__), "data", "golden_report.json")
    with open(golden, "rb") as fh:
        expected = fh.read()
    got = (json.dumps(full_report, indent=2, sort_keys=True) + "\n").encode()
    assert got == expected


def test_tampered_target_fails(capsys, monkeypatch):
    monkeypatch.setitem(targets.FROBENIUS_PREIMAGE_FAIL_WITNESS, "rhs_balanced", 17)
    code, out = run_main(["witt", "solve-frobenius", "--json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "fail"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wittsen.cli", "witt", "gabber", "-L", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


# ---------------------------------------------------------------------------
# the argv grammar, fuzzed

# every flag some subcommand accepted before each check took only its own
OLD_FLAGS = ["-p", "-N", "-L", "-D", "-K", "-m", "-n", "-M", "-B", "--n-max",
             "--kind", "--variant", "-E", "--text", "--config"]


@pytest.fixture
def cheap_checks(monkeypatch):
    """Cut the slow default runs down; the report keeps the checks that read
    -L and -K."""
    monkeypatch.setattr(targets, "HONDA_GRID", targets.HONDA_GRID[:2])
    monkeypatch.setattr(targets, "CARTIER_SAMPLES", 2)
    monkeypatch.setattr(targets, "DVR_CASES", targets.DVR_CASES[:1])
    monkeypatch.setattr(cli, "ALL_CHECKS",
                        [cli.check_gabber, cli.check_solve_frobenius, cli.check_delta])


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call; any exception but
    SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fuzz_value(rng, flags, flag, config):
    spec = flags.get(flag.lstrip("-").replace("-", "_"))
    if flag == "--config":
        return [str(config)]
    if flag == "--text":
        return []
    if flag == "-E":
        return [rng.choice(["1,0,-3", "1,-2", "1,2", "1,x", "1," + "0," * 12 + "3"])]
    if flag in ("--kind", "--variant"):
        return [rng.choice(list(spec or ()) + ["bogus"])]
    values = [0, 1, 2, 3, -1, -7, "1.5", "x"]
    if isinstance(spec, cli.Needs):
        spec = spec.spec
    if isinstance(spec, cli.Ints):
        values += [spec.lo, spec.lo + 1, spec.lo - 1, spec.hi + 1]
    return [str(rng.choice(values))]


def test_argv_fuzz(cheap_checks, tmp_path):
    rng = random.Random(20240611)
    keys = list(cli.CHECKS)
    seen = set()
    for i in range(300):
        key = rng.choice(keys)
        flags = cli.CHECKS[key]
        config = tmp_path / f"{i}.cfg"
        cfg_key = rng.choice(list(flags) + ["N", "bogus"])
        config.write_text(f"{cfg_key} = {rng.choice([2, 3, -1])}\n")
        argv = list(key)
        for flag in rng.sample(OLD_FLAGS, rng.randrange(4)):
            argv += [flag] + _fuzz_value(rng, flags, flag, config)
        code, out, _ = _run(argv + ["--json"])
        assert code in (0, 1, 2), argv
        seen.add(code)
        if code == 1:
            rows = [r for r in json.loads(out)["checks"] if r["status"] == "fail"]
            assert rows and all(r.get("counterexample") for r in rows), argv
    assert seen == {0, 2}


# two in-range values of each (check, flag) pair, with the flags it needs
DISTINCT = {
    (("witt", "gabber"), "L"): ([], "2", "3"),
    (("witt", "solve-frobenius"), "L"): ([], "2", "3"),
    (("fgl", "nseries"), "kind"): ([], "additive", "multiplicative"),
    (("fgl", "nseries"), "m"): ([], "2", "3"),
    (("fgl", "nseries"), "D"): (["--kind", "multiplicative", "-m", "-2"], "3", "4"),
    (("fgl", "nseries"), "p"): (["--kind", "honda"], "2", "3"),
    (("fgl", "nseries"), "n"): (["--kind", "honda"], "1", "2"),
    (("fgl", "q-identity"), "n_max"): ([], "1", "2"),
    (("sen", "bokstedt"), "p"): ([], "2", "3"),
    (("sen", "bokstedt"), "D"): ([], "10", "20"),
    (("sen", "bokstedt"), "variant"): ([], "T1", "Jp"),
    (("sen", "zpn"), "p"): ([], "3", "5"),
    (("sen", "dvr"), "E"): ([], "1,-3", "1,0,-3"),
    (("sen", "dvr"), "p"): (["-E", "1,-6"], "2", "3"),
    (("cartier", "psi"), "m"): ([], "2", "3"),
    (("cartier", "psi"), "p"): (["-m", "3"], "2", "3"),
    (("cartier", "psi"), "n"): (["-m", "3"], "2", "3"),
    (("cartier", "weyl"), "M"): ([], "3", "4"),
    (("cartier", "delta"), "B"): ([], "0", "1"),
    (("cartier", "delta"), "K"): ([], "3", "4"),
    (("report",), "L"): ([], "2", "3"),
    (("report",), "K"): ([], "3", "4"),
}


def test_every_accepted_flag_changes_the_run(cheap_checks):
    assert set(DISTINCT) == {(key, flag) for key, flags in cli.CHECKS.items()
                             for flag in flags}
    for (key, flag), (needs, a, b) in DISTINCT.items():
        docs = []
        for value in (a, b):
            code, out, _ = _run([*key, *needs, cli._option(flag), value, "--json"])
            assert code == 0, (key, flag, value)
            doc = json.loads(out)
            del doc["config"]
            docs.append(doc)
        assert docs[0] != docs[1], (key, flag)


# ---------------------------------------------------------------------------
# the output corpus: every CHECKS key at its defaults as text and --json, each
# flag at one non-default value, and one usage error per flag kind, as _record
# gives them; a record changes only with an intended change of output

CORPUS = os.path.join(os.path.dirname(__file__), "data", "cli_corpus.json")


def _record(argv):
    """The exit code of one in-process run, with its stdout, or for a usage
    error the error line."""
    code, out, err = _run(argv)
    if code == 2:
        return {"argv": argv, "exit": code, "error": err.splitlines()[-1]}
    return {"argv": argv, "exit": code, "stdout": out}


def _first_difference(want, got):
    a, b = want.splitlines(), got.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return "line {}: {!r}, want {!r}".format(
        i + 1, *(lines[i] if i < len(lines) else "<end>" for lines in (b, a)))


def test_cli_output_matches_corpus():
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    argvs = [r["argv"] for r in corpus]
    for key, flags in cli.CHECKS.items():
        assert list(key) in argvs and [*key, "--json"] in argvs, key
        for flag in flags:
            assert any(a[:len(key)] == list(key) and cli._option(flag) in a
                       for a in argvs), (key, flag)
    for want in corpus:
        got = _record(want["argv"])
        if got != want:
            text = "error" if "error" in want else "stdout"
            pytest.fail(f"wittsen {' '.join(want['argv'])}: exit {got['exit']}, "
                        f"want {want['exit']}; "
                        + _first_difference(want[text], got.get(text, "")))
