import json
import os
import subprocess
import sys

import pytest

import wittsen.targets as targets
from wittsen.cli import main


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# exit codes and flags

def test_gabber_pass(capsys):
    code, out = run_main(["witt", "gabber", "-p", "3", "-L", "5"], capsys)
    assert code == 0
    assert "witt.gabber" in out and "pass" in out


def test_usage_error_nonprime():
    with pytest.raises(SystemExit) as e:
        main(["witt", "gabber", "-p", "4"])
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
    code, out = run_main(["witt", "solve-frobenius", "-p", "2"], capsys)
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
    cfgfile.write_text("p = 5\nL = 4  # comment\n")
    code, out = run_main(
        ["witt", "gabber", "--config", str(cfgfile), "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["config"]["p"] == 5 and doc["config"]["L"] == 4
    code, out = run_main(
        ["witt", "gabber", "--config", str(cfgfile), "-p", "2", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["config"]["p"] == 2 and doc["config"]["L"] == 4


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
        raise fgl.InvalidFGLError(None, "honda p-series is not v*x^(p^n)")

    monkeypatch.setattr(fgl, "honda_p_series", raising)
    code, out = run_main(["fgl", "honda", "--json"], capsys)
    assert code == 1
    row = json.loads(out)["checks"][0]
    assert row["name"] == "fgl.honda" and row["status"] == "fail"
    p, n, m = targets.HONDA_GRID[0]
    assert row["counterexample"] == {
        "p": p, "n": n, "m": m, "ok": False,
        "error": "honda p-series is not v*x^(p^n)"}


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
