"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

All arithmetic in the library is exact, so every comparison below is on-the-
nose equality (group orders, polynomial coefficients, Witt components). The
named-check functions enforce the full parameter grids; this module asserts
criterion by criterion on the shared report build from conftest.py.
"""

import json
import os

import pytest


CRITERIA = {
    1: ("gabber-identity", ["witt.gabber"]),
    2: ("frobenius-preimage-trichotomy", ["witt.solve-frobenius"]),
    3: ("pn-verschiebung-vanishing", ["witt.pn-vanishing"]),
    4: ("bokstedt-torsion-pattern", ["sen.bokstedt.T1", "sen.bokstedt.Jp"]),
    5: ("cmn-serre-pattern", ["sen.cmn"]),
    6: ("perfectoid-pattern", ["sen.perfectoid"]),
    7: ("omega2yn-homology-cohomology-uct", ["sen.zpn", "sen.omega2yn"]),
    8: ("dvr-square", ["sen.dvr"]),
    9: ("q-identity-and-honda-series", ["fgl.q-identity", "fgl.honda"]),
    10: ("bp-right-unit-and-b4", ["fgl.right-unit", "fgl.b4"]),
    11: ("psi-calculus", ["cartier.psi", "cartier.psi-tensor"]),
    12: ("divided-power-weyl", ["cartier.weyl"]),
    13: ("delta-divisibility", ["cartier.delta"]),
    14: ("cartier-dwork-integrality", ["witt.cartier", "witt.dwork"]),
}


def _status(report, names):
    rows = {r["name"]: r for r in report["checks"]}
    return [rows[n] for n in names]


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(full_report, number):
    label, names = CRITERIA[number]
    rows = _status(full_report, names)
    ok = all(r["status"] == "pass" for r in rows)
    print(f"ACCEPT-{number:02d} {label}: {'pass' if ok else 'fail'}")
    for r in rows:
        assert r["status"] == "pass", (number, label, r.get("counterexample"))


def test_criterion_15_golden_report(full_report, fresh_report):
    s1 = json.dumps(full_report, indent=2, sort_keys=True) + "\n"
    s2 = json.dumps(fresh_report, indent=2, sort_keys=True) + "\n"
    deterministic = s1 == s2
    green = all(r["status"] != "fail" for r in full_report["checks"])
    golden_path = os.path.join(os.path.dirname(__file__), "data",
                               "golden_report.json")
    with open(golden_path, "rb") as fh:
        golden = fh.read()
    matches = s1.encode() == golden
    ok = deterministic and green and matches
    print(f"ACCEPT-15 golden-report: {'pass' if ok else 'fail'}")
    assert deterministic
    assert green
    assert matches
