"""Shared fixtures and helpers. A full default-config report takes several
seconds, so the golden-file, acceptance and determinism tests share two
builds: one checked against the golden bytes and criteria, and one
independent build that the determinism tests compare it with."""

import pytest

from wittsen.cli import RunConfig, build_full_report


def sparse(rows, zero=0):
    """Dense rows as the engine's matrix: one {column: entry} dict of the
    entries other than `zero` per row."""
    return [{j: x for j, x in enumerate(row) if x != zero} for row in rows]


def zp_rows(rows):
    """Dense integer rows as the engine's matrix over Z_(p), the ring
    Eisenstein(p, [-p, 1]): one {column: (entry,)} dict of the nonzero
    entries per row."""
    return [{j: (x,) for j, x in enumerate(row) if x} for row in rows]


@pytest.fixture(scope="session")
def full_report():
    return build_full_report(RunConfig())


@pytest.fixture(scope="session")
def fresh_report():
    return build_full_report(RunConfig())
