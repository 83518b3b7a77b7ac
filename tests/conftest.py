"""Shared fixtures. A full default-config report takes several seconds, so
the golden-file, acceptance and determinism tests share two builds: one
checked against the golden bytes and criteria, and one independent build
that the determinism tests compare it with."""

import pytest

from wittsen.cli import RunConfig, build_full_report


@pytest.fixture(scope="session")
def full_report():
    return build_full_report(RunConfig())


@pytest.fixture(scope="session")
def fresh_report():
    return build_full_report(RunConfig())
