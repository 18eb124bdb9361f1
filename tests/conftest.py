"""Shared fixtures: the two reference constructions at useful depths."""

from fractions import Fraction as F

import pytest

from dioph_lab import construct, sequences

DEPTH = 10 ** 6


@pytest.fixture(scope="session")
def lin():
    return sequences.make_sequence("linear")


@pytest.fixture(scope="session")
def geo2():
    return sequences.make_sequence("geometric:eta=2,a1=1")


@pytest.fixture(scope="session")
def small_sched(lin):
    """The worked example's three blocks for (3, 1/3) over a_n = n."""
    return construct.schedule_eta1(lin, F(3), F(1, 3), cover_to=120)


@pytest.fixture(scope="session")
def eta1_sched(lin):
    """Blocks for (theta, vhat) = (3, 1/3) over a_n = n, covering 1e6."""
    return construct.schedule_eta1(lin, F(3), F(1, 3), cover_to=DEPTH)


@pytest.fixture(scope="session")
def geo_sched(geo2):
    """Blocks for (theta, vhat) = (4, 3/2) over doubling a_n, covering 1e6."""
    return construct.schedule_geometric(geo2, F(4), F(3, 2), 2, cover_to=DEPTH)


@pytest.fixture(scope="session")
def eta1_streams(eta1_sched):
    return {b: construct.emit_digits(eta1_sched, b, DEPTH) for b in (3, 2)}


@pytest.fixture(scope="session")
def geo_streams(geo_sched):
    return {b: construct.emit_digits(geo_sched, b, DEPTH) for b in (3, 2)}
