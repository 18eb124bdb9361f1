"""Exact-arithmetic oracle: run lengths versus true distances.

The whole estimation pipeline rests on one fact: if the 0/(b-1) run after
position a breaks at m, then the distance from b^a * xi to the nearest
integer is between b^-(m-a) and b^-(m-a-1).  These tests compute the
distances exactly (big-integer rationals) for materialized prefixes and
check the run-based quantities against them.
"""

from fractions import Fraction as F

import pytest

from dioph_lab import construct, digits, exponents, sequences

LIN = sequences.make_sequence("linear")


def exact_distance(stream: digits.DigitStream, a: int) -> F:
    """||b^a * xi|| for the truncated rational xi = sum x_j b^-j."""
    b, P = stream.base, stream.prefix_len
    X = 0
    for c in stream.data:
        X = X * b + int(chr(c), b)
    scale = b ** (P - a)
    frac = F(X % scale, scale)
    return min(frac, 1 - frac)


def _streams():
    yield digits.random_digits(3, 1200, 5)
    yield digits.random_digits(10, 1200, 6)
    data = bytearray(b"0" * 1024)
    k = 1
    while k <= 1024:
        data[k - 1] = ord("1")
        k *= 2
    yield digits.DigitStream(2, bytes(data))
    sched = construct.schedule_eta1(LIN, F(3), F(1, 3), cover_to=1200)
    for base in (3, 2):
        yield construct.emit_digits(sched, base, 1200)


@pytest.mark.parametrize("stream", list(_streams()),
                         ids=["rand-b3", "rand-b10", "powers-b2", "sched-b3", "sched-b2"])
def test_run_lengths_bracket_true_distances(stream):
    b = stream.base
    mt = exponents.matching_times(stream, LIN)
    by_index = {p.index: p for p in mt.pairs}
    checked = 0
    for n in range(1, min(300, stream.prefix_len - 2)):
        if mt.first_truncated_index is not None and n >= mt.first_truncated_index:
            break
        dist = exact_distance(stream, n)
        pair = by_index.get(n)
        if pair is not None:
            g = pair.gap
            assert F(1, b ** g) <= dist <= F(1, b ** (g - 1)), (n, g, dist)
        else:
            # digit after position n is neither 0 nor b-1: no strong hit
            assert dist >= F(1, b), (n, dist)
        checked += 1
    assert checked >= 100


def test_definition_estimator_matches_exact_distances():
    import math

    sched = construct.schedule_eta1(LIN, F(3), F(1, 3), cover_to=1500)
    stream = construct.emit_digits(sched, 3, 1500)
    mt = exponents.matching_times(stream, LIN)
    grid = exponents.definition_grid(mt)
    run_based = exponents.estimate_vhat_definition(mt)
    log_b = math.log(stream.base)
    neglog = [0.0]
    for n in range(1, grid[-1] + 1):
        neglog.append(-math.log(float(exact_distance(stream, n))) / log_b)
    exact_based = min(max(neglog[1: N + 1]) / N for N in grid)
    # the run length differs from -log_b distance by less than one digit,
    # so the two statistics differ by at most 1/min(grid)
    assert abs(run_based - exact_based) <= 1 / grid[0] + 1e-12
