import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dioph_lab
from dioph_lab import digits, sequences
from dioph_lab.digits import DigitStream
from dioph_lab.dimfx import InvariantError
from dioph_lab.exponents import (
    MatchingPair,
    MatchingTimes,
    check_exponent_inequality,
    definition_grid,
    estimate_exponents,
    estimate_v,
    estimate_vhat_blocks,
    estimate_vhat_definition,
    greedy_dominant,
    matching_times,
)

LIN = sequences.make_sequence("linear")


def power_sum_stream(depth: int) -> DigitStream:
    """Base-2 digits with a 1 at every power-of-two position, 0 elsewhere."""
    data = bytearray(b"0" * depth)
    k = 1
    while k <= depth:
        data[k - 1] = ord("1")
        k *= 2
    return DigitStream(2, bytes(data))


def test_power_sum_matching_times():
    mt = matching_times(power_sum_stream(64), LIN)
    # run after position 2^k is all zeros and breaks at 2^(k+1); the first
    # pair (1, 3) comes from the 1-run at position 2
    assert [(p.a, p.m) for p in mt.dominant] == [
        (1, 3), (4, 8), (8, 16), (16, 32), (32, 64)]
    for expected in [(4, 8), (8, 16), (16, 32), (32, 64)]:
        assert expected in [(p.a, p.m) for p in mt.dominant]
    gaps = [p.gap for p in mt.dominant]
    assert gaps == sorted(set(gaps))  # strictly increasing


def test_power_sum_estimates():
    mt = matching_times(power_sum_stream(2 ** 16), LIN)
    assert (len(mt.dominant), mt.burn_in) == (15, 3)
    assert estimate_v(mt) == pytest.approx(1.0, abs=0.05)
    assert estimate_vhat_blocks(mt) == pytest.approx(0.5, abs=0.05)


def test_equal_gaps_collapse_to_one_dominant_pair():
    stream = digits.digits_from_string("1001" * 16, 3)
    mt = matching_times(stream, LIN)
    # every zero block has the same run length, and the greedy rule admits
    # only strictly larger gaps
    assert len(mt.dominant) == 1
    assert mt.dominant[0].gap == 3


def test_empty_j_is_flagged():
    stream = digits.digits_from_string("1" * 80, 3)
    mt = matching_times(stream, LIN)
    assert not len(mt.pairs)
    assert mt.pairs == [] and mt.dominant == []


def test_truncated_run_discarded():
    # zero run still open at the prefix end must not become a pair
    stream = digits.digits_from_string("121" + "0" * 20, 3)
    mt = matching_times(stream, LIN)
    assert all(p.m <= stream.prefix_len for p in mt.pairs)
    assert mt.first_truncated_index == 3  # a_3 + 1 = 4 starts the open run
    assert all(p.a + 1 < 4 for p in mt.pairs)


def test_prefix_too_short():
    with pytest.raises(ValueError):
        matching_times(digits.digits_from_string("10", 3), LIN)


def test_random_stream_exponents_near_zero():
    stream = digits.random_digits(10, 10 ** 5, 42)
    mt = matching_times(stream, LIN)
    est = estimate_exponents(mt)
    assert (est.k_count, est.burn_in, mt.burn_in) == (5, 1, 1)
    assert estimate_vhat_blocks(mt) == est.vhat_est < 0.1
    # a one-pair burn-in keeps one early small-index pair
    assert estimate_v(mt) == est.v_est < 0.3


def test_too_few_pairs_errors():
    one = matching_times(digits.digits_from_string("1001" * 16, 3), LIN)
    assert (len(one.dominant), one.burn_in) == (1, 0)
    with pytest.raises(ValueError, match="at least 2 dominant pairs, have 1"):
        estimate_vhat_blocks(one)
    empty = matching_times(digits.digits_from_string("1" * 80, 3), LIN)
    with pytest.raises(ValueError, match="no observable matching times"):
        estimate_v(empty)


def test_check_exponent_inequality():
    assert check_exponent_inequality(1.0, 0.5, 1)
    assert check_exponent_inequality(0.3, 0.5, 1) is False
    assert check_exponent_inequality(0.0, 0.0, 1)
    assert check_exponent_inequality(123.0, 0.0, 1)
    assert check_exponent_inequality(1.0, 1.5, 1.0) is None  # needs vhat < eta


def test_definition_estimator_refuses_truncated_grid():
    # the grid ends before the first cut-off run: here the longest-run cap binds
    stream = digits.digits_from_string("0" * 900 + "1" * 100, 2)
    mt = matching_times(stream, LIN)
    assert mt.first_truncated_index == 900
    assert definition_grid(mt) == range(20, 101)
    assert estimate_vhat_definition(mt) == 900 / 100
    # and here the cut-off run binds: the grid stops one index before it
    stream = digits.digits_from_string("100" * 300 + "0" * 100, 3)
    mt = matching_times(stream, LIN)
    assert mt.first_truncated_index == 898
    assert definition_grid(mt) == range(179, 898)
    assert estimate_vhat_definition(mt) == 3 / 897


def test_definition_grid_respects_conservative_cap():
    stream = power_sum_stream(2 ** 16)
    mt = matching_times(stream, LIN)
    grid = definition_grid(mt)
    longest = max(p.gap for p in mt.pairs)
    assert grid[-1] + longest <= stream.prefix_len
    vd = estimate_vhat_definition(mt)
    assert vd == pytest.approx(0.5, abs=0.05)


@st.composite
def digit_streams(draw):
    base = draw(st.sampled_from([2, 3, 10]))
    n = draw(st.integers(40, 400))
    seed = draw(st.integers(0, 10 ** 6))
    return digits.random_digits(base, n, seed)


@given(digit_streams(), st.integers(20, 390))
@settings(max_examples=60, deadline=None)
def test_prefix_extension_only_appends(stream, cut):
    cut = min(cut, stream.prefix_len - 1)
    if cut < 3:
        return
    short = matching_times(stream.truncated(cut), LIN)
    full = matching_times(stream, LIN)
    assert full.pairs[: len(short.pairs)] == short.pairs
    assert full.dominant[: len(short.dominant)] == short.dominant


@given(digit_streams())
@settings(max_examples=40, deadline=None)
def test_greedy_resyncs_after_deleting_a_dominant_pair(stream):
    mt = matching_times(stream, LIN)
    dom = mt.dominant
    for drop in range(1, len(dom) - 1):
        redone = greedy_dominant([p for p in mt.pairs if p != dom[drop]])
        sync = dom[drop + 1]
        assert sync in redone
        assert redone[redone.index(sync):] == dom[drop + 1:]


def test_estimate_exponents_summary_fields():
    mt = matching_times(power_sum_stream(2 ** 14), LIN)
    est = estimate_exponents(mt)
    assert est.depth == 2 ** 14
    assert est.burn_in == 2
    assert est.k_count == len(mt.dominant)
    assert 0 < est.vhat_est <= est.v_est
    assert est.eta == 1.0


def test_estimate_exponents_bound_raises_invariant_error():
    # No prefix yields this table: its first record claims a_1 = 10 where the
    # linear sequence has a_1 = 1, so v = max(10/10, 12/3) = 4 while the run
    # after it, divided by a(2) = 2, gives vhat = 5, above the finite-prefix
    # bound eta * (v + 2/a(i_last)) = 1 * (4 + 2/3).  The stream is all 1s,
    # with no run at all: the estimators read only the records.
    mt = MatchingTimes(depth=20, seq=LIN, stream=DigitStream(3, b"1" * 20),
                       dominant=[MatchingPair(1, 10, 20), MatchingPair(3, 3, 15)],
                       index_count=19, first_truncated_index=None)
    with pytest.raises(InvariantError, match="finite-prefix bound"):
        estimate_exponents(mt)
    assert not issubclass(InvariantError, ValueError)


def test_invariant_checks_survive_optimize():
    code = ("from fractions import Fraction\n"
            "from dioph_lab.dimfx import DimensionReport, InvariantError\n"
            "try:\n"
            "    DimensionReport(Fraction(2), 'upper', 'test')\n"
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = str(Path(dioph_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0
