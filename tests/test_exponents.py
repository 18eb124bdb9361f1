import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dioph_lab
from dioph_lab import digits, exponents, sequences
from dioph_lab.digits import DigitStream
from dioph_lab.dimfx import InvariantError
from dioph_lab.exponents import (
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
    data = bytearray(depth)
    k = 1
    while k <= depth:
        data[k - 1] = 1
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
    assert estimate_v(mt, 2) == pytest.approx(1.0, abs=0.05)
    assert estimate_vhat_blocks(mt, 2) == pytest.approx(0.5, abs=0.05)
    grid = [2 ** k - 1 for k in range(8, 16)]
    vd = estimate_vhat_definition(mt, grid)
    assert vd == pytest.approx(0.5, abs=0.05)


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
    assert mt.empty
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
    # past a two-pair burn-in every surviving ratio is tiny
    assert estimate_v(mt, 2) < 0.2
    assert estimate_vhat_blocks(mt, 2) < 0.1
    est = estimate_exponents(mt)
    assert est.vhat_est < 0.1
    assert est.v_est < 0.3  # the default burn-in keeps one early small-index pair


def test_too_few_pairs_errors():
    mt = matching_times(power_sum_stream(64), LIN)
    with pytest.raises(ValueError):
        estimate_v(mt, len(mt.dominant))
    with pytest.raises(ValueError):
        estimate_vhat_blocks(mt, len(mt.dominant) - 1)


def test_check_exponent_inequality():
    assert check_exponent_inequality(1.0, 0.5, 1, 0.05)
    assert not check_exponent_inequality(0.3, 0.5, 1, 0.05)
    assert check_exponent_inequality(0.0, 0.0, 1, 0.0)
    assert check_exponent_inequality(123.0, 0.0, 1, 0.0)
    with pytest.raises(ValueError):
        check_exponent_inequality(1.0, 1.5, 1.0, 0.05)


def test_definition_estimator_refuses_truncated_grid():
    stream = digits.digits_from_string("0" * 900 + "1" * 100, 2, tail_guard=False)
    mt = matching_times(stream, LIN)
    with pytest.raises(ValueError, match="cut off"):
        estimate_vhat_definition(mt, [950])
    with pytest.raises(ValueError, match="exceeds prefix"):
        estimate_vhat_definition(mt, [5000])
    with pytest.raises(ValueError):
        estimate_vhat_definition(mt, [])


def test_definition_grid_respects_conservative_cap():
    stream = power_sum_stream(2 ** 16)
    mt = matching_times(stream, LIN)
    grid = definition_grid(mt)
    longest = max(p.gap for p in mt.pairs)
    assert grid[-1] + longest <= stream.prefix_len
    vd = estimate_vhat_definition(mt, grid)
    assert vd == pytest.approx(0.5, abs=0.05)


@st.composite
def digit_streams(draw):
    base = draw(st.sampled_from([2, 3, 10]))
    n = draw(st.integers(40, 400))
    seed = draw(st.integers(0, 10 ** 6))
    return digits.random_digits(base, n, seed)


@given(digit_streams())
@settings(max_examples=60, deadline=None)
def test_pair_semantics_against_direct_scan(stream):
    mt = matching_times(stream, LIN)
    top = stream.base - 1
    for p in mt.pairs[:50]:
        assert p.m >= p.a + 2
        run_value = stream.digit(p.a + 1)
        assert run_value in (0, top)
        assert all(stream.digit(j) == run_value for j in range(p.a + 1, p.m))
        assert stream.digit(p.m) != run_value


@given(digit_streams())
@settings(max_examples=60, deadline=None)
def test_dominant_gaps_strictly_increase(stream):
    mt = matching_times(stream, LIN)
    gaps = [p.gap for p in mt.dominant]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert set(mt.dominant) <= set(mt.pairs)
    assert mt.dominant == greedy_dominant(mt.pairs)


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
    est = estimate_exponents(mt, 0.2)
    assert est.depth == 2 ** 14
    assert est.burn_in == 2
    assert est.k_count == len(mt.dominant)
    assert 0 < est.vhat_est <= est.v_est
    assert est.eta == 1.0


def test_estimate_exponents_bound_raises_invariant_error():
    # No prefix yields this table: a_n falls after n = 1, so the run after
    # a_1 is divided by a(1) = 1 < a_1 and vhat = 5 overshoots the
    # finite-prefix bound eta * (v + 2/a(i_last)) = 1 * (3 + 1).
    gap = np.array([5, 0, 6])
    mt = MatchingTimes(depth=20, seq=LIN, a=np.array([10, 1, 2]), gap=gap,
                       dominant_mask=gap > 0, first_truncated_index=None,
                       longest_complete_run=6)
    with pytest.raises(InvariantError, match="finite-prefix bound"):
        estimate_exponents(mt, 0.0)
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
