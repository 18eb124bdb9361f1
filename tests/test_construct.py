import math
import tracemalloc
from fractions import Fraction as F
from itertools import pairwise
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioph_lab import boxdim, construct, digits, dimfx, exponents, sequences
from dioph_lab.construct import (
    emit_digits,
    mu_cylinder,
    mu_exponents_upto,
    schedule_eta1,
    schedule_geometric,
)

LIN = sequences.make_sequence("linear")
GEO2 = sequences.make_sequence("geometric:eta=2,a1=1")


def test_eta1_worked_schedule(small_sched):
    assert len(small_sched.entries) == 3
    e1, e2 = small_sched.entries[0], small_sched.entries[1]
    # thresholds: max(3, 1/2, 1) = 3, so the first usable value is 4
    assert (e1.a, e1.m, e1.t) == (4, 8, 1)
    assert (e2.a, e2.m, e2.t) == (13, 26, 1)
    assert small_sched.target_v == 1 and small_sched.vhat == F(1, 3)


def test_records_refuse_field_assignment(small_sched):
    stream = emit_digits(small_sched, 3, 120)
    mt = exponents.matching_times(stream, LIN)
    fields = [(small_sched, "entries"), (stream, "data"), (mt, "dominant"),
              (exponents.estimate_exponents(mt), "vhat_est"),
              (boxdim.count_series(small_sched, 3, range(1, 100)), "free"),
              (dimfx.dim_eta1(F(1, 3)), "value"), (dimfx.thresholds(F(2), F(3, 2)), "l0")]
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_eta1_theta0_matches_worked_example():
    # theta = 2/(1 - vhat) is the dimension-optimal choice; for vhat = 1/3
    # it coincides with the worked theta = 3 schedule
    sched = schedule_eta1(LIN, 2 / (1 - F(1, 3)), F(1, 3), cover_to=12)
    assert (sched.entries[0].a, sched.entries[0].m) == (4, 8)


def test_eta1_rejects_degenerate_theta():
    with pytest.raises(ValueError):
        schedule_eta1(LIN, F(3, 2), F(1, 3), cover_to=100)  # boundary excluded
    with pytest.raises(ValueError):
        schedule_eta1(LIN, F(3), F(0), cover_to=100)
    with pytest.raises(ValueError):
        schedule_eta1(LIN, F(3), F(1), cover_to=100)
    with pytest.raises(ValueError):
        schedule_eta1(GEO2, F(3), F(1, 3), cover_to=100)  # wrong growth regime


@pytest.mark.parametrize("spec,theta,vhat", [
    ("poly:d=2", F(6), F(1, 6)),
    ("poly:d=3", F(6), F(1, 6)),
    ("poly:d=2", F(7, 3), F(1, 2)),
    ("explicit", F(3), F(1, 3)),
])
def test_eta1_next_block_is_the_first_index_past_theta_a(spec, theta, vhat, tmp_path):
    if spec == "explicit":
        path = tmp_path / "seq.txt"
        path.write_text("".join(f"{math.isqrt(n ** 3) + n}\n" for n in range(1, 20001)))
        spec = f"file:{path}"
    seq = sequences.make_sequence(spec)
    sched = schedule_eta1(seq, theta, vhat, cover_to=10 ** 6)
    assert len(sched.entries) >= 4
    for e in sched.entries:
        assert seq.a(e.next_index - 1) <= theta * e.a < seq.a(e.next_index), e
        assert e.next_a == seq.a(e.next_index)


def test_geometric_worked_schedule():
    sched = schedule_geometric(GEO2, F(4), F(3, 2), 2, cover_to=1023)
    assert [(e.index, e.a, e.m, e.t) for e in sched.entries] == [
        (2, 2, 14, 0), (5, 16, 112, 0), (8, 128, 896, 0)]
    assert all(e.next_index == e.index + 3 for e in sched.entries)


def test_geometric_rejects_bad_parameters():
    with pytest.raises(ValueError):
        schedule_geometric(GEO2, F(14, 3), F(3, 2), 2, cover_to=100)  # right end open
    with pytest.raises(ValueError):
        schedule_geometric(GEO2, F(4), F(3, 2), 1, cover_to=100)  # stride too small
    with pytest.raises(ValueError):
        schedule_geometric(LIN, F(4), F(3, 2), 2, cover_to=100)  # eta not > 1
    with pytest.raises(ValueError):
        schedule_geometric(GEO2, F(7, 2), F(3, 2), 2, cover_to=100)  # below eta^l
    with pytest.raises(ValueError):
        schedule_geometric(GEO2, F(4), F(5, 2), 2, cover_to=100)  # vhat above eta


def _explicit(values):
    return sequences.DenominatorSequence("explicit", values=values)


POWERS_OF_2 = _explicit([2 ** k for k in range(30)])


@pytest.mark.parametrize("build,message", [
    # a jump from 100 to 5000 leaves one block with far too many markers
    (lambda: schedule_eta1(_explicit([*range(1, 101), 5000, *range(5001, 6000)]),
                           F(3), F(1, 3), cover_to=10 ** 4),
     "marker count t=122 exceeds bound 7"),
    (lambda: schedule_eta1(_explicit(list(range(1, 200))), F(3), F(1, 3), cover_to=10 ** 4),
     "sequence too short: index 200 unavailable"),
    (lambda: schedule_eta1(POWERS_OF_2, F(3), F(1, 3), cover_to=100), "not close to 1"),
    (lambda: schedule_geometric(POWERS_OF_2, F(4), F(3, 2), 2, cover_to=100),
     "declared growth exponent > 1"),
], ids=["marker-bound", "sequence-too-short", "eta1-on-doubling", "geometric-on-explicit"])
def test_block_loop_failures(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_block_loop_caps(monkeypatch):
    # the real caps take seconds to reach; lowered, the same paths run at once
    monkeypatch.setattr(construct, "MAX_ENTRIES", 3)
    with pytest.raises(ValueError, match="schedule exceeded 3 blocks"):
        schedule_eta1(LIN, F(3), F(1, 3), cover_to=10 ** 4)
    monkeypatch.setattr(construct, "START_SCAN_CAP", 2)
    with pytest.raises(ValueError, match="no valid start index below the scan cap 2"):
        schedule_eta1(LIN, F(3), F(1, 3), cover_to=10 ** 4)  # first start index is 4


def test_check_regime():
    construct.check_regime(LIN, "eta1")
    construct.check_regime(GEO2, "geometric")
    construct.check_regime(_explicit(list(range(1, 50))), "eta1")
    with pytest.raises(ValueError, match="needs growth exponent 1, sequence has 2"):
        construct.check_regime(GEO2, "eta1")
    with pytest.raises(ValueError, match="declared growth exponent > 1"):
        construct.check_regime(LIN, "geometric")
    with pytest.raises(ValueError, match="too short to check its growth exponent"):
        construct.check_regime(_explicit([5]), "eta1")
    with pytest.raises(ValueError, match="unknown regime"):
        construct.check_regime(LIN, "eta2")


def _clashing(*entries):
    """A schedule over a_n = n from (a, m, t, next_a) blocks, checked by
    nothing, so that its forces may clash."""
    return construct.CantorSchedule(seq=LIN, theta=F(3), vhat=F(1, 3), entries=tuple(
        construct.ScheduleEntry(index=a, a=a, m=m, t=t, next_index=nxt, next_a=nxt)
        for a, m, t, nxt in entries))


# the second block's marker at 6 lands inside the first block's zero run
MARKER_IN_ZERO_RUN = _clashing((4, 10, 0, 6), (6, 12, 0, 30))
# the second block's zero run 9..11 covers the first block's spaced marker at 10
ZERO_RUN_OVER_MARKER = _clashing((1, 4, 2, 8), (8, 12, 0, 20))


def test_emit_conflicting_digits_is_an_invariant_error():
    with pytest.raises(dimfx.InvariantError, match="conflicting digits at position 6"):
        emit_digits(MARKER_IN_ZERO_RUN, 3, 20)


def test_emit_zero_run_over_a_marker_is_an_invariant_error():
    with pytest.raises(dimfx.InvariantError, match="conflicting digits at position 10"):
        emit_digits(ZERO_RUN_OVER_MARKER, 3, 19)


@pytest.mark.parametrize("sched,upto,position", [
    (MARKER_IN_ZERO_RUN, 20, 6), (ZERO_RUN_OVER_MARKER, 19, 10)],
    ids=["marker-in-zero-run", "zero-run-over-marker"])
def test_counting_conflicts_are_the_same_invariant_error(sched, upto, position):
    """Box counting reads the forced runs, so a clash stops it as it stops
    emission, naming the same position."""
    with pytest.raises(dimfx.InvariantError,
                       match=f"^conflicting digits at position {position}$"):
        boxdim.count_series(sched, 3, range(1, upto + 1))


def apply_forces(sched, base, upto):
    """The forced digits of positions 0..upto as a bytearray, 1 + the digit
    at a forced position and 0 at a free one (position 0 is unused).

    The oracle of `construct.forced_runs`: it applies the schedule's forces
    in schedule order, one position at a time, and a position that already
    holds another digit is an InvariantError naming it.
    """
    cells = bytearray(upto + 1)

    def force(lo, hi, digit):
        for p in range(lo, min(hi, upto) + 1):
            if cells[p] not in (0, 1 + digit):
                raise dimfx.InvariantError(f"conflicting digits at position {p}")
            cells[p] = 1 + digit

    for e in sched.entries:
        if e.a > upto:
            break
        force(e.a, e.a, 1)
        force(e.a + 1, e.m - 1, 0)
        for j in range(e.t + 1):  # m_k, then the spaced markers
            force(e.m + j * e.gap, e.m + j * e.gap, 1)
            if base == 2 and j:
                force(e.m + j * e.gap - 1, e.m + j * e.gap - 1, 0)
    return cells


@given(blocks=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(0, 3)),
                       min_size=1, max_size=4),
       base=st.sampled_from([2, 3]), upto=st.integers(0, 120))
@settings(max_examples=300, deadline=None)
def test_forced_runs_name_the_first_clash_in_schedule_order(blocks, base, upto):
    """On random blocks, clashing or not, in any order: `forced_runs` raises
    where the oracle does, and otherwise lays out the same digits."""
    sched = _clashing(*[(a, a + gap, t, 200) for a, gap, t in blocks])
    try:
        want = apply_forces(sched, base, upto)
    except dimfx.InvariantError as exc:
        with pytest.raises(dimfx.InvariantError, match=f"^{exc}$"):
            construct.forced_runs(sched, base, upto)
        return
    runs = construct.forced_runs(sched, base, upto)
    assert all(hi < lo for (_, hi, _), (lo, _, _) in pairwise(runs))  # sorted, disjoint
    got = bytearray(upto + 1)
    for lo, hi, digit in runs:
        got[lo:hi + 1] = bytes((1 + digit,)) * (hi - lo + 1)
    assert got == want


@st.composite
def schedules(draw):
    """A schedule covering 3000 positions, in either regime."""
    if draw(st.booleans()):
        vhat = F(draw(st.integers(1, 8)), draw(st.integers(9, 12)))
        theta = 2 / (1 - vhat) + F(draw(st.integers(0, 6)), 2)
        return schedule_eta1(LIN, theta, vhat, cover_to=3000)
    eta = draw(st.sampled_from([F(3, 2), F(2)]))
    vhat = F(1, 4) + (eta - F(1, 2)) * F(draw(st.integers(2, 9)), 10 * draw(st.integers(8, 10)))
    seq = sequences.make_sequence(f"geometric:eta={eta.numerator}/{eta.denominator},a1=1")
    l = dimfx.thresholds(eta, vhat).lprime
    return schedule_geometric(seq, eta ** l, vhat, l, cover_to=3000)


SMALL = schedule_eta1(LIN, F(3), F(1, 3), cover_to=120)  # the small_sched fixture's schedule


@given(sched=schedules(), base=st.sampled_from([2, 3, 10]), upto=st.integers(0, 3000))
@example(sched=SMALL, base=2, upto=SMALL.covered_to)
@example(sched=SMALL, base=3, upto=SMALL.covered_to)
@settings(max_examples=40, deadline=None)
def test_emission_and_free_stretches_are_the_forced_cells(sched, base, upto):
    """Emission holds the forced digit of `apply_forces` at every forced
    position, FILL_DIGIT at every free one, and `constraint_mask` holds
    exactly the free positions, as maximal stretches."""
    cells = apply_forces(sched, base, upto)[1:]
    assert emit_digits(sched, base, upto).data == bytes(
        digits.CODE[c - 1 if c else construct.FILL_DIGIT] for c in cells)
    free = boxdim.constraint_mask(sched, base, upto)
    assert all(r.stop < s.start for r, s in pairwise(free))
    assert [p for r in free for p in r] == [p for p, c in enumerate(cells, 1) if not c]


def test_sandwich_and_gap_growth(eta1_sched, geo_sched):
    for sched in (eta1_sched, geo_sched):
        prev_gap = 0
        for e in sched.entries:
            assert e.a + 3 <= e.m <= e.next_a - 2
            assert e.gap > prev_gap
            prev_gap = e.gap


def test_marker_count_bound(eta1_sched):
    bound = math.ceil(2 / F(1, 3)) + 1
    assert all(e.t <= bound for e in eta1_sched.entries)


def test_emit_worked_example(small_sched):
    # markers at 4, 8, 12, 13 are all the digit 1
    assert emit_digits(small_sched, 3, 13).data == b"1111000111111"
    # forced zero right before the spaced marker at 12
    assert emit_digits(small_sched, 2, 13).data == b"1111000111011"


def test_emit_prefixes_are_consistent(small_sched):
    full = emit_digits(small_sched, 2, small_sched.covered_to)
    for upto in (0, 1, 4, 7, 8, 11, 12, 13, 26, 39):
        assert emit_digits(small_sched, 2, upto).data == full.data[:upto]


def test_emit_bounds(small_sched):
    assert emit_digits(small_sched, 3, 0).prefix_len == 0
    with pytest.raises(ValueError):
        emit_digits(small_sched, 3, small_sched.covered_to + 1)
    with pytest.raises(ValueError):
        emit_digits(small_sched, 1, 5)


def test_mu_worked_values(small_sched):
    assert mu_cylinder(small_sched, 3, 13) == 6  # 3 + (13-8-1-1)
    assert mu_cylinder(small_sched, 3, 20) == 6  # flat across the block
    assert mu_cylinder(small_sched, 3, 26) == 6
    assert mu_cylinder(small_sched, 3, 3) == 3  # all free below the first marker
    assert mu_cylinder(small_sched, 3, 8) == 3
    with pytest.raises(ValueError):
        mu_cylinder(small_sched, 3, small_sched.covered_to + 1)


# small schedules of the eta = 1, geo:l=2 and poly:d=2 constructions; the
# poly one has four spaced markers per block, which exercises the base-2 clamp
ORACLE_SCHEDULES = {
    "eta1": lambda: schedule_eta1(LIN, F(3), F(1, 3), cover_to=4000),
    "geo:l=2": lambda: schedule_geometric(GEO2, F(4), F(3, 2), 2, cover_to=4000),
    "poly:d=2": lambda: schedule_eta1(sequences.make_sequence("poly:d=2"), F(6), F(1, 6),
                                      cover_to=4000),
}


@pytest.mark.parametrize("base", [2, 3, 10])
@pytest.mark.parametrize("name", ORACLE_SCHEDULES)
def test_mu_cylinder_matches_the_table_at_every_depth(name, base):
    """The one-block lookup of `mu_cylinder` agrees with the full table,
    kept here as the oracle, at every depth the schedule covers."""
    sched = ORACLE_SCHEDULES[name]()
    table = mu_exponents_upto(sched, base, sched.covered_to)
    got = [mu_cylinder(sched, base, n) for n in range(1, sched.covered_to + 1)]
    assert got == table[1:].tolist()


def _mu_cylinder_peak(sched, n):
    """mu_cylinder(sched, 3, n) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        value = mu_cylinder(sched, 3, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def test_mu_cylinder_reads_one_block():
    """One depth costs one block's lookup, not a table over every depth: at
    10^6, where the table is the oracle, and at 10^15, where no table over
    the depths could be built."""
    n = 10 ** 6
    sched = schedule_eta1(LIN, F(3), F(1, 3), cover_to=n)
    value, peak = _mu_cylinder_peak(sched, n)
    assert value == mu_exponents_upto(sched, 3, n)[n]
    assert peak < 100_000  # a table over the depths would be 8 bytes per depth
    n = 10 ** 15
    sched = schedule_eta1(LIN, F(3), F(1, 3), cover_to=n)
    value, peak = _mu_cylinder_peak(sched, n)
    assert value == boxdim.count_series(sched, 3, [n]).count(n)
    assert peak < 100_000


def test_mu_monotone_and_bounded(small_sched):
    exps = mu_exponents_upto(small_sched, 3, small_sched.covered_to)
    assert all(exps[n] <= exps[n + 1] for n in range(1, small_sched.covered_to))
    assert all(0 <= exps[n] <= n for n in range(1, small_sched.covered_to + 1))
    # base 2 forces extra zeros, so it has fewer free positions at any depth
    exps2 = mu_exponents_upto(small_sched, 2, small_sched.covered_to)
    assert all(exps2[n] <= exps[n] for n in range(1, small_sched.covered_to + 1))


def test_limit_formulas():
    assert dimfx.dim_pair_eta1(F(1, 3), F(3)).value == F(1, 4)


GRID_SEQS = {F(3, 2): "geometric:eta=3/2,a1=4", F(2): "geometric:eta=2,a1=1",
             F(3): "geometric:eta=3,a1=1"}
GRID_BASES = (2, 3, 10)
# Block-end local dimensions past 1e5 sit within this of their limit.  Base 2
# comes closest to it: 2.46e-3 at eta = 2, vhat = 1/20, block end 144,179,
# about twice the worst of bases 3 and 10 (1.24e-3).
BLOCK_END_TOL = 3e-3


DEEP = 10 ** 15  # the grid schedules are checked at every block end up to here


def _assert_block_ends_meet(sched, eta, limit):
    """The schedule's block-end local dimensions meet the closed form
    `limit`, in each grid base: within BLOCK_END_TOL at every block end
    1e5 <= m <= 1e6, and within an exact bound C_k/m_k at every block end
    m_k <= DEEP.  At those block ends the count exponents of
    `boxdim.count_series` equal the mass exponents.

    C_k is derived from the schedule's entries.  Let R = eta*theta,
    s = 1 + theta*vhat, g_j = m_j - a_{i_j}, and c = 2 in base 2 (a forced
    zero before each spaced marker) or 1 otherwise.  The positions below
    a_{i_k} that earlier blocks force give the mass exponent at m_k:

        E_k = a_{i_k} - 1 - sum_{j<k} (g_j + 1 + c*t_j).

    The floor in m_j leaves delta_j = s*a_{i_j} - m_j in [0, 1), and the
    next block starts eps_j = a_{i_{j+1}} - R*a_{i_j} from R*a_{i_j}.  For
    L = limit with L*s = lam = (R - s)/(R - 1) the terms in a_{i_k} cancel:

        E_k - L*m_k = (1 - lam)*a_{i_1} - 1 + L*delta_k
                      + sum_{j<k} ((1 - lam)*eps_j + delta_j - 1 - c*t_j).

    With 1 - lam = (s - 1)/(R - 1), |L| <= 1 and 0 <= delta_j < 1:

        |E_k - L*m_k| <= C_k = (1 - lam)*a_{i_1} + 2
                               + sum_{j<k} ((1 - lam)*|eps_j| + 1 + c*t_j).

    C_k gains O(1 + t_j) a block while m_k grows geometrically, so a closed
    form off by any fixed amount leaves a term in a_{i_k} that outgrows C_k.
    """
    ends = sched.block_ends(DEEP)
    assert sched.covered_to >= DEEP and len(ends) >= 3
    r, s = eta * sched.theta, 1 + sched.target_v
    one_minus_lam = (s - 1) / (r - 1)
    for base in GRID_BASES:
        c = 2 if base == 2 else 1
        bound = one_minus_lam * sched.entries[0].a + 2
        mus = []
        for e in sched.entries[:len(ends)]:
            mu = mu_cylinder(sched, base, e.m)
            assert abs(mu - limit * e.m) <= bound, (sched.vhat, base, e.m)
            if 10 ** 5 <= e.m <= 10 ** 6:
                assert mu / e.m == pytest.approx(float(limit), abs=BLOCK_END_TOL), (
                    sched.vhat, base, e.m)
            mus.append(mu)
            bound += one_minus_lam * abs(e.next_a - r * e.a) + 1 + c * e.t
        assert boxdim.count_series(sched, base, ends).exponents().tolist() == mus


@pytest.mark.parametrize("eta", sorted(GRID_SEQS), ids=str)
def test_construction_lower_bound_is_the_block_end_limit_over_a_grid(eta):
    """At stride l = ltilde and theta = eta^l, at 30 vhat across (0, eta),
    every schedule builds to 1e15, and its block-end local dimensions meet
    the construction lower bound in bases 2, 3 and 10."""
    seq = sequences.make_sequence(GRID_SEQS[eta])
    for vhat in dimfx.rational_linspace(F(1, 20), eta - F(1, 20), 30):
        th = dimfx.thresholds(eta, vhat)
        l = th.ltilde
        sched = schedule_geometric(seq, eta ** l, vhat, l, cover_to=DEEP)
        _assert_block_ends_meet(sched, eta, dimfx.construction_lower_bound(eta, vhat, th).value)


def test_pair_formula_at_theta0_is_the_eta1_dimension():
    """At eta = 1 the pair (theta0, vhat) with theta0 = 2/(1 - vhat) attains
    dim_eta1, at 30 vhat across [1/20, 19/20], and the eta1 schedule's
    block-end local dimensions meet it in bases 2, 3 and 10."""
    for vhat in dimfx.rational_linspace(F(1, 20), F(19, 20), 30):
        theta0 = 2 / (1 - vhat)
        limit = dimfx.dim_pair_eta1(vhat, theta0).value
        assert limit == dimfx.dim_eta1(vhat).value, vhat
        _assert_block_ends_meet(schedule_eta1(LIN, theta0, vhat, cover_to=DEEP), 1, limit)


def estimator_grid_transcript() -> str:
    """The estimators' residual table over the grid points above, one row per
    (eta, vhat, base) at depth 1e6: the geometric points at stride ltilde
    and theta = eta^ltilde, and eta = 1 at theta0 = 2/(1 - vhat)."""
    rows = ["eta,vhat,base,k_count,burn_in,v_est,vhat_est,vhat_def,def_grid_len"]
    depth = 10 ** 6
    points = []
    for eta in sorted(GRID_SEQS):
        seq = sequences.make_sequence(GRID_SEQS[eta])
        for vhat in dimfx.rational_linspace(F(1, 20), eta - F(1, 20), 30):
            l = dimfx.thresholds(eta, vhat).ltilde
            points.append((eta, vhat, schedule_geometric(seq, eta ** l, vhat, l,
                                                         cover_to=depth)))
    for vhat in dimfx.rational_linspace(F(1, 20), F(19, 20), 30):
        points.append((F(1), vhat, schedule_eta1(LIN, 2 / (1 - vhat), vhat, cover_to=depth)))
    for eta, vhat, sched in points:
        for base in GRID_BASES:
            mt = exponents.matching_times(emit_digits(sched, base, depth), sched.seq)
            est = exponents.estimate_exponents(mt)
            vdef = exponents.estimate_vhat_definition(mt)
            rows.append(f"{eta},{vhat},{base},{est.k_count},{est.burn_in},{est.v_est:.12g},"
                        f"{est.vhat_est:.12g},{vdef:.12g},{len(exponents.definition_grid(mt))}")
    return "\n".join(rows) + "\n"


def test_estimator_grid_is_pinned():
    """The estimates, dominant-pair count, burn-in and definition-grid size
    at every grid point keep the values in estimator_grid_pinned.txt, misses
    included (CHANGES.md records them)."""
    pinned = Path(__file__).with_name("estimator_grid_pinned.txt").read_text()
    assert estimator_grid_transcript() == pinned


def test_roundtrip_recovers_schedule_pairs(eta1_sched, geo_sched, eta1_streams,
                                           geo_streams):
    for sched, streams, seq in ((eta1_sched, eta1_streams, LIN),
                                (geo_sched, geo_streams, GEO2)):
        want = [(e.a, e.m) for e in sched.entries if e.m <= 10 ** 6]
        got3 = [(p.a, p.m) for p in exponents.matching_times(streams[3], seq).dominant]
        assert got3 == want
        got2 = [(p.a, p.m) for p in exponents.matching_times(streams[2], seq).dominant]
        tail = got2[got2.index(want[1]):]
        assert tail == want[1:]


def _count_exponents(sched, base, max_n):
    # positional route, for cross-checking the mass arithmetic: the count
    # exponents at depths 1..max_n, filled from the free stretches
    return boxdim.count_exponents_upto(sched, base, max_n).exponents()


def test_many_marker_schedule():
    # theta = 6, vhat = 1/6 gives t_k >= 2: several spaced markers per block,
    # so the base-2 variant forces several extra zeros per block
    depth = 10 ** 5
    sched = schedule_eta1(LIN, F(6), F(1, 6), cover_to=depth)
    assert max(e.t for e in sched.entries) >= 2
    for base in (3, 2):
        mu = mu_exponents_upto(sched, base, depth)
        ct = _count_exponents(sched, base, depth)
        assert mu[1:] == ct
        stream = emit_digits(sched, base, depth)
        est = exponents.estimate_exponents(exponents.matching_times(stream, LIN))
        assert est.v_est == pytest.approx(1.0, abs=0.05)
        assert est.vhat_est == pytest.approx(1 / 6, abs=0.02)
        cells = apply_forces(sched, base, 31)
        for n in range(1, 31):
            parent = mu_cylinder(sched, base, n)
            child = mu_cylinder(sched, base, n + 1)
            children = 1 if cells[n + 1] else base
            assert children * F(1, base ** child) == F(1, base ** parent)


def test_geometric_schedule_with_markers():
    # vhat = 1/2 at theta = 4 = eta^2 leaves room for t_k = 2 spaced markers
    depth = 10 ** 5
    sched = schedule_geometric(GEO2, F(4), F(1, 2), 2, cover_to=depth)
    assert max(e.t for e in sched.entries) >= 1
    for base in (3, 2):
        mu = mu_exponents_upto(sched, base, depth)
        ct = _count_exponents(sched, base, depth)
        assert mu[1:] == ct
        stream = emit_digits(sched, base, depth)
        est = exponents.estimate_exponents(exponents.matching_times(stream, GEO2))
        assert est.v_est == pytest.approx(2.0, abs=0.1)
        assert est.vhat_est == pytest.approx(0.5, abs=0.05)


@given(num=st.integers(1, 8), den=st.integers(9, 12))
@settings(max_examples=25, deadline=None)
def test_random_eta1_schedules_are_coherent(num, den):
    """Any admissible (theta, vhat) pair yields a schedule whose emission,
    mass arithmetic, and positional counts all agree."""
    vhat = F(num, den)  # in (0, 1)
    theta = 2 / (1 - vhat)  # always strictly above the construction cutoff
    depth = 3000
    sched = schedule_eta1(LIN, theta, vhat, cover_to=depth)
    want = [(e.a, e.m) for e in sched.entries if e.m <= depth]
    for base in (3, 2):
        mu = mu_exponents_upto(sched, base, depth)
        ct = _count_exponents(sched, base, depth)
        assert mu[1:] == ct
        assert all(x <= y for x, y in pairwise(mu[1:]))
        stream = emit_digits(sched, base, depth)
        got = [(p.a, p.m) for p in exponents.matching_times(stream, LIN).dominant]
        if base == 3:
            assert got == want
        else:
            # base 2 also sees 1-runs: the fill before the first marker gives
            # a pair of gap about a_1, which can outrank several early blocks,
            # and a trailing 1-run can add a pair of gap up to gap_k + 2.
            # Blocks safely above both thresholds must still be recovered.
            first_a = sched.entries[0].a
            prev_gap = 0
            for pair in want:
                gap = pair[1] - pair[0]
                if gap > first_a + 2 and gap > prev_gap + 2:
                    assert pair in got
                prev_gap = gap


@given(eta=st.sampled_from([F(3, 2), F(2)]),
       num=st.integers(2, 9), den=st.integers(8, 10))
@settings(max_examples=25, deadline=None)
def test_random_geometric_schedules_are_coherent(eta, num, den):
    from dioph_lab import dimfx

    vhat = F(1, 4) + (eta - F(1, 2)) * F(num, 10 * den)  # inside [1/4, eta - 1/4]
    if not vhat < eta - F(1, 4):
        return
    seq = sequences.make_sequence(
        f"geometric:eta={eta.numerator}/{eta.denominator},a1=1")
    l = dimfx.thresholds(eta, vhat).lprime
    theta = eta ** l  # left endpoint of the admissible range
    depth = 3000
    sched = schedule_geometric(seq, theta, vhat, l, cover_to=depth)
    assert all(e.next_index == e.index + l + 1 for e in sched.entries)
    for base in (3, 2):
        mu = mu_exponents_upto(sched, base, depth)
        ct = _count_exponents(sched, base, depth)
        assert mu[1:] == ct
        stream = emit_digits(sched, base, depth)
        dom = [(p.a, p.m) for p in exponents.matching_times(stream, seq).dominant]
        want = [(e.a, e.m) for e in sched.entries if e.m <= depth]
        if want and base == 3:
            assert dom == want


def test_eta1_regime_with_square_sequence():
    # growth exponent 1 with a_n != n: the square sequence
    squares = sequences.make_sequence("poly:d=2")
    depth = 10 ** 5
    sched = schedule_eta1(squares, F(3), F(1, 3), cover_to=depth)
    stream = emit_digits(sched, 3, depth)
    mt = exponents.matching_times(stream, squares)
    est = exponents.estimate_exponents(mt)
    assert est.v_est == pytest.approx(1.0, abs=0.05)
    assert est.vhat_est == pytest.approx(1 / 3, abs=0.02)
    vdef = exponents.estimate_vhat_definition(mt)
    assert abs(est.vhat_est - vdef) <= 0.01
