"""Self-contained invariant suite: the one statement of the paper's claims.

Each check re-derives its expectation independently (brute-force scans,
alternative formulas, exact rational identities) and returns pass/fail with
a short detail string.  `dioph-lab verify` prints one line per check and
exits nonzero if any fails.  Each invariant is stated in `CHECKS`: Tier-1
runs it as `tests/test_acceptance.py::test_invariant[<name>]`.  Three unit
tests check the same properties on inputs that `verify` does not draw:
`test_exponents.py::test_prefix_extension_only_appends` and
`::test_greedy_resyncs_after_deleting_a_dominant_pair` (hypothesis
streams) and `test_boxdim.py::test_block_end_slope_stabilizes` (horizons up
to 8e5).  Run one check with `pytest tests/test_acceptance.py -k <name>`.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import pairwise

from . import boxdim, construct, digits, dimfx, exponents, sequences

LIN = sequences.make_sequence("linear")
GEO2 = sequences.make_sequence("geometric:eta=2,a1=1")


def _eta1_schedule(cover):
    return construct.schedule_eta1(LIN, F(3), F(1, 3), cover_to=cover)


def _geo_schedule(cover):
    return construct.schedule_geometric(GEO2, F(4), F(3, 2), 2, cover_to=cover)


def check_rational_digits():
    """Long division agrees with the direct-formula oracle digit by digit."""
    for base in (2, 3, 10):
        for q in range(2, 51):
            for p in range(1, q):
                got = digits.digits_from_rational(p, q, base, 64).data
                want = bytes(digits.CODE[(p * base ** j // q) % base] for j in range(1, 65))
                if got != want:
                    return False, f"mismatch at {p}/{q} base {base}"
    return True, "all p/q with q <= 50, bases 2/3/10, 64 digits"


def _run_ends(data: bytes) -> list[int]:
    """The 1-based end of the run of equal digits through each position, by
    a walk from the right that ends a run where its digit changes."""
    P = len(data)
    ends, end = [0] * P, P
    for j in range(P, 0, -1):  # 1-based, right to left
        if j < P and data[j] != data[j - 1]:
            end = j
        ends[j - 1] = end
    return ends


def greedy_dominant(pairs: list[exponents.MatchingPair]) -> list[exponents.MatchingPair]:
    """The greedy rule on an explicit pair list: the first pair, then each
    later one whose gap strictly exceeds every gap before it."""
    out: list[exponents.MatchingPair] = []
    best = None
    for p in pairs:
        if best is None or p.gap > best:
            out.append(p)
            best = p.gap
    return out


def check_run_maximality():
    """The run ends the record search reads (`digits._run_stop`) and the pair
    listing reads (`digits.run_end_table`, 0 off the 0/(b-1) runs) agree at
    every position with the walk from the right."""
    for seed in range(20):
        base = random.Random(seed).choice([2, 3, 10])
        stream = digits.random_digits(base, 2000, seed + 1000)
        data = stream.data
        table = digits.run_end_table(stream, range(1, len(data) + 1))
        for i, end in enumerate(_run_ends(data)):
            got = digits._run_stop(data, i)
            if got != end:
                return False, (f"run end {got} at position {i + 1}, scan says {end} "
                               f"(seed {seed})")
            if table[i] != (end if data[i] in stream.run_bytes else 0):
                return False, (f"run end table {table[i]} at position {i + 1}, scan says "
                               f"{end} (seed {seed})")
    return True, "20 seeded streams, direct scan"


def check_eta_estimates():
    for spec in ("linear", "poly:d=2", "poly:d=3"):
        seq = sequences.make_sequence(spec)
        est = sequences.eta_estimate(seq, 10 ** 4)
        if abs(est - 1) > F(1, 1000):
            return False, f"{spec}: eta estimate {est} not within 1e-3 of 1"
    for spec, ratio in (("geometric:eta=2,a1=1", F(2)), ("geometric:eta=3/2,a1=4", F(3, 2))):
        seq = sequences.make_sequence(spec)
        est = sequences.eta_estimate(seq, 60)
        if abs(est - ratio) > F(1, seq.a(54)):  # the window starts at 60 - 60 // 10
            return False, f"{spec}: estimate {est} too far from {ratio}"
    return True, "linear/poly -> 1, geometric -> ratio"


def check_greedy_properties():
    """Dominant selection is a strict-record rule: deterministic tail after a
    deletion, and prefix extension only appends."""
    for seed in range(12):
        stream = digits.random_digits(random.Random(seed).choice([2, 3, 10]), 6000, seed)
        mt = exponents.matching_times(stream, LIN)
        dom = mt.dominant
        if len(dom) < 3:
            continue
        pairs = mt.pairs
        for drop in range(1, len(dom)):
            redone = greedy_dominant([p for p in pairs if p != dom[drop]])
            if drop + 1 < len(dom):
                sync = dom[drop + 1]
                if sync not in redone:
                    return False, f"tail lost after dropping pair {drop} (seed {seed})"
                i = redone.index(sync)
                if redone[i:] != dom[drop + 1:]:
                    return False, f"tail differs after dropping pair {drop} (seed {seed})"
        half = exponents.matching_times(stream, LIN, 3000)
        if half.dominant != dom[: len(half.dominant)]:
            return False, f"prefix extension rewrote dominant pairs (seed {seed})"
    return True, "deletion re-sync and prefix monotonicity on seeded streams"


def check_roundtrip_recovery():
    """Emitted digits give back exactly the schedule's (a, m) pairs.

    Base 3 recovers every pair.  Base 2 may see one extra early pair from a
    1-run (1 is the top digit there), which can precede or displace the first
    schedule pair; past the first entry the recovery is exact.
    """
    for name, sched, seq in (("eta1", _eta1_schedule(10 ** 5), LIN),
                             ("geo", _geo_schedule(10 ** 5), GEO2)):
        want = [(e.a, e.m) for e in sched.entries if e.m <= 10 ** 5]
        for base in (3, 2):
            stream = construct.emit_digits(sched, base, 10 ** 5)
            got = [(p.a, p.m) for p in exponents.matching_times(stream, seq).dominant]
            if base == 3 and got != want:
                return False, f"{name}/b3: {got[:4]} != {want[:4]}"
            if base == 2:
                if want[1] not in got:
                    return False, f"{name}/b2: pair {want[1]} not recovered"
                tail = got[got.index(want[1]):]
                if tail != want[1:]:
                    return False, f"{name}/b2 past first entry: {tail[:4]} != {want[1:5]}"
    return True, "exact pair recovery at depth 1e5 (b=3 fully, b=2 past first)"


def check_exponent_targeting():
    sched = _eta1_schedule(10 ** 6)
    for base in (3, 2):
        stream = construct.emit_digits(sched, base, 10 ** 6)
        est = exponents.estimate_exponents(exponents.matching_times(stream, LIN))
        if abs(est.vhat_est - 1 / 3) > 0.02 or abs(est.v_est - 1.0) > 0.05:
            return False, f"eta1/b{base}: v={est.v_est}, vhat={est.vhat_est}"
    gsched = _geo_schedule(10 ** 6)
    for base in (3, 2):
        stream = construct.emit_digits(gsched, base, 10 ** 6)
        est = exponents.estimate_exponents(exponents.matching_times(stream, GEO2))
        if abs(est.vhat_est - 1.5) > 0.05 or abs(est.v_est - 6.0) > 0.1:
            return False, f"geo/b{base}: v={est.v_est}, vhat={est.vhat_est}"
    return True, "targets hit at depth 1e6 within documented tolerances"


def check_estimator_agreement():
    """Compare two windows of one reduction: the block and definition
    estimators evaluate the same uniform-exponent min at different indices."""
    for name, sched, seq in (("eta1", _eta1_schedule(10 ** 5), LIN),
                             ("geo", _geo_schedule(10 ** 5), GEO2)):
        for base in (3, 2):
            stream = construct.emit_digits(sched, base, 10 ** 5)
            mt = exponents.matching_times(stream, seq)
            est = exponents.estimate_exponents(mt)
            vd = exponents.estimate_vhat_definition(mt)
            if abs(est.vhat_est - vd) > 0.01:
                return False, f"{name}/b{base}: blocks {est.vhat_est} vs definition {vd}"
    return True, "block vs definition estimators within 0.01 at depth 1e5"


def check_exponent_inequality_everywhere():
    def cases():  # built one at a time, as they are checked
        yield construct.emit_digits(_eta1_schedule(10 ** 6), 3, 10 ** 6), LIN, 1.0
        yield construct.emit_digits(_geo_schedule(10 ** 6), 3, 10 ** 6), GEO2, 2.0
        for seed in range(100):
            yield digits.random_digits(10, 20000, seed), LIN, 1.0

    for stream, seq, eta in cases():
        est = exponents.estimate_exponents(exponents.matching_times(stream, seq))
        if not exponents.check_exponent_inequality(est.v_est, est.vhat_est, eta):
            return False, f"violated at depth {est.depth}: v={est.v_est}, vhat={est.vhat_est}"
    return True, ("both constructions plus 100 seeded random streams, "
                  f"tol {exponents.INEQUALITY_TOL}")


def check_eta1_consistency():
    for vhat in (F(1, 10), F(1, 3), F(1, 2), F(7, 10), F(9, 10)):
        for k in range(0, 60, 7):
            theta = 1 / (1 - vhat) + F(k, 10)
            a = dimfx.upper_bound_pair(F(1), vhat, theta)
            b = dimfx.dim_pair_eta1(vhat, theta)
            if a.value != b.value:
                return False, f"eta=1 mismatch at vhat={vhat}, theta={theta}"
    return True, "pair bound reduces exactly to the eta=1 formula"


def check_optimizer_identity():
    for vhat in (F(1, 3), F(1, 2), F(3, 5)):
        lo = 1 / (1 - vhat)
        grid = [lo + F(k, 100) for k in range(401)]
        vals = [(dimfx.dim_pair_eta1(vhat, th).value, th) for th in grid]
        best_val, best_th = max(vals)
        theta0 = 2 / (1 - vhat)
        if abs(best_th - theta0) > F(1, 100):
            return False, f"argmax {best_th} far from {theta0} (vhat={vhat})"
        exact = dimfx.dim_eta1(vhat).value
        if dimfx.dim_pair_eta1(vhat, theta0).value != exact:
            return False, f"peak value mismatch at vhat={vhat}"
        if best_val > exact:
            return False, f"grid max {best_val} above the exact value {exact} (vhat={vhat})"
    return True, "grid max sits at theta0 = 2/(1-vhat) and equals the exact value"


def check_sandwich_and_strictness():
    total = 0
    for eta in (F(3, 2), F(2), F(3)):
        l0 = dimfx.l0_threshold(eta)
        for l in range(l0, l0 + 4):
            p = eta ** l
            left = max(F(1), eta - 2 * eta / (p + 1))
            right = eta - 2 / p
            for vhat in dimfx.rational_linspace(left, right, 19)[1:-1]:
                total += 1
                th = dimfx.thresholds(eta, vhat)
                up = dimfx.refined_upper_bound(eta, vhat, th)
                low = dimfx.construction_lower_bound(eta, vhat, th)
                base = dimfx.baseline_bound(eta, vhat)
                if not up.domain_ok:
                    return False, f"window point rejected: eta={eta}, vhat={vhat}"
                if not up.value < base.value:
                    return False, f"not strictly below baseline at eta={eta}, vhat={vhat}"
                if not low.value <= up.value:
                    return False, f"lower above upper at eta={eta}, vhat={vhat}"
                ex = dimfx.exact_dimension_window(eta, vhat, th)
                if ex.domain_ok and ex.value != low.value:
                    return False, f"exact != lower at eta={eta}, vhat={vhat}"
    if total < 200:
        return False, f"only {total} window samples"
    return True, f"{total} window samples over eta in {{3/2, 2, 3}}"


def check_remark_equality():
    for eta in (F(3, 2), F(2), F(3)):
        l0 = dimfx.l0_threshold(eta)
        for l in range(l0, l0 + 4):
            vhat = eta - 2 / eta ** l
            th = dimfx.thresholds(eta, vhat)
            low = dimfx.construction_lower_bound(eta, vhat, th)
            base = dimfx.baseline_bound(eta, vhat)
            if low.value != base.value:
                return False, f"no equality at eta={eta}, l={l}"
            ex = dimfx.exact_dimension_window(eta, vhat, th)
            if not ex.domain_ok or ex.value != base.value:
                return False, f"window misses endpoint eta={eta}, l={l}"
    return True, "lower bound meets baseline exactly at vhat = eta - 2/eta^l"


def check_quadratic_roots():
    for eta in (F(3, 2), F(2), F(3)):
        for l in range(1, 5):
            p = eta ** l
            c2 = p ** 3
            c1 = -p * (p - 1) * (eta * p + p - 1)
            c0 = (p - 1) ** 2 * (eta * p - 1)
            t1 = (p - 1) / p
            t2 = eta - (p + eta * p - 1) / p ** 2
            for t in (t1, t2):
                if c2 * t * t + c1 * t + c0 != 0:
                    return False, f"root fails at eta={eta}, l={l}"
    return True, "branch-crossing quadratic vanishes at both closed-form roots"


def check_gap_coherence():
    """Below theta = 1/(eta - vhat) = 2 the pair set is empty by the exponent
    inequality, so the pair bound must say so as well as the gap test."""
    eta, vhat = F(2), F(3, 2)
    for k in range(0, 64):
        theta = F(k, 16)
        in_gap = (theta < 2) or (2 < theta < 4)
        if dimfx.theta_is_forbidden(eta, vhat, theta) != in_gap:
            return False, f"gap verdict wrong at theta={theta}"
        if theta < 2 and dimfx.upper_bound_pair(eta, vhat, theta).kind != dimfx.EMPTY:
            return False, f"pair bound not empty at theta={theta}"
    for theta in (F(2), F(4), F(9, 2)):
        if dimfx.theta_is_forbidden(eta, vhat, theta):
            return False, f"admissible theta {theta} flagged"
    return True, "grid over [0,2) u (2,4) forbidden, pair bound empty below 2; 2, 4, 4.5 admissible"


def check_measure_additivity():
    sched = _eta1_schedule(100)
    for base in (3, 2):
        # mass of the root cylinder of each admissible prefix must equal the
        # sum over its admissible one-digit extensions, read off the forced
        # runs that emission and box counting read
        forced = {p for lo, hi, _ in construct.forced_runs(sched, base, 31)
                  for p in range(lo, hi + 1)}
        for n in range(1, 31):
            parent = construct.mu_cylinder(sched, base, n)
            child = construct.mu_cylinder(sched, base, n + 1)
            n_children = 1 if n + 1 in forced else base
            # uniform rule: children split the parent mass equally
            total = n_children * F(1, base ** child)
            if total != F(1, base ** parent):
                return False, f"additivity fails at depth {n}, base {base}"
    return True, "child masses sum to the parent mass at depths <= 30"


def check_count_equals_measure():
    for name, sched in (("eta1", _eta1_schedule(10 ** 5)), ("geo", _geo_schedule(10 ** 5))):
        for base in (3, 2):
            mu = construct.mu_exponents_upto(sched, base, 10 ** 5)[1:]
            # the count table, filled a free stretch at a time, as box-dim builds it
            ct = boxdim.count_series(sched, base, range(1, 10 ** 5 + 1)).exponents()
            if mu != ct:
                bad = next(n for n, (x, y) in enumerate(zip(mu, ct), 1) if x != y)
                return False, f"{name}/b{base}: first mismatch at depth {bad}"
            if any(y < x for x, y in pairwise(mu)):
                return False, f"{name}/b{base}: mass exponent decreases"
    return True, "count exponent == mass exponent at every depth <= 1e5"


def check_local_dimension_limits():
    sched = _eta1_schedule(10 ** 6)
    ends = [m for m in sched.block_ends(10 ** 6) if m >= 10 ** 5]
    target = float(dimfx.dim_pair_eta1(F(1, 3), F(3)).value)
    for m in ends:
        if abs(construct.local_dimension(sched, 3, m) - target) > 0.02:
            return False, f"eta1 at block end {m}"
    gsched = _geo_schedule(10 ** 6)
    gtarget = float(construct.geometric_local_dimension_limit(F(2), F(4), F(3, 2), 2))
    gends = [m for m in gsched.block_ends(10 ** 6) if m >= 10 ** 5]
    for m in gends:
        if abs(construct.local_dimension(gsched, 3, m) - gtarget) > 0.01:
            return False, f"geo at block end {m}"
    return True, f"block ends past 1e5 within 0.02 of {target:.4f} and 0.01 of {gtarget:.6f}"


def check_slope_stabilization():
    sched = _eta1_schedule(4 * 10 ** 5)
    v1 = boxdim.dimension_slope(
        boxdim.count_series(sched, 3, sched.block_ends(10 ** 5)), boxdim.AT_BLOCK_ENDS)
    v2 = boxdim.dimension_slope(
        boxdim.count_series(sched, 3, sched.block_ends(2 * 10 ** 5)), boxdim.AT_BLOCK_ENDS)
    if v2 > v1 + 0.01:
        return False, f"liminf surrogate rose from {v1} to {v2}"
    series = boxdim.count_series(sched, 3, range(1, 10 ** 5 + 1))
    slope = boxdim.dimension_slope(series, boxdim.ALL_DEPTHS)
    if slope < v1 - 0.05:
        return False, f"regression slope {slope} far below block-end value {v1}"
    return True, "doubling the horizon never raises the liminf surrogate by > 0.01"


CHECKS = [
    ("rational-digits-vs-oracle", check_rational_digits),
    ("run-block-maximality", check_run_maximality),
    ("eta-estimates", check_eta_estimates),
    ("greedy-dominant-properties", check_greedy_properties),
    ("roundtrip-pair-recovery", check_roundtrip_recovery),
    ("exponent-targeting", check_exponent_targeting),
    ("estimator-agreement", check_estimator_agreement),
    ("exponent-inequality", check_exponent_inequality_everywhere),
    ("eta1-consistency", check_eta1_consistency),
    ("optimizer-identity", check_optimizer_identity),
    ("sandwich-and-strictness", check_sandwich_and_strictness),
    ("remark-equality", check_remark_equality),
    ("quadratic-roots", check_quadratic_roots),
    ("forbidden-gap-coherence", check_gap_coherence),
    ("measure-additivity", check_measure_additivity),
    ("count-equals-measure", check_count_equals_measure),
    ("local-dimension-limits", check_local_dimension_limits),
    ("slope-stabilization", check_slope_stabilization),
]


def run_all() -> bool:
    ok_all = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok_all
