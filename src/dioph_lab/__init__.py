"""Approximation exponents of b-ary digit streams over restricted
denominator sequences, explicit Cantor-type constructions with prescribed
exponent pairs, and the closed-form dimension bounds they realize."""

from .digits import (
    DigitStream,
    check_tail_guard,
    digits_from_rational,
    digits_from_string,
    load_digit_file,
    random_digits,
    save_digit_file,
)
from .sequences import DenominatorSequence, eta_estimate, make_sequence, parse_rational
from .exponents import (
    ExponentEstimate,
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
from .construct import (
    CantorSchedule,
    ScheduleEntry,
    check_regime,
    constrained_digit,
    emit_digits,
    eta1_local_dimension_limit,
    forced_digits,
    geometric_local_dimension_limit,
    local_dimension,
    mu_cylinder,
    mu_exponents_upto,
    schedule_eta1,
    schedule_geometric,
)
from .dimfx import (
    DimensionReport,
    InvariantError,
    ThetaInterval,
    Thresholds,
    baseline_bound,
    construction_lower_bound,
    dim_eta1,
    dim_pair_eta1,
    exact_dimension_window,
    floor_log,
    forbidden_theta_gaps,
    l0_threshold,
    rational_linspace,
    refined_upper_bound,
    theta_is_forbidden,
    thresholds,
    upper_bound_pair,
    upper_bound_strip,
)
from .boxdim import (
    CountSeries,
    count_exponents_upto,
    count_series,
    dimension_slope,
)

__version__ = "0.1.0"
