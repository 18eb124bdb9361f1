"""Closed-form dimension values, bounds, thresholds, and admissibility.

Every formula is evaluated in exact rational arithmetic; floats appear only
when callers format output.  Integer thresholds are floors of log ratios:
`floor_log` guesses one from float logs, then settles it with exact powers
of eta, because interval endpoints sit exactly at such powers and float logs
misround there.  The guess is off by a step or so, so the search takes a
few exact powers however large its answer is.  No exponent past
`MAX_EXPONENT` is raised (`check_power`), and an exact value is turned into
text by `exact_text`, which names what is too long to print.

This module imports no other layer.  The command line loads it only when
it converts a rational flag (`parse_rational`, `rational_linspace`) or runs
a command that evaluates a formula.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from . import InvariantError

# Largest |f| for which an exact power eta^f is raised.  As eta nears 1 the
# thresholds grow like log(1/(eta - 1))/(eta - 1), and the formulas' terms
# carry eta^f.  Over eta = (k+1)/k, k = 150..315, and 79 vhat each, the
# smallest threshold among the points whose values no longer print (past
# Python's 4300-digit int-to-str limit) was 1131, and every point up to
# 1000 evaluates in milliseconds.  Past the cap the formulas raise ValueError.
MAX_EXPONENT = 1000

EXACT = "exact"
UPPER = "upper"
LOWER = "lower"
EMPTY = "empty"


class _ReportFields(NamedTuple):
    value: Fraction | None
    kind: str  # exact | upper | lower | empty
    source: str
    condition: str = ""


class DimensionReport(_ReportFields):
    """One formula's dimension value, checked to lie in [0, 1] (0 when empty)."""

    __slots__ = ()

    def __new__(cls, value: Fraction | None, kind: str, source: str, condition: str = ""):
        if kind == EMPTY and value != 0:
            raise InvariantError(f"empty set reported with dimension {value}")
        if value is not None and not 0 <= value <= 1:
            raise InvariantError(f"dimension {value} outside [0, 1]")
        return super().__new__(cls, value, kind, source, condition)

    @property
    def domain_ok(self) -> bool:  # the formula claims a value here
        return self.value is not None


class Thresholds(NamedTuple):
    l0: int
    l1: int
    ltilde: int
    lprime: int


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q'; decimal forms are rejected to keep arithmetic exact."""
    text = text.strip()
    parts = text.split("/")
    if len(parts) > 2 or not all(p.removeprefix("+").isdecimal() for p in parts):
        raise ValueError(f"{text!r} is not a p or p/q rational")
    try:
        terms = [int(p) for p in parts]
    except ValueError:  # a term past the interpreter's int-from-text limit
        longest = max(len(p.removeprefix("+")) for p in parts)
        raise ValueError(f"a {longest}-digit integer is past the limit "
                         f"{sys.get_int_max_str_digits()} on integers read from text") from None
    if len(terms) == 2 and terms[1] == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(*terms)


def _ln(q: Fraction) -> float:
    """Natural log of a positive rational: big terms do not overflow, and
    near 1, where the logs of numerator and denominator cancel, log1p of
    the exact q - 1 keeps every digit."""
    if Fraction(1, 2) < q < 2:
        return math.log1p(q - 1)
    return math.log(q.numerator) - math.log(q.denominator)


def check_power(eta: Fraction, f: int | float) -> None:
    """Refuse the exact power eta^f when |f| is past MAX_EXPONENT; `f` is the
    exponent, or a float estimate of it."""
    if not abs(f) <= MAX_EXPONENT:
        power = f"eta^{f}" if isinstance(f, int) else f"eta^f with f near {f:.3g}"
        raise ValueError(f"eta = {eta} needs its power {power}, past the cap "
                         f"{MAX_EXPONENT} on exact exponents")


def exact_text(x: Fraction, what: str) -> str:
    """`str(x)`.  An eta with long terms gives exact values with more digits
    than Python turns into text; those raise one ValueError naming `what`,
    its length and the limit, instead of Python's advice on raising it."""
    try:
        return str(x)
    except ValueError:
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise ValueError(f"{what} has about {bits * math.log10(2):.3g} digits, past the "
                         f"limit {sys.get_int_max_str_digits()} on printed integers") from None


def floor_log(eta: Fraction, x: Fraction) -> int:
    """Unique integer f with eta^f <= x < eta^(f+1); |f| at most MAX_EXPONENT."""
    eta, x = Fraction(eta), Fraction(x)
    if eta <= 1:
        raise ValueError(f"eta must exceed 1, got {eta}")
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    step = _ln(eta)
    guess = _ln(x) / step if step > 0 else math.inf  # 0 only if eta - 1 underflows
    check_power(eta, guess)
    f = math.floor(guess)
    p = eta ** f  # the one large power; the steps multiply by the small eta
    while p > x:
        p /= eta
        f -= 1
    while p * eta <= x:
        p *= eta
        f += 1
    return f


def smallest_power_at_least(eta: Fraction, x: Fraction) -> int:
    """Smallest integer l >= 1 with eta^l >= x."""
    return max(1, -floor_log(eta, 1 / Fraction(x)))


def _empty_below(eta: Fraction, vhat: Fraction) -> Fraction:
    """The theta below which the (vhat, theta*vhat) pair set is empty."""
    return max(Fraction(1), 1 / (eta - vhat))


def l0_threshold(eta: Fraction) -> int:
    """First stride index whose vhat window can open (depends on eta only)."""
    eta = Fraction(eta)
    if eta <= 1:
        raise ValueError(f"needs eta > 1, got {eta}")
    return max(1, floor_log(eta, 2 / (eta - 1)) + 1)


def thresholds(eta: Fraction, vhat: Fraction) -> Thresholds:
    """The four integer regime thresholds for growth exponent eta > 1."""
    eta, vhat = Fraction(eta), Fraction(vhat)
    if eta <= 1:
        raise ValueError(f"thresholds need eta > 1, got {eta}")
    if not 0 < vhat < eta:
        raise ValueError(f"vhat must lie in (0, {eta}), got {vhat}")
    l0 = l0_threshold(eta)
    l1 = floor_log(eta, 2 / (eta - vhat)) + 1
    ltilde = max(1, floor_log(eta, (eta + 1) / (eta - vhat)))
    lprime = max(1, floor_log(eta, 1 / (eta - vhat)) + 1)
    return Thresholds(l0=l0, l1=l1, ltilde=ltilde, lprime=lprime)


def dim_eta1(vhat: Fraction) -> DimensionReport:
    """Exact dimension in the eta = 1 regime: ((1-vhat)/(1+vhat))^2."""
    vhat = Fraction(vhat)
    if not 0 <= vhat <= 1:
        raise ValueError(f"vhat must lie in [0, 1], got {vhat}")
    value = ((1 - vhat) / (1 + vhat)) ** 2
    return DimensionReport(value=value, kind=EXACT, source="eta1-exact",
                           condition="0 <= vhat <= 1")


def dim_pair_eta1(vhat: Fraction, theta: Fraction) -> DimensionReport:
    """Exact dimension of the (vhat, theta*vhat) pair set when eta = 1."""
    vhat, theta = Fraction(vhat), Fraction(theta)
    if not 0 < vhat < 1:
        raise ValueError(f"vhat must lie in (0, 1), got {vhat}")
    cut = _empty_below(Fraction(1), vhat)
    if theta < cut:
        return DimensionReport(value=Fraction(0), kind=EMPTY, source="pair-eta1",
                               condition=f"theta < {cut}: empty")
    tv = theta * vhat
    value = (theta - 1 - tv) / ((theta - 1) * (1 + tv))
    return DimensionReport(value=value, kind=EXACT, source="pair-eta1",
                           condition=f"theta >= {cut}")


def _pair_bound(eta: Fraction, vhat: Fraction, theta: Fraction) -> Fraction:
    """The (vhat, theta*vhat) pair-set bound; the eta > 1 formulas take it at
    theta = eta^l."""
    tv = theta * vhat
    return (eta * theta - 1 - tv) / ((eta * theta - 1) * (1 + tv))


def upper_bound_pair(eta: Fraction, vhat: Fraction, theta: Fraction) -> DimensionReport:
    """Upper bound for the (vhat, theta*vhat) pair set, any eta >= 1."""
    eta, vhat, theta = Fraction(eta), Fraction(vhat), Fraction(theta)
    if not 0 < vhat < eta:
        raise ValueError(f"vhat must lie in (0, {eta}), got {vhat}")
    cut = _empty_below(eta, vhat)
    if theta < cut:
        return DimensionReport(value=Fraction(0), kind=EMPTY, source="pair-upper",
                               condition=f"theta < {cut}: empty")
    return DimensionReport(value=_pair_bound(eta, vhat, theta), kind=UPPER,
                           source="pair-upper", condition=f"theta >= {cut}")


def upper_bound_strip(eta: Fraction, vhat: Fraction, theta: Fraction,
                      rho: Fraction) -> DimensionReport:
    """Upper bound when the asymptotic exponent may exceed theta*vhat by rho."""
    eta, vhat, theta, rho = map(Fraction, (eta, vhat, theta, rho))
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    cut = _empty_below(eta, vhat)
    if theta < cut:
        raise ValueError(f"theta must be >= {cut}, got {theta}")
    tv = theta * vhat
    num = vhat * (eta * theta - 1 - tv) + rho * (eta - vhat)
    den = (1 + tv) * ((eta * theta - 1) * vhat + eta * rho)
    return DimensionReport(value=num / den, kind=UPPER, source="strip-upper",
                           condition=f"theta >= {cut}, rho >= 0")


def baseline_bound(eta: Fraction, vhat: Fraction) -> DimensionReport:
    """The all-purpose upper bound ((eta-vhat)/(eta+vhat))^2."""
    eta, vhat = Fraction(eta), Fraction(vhat)
    if not 0 <= vhat <= eta:
        raise ValueError(f"vhat must lie in [0, {eta}], got {vhat}")
    value = ((eta - vhat) / (eta + vhat)) ** 2
    return DimensionReport(value=value, kind=UPPER, source="baseline",
                           condition="0 <= vhat <= eta")


def refined_upper_bound(eta: Fraction, vhat: Fraction, th: Thresholds) -> DimensionReport:
    """Refined upper bound on the union of admissible vhat windows (eta > 1);
    `th` is `thresholds(eta, vhat)`.

    Outside the windows no value is claimed (domain_ok False).  Inside, the
    bound is strictly below baseline_bound; that strictness is checked.
    """
    eta, vhat = Fraction(eta), Fraction(vhat)
    p = eta ** th.l1
    cond = (f"window l={th.l1}: max(1, eta - 2*eta/(eta^l+1)) < vhat < eta - 2/eta^l, "
            f"l >= l0={th.l0}; eta taken as the exact limit of a(n+1)/a(n), "
            "which a finite prefix cannot certify")
    if th.l1 < th.l0 or not max(Fraction(1), eta - 2 * eta / (p + 1)) < vhat < eta - 2 / p:
        return DimensionReport(value=None, kind=UPPER, source="refined-upper",
                               condition=cond)
    branch_a = _pair_bound(eta, vhat, p)
    l2 = smallest_power_at_least(eta, 1 / (eta - vhat))
    if l2 == th.l1:
        value = branch_a
    else:
        q = eta ** (th.l1 - 1)
        branch_b = (p - 1 - q * vhat) / (q * (eta * (p - 1) - vhat))
        value = max(branch_a, branch_b)
    base = baseline_bound(eta, vhat).value
    if not value < base:
        raise InvariantError(f"refined bound {value} not below baseline {base}")
    return DimensionReport(value=value, kind=UPPER, source="refined-upper",
                           condition=cond)


def construction_lower_bound(eta: Fraction, vhat: Fraction, th: Thresholds) -> DimensionReport:
    """Best lower bound realized by fixed-stride schedules (eta > 1); `th`
    is `thresholds(eta, vhat)`."""
    eta, vhat = Fraction(eta), Fraction(vhat)
    value = _pair_bound(eta, vhat, eta ** th.ltilde)
    return DimensionReport(value=value, kind=LOWER, source="construction-lower",
                           condition=f"optimal stride ltilde={th.ltilde}")


def exact_dimension_window(eta: Fraction, vhat: Fraction, th: Thresholds) -> DimensionReport:
    """Exact dimension where upper and lower bounds meet (eta > 1); `th` is
    `thresholds(eta, vhat)`.

    The admissible vhat windows are left-open, right-closed; the right
    endpoints eta - 2/eta^l are exactly the values where the bound equals
    baseline_bound.  Their stride `lc` is not `th.l1`: the two differ
    where 2/(eta - vhat) is an exact power of eta.
    """
    eta, vhat = Fraction(eta), Fraction(vhat)
    lc = smallest_power_at_least(eta, 2 / (eta - vhat))
    p = eta ** lc
    left = max(Fraction(1), eta - (p + eta * p - 1) / p ** 2)
    right = eta - 2 / p
    end = f"an end of window l={lc} for eta = {eta}"
    cond = (f"window l={lc}: {exact_text(left, end)} < vhat <= {exact_text(right, end)}, "
            f"l >= l0={th.l0}")
    if lc < th.l0 or not (left < vhat <= right):
        return DimensionReport(value=None, kind=EXACT, source="exact-window",
                               condition=cond)
    if th.ltilde != lc:
        raise InvariantError(f"window stride {lc} disagrees with ltilde {th.ltilde}")
    return DimensionReport(value=_pair_bound(eta, vhat, p), kind=EXACT,
                           source="exact-window", condition=cond)


def reports(eta: Fraction, vhat: Fraction, theta: Fraction | None = None,
            rho: Fraction | None = None) -> tuple[Thresholds | None, list[DimensionReport]]:
    """The point's thresholds and every closed-form report whose domain
    covers it (eta >= 1): the one statement of which formula applies where.
    The thresholds are None where eta = 1 or vhat is outside (0, eta);
    elsewhere the eta > 1 bounds share them."""
    th, found = None, []
    if 0 <= vhat <= eta:
        found.append(baseline_bound(eta, vhat))
    if eta == 1:
        if 0 <= vhat <= 1:
            found.append(dim_eta1(vhat))
        if theta is not None and 0 < vhat < 1:
            found.append(dim_pair_eta1(vhat, theta))
    elif 0 < vhat < eta:
        th = thresholds(eta, vhat)
        found += (refined_upper_bound(eta, vhat, th), construction_lower_bound(eta, vhat, th),
                  exact_dimension_window(eta, vhat, th))
    if theta is not None and 0 < vhat < eta:
        pair = upper_bound_pair(eta, vhat, theta)
        found.append(pair)
        if rho is not None and pair.kind != EMPTY:
            found.append(upper_bound_strip(eta, vhat, theta, rho))
    return th, found


def theta_is_forbidden(eta: Fraction, vhat: Fraction, theta: Fraction) -> bool:
    """Whether the (vhat, theta*vhat) pair set is empty at this theta.

    It is empty below max(1, 1/(eta - vhat)) and, for vhat in [1, eta),
    inside each power gap ((eta^l - 1)/vhat, eta^l), l >= 1.  The gaps are
    open at both ends, so the powers eta^l themselves stay admissible.
    """
    eta, vhat, theta = Fraction(eta), Fraction(vhat), Fraction(theta)
    if eta <= 1:
        raise ValueError(f"eta must exceed 1, got {eta}")
    if vhat >= eta:
        raise ValueError(f"vhat must lie in [1, {eta}), got {vhat}")
    if theta < _empty_below(eta, vhat):
        return True
    if vhat < 1:
        return False
    l_max = max(1, floor_log(eta, max(theta, Fraction(2))) + 2)
    return any((eta ** l - 1) / vhat < theta < eta ** l for l in range(1, l_max + 1))


def rational_linspace(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    """count exact rationals from lo to hi inclusive."""
    lo, hi = Fraction(lo), Fraction(hi)
    if count < 2:
        raise ValueError("need at least two grid points")
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]
