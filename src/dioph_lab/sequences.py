"""Restricted denominator sequences A = (a_n) and their growth exponent.

The growth exponent eta = limsup a_{n+1}/a_n governs which dimension formulas
apply.  Polynomial sequences a_n = n^d realize eta = 1 (`linear` is d = 1);
geometric sequences realize any rational eta > 1 via an integer rounding
recurrence.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING

from .dimfx import parse_rational

if TYPE_CHECKING:
    from pathlib import Path


def _integer_root(x: int, d: int) -> int:
    """floor(x ** (1/d)) for x >= 1, by integer Newton steps from above."""
    r = 1 << -(-x.bit_length() // d)
    while True:
        y = ((d - 1) * r + x // r ** (d - 1)) // d
        if y >= r:
            return r
        r = y


class DenominatorSequence:
    """Strictly increasing sequence of positive integers with 1-based access.

    `a(n)` reads one term.  `index_count_upto(x)`, the number of terms
    a_n <= x, is the one answer to "how many indices lie below a bound": an
    exact integer root for poly (`linear` is degree 1), a count of the terms
    for geometric sequences and a bisection for explicit ones.
    `iter_upto(limit)` yields those terms with their indices.
    """

    def __init__(self, kind: str, *, degree: int | None = None,
                 ratio: Fraction | None = None, seed: int | None = None,
                 values: list[int] | None = None, spec: str = ""):
        self.kind = kind
        self.degree = degree
        self.ratio = ratio
        self.seed = seed
        self.spec = spec or kind
        if kind == "explicit":
            if not values:
                raise ValueError("explicit sequence has no values")
            prev = 0
            for v in values:
                if v <= prev:
                    raise ValueError(f"explicit sequence not strictly increasing at {v}")
                prev = v
            self._values = list(values)
        elif kind == "geometric":
            if ratio is None or ratio <= 1:
                raise ValueError(f"geometric eta must exceed 1, got {ratio}")
            if seed is None or seed < 1:
                raise ValueError("geometric sequence needs integer seed >= 1")
            self._values = [seed]  # extended on demand
        elif kind == "poly":
            if degree is None or degree < 1:
                raise ValueError("polynomial sequence needs degree >= 1")
            self._values = None
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")

    @property
    def eta_declared(self) -> Fraction | None:
        """Exact growth exponent when known from the construction."""
        if self.kind == "poly":
            return Fraction(1)
        if self.kind == "geometric":
            return self.ratio
        return None

    def _extend_geometric(self, n: int) -> None:
        p, q = self.ratio.numerator, self.ratio.denominator
        vals = self._values
        while len(vals) < n:
            a = vals[-1]
            # round half up, with a strict-increase floor
            vals.append(max(a + 1, (2 * p * a + q) // (2 * q)))

    def a(self, n: int) -> int:
        """Value a_n for n >= 1."""
        if n < 1:
            raise IndexError(f"sequence index must be >= 1, got {n}")
        if self.kind == "poly":
            return n ** self.degree
        if self.kind == "geometric":
            self._extend_geometric(n)
            return self._values[n - 1]
        if n > len(self._values):
            raise IndexError(f"explicit sequence has only {len(self._values)} terms")
        return self._values[n - 1]

    def max_index(self) -> int | None:
        """Largest supported index, or None when unbounded."""
        if self.kind == "explicit":
            return len(self._values)
        return None

    def index_count_upto(self, x: int) -> int:
        """Number of indices n with a_n <= x, exactly (integer arithmetic only)."""
        if x < 1:
            return 0
        if self.kind == "poly":
            return _integer_root(x, self.degree)
        if self.kind == "explicit":
            return bisect_right(self._values, x)
        return sum(1 for _ in self.iter_upto(x))

    def iter_upto(self, limit: int):
        """Yield (n, a_n) for all supported n with a_n <= limit."""
        n = 1
        while True:
            if self.kind == "explicit" and n > len(self._values):
                return
            v = self.a(n)
            if v > limit:
                return
            yield n, v
            n += 1

    def __repr__(self):
        return f"DenominatorSequence({self.spec!r})"


def _spec_int(spec: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} in sequence spec {spec!r} must be an integer, "
                         f"got {text!r}") from None


def _read_values(path: Path) -> list[int]:
    """The terms of a sequence file: one integer per non-blank line, each
    positive and above the one before."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"sequence file {path} is not UTF-8 text: {exc}") from None
    values = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            v = int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {line!r} is not an integer") from None
        if v < 1:
            raise ValueError(f"{path}:{lineno}: term {v} is not positive")
        if values and v <= values[-1]:
            raise ValueError(f"{path}:{lineno}: term {v} is not above the term "
                             f"{values[-1]} before it")
        values.append(v)
    if not values:
        raise ValueError(f"sequence file {path} has no terms")
    return values


def make_sequence(spec: str) -> DenominatorSequence:
    """Build a sequence from its spec string.

    Grammar: `linear` (the degree-1 poly) | `poly:d=<int >= 2>` |
    `geometric:eta=<p/q>,a1=<int>` | `file:<path>` (one strictly increasing
    positive integer per line).
    """
    spec = spec.strip()
    if spec == "linear":
        return DenominatorSequence("poly", degree=1, spec=spec)
    if spec.startswith("poly:"):
        body = spec[len("poly:"):]
        if not body.startswith("d="):
            raise ValueError(f"malformed poly spec {spec!r}")
        d = _spec_int(spec, "d", body[2:])
        if d < 2:  # d = 1 is spelled `linear`
            raise ValueError("polynomial sequence needs degree >= 2")
        return DenominatorSequence("poly", degree=d, spec=spec)
    if spec.startswith("geometric:"):
        body = spec[len("geometric:"):]
        items = [item.split("=", 1) for item in body.split(",")]
        if any(len(item) != 2 for item in items):
            raise ValueError(f"malformed geometric spec {spec!r}")
        kv = {k.strip(): v.strip() for k, v in items}
        if len(kv) != len(items) or set(kv) != {"eta", "a1"}:  # each key once
            raise ValueError(f"geometric spec needs eta=<p/q>,a1=<int>, got {spec!r}")
        return DenominatorSequence("geometric", ratio=parse_rational(kv["eta"]),
                                   seed=_spec_int(spec, "a1", kv["a1"]), spec=spec)
    if spec.startswith("file:"):
        from pathlib import Path
        values = _read_values(Path(spec[len("file:"):]))
        return DenominatorSequence("explicit", values=values, spec=spec)
    raise ValueError(f"unrecognized sequence spec {spec!r}")


def eta_estimate(seq: DenominatorSequence, n_max: int) -> Fraction:
    """Finite limsup surrogate: max of a(n+1)/a(n) over the last 10% of the
    ratios up to n_max (at least one).

    The window covers n = n_max - w .. n_max - 1 with w = max(1, n_max // 10).
    This is a tail-window maximum, not a limit.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2 to form a ratio")
    window = max(1, n_max // 10)
    sup = seq.max_index()
    if sup is not None and n_max > sup:
        raise ValueError(f"n_max {n_max} exceeds sequence length {sup}")
    best = Fraction(0)
    prev = seq.a(n_max - window)
    for n in range(n_max - window, n_max):
        nxt = seq.a(n + 1)
        r = Fraction(nxt, prev)
        if r > best:
            best = r
        prev = nxt
    return best
