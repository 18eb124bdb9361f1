"""Base-b digit streams and their maximal 0/(b-1) runs.

A DigitStream is a finite materialized prefix of a conceptually infinite
fractional expansion.  Everything downstream (run detection, exponent
estimation) consumes these prefixes and reports estimates tagged with the
prefix length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Positions are 1-based everywhere: digit j of xi is x_j, j >= 1.

TAIL_GUARD = 64  # final window checked by the irrationality proxy

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_BASE = len(_ALPHABET)  # largest base with a character for every digit
_CHAR_VALUE = {c: v for v, c in enumerate(_ALPHABET)}
_CHAR_VALUE.update({c.upper(): v for v, c in enumerate(_ALPHABET) if c.isalpha()})
_TRANSLATE = bytearray(b"\xff" * 256)
for _c, _v in _CHAR_VALUE.items():
    _TRANSLATE[ord(_c)] = _v
_TRANSLATE = bytes(_TRANSLATE)


@dataclass(frozen=True)
class DigitStream:
    """Immutable prefix of a base-b fractional digit sequence."""

    base: int
    data: bytes  # digit values, one byte per digit

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.data:
            bad = int(np.frombuffer(self.data, dtype=np.uint8).max())
            if bad >= self.base:
                raise ValueError(f"digit {bad} out of range for base {self.base}")

    @property
    def prefix_len(self) -> int:
        return len(self.data)

    def digit(self, j: int) -> int:
        """Digit x_j at 1-based position j."""
        if not 1 <= j <= len(self.data):
            raise IndexError(f"position {j} outside prefix of length {len(self.data)}")
        return self.data[j - 1]

    def truncated(self, count: int) -> "DigitStream":
        """Stream holding only the first `count` digits."""
        if count < 0:
            raise ValueError(f"cannot truncate to {count}: count must be >= 0")
        if count > len(self.data):
            raise ValueError(f"cannot truncate to {count}: only {len(self.data)} digits")
        return DigitStream(self.base, self.data[:count])

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint8)

    @cached_property
    def zero_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """1-based (starts, ends) of the maximal 0/(b-1) runs, in order.

        One pass over the digits finds them; the result is kept, so every
        later run lookup on this stream is a search over the runs alone.
        """
        arr = self.as_array()
        if not arr.size:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        change = np.flatnonzero(arr[1:] != arr[:-1])
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change, [arr.shape[0] - 1]))
        v = arr[starts]
        hit = (v == 0) | (v == self.base - 1)
        return starts[hit] + 1, ends[hit] + 1

    def __len__(self) -> int:
        return len(self.data)


def check_tail_guard(stream: DigitStream) -> None:
    """Irrationality proxy on ingested data.

    A prefix long enough to judge must not end in a constant-0 or
    constant-(b-1) window of TAIL_GUARD digits (an eventually constant tail
    is a rational's signature).  Shorter prefixes are exempt, and emitted
    schedule prefixes are not screened: cutting one inside a zero block is
    normal, the truncated run is simply discarded downstream.
    """
    data = stream.data
    if len(data) < TAIL_GUARD:
        return
    tail = data[-TAIL_GUARD:]
    if all(d == 0 for d in tail):
        raise ValueError("stream ends in an all-zero tail window (looks rational)")
    if all(d == stream.base - 1 for d in tail):
        raise ValueError("stream ends in an all-(b-1) tail window (looks rational)")


def digits_from_string(text: str, base: int, tail_guard: bool = True) -> DigitStream:
    """Parse digit characters (0-9 then a-z, base <= 36) into a stream."""
    if base > MAX_BASE:
        raise ValueError(f"base {base} exceeds the digit alphabet (max {MAX_BASE})")
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(f"non-ascii character in digit text: {exc}") from None
    vals = raw.translate(_TRANSLATE)
    arr = np.frombuffer(vals, dtype=np.uint8)
    if arr.size and arr.max() >= base:
        bad = int(np.argmax(arr >= base))
        raise ValueError(f"character {text[bad]!r} is not a base-{base} digit")
    stream = DigitStream(base, vals)
    if tail_guard:
        check_tail_guard(stream)
    return stream


def digits_to_string(stream: DigitStream) -> str:
    if stream.base > MAX_BASE:
        raise ValueError(f"base {stream.base} has no character encoding")
    encode = (_ALPHABET.encode("ascii") + b"\x00" * (256 - len(_ALPHABET)))
    return stream.data.translate(encode).decode("ascii")


def digits_from_rational(p: int, q: int, base: int, count: int) -> DigitStream:
    """First `count` base-b digits of p/q by long division.

    When p/q admits two expansions the terminating one is produced (long
    division yields it naturally).  Requires 0 <= p < q so p/q is in [0, 1).
    """
    if q == 0:
        raise ZeroDivisionError("q must be nonzero")
    if q < 0:
        p, q = -p, -q
    if not 0 <= p < q:
        raise ValueError(f"{p}/{q} is not in [0, 1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    out = bytearray()
    r = p
    for _ in range(count):
        r *= base
        out.append(r // q)
        r %= q
    stream = DigitStream(base, bytes(out))
    check_tail_guard(stream)
    return stream


def random_digits(base: int, count: int, seed: int) -> DigitStream:
    """Uniform random digits from a seeded generator (reproducible).

    The digits are those of `random.Random(seed).randrange(base)` drawn
    `count` times, taken in bulk: each such draw reads one 32-bit word of
    the generator, keeps its top k = base.bit_length() bits, and draws again
    when they are >= base.  `getrandbits(32 * n)` holds n words in turn,
    little-endian, so the top bits of each sit in every fourth byte; one
    `bytes.translate` shifts them down and deletes the rejected ones.
    """
    if not 2 <= base <= 255:
        raise ValueError(f"base must lie in [2, 255] to draw byte digits, got {base}")
    rng = random.Random(seed)
    shift = 8 - base.bit_length()
    table = bytes(b >> shift for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= base)
    data = b""
    while len(data) < count:
        need = count - len(data)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        data += words[3::4].translate(table, reject)
    stream = DigitStream(base, data)
    check_tail_guard(stream)
    return stream


def run_end_table(stream: DigitStream, positions) -> np.ndarray:
    """Run ends of 0/(b-1) runs at the requested 1-based positions.

    Entry i is the 1-based position of the last digit of the maximal 0- or
    (b-1)-run containing positions[i], or 0 when the digit there is neither
    0 nor b-1.  Each position is found by binary search over the stream's
    `zero_runs`, so memory grows with the number of runs and positions, not
    with the prefix.
    """
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size and (pos.min() < 1 or pos.max() > stream.prefix_len):
        raise IndexError(f"positions outside prefix of length {stream.prefix_len}")
    starts, ends = stream.zero_runs
    out = np.zeros(pos.shape, dtype=np.int64)
    if starts.size:
        run = np.searchsorted(starts, pos, side="right") - 1
        end = ends[run]  # run -1 (before the first run) is caught below
        inside = (run >= 0) & (pos <= end)
        out[inside] = end[inside]
    return out


# --- digit file format -------------------------------------------------------
# line 1: base=<b>
# line 2..: the digit characters (may be wrapped); no separators inside lines.


def save_digit_file(stream: DigitStream, path) -> None:
    text = digits_to_string(stream)
    with open(path, "w") as fh:
        fh.write(f"base={stream.base}\n")
        fh.write(text)
        fh.write("\n")


def load_digit_file(path) -> DigitStream:
    """Read a digit file; no tail screening (the round-trip channel for
    emitted schedule prefixes, which may legitimately end inside a block).
    A malformed file raises ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("base="):
                raise ValueError(f"must start with 'base=<b>', got {header!r}")
            try:
                base = int(header[len("base="):])
            except ValueError:
                raise ValueError(f"header {header!r} has no integer base") from None
            body = "".join(line.strip() for line in fh)
        return digits_from_string(body, base, tail_guard=False)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"digit file {path}: {exc}") from None
