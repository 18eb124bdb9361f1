"""Base-b digit streams and their maximal 0/(b-1) runs.

A DigitStream is a finite materialized prefix of a conceptually infinite
fractional expansion.  Everything downstream (run detection, exponent
estimation) consumes these prefixes and reports estimates tagged with the
prefix length.
"""

from __future__ import annotations

import os
import re
import stat
from functools import cache
from typing import NamedTuple

from . import write_file

# Positions are 1-based everywhere: digit j of xi is x_j, j >= 1.

_ALPHABET = b"0123456789abcdefghijklmnopqrstuvwxyz"
MAX_BASE = len(_ALPHABET)  # largest base with a character for every digit
# CODE[v] is the byte that holds digit v: its character for v < MAX_BASE, so a
# stream holds its digit file's characters; then the other bytes in order.
CODE = _ALPHABET + bytes(b for b in range(256) if b not in _ALPHABET)


def _check_digits(data: bytes, valid: bytes, base: int) -> None:
    """Raise naming the first byte of `data` that is not in `valid`."""
    bad = data.translate(None, valid)
    if bad:
        raise ValueError(f"character {chr(bad[0])!r} is not a base-{base} digit")


class _StreamFields(NamedTuple):
    base: int
    data: bytes  # CODE[v] for each digit v: the digit file's characters


class DigitStream(_StreamFields):
    """Immutable prefix of a base-b fractional digit sequence."""

    __slots__ = ()

    def __new__(cls, base: int, data: bytes):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        _check_digits(data, CODE[:base], base)
        return super().__new__(cls, base, data)

    @property
    def prefix_len(self) -> int:
        return len(self.data)

    @property
    def run_bytes(self) -> bytes:
        """The bytes of the run digits 0 and b - 1 (just 0 when b - 1 has no
        byte, for b > 256)."""
        return CODE[:1] + CODE[self.base - 1:self.base]


def digits_from_string(text: str | bytes, base: int) -> DigitStream:
    """Parse digit characters (0-9 then a-z, base <= 36; uppercase letters
    read as lowercase), as text or as their ASCII bytes, into a stream."""
    if base > MAX_BASE:
        raise ValueError(f"base {base} exceeds the digit alphabet (max {MAX_BASE})")
    raw = text
    if isinstance(text, str):
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ValueError(f"non-ascii character in digit text: {exc}") from None
    if base > 10:  # checked as written, so an error names an uppercase letter
        _check_digits(raw, CODE[:base] + CODE[10:base].upper(), base)
        raw = raw.lower()
    return DigitStream(base, raw)


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
    if base > len(CODE):
        raise ValueError(f"base {base} has no byte per digit (max {len(CODE)})")
    out = bytearray()
    r = p
    for _ in range(count):
        r *= base
        out.append(CODE[r // q])
        r %= q
    return DigitStream(base, bytes(out))


def random_digits(base: int, count: int, seed: int) -> DigitStream:
    """Uniform random digits from a seeded generator (reproducible).

    The digits are those of `random.Random(seed).randrange(base)` drawn
    `count` times, taken in bulk: each such draw reads one 32-bit word of
    the generator, keeps its top k = base.bit_length() bits, and draws again
    when they are >= base.  `getrandbits(32 * n)` holds n words in turn,
    little-endian, so the top bits of each sit in every fourth byte; one
    `bytes.translate` deletes the rejected ones and maps the others to the
    CODE bytes of their top bits.
    """
    import random
    if not 2 <= base <= 255:
        raise ValueError(f"base must lie in [2, 255] to draw byte digits, got {base}")
    rng = random.Random(seed)
    shift = 8 - base.bit_length()
    table = bytes(CODE[b >> shift] for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= base)
    data = b""
    while len(data) < count:
        need = count - len(data)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        data += words[3::4].translate(table, reject)
    return DigitStream(base, data)


_RUN_CHUNK = 4096  # most digits one anchored match reads


@cache
def _run_match(d: int):
    """The anchored match of a run of at most _RUN_CHUNK of digit `d`,
    compiled on first use."""
    return re.compile(re.escape(bytes((d,))) + b"{0,%d}" % _RUN_CHUNK).match


def _run_stop(data: bytes, i: int) -> int:
    """0-based offset one past the run of equal digits through data[i].

    The anchored match reads at most one chunk.  A run that fills it is
    compared a whole chunk at a time, and the match reads only its last one.
    """
    d = data[i]
    match = _run_match(d)
    end = match(data, i).end()
    if end - i == _RUN_CHUNK:
        chunk = bytes((d,)) * _RUN_CHUNK
        while data.startswith(chunk, end):
            end += _RUN_CHUNK
        end = match(data, end).end()
    return end


def run_end_table(stream: DigitStream, positions) -> memoryview:
    """Run ends of 0/(b-1) runs at the requested 1-based positions.

    Entry i is the 1-based position of the last digit of the maximal 0- or
    (b-1)-run containing positions[i], or 0 when the digit there is neither
    0 nor b-1.  `_run_stop` reads each run end; a position inside the run
    last read reuses its end, so ascending positions read each digit about
    once.  The entries are int64s.  The estimators do not call it:
    `matching_times` finds run ends with `_run_stop`.  `MatchingTimes.pairs`
    reads it, and `verify`'s run-block-maximality checks it at every position.
    """
    from array import array
    data, P, runs = stream.data, stream.prefix_len, stream.run_bytes
    out = array("q")
    start = end = 0  # positions start..end lie in one run, which ends at end
    for p in positions:
        if not 1 <= p <= P:
            raise IndexError(f"positions outside prefix of length {P}")
        if not start <= p <= end and data[p - 1] in runs:
            start, end = p, _run_stop(data, p - 1)
        out.append(end if start <= p <= end else 0)
    return memoryview(out)


# --- digit file format -------------------------------------------------------
# line 1: base=<b>
# line 2..: the digit characters (may be wrapped); no separators inside lines.


def save_digit_file(stream: DigitStream, path) -> None:
    """Write the header and the stream's bytes, which are the digit
    characters, through `write_file`."""
    if stream.base > MAX_BASE:
        raise ValueError(f"base {stream.base} has no character encoding")

    def write(fh):
        fh.write(b"base=%d\n" % stream.base)
        fh.write(stream.data)
        fh.write(b"\n")
    write_file(path, write, binary=True)


def _read_whole(fh, size: int) -> DigitStream | None:
    """The stream of a file of `size` bytes as `save_digit_file` writes it,
    read from `fh` at its start with one read of the body; None for any
    other file, or one whose digits the stream refuses.  The header it takes
    is `base=`, one or more ASCII digits (`bytes.isdigit` knows no others)
    and a newline."""
    header = fh.readline()
    base = header[5:-1]
    count = size - len(header) - 1
    header_ok = header.startswith(b"base=") and header.endswith(b"\n") and base.isdigit()
    if not header_ok or count < 0:
        return None
    body = fh.read(count)
    if len(body) != count or fh.read(2) != b"\n":
        return None
    try:
        return digits_from_string(body, int(base))
    except ValueError:
        return None


def load_digit_file(path) -> DigitStream:
    """Read a digit file; a malformed file raises ValueError naming the path.

    A regular file as `save_digit_file` writes it is read in one piece.
    Every other file (a pipe, wrapped lines, CRLF line ends, another header
    form, a digit the stream refuses) is read again from its start as text,
    or only as text when it cannot be read twice, and every error is raised
    there.
    """
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                stream = _read_whole(fh, info.st_size)
                if stream is not None:
                    return stream
                os.lseek(fh.fileno(), 0, os.SEEK_SET)
            with open(fh.fileno(), encoding="utf-8", closefd=False) as text:
                header = text.readline().strip()
                if not header.startswith("base="):
                    raise ValueError(f"must start with 'base=<b>', got {header!r}")
                try:
                    base = int(header[len("base="):])
                except ValueError:
                    raise ValueError(f"header {header!r} has no integer base") from None
                body = "".join(line.strip() for line in text)
        return digits_from_string(body, base)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"digit file {path}: {exc}") from None
