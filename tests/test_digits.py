import random
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph_lab import digits


def test_rational_terminating_forms():
    assert digits.digits_from_rational(1, 3, 3, 4).data == b"1000"
    assert digits.digits_from_rational(1, 2, 2, 4).data == b"1000"
    assert digits.digits_from_rational(1, 7, 10, 6).data == b"142857"


def test_rational_errors():
    with pytest.raises(ZeroDivisionError):
        digits.digits_from_rational(1, 0, 10, 4)
    with pytest.raises(ValueError):
        digits.digits_from_rational(3, 2, 10, 4)
    with pytest.raises(ValueError):
        digits.digits_from_rational(-1, 2, 10, 4)
    with pytest.raises(ValueError, match="base 1000 has no byte per digit"):
        digits.digits_from_rational(1, 2, 1000, 4)


def test_from_string():
    assert digits.digits_from_string("101", 2).data == b"101"
    assert digits.digits_from_string("1a", 16).data == b"1a"
    assert digits.digits_from_string("1A", 16).data == b"1a"
    assert digits.CODE.index(digits.digits_from_string("1A", 16).data[1]) == 10
    with pytest.raises(ValueError):
        digits.digits_from_string("12", 2)
    with pytest.raises(ValueError):
        digits.digits_from_string("0", 40)


@st.composite
def digit_texts(draw):
    """A base and text of its digits, in either case, with a few characters
    put in that may be junk or out of range."""
    base = draw(st.integers(2, 36))
    valid = string.digits + string.ascii_letters
    valid = [c for c in valid if int(c, 36) < base]
    text = draw(st.text(st.sampled_from(valid), max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(string.digits + string.ascii_letters
                                               + " -._/+")) + text[i:]
    return text, base


def _oracle_digit(c, base):
    """The value of c as a base-b digit, or None, from `int(c, 36)`."""
    try:
        v = int(c, 36)
    except ValueError:
        return None
    return v if v < base else None


@given(digit_texts())
@settings(max_examples=300, deadline=None)
def test_from_string_matches_int_oracle(case):
    text, base = case
    values = [_oracle_digit(c, base) for c in text]
    if None in values:  # the error names the first bad character as written
        bad = text[values.index(None)]
        with pytest.raises(ValueError, match=(f"^character {re.escape(repr(bad))} "
                                              f"is not a base-{base} digit$")):
            digits.digits_from_string(text, base)
        return
    stream = digits.digits_from_string(text, base)
    assert stream.data == text.lower().encode()
    assert [digits.CODE.index(c) for c in stream.data] == values


def test_run_blocks_examples():
    # the run end at each position: the last digit of its 0/(b-1) run, 0 off a run
    def ends(text, base):
        stream = digits.digits_from_string(text, base)
        return digits.run_end_table(stream, range(1, stream.prefix_len + 1)).tolist()

    assert ends("100221", 3) == [0, 3, 3, 5, 5, 0]
    assert ends("1001", 2) == [1, 3, 3, 4]  # base 2: every digit is 0 or b-1
    assert ends("999", 10) == [3, 3, 3]
    assert ends("5095", 10) == [0, 2, 3, 0]  # 0 then 9: two runs, not one


def test_digit_range_validation():
    with pytest.raises(ValueError):
        digits.DigitStream(3, b"03")
    with pytest.raises(ValueError):
        digits.DigitStream(1, b"0")
    digits.DigitStream(3, b"")


def test_range_errors_name_the_bad_digit():
    # the first character that is no digit, from a stream or from text
    with pytest.raises(ValueError, match=r"^character '5' is not a base-3 digit$"):
        digits.DigitStream(3, b"053")
    with pytest.raises(ValueError, match=r"^character '4' is not a base-3 digit$"):
        digits.DigitStream(3, b"473")
    with pytest.raises(ValueError, match=r"^character 'x' is not a base-3 digit$"):
        digits.digits_from_string("10x2y", 3)
    with pytest.raises(ValueError, match=r"^character '3' is not a base-3 digit$"):
        digits.digits_from_string("1023", 3)


def test_terminating_expansions_come_back_whole():
    # no constant tail is screened: a terminating expansion keeps its zeros
    assert digits.digits_from_rational(1, 2, 2, 100).data == b"1" + b"0" * 99
    assert digits.digits_from_rational(1, 4, 10, 80).data == b"25" + b"0" * 78
    assert digits.digits_from_rational(0, 1, 10, 70).data == b"0" * 70
    digits.DigitStream(3, b"0" * 100)


def test_digit_file_roundtrip(tmp_path):
    stream = digits.digits_from_string("10220110", 3)
    path = tmp_path / "digits.txt"
    digits.save_digit_file(stream, path)
    text = path.read_text().splitlines()
    assert text[0] == "base=3"
    assert text[1] == "10220110"
    back = digits.load_digit_file(path)
    assert back == stream
    bad = tmp_path / "bad.txt"
    bad.write_text("nope\n1\n")
    with pytest.raises(ValueError):
        digits.load_digit_file(bad)


def test_digit_file_bytes(tmp_path):
    path = tmp_path / "digits.txt"
    alphabet = b"0123456789abcdefghijklmnopqrstuvwxyz"
    digits.save_digit_file(digits.DigitStream(36, alphabet), path)
    assert path.read_bytes() == b"base=36\n" + alphabet + b"\n"
    with pytest.raises(ValueError, match="base 37 has no character encoding"):
        digits.save_digit_file(digits.DigitStream(37, digits.CODE[36:37]),
                               tmp_path / "no.txt")
    assert not (tmp_path / "no.txt").exists()


def test_digit_file_wrapped_lines_and_no_trailing_newline(tmp_path):
    path = tmp_path / "wrapped.txt"
    path.write_text("base=3\n1022\n0110")  # body may wrap; newline optional
    stream = digits.load_digit_file(path)
    assert stream.data == b"10220110"


def _text_load(path):
    """The digit file loader before the one-read path, kept as its oracle:
    every line read as text and stripped."""
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
        return digits.digits_from_string(body, base)
    except ValueError as exc:
        raise ValueError(f"digit file {path}: {exc}") from None


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


# file pieces: the headers `save_digit_file` writes and others, digit runs
# with uppercase letters and characters no base has, and line ends
HEADERS = [b"base=3\n", b"base=2\n", b"base=16\n", b"base=36\n", b"base=03\n", b"base=1\n",
           b"base=40\n", b"base= 3\n", b"base=3 \n", b"base=3\r\n", b"base=+3\n", b"base=x\n",
           b"BASE=3\n", b"base=3", b"base=\xd9\xa3\n", b""]
DIGIT_PIECES = [b"0", b"1", b"2", b"012", b"9", b"a", b"F", b"z"]
OTHER_PIECES = [b"\n", b"\r\n", b"\r", b" ", b"\t", b"\xc3\xa9", b"\xff"]


@given(header=st.sampled_from(HEADERS[:5]) | st.sampled_from(HEADERS),
       body=(st.lists(st.sampled_from(DIGIT_PIECES), max_size=12)
             | st.lists(st.sampled_from(DIGIT_PIECES + OTHER_PIECES), max_size=12)),
       end=st.sampled_from([b"\n", b"", b"\r\n", b"\n\n", b" \n"]))
@settings(max_examples=400, deadline=None)
def test_digit_file_loads_as_the_text_loader_does(header, body, end):
    """Whatever the file's bytes, `load_digit_file` returns the stream, or
    raises the error text, that the text loader does."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "digits.txt"
        path.write_bytes(header + b"".join(body) + end)
        assert _outcome(digits.load_digit_file, path) == _outcome(_text_load, path)


def test_random_digits_reproducible():
    a = digits.random_digits(10, 500, 7)
    b = digits.random_digits(10, 500, 7)
    c = digits.random_digits(10, 500, 8)
    assert a.data == b.data
    assert a.data != c.data


@pytest.mark.parametrize("base", [2, 3, 10, 255])
@pytest.mark.parametrize("count", [1, 100, 2000])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3])
def test_random_digits_are_the_randrange_draws(base, count, seed):
    """The bulk draw keeps the stream of one `randrange(base)` per digit,
    kept here as the oracle; seeded tests and `verify` read these streams."""
    rng = random.Random(seed)
    expected = bytes(digits.CODE[rng.randrange(base)] for _ in range(count))
    assert digits.random_digits(base, count, seed).data == expected


def test_truncated():
    s = digits.digits_from_string("12021", 3)
    assert s.truncated(3).data == b"120"
    with pytest.raises(ValueError):
        s.truncated(9)
    with pytest.raises(ValueError):
        s.truncated(-1)


def test_truncated_does_not_check_its_digits_again(monkeypatch):
    s = digits.digits_from_string("120212", 3)
    checks = []
    monkeypatch.setattr(digits, "_check_digits", lambda *args: checks.append(args))
    t = s.truncated(4)
    assert checks == []
    assert type(t) is digits.DigitStream and t == digits.DigitStream(3, b"1202")


def test_streams_with_the_same_digits_compare_equal():
    a = digits.DigitStream(3, b"1200")
    b = digits.digits_from_string("1200", 3)
    with pytest.raises(AttributeError):  # no instance dict: a stream is its value
        a.cache = 1
    assert a == b and hash(a) == hash(b)
    assert a != digits.DigitStream(4, a.data)
    assert a != b.truncated(3)
