import random

import pytest
from dioph_lab import digits


def test_rational_terminating_forms():
    assert list(digits.digits_from_rational(1, 3, 3, 4).data) == [1, 0, 0, 0]
    assert list(digits.digits_from_rational(1, 2, 2, 4).data) == [1, 0, 0, 0]
    assert list(digits.digits_from_rational(1, 7, 10, 6).data) == [1, 4, 2, 8, 5, 7]


def test_rational_errors():
    with pytest.raises(ZeroDivisionError):
        digits.digits_from_rational(1, 0, 10, 4)
    with pytest.raises(ValueError):
        digits.digits_from_rational(3, 2, 10, 4)
    with pytest.raises(ValueError):
        digits.digits_from_rational(-1, 2, 10, 4)


def test_rational_agrees_with_direct_formula_oracle():
    # oracle: digit j of p/q is floor(p * b^j / q) mod b
    for base in (2, 3, 10):
        for q in range(2, 51):
            for p in range(1, q):
                got = digits.digits_from_rational(p, q, base, 64).data
                want = bytes((p * base ** j // q) % base for j in range(1, 65))
                assert got == want, (p, q, base)


def test_from_string():
    assert list(digits.digits_from_string("101", 2).data) == [1, 0, 1]
    assert list(digits.digits_from_string("1a", 16).data) == [1, 10]
    assert list(digits.digits_from_string("1A", 16).data) == [1, 10]
    with pytest.raises(ValueError):
        digits.digits_from_string("12", 2)
    with pytest.raises(ValueError):
        digits.digits_from_string("0", 40)


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
        digits.DigitStream(3, bytes([0, 3]))
    with pytest.raises(ValueError):
        digits.DigitStream(1, b"\x00")


def test_tail_guard_on_ingestion():
    # a terminating rational deeper than the guard window ends in zeros
    with pytest.raises(ValueError):
        digits.digits_from_rational(1, 2, 2, 100)
    # exactly 64 digits: the leading 1 sits inside the window
    digits.digits_from_rational(1, 2, 2, 64)
    with pytest.raises(ValueError):
        digits.digits_from_string("1" + "0" * 64, 3)
    with pytest.raises(ValueError):
        digits.digits_from_string("0" + "9" * 64, 10)
    # short streams are exempt (too short to judge the tail)
    digits.digits_from_string("000", 2)
    # the guard is ingestion-side only; raw construction is unconstrained
    digits.DigitStream(3, bytes(100))


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


def test_digit_file_wrapped_lines_and_no_trailing_newline(tmp_path):
    path = tmp_path / "wrapped.txt"
    path.write_text("base=3\n1022\n0110")  # body may wrap; newline optional
    stream = digits.load_digit_file(path)
    assert list(stream.data) == [1, 0, 2, 2, 0, 1, 1, 0]


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
    expected = bytes(rng.randrange(base) for _ in range(count))
    assert digits.random_digits(base, count, seed).data == expected


def test_truncated():
    s = digits.digits_from_string("12021", 3)
    assert list(s.truncated(3).data) == [1, 2, 0]
    with pytest.raises(ValueError):
        s.truncated(9)
    with pytest.raises(ValueError):
        s.truncated(-1)
