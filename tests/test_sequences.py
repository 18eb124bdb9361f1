import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph_lab.sequences import eta_estimate, make_sequence, parse_rational


def test_linear_and_poly():
    lin = make_sequence("linear")
    assert [lin.a(n) for n in range(1, 5)] == [1, 2, 3, 4]
    sq = make_sequence("poly:d=2")
    assert [sq.a(n) for n in range(1, 5)] == [1, 4, 9, 16]
    assert lin.eta_declared == 1 and sq.eta_declared == 1


def test_linear_is_the_degree_one_poly():
    """`linear` counts exactly past int64, as the eta1 next-block rule needs
    when theta is huge."""
    lin = make_sequence("linear")
    assert (lin.kind, lin.degree) == ("poly", 1)
    assert lin.index_count_upto(10 ** 30) == 10 ** 30


@pytest.mark.parametrize("spec,message", [
    ("poly:d=1", "polynomial sequence needs degree >= 2"),
    ("geometric:eta=1,a1=1", "geometric eta must exceed 1, got 1"),
    ("geometric:eta=2/3,a1=1", "geometric eta must exceed 1, got 2/3"),
])
def test_spec_errors_keep_their_messages(spec, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_sequence(spec)


def test_geometric_recurrence():
    g = make_sequence("geometric:eta=2,a1=1")
    assert [g.a(n) for n in range(1, 6)] == [1, 2, 4, 8, 16]
    h = make_sequence("geometric:eta=3/2,a1=4")
    # 13.5 rounds half up to 14
    assert [h.a(n) for n in range(1, 7)] == [4, 6, 9, 14, 21, 32]
    assert h.eta_declared == F(3, 2)


def test_explicit_file(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("1\n5\n9\n\n20\n")
    seq = make_sequence(f"file:{p}")
    assert [seq.a(n) for n in range(1, 5)] == [1, 5, 9, 20]
    assert seq.max_index() == 4
    with pytest.raises(IndexError):
        seq.a(5)
    p.write_text("3\n3\n")
    with pytest.raises(ValueError):
        make_sequence(f"file:{p}")


@pytest.mark.parametrize("bad", [
    "poly", "poly:d=1", "poly:k=2", "geometric:eta=1,a1=1",
    "geometric:eta=2", "geometric:eta=2,a1=0", "geometric:eta=0.5,a1=1",
    "fibonacci", "geometric:eta=3/2,a1=2,x=1", "poly:d=x", "geometric:eta=2,a1=x",
    "geometric:eta=2,a1=1,eta=3", "geometric:eta=2,a1=1,a1=5",
])
def test_malformed_specs(bad):
    with pytest.raises(ValueError):
        make_sequence(bad)


@pytest.mark.parametrize("spec", ["poly:d=x", "geometric:eta=2,a1=x"])
def test_non_integer_spec_field_names_the_spec(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        make_sequence(spec)


@pytest.mark.parametrize("content,where", [
    (b"1\n4\n\nx9\n", ":4: 'x9' is not an integer"),
    (b"1\n4\n\xff\n", "is not UTF-8 text"),
    (b"1\n3\n2\n", ":3: term 2 is not above the term 3 before it"),
    (b"-4\n1\n", ":1: term -4 is not positive"),
    (b"\n  \n", "has no terms"),
], ids=["non-integer-line", "undecodable-bytes", "term-not-increasing", "term-not-positive",
        "no-terms"])
def test_bad_sequence_file_names_the_path(tmp_path, content, where):
    path = tmp_path / "seq.txt"
    path.write_bytes(content)
    with pytest.raises(ValueError) as exc:
        make_sequence(f"file:{path}")
    assert str(path) in str(exc.value) and where in str(exc.value)


def test_parse_rational_rejects_decimals():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("7") == 7
    for bad in ("1.5", "3/2/5", "a/b", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)
    # str.isdigit accepts the first three and int() none; a term takes one '+'
    for bad in ("²", "1/²", "①", "++2", "1/++2"):
        with pytest.raises(ValueError, match=f"^'{re.escape(bad)}' is not a p or p/q rational$"):
            parse_rational(bad)
    assert parse_rational("+3/+4") == F(3, 4)
    assert parse_rational("٣/4") == F(3, 4)  # a decimal digit int() reads
    # past int()'s digit limit the term's length is named, not its text
    with pytest.raises(ValueError, match=r"^a 5000-digit integer is past the limit "
                       rf"{sys.get_int_max_str_digits()} on integers read from text$"):
        parse_rational("1/" + "7" * 5000)


def test_eta_estimate_values():
    # decreasing ratios: the window max sits at its smallest index
    assert eta_estimate(make_sequence("linear"), 1000) == F(901, 900)
    assert eta_estimate(make_sequence("poly:d=2"), 10 ** 4) == F(9001, 9000) ** 2
    assert eta_estimate(make_sequence("geometric:eta=2,a1=1"), 20) == 2


def test_eta_estimate_window_default_and_errors():
    lin = make_sequence("linear")
    # the window is the last 10% of the ratios, and at least the last one
    assert eta_estimate(lin, 20) == F(19, 18)
    assert eta_estimate(lin, 5) == F(5, 4)
    with pytest.raises(ValueError):
        eta_estimate(lin, 1)


def test_eta_estimate_limits():
    for spec in ("linear", "poly:d=2", "poly:d=3"):
        est = eta_estimate(make_sequence(spec), 10 ** 4)
        assert abs(est - 1) <= F(1, 1000), spec


@given(num=st.integers(3, 12), den=st.integers(2, 8), seed=st.integers(1, 50))
@settings(max_examples=60)
def test_geometric_eta_estimate_close_to_ratio(num, den, seed):
    ratio = F(num, den)
    if ratio <= 1:
        ratio = 1 + ratio
    seq = make_sequence(f"geometric:eta={ratio.numerator}/{ratio.denominator},a1={seed}")
    est = eta_estimate(seq, 40)
    assert abs(est - ratio) <= F(1, seq.a(36))  # the window starts at 40 - 40 // 10


@given(st.sampled_from(["linear", "poly:d=2", "geometric:eta=2,a1=1",
                        "geometric:eta=7/4,a1=3"]),
       st.integers(1, 200))
@settings(max_examples=80)
def test_strictly_increasing(spec, n):
    seq = make_sequence(spec)
    assert seq.a(n + 1) > seq.a(n) >= 1


def test_iter_upto():
    g = make_sequence("geometric:eta=2,a1=1")
    assert list(g.iter_upto(20)) == [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16)]
    assert g.index_count_upto(20) == 5


def _explicit_sequence(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "seq.txt"
    path.write_text("".join(f"{n * n + 3 * n}\n" for n in range(1, 300)))
    return make_sequence(f"file:{path}")


LOOKUP_SPECS = ["linear", "poly:d=2", "poly:d=3", "poly:d=5",
                "geometric:eta=2,a1=1", "geometric:eta=3/2,a1=4", "explicit"]


@pytest.fixture(scope="module")
def lookup_seqs(tmp_path_factory):
    return {spec: _explicit_sequence(tmp_path_factory) if spec == "explicit"
            else make_sequence(spec) for spec in LOOKUP_SPECS}


def _assert_lookups_match_scan(seq, limit):
    want = [v for _, v in seq.iter_upto(limit)]  # the scan, term by term
    assert seq.index_count_upto(limit) == len(want), limit
    # the terms below x, just under the limit
    xs = list(range(limit - 3, limit + 2))
    assert [seq.index_count_upto(x - 1) for x in xs] == [
        sum(v < x for v in want) for x in xs], limit


@pytest.mark.parametrize("spec", LOOKUP_SPECS)
@given(limit=st.integers(-5, 20_000))
@settings(max_examples=60, deadline=None)
def test_index_lookups_match_the_scan(lookup_seqs, spec, limit):
    _assert_lookups_match_scan(lookup_seqs[spec], limit)


@pytest.mark.parametrize("spec", LOOKUP_SPECS)
def test_index_lookups_at_exact_powers(lookup_seqs, spec):
    # below 1 nothing counts; around each k^d the integer root must not be off by one
    seq = lookup_seqs[spec]
    for limit in (-1, 0, 1, 2):
        _assert_lookups_match_scan(seq, limit)
    powers = [k ** d for d in (2, 3, 5) for k in (2, 3, 7, 10, 31) if k ** d <= 10 ** 5]
    for p in powers:  # at most 1e5, so the linear scan stays short
        for limit in (p - 1, p, p + 1):
            _assert_lookups_match_scan(seq, limit)


def test_poly_index_count_is_exact_at_float_limits():
    # k^d just below 2**53, where a float root is off by one, and 2**70 past int64
    for d, k in ((2, 2 ** 26 - 1), (3, 208_063), (70, 1)):
        seq = make_sequence(f"poly:d={d}")
        assert [seq.index_count_upto(x) for x in (k ** d - 1, k ** d, k ** d + 1)] == [
            k - 1, k, k]


def test_integer_root_is_exact_far_beyond_floats():
    seq = make_sequence("poly:d=3")
    k = 10 ** 30 + 7
    assert seq.index_count_upto(k ** 3 - 1) == k - 1
    assert seq.index_count_upto(k ** 3) == k
