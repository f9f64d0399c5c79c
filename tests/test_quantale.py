import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropwitt.enriched import MetricSpace
from tropwitt.errors import FormatError, _shown
from tropwitt.quantale import INF, ZERO, LValue, leq, monus, tropical_add, tropical_mul

from documents import loaded, near_miss_metric_documents, near_miss_tokens

finite = st.fractions(min_value=0, max_value=12, max_denominator=6).map(LValue)
lvalues = st.one_of(st.just(INF), finite)


def test_basic_examples():
    assert tropical_add(LValue(3), LValue(5)) == LValue(3)
    assert tropical_add(LValue(7), INF) == LValue(7)
    assert tropical_add(ZERO, ZERO) == ZERO  # characteristic one
    assert tropical_mul(LValue(2), LValue(3)) == LValue(5)
    assert tropical_mul(LValue(4), INF) == INF
    assert tropical_mul(LValue(4), ZERO) == LValue(4)


def test_order_examples():
    assert leq(LValue(5), LValue(2))
    assert not leq(LValue(2), LValue(5))
    for a in (ZERO, LValue(Fraction(1, 3)), INF):
        assert leq(INF, a)  # bottom
        assert leq(a, ZERO)  # top


def test_monus_examples():
    assert monus(LValue(7), LValue(3)) == LValue(4)
    assert monus(LValue(3), LValue(7)) == ZERO
    assert monus(INF, LValue(3)) == INF
    assert monus(LValue(3), INF) == ZERO
    assert monus(INF, INF) == ZERO


@given(lvalues, lvalues)
def test_add_commutative_idempotent(a, b):
    assert tropical_add(a, b) == tropical_add(b, a)
    assert tropical_add(a, a) == a


@given(lvalues, lvalues, lvalues)
def test_rig_laws(a, b, c):
    assert tropical_add(tropical_add(a, b), c) == tropical_add(a, tropical_add(b, c))
    assert tropical_mul(tropical_mul(a, b), c) == tropical_mul(a, tropical_mul(b, c))
    assert tropical_mul(a, b) == tropical_mul(b, a)
    assert tropical_mul(a, tropical_add(b, c)) == tropical_add(
        tropical_mul(a, b), tropical_mul(a, c)
    )
    assert tropical_add(a, INF) == a
    assert tropical_mul(a, ZERO) == a
    assert tropical_mul(a, INF) == INF


@given(lvalues, lvalues)
def test_order_agrees_with_addition(a, b):
    # a ≼ b exactly when some z has min(a, z) = b; z = b works, nothing else can
    assert leq(a, b) == (tropical_add(a, b) == b)


@given(lvalues, lvalues, lvalues)
def test_residuation(x, y, z):
    assert leq(tropical_mul(x, z), y) == leq(z, monus(y, x))


@given(lvalues, lvalues, lvalues)
def test_monus_is_a_lawvere_metric(x, y, z):
    assert monus(x, x) == ZERO
    assert monus(z, x) <= monus(y, x) + monus(z, y)


@given(lvalues)
def test_json_round_trip(a):
    assert LValue.from_json(a.to_json()) == a


def test_json_accepts_integers_and_strings():
    assert LValue.from_json(3) == LValue(3)
    assert LValue.from_json("3/2") == LValue(Fraction(3, 2))
    assert LValue.from_json("inf") == INF
    # strings are trimmed, then read as "inf"/"infinity"/"∞" in any case or
    # as a fractions.Fraction literal: "p/q", an integer, a decimal, an exponent
    for text, want in [
        ("6/4", Fraction(3, 2)),
        ("+2", 2),
        (" 2 ", 2),
        ("\t3\n", 3),
        ("1.5", Fraction(3, 2)),
        (".5", Fraction(1, 2)),
        ("2.", 2),
        ("1e3", 1000),
        ("1E-2", Fraction(1, 100)),
        ("-0", 0),
    ]:
        assert LValue.from_json(text) == LValue(want), text
    for text in ["INF", " inf ", "Infinity", "∞"]:
        assert LValue.from_json(text) == INF, text


def test_json_rejects_floats_and_negatives():
    with pytest.raises(FormatError):
        LValue.from_json(0.5)
    with pytest.raises(FormatError):
        LValue.from_json(-1)
    with pytest.raises(FormatError):
        LValue.from_json("-2/3")
    with pytest.raises(FormatError):
        LValue.from_json(True)
    # Fraction reads "1_000" as 1000 from Python 3.11 on; refused on every version
    for text in ["", " ", "1 / 2", "1/0", "0x10", "nan", "-1e-2", "-inf", "1_000", "1_0/3"]:
        with pytest.raises(FormatError):
            LValue.from_json(text)


# The value or the exact error text of every JSON token form: LValue,
# MetricSpace and WittElem documents and `witt theta --r` share this reader.
_TYPE_ERROR = "LValue must be an integer or string, got "


@pytest.mark.parametrize(
    "token, want",
    [
        (3, LValue(3)),
        ("3/2", LValue(Fraction(3, 2))),
        (" inf ", INF),
        ("∞", INF),
        ("1e3", LValue(1000)),
        ("1.5", LValue(Fraction(3, 2))),
        ("1/0", "bad LValue '1/0'"),
        ("-1", "bad LValue '-1'"),
        (-1, "LValue must be nonnegative, got -1"),
        ("1_000", "bad LValue '1_000'"),
        (True, _TYPE_ERROR + "True"),
        (1.5, _TYPE_ERROR + "1.5"),
        (None, _TYPE_ERROR + "None"),
        ([1], _TYPE_ERROR + "[1]"),
        (10**1000, "LValue must have at most 1000 digits"),
        ("9" * 1001, "bad LValue '999999999999...9999999999999': more than 1000 digits"),
    ],
)
def test_json_token_value_or_error_text(token, want):
    if isinstance(want, LValue):
        assert LValue.from_json(token) == want
    else:
        with pytest.raises(FormatError) as got:
            LValue.from_json(token)
        assert str(got.value) == want


@pytest.mark.parametrize(
    "value, text",
    [
        (10**1000, "LValue must have at most 1000 digits"),
        (10**5000, "LValue must have at most 1000 digits"),
        (Fraction(1, 10**1000), "LValue must have at most 1000 digits"),
        (Fraction(10**1000, 3), "LValue must have at most 1000 digits"),
        (-1, "LValue must be nonnegative, got -1"),
        (Fraction(-1, 2), "LValue must be nonnegative, got -1/2"),
        (-(10**5000), "LValue must be nonnegative, got -<integer of more than 1000 digits>"),
        (Fraction(-(10**5000), 3), "LValue must be nonnegative, got -<integer of more than 1000 digits>/3"),
    ],
    ids=["10**1000", "10**5000", "1/10**1000", "10**1000/3", "-1", "-1/2", "-10**5000", "-10**5000/3"],
)
def test_constructor_refuses_what_the_loaders_refuse(value, text):
    # the loaders' digit limit and texts, as a ValueError: a value past it
    # once built an LValue that could not print
    with pytest.raises(ValueError) as got:
        LValue(value)
    assert str(got.value) == text
    assert str(LValue(10**1000 - 1)) == "9" * 1000
    assert str(LValue(Fraction(1, 10**1000 - 1))) == "1/" + "9" * 1000


def test_constructor_rejects_junk():
    with pytest.raises(ValueError):
        LValue(Fraction(-1, 2))
    with pytest.raises(TypeError):
        LValue(0.5)
    # a zero denominator is a ValueError that names the token, in a value
    # and in a distance table alike
    for text in ["1/0", " 0/0", "+1/0", "-0/0"]:
        with pytest.raises(ValueError, match="bad LValue '.*/0': zero denominator"):
            LValue(text)
    with pytest.raises(ValueError, match="bad LValue '1/0'"):
        MetricSpace(["a"], {("a", "a"): "1/0"})
    # so is a token past the digit limit; only the loaders make it a FormatError
    for text in ["9" * 1001, "1e2000"]:
        with pytest.raises(ValueError, match="more than 1000 digits"):
            LValue(text)
    with pytest.raises(ValueError, match="more than 1000 digits"):
        MetricSpace(["a"], {("a", "a"): "9" * 1001})


def test_scalar_multiple():
    assert 3 * LValue(Fraction(1, 2)) == LValue(Fraction(3, 2))
    assert 0 * INF == ZERO
    assert 2 * INF == INF
    with pytest.raises(ValueError):
        (-1) * LValue(1)


def test_min_builtin_works():
    assert min(LValue(3), LValue(2), INF) == LValue(2)


# -- comparisons with LValue, int and Fraction operands ----------------------------------

numbers = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.fractions(min_value=0, max_value=12, max_denominator=6),
)


def _key(v):
    """The numeric order as (is_infinite, value): ∞ (an infinite LValue, or
    None) above every finite value."""
    if v is None or isinstance(v, LValue) and v.is_infinite:
        return (1, 0)
    return (0, v.as_fraction() if isinstance(v, LValue) else Fraction(v))


@given(lvalues, st.one_of(lvalues, numbers))
def test_comparisons_match_a_fraction_or_infinity_oracle(a, b):
    ka, kb = _key(a), _key(b)
    assert (a == b) == (ka == kb) and (b == a) == (ka == kb)
    assert (a != b) == (ka != kb) and (b != a) == (ka != kb)
    assert (a < b) == (ka < kb) and (b > a) == (ka < kb)
    assert (a <= b) == (ka <= kb) and (b >= a) == (ka <= kb)
    assert (a > b) == (ka > kb) and (b < a) == (ka > kb)
    assert (a >= b) == (ka >= kb) and (b <= a) == (ka >= kb)


@pytest.mark.parametrize("other", [True, False, 1.0, 0.0, "1", "inf", None])
def test_comparisons_with_other_types_are_unchanged(other):
    for a in (ZERO, LValue(1), INF):
        assert a != other and other != a
        assert not a == other and not other == a
        for compare in (
            lambda: a < other,
            lambda: a <= other,
            lambda: a > other,
            lambda: a >= other,
            lambda: other < a,
            lambda: other >= a,
        ):
            with pytest.raises(TypeError):
                compare()


def test_comparisons_with_negative_numbers_raise():
    for other in (-1, Fraction(-1, 2)):
        for compare in (
            lambda: LValue(1) == other,
            lambda: LValue(1) < other,
            lambda: LValue(1) <= other,
            lambda: LValue(1) > other,
            lambda: INF >= other,
        ):
            with pytest.raises(ValueError):
                compare()


# -- every operation against a Fraction-or-∞ oracle, with up to 300 digits -------------

_BIG = 10**300
# None is ∞; the small numerators and denominators hit the equal-denominator
# paths, the large ones the cross-multiplied ones
oracle_values = st.one_of(
    st.none(),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
    st.builds(
        Fraction,
        st.one_of(st.integers(0, 12), st.integers(0, _BIG)),
        st.one_of(st.integers(1, 6), st.integers(1, _BIG)),
    ),
)


def _lv(q):
    return INF if q is None else LValue(q)


def _is(v: LValue, q) -> bool:
    """v is the oracle value q, stored in lowest terms: equal, with q's text."""
    return v == _lv(q) and str(v) == ("inf" if q is None else str(q))


@given(oracle_values, oracle_values, st.integers(0, 10**6), st.integers(0, _BIG))
@example(None, None, 0, 0)
@example(Fraction(1, 2), Fraction(1, 2), 2, 1)
@example(Fraction(2, 3), Fraction(1, 6), 3, 0)
@example(Fraction(1, _BIG), Fraction(_BIG - 1, _BIG), 0, _BIG)
# denominators with no inverse modulo the hash modulus
@example(Fraction(3, sys.hash_info.modulus), Fraction(1, 2 * sys.hash_info.modulus), 1, 0)
def test_every_operation_matches_a_fraction_or_infinity_oracle(p, q, k, n):
    a, b = _lv(p), _lv(q)
    total = None if p is None or q is None else p + q
    assert _is(a + b, total) and _is(b + a, total)
    assert _is(tropical_mul(a, b), total)
    shifted = None if p is None else p + n
    assert _is(a + n, shifted) and _is(n + a, shifted)
    multiple = Fraction(0) if k == 0 else None if p is None else k * p
    assert _is(k * a, multiple) and _is(a * k, multiple)
    if q is None:
        rest = Fraction(0)
    else:
        rest = None if p is None else max(p - q, Fraction(0))
    assert _is(monus(a, b), rest)
    assert _is(tropical_add(a, b), min(p, q, key=_key))
    assert leq(a, b) == (_key(q) <= _key(p))
    assert (a < b) == (_key(p) < _key(q)) and (a <= b) == (_key(p) <= _key(q))
    assert (a > b) == (_key(p) > _key(q)) and (a >= b) == (_key(p) >= _key(q))
    assert (a == b) == (p == q)
    assert a.to_json() == str(a) and LValue.from_json(a.to_json()) == a
    if p is not None:
        # an LValue, the equal Fraction and the equal int are one dict key
        assert a == p and hash(a) == hash(p) and a.as_fraction() == p
        assert hash(LValue(p.numerator)) == hash(p.numerator)
        assert {p: 1}[a] == 1 and {a: 1}[p] == 1


# -- near-miss JSON tokens and metric-space documents ---------------------------------


def _token_oracle(token):
    """A JSON token's value as a Fraction, None for ∞, or FormatError.  A
    string is trimmed, then read as "inf", "infinity" or "∞" in any case,
    or as a fractions.Fraction literal without underscores; an integer is
    taken as it is.  The value must be nonnegative with at most 1000 digits,
    an exponent's size counting as digits."""
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        return FormatError
    if isinstance(token, int):
        return Fraction(token) if 0 <= token < 10**1000 else FormatError
    t = token.strip()
    if t.lower() in ("inf", "infinity", "∞"):
        return None
    exponent = re.search(r"e([-+]?\d+)$", t, re.IGNORECASE)
    if "_" in t or len(t) + (abs(int(exponent[1])) if exponent else 0) > 1000:
        return FormatError
    try:
        q = Fraction(t)
    except (ValueError, ZeroDivisionError):
        return FormatError
    return q if q >= 0 else FormatError


def _built(token):
    """LValue(token), or the class of the ValueError or TypeError it
    raises; any other exception propagates and fails the test."""
    try:
        return LValue(token)
    except (ValueError, TypeError) as exc:
        return type(exc)


@given(near_miss_tokens)
@example(10**5000)
@example(-(10**5000))
@example("9" * 1000)
@example("-0")
@example("+1/0")
@example("007")
@example("+3")
@example("3/ 4")
@example("0/0")
@example("²")
@example("٣")
@example("4/06")
@example("1e995")
@example("1e996")
@example("58e29169672")
@example("2.5e-992")
@example("2.5e-993")
@example("1/2e999")
def test_constructor_and_loader_read_a_token_alike(token):
    # one reader serves both: the loader gives the oracle's value or a
    # FormatError; the constructor the same value or a ValueError for a
    # string and for an int, the two sharing the digit limit on integers
    want = _token_oracle(token)
    got, built = loaded(LValue.from_json, token), _built(token)
    if want is FormatError:
        assert got is FormatError
    else:
        assert got is not FormatError and _is(got, want)
    if isinstance(token, str):
        assert built is ValueError if want is FormatError else _is(built, want)
    elif isinstance(token, int) and not isinstance(token, bool):
        assert built is ValueError if want is FormatError else _is(built, want)
    else:
        assert built is TypeError


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner)
    ),
    max_leaves=6,
)


@given(_json_values)
def test_error_texts_show_a_json_value_as_its_repr(value):
    assert _shown(value) == repr(value)


def test_error_texts_name_an_integer_past_the_digit_limit():
    long = "<integer of more than 1000 digits>"
    assert _shown(10**1000 - 1) == "9" * 1000
    assert _shown(10**1000) == long and _shown(-(10**1000)) == "-" + long
    assert _shown([1, {"a": -(10**5000)}, "x"]) == f"[1, {{'a': -{long}}}, 'x']"


def _metric_oracle(doc):
    """The distance table that a metric-space document names, its values
    as in ``_token_oracle``, or FormatError."""
    if not isinstance(doc, dict) or "points" not in doc or "dist" not in doc:
        return FormatError
    points, raw = doc["points"], doc["dist"]
    if not isinstance(points, list) or not isinstance(raw, dict):
        return FormatError
    table = {}
    for key, token in raw.items():
        value = _token_oracle(token)
        if not isinstance(key, str) or key.count("|") != 1 or value is FormatError:
            return FormatError
        table[tuple(key.split("|"))] = value
    names_ok = all(isinstance(p, str) and "|" not in p for p in points)
    if not points or not names_ok or len(set(points)) != len(points):
        return FormatError
    if table.keys() != {(x, y) for x in points for y in points}:  # each pair, and no other
        return FormatError
    return {(x, y): table[x, y] for x in points for y in points}


@given(near_miss_metric_documents())
@example({"points": ["a"], "dist": {"a|a": "1/0"}})
@example({"points": ["a"], "dist": {"a|a": "-0"}})
@example({"points": ["a"], "dist": {"a|a": -(10**5000)}})
def test_metric_space_loader_on_near_miss_documents(doc):
    want = _metric_oracle(doc)
    got = loaded(MetricSpace.from_json, doc)
    if want is FormatError:
        assert got is FormatError
    else:
        assert got is not FormatError and got.points == tuple(doc["points"])
        table = got.table()
        assert table.keys() == want.keys() and all(_is(table[k], want[k]) for k in want)
