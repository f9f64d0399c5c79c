from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropwitt.errors import FormatError
from tropwitt.quantale import INF, ZERO, LValue, leq, monus, tropical_add, tropical_mul

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


def test_constructor_rejects_junk():
    with pytest.raises(ValueError):
        LValue(Fraction(-1, 2))
    with pytest.raises(TypeError):
        LValue(0.5)


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
    """The numeric order as (is_infinite, value): ∞ above every finite value."""
    if isinstance(v, LValue):
        return (1, 0) if v.is_infinite else (0, v.as_fraction())
    return (0, Fraction(v))


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
