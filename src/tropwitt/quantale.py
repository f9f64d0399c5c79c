"""The min-plus rig on [0, ∞] with exact rational arithmetic.

``LValue`` is an extended nonnegative rational.  Its Python operators keep
the *numeric* reading: ``a + b`` adds, ``a <= b`` is the usual order, and
``min`` picks the numerically smaller value.  The rig structure lives in
the module functions: :func:`tropical_add` is min, :func:`tropical_mul` is
numeric addition, and :func:`leq` is the rig's own order, which runs
opposite to the numeric one (∞ is the bottom element, 0 the top, because
x ≼ y holds exactly when min(x, z) = y for some z).

Floats are rejected throughout; every law test in this package relies on
exact equality.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from typing import Union

from .errors import FormatError

_INF_TOKEN = "inf"

# A number token may need at most this many digits: its length plus the
# size of its exponent.  Fraction expands an exponent into a whole integer,
# so a token such as "1e10000000" would take seconds; and a value within
# the limit has at most _MAX_DIGITS + 1 digits above and below its
# fraction bar, so a sum of a few values still prints under Python's limit
# of 4300 digits for converting an integer to a string.
_MAX_DIGITS = 1000
_TOO_LARGE = 10**_MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\Z")

LValueLike = Union["LValue", int, Fraction, str]


class LValue:
    """An exact element of [0, ∞]: a nonnegative Fraction or infinity."""

    __slots__ = ("_num",)

    def __init__(self, value: LValueLike):
        if isinstance(value, LValue):
            self._num = value._num
        elif isinstance(value, bool):
            raise TypeError("bool is not a valid LValue")
        elif isinstance(value, (int, Fraction)):
            self._num = Fraction(value)
        elif isinstance(value, str):
            self._num = _parse_token(value)
        else:
            raise TypeError(f"cannot build LValue from {type(value).__name__}")
        if self._num is not None and self._num < 0:
            raise ValueError(f"LValue must be nonnegative, got {self._num}")

    @property
    def is_infinite(self) -> bool:
        return self._num is None

    @property
    def is_finite(self) -> bool:
        return self._num is not None

    def as_fraction(self) -> Fraction:
        if self._num is None:
            raise ValueError("infinite LValue has no Fraction form")
        return self._num

    # -- numeric operators -------------------------------------------------

    def __add__(self, other) -> "LValue":
        if isinstance(other, LValue):
            a, b = self._num, other._num
            if a is None or b is None:
                return INF
            return _make(a + b)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + other

    __radd__ = __add__

    def __mul__(self, n) -> "LValue":
        """Scalar multiple by a nonnegative integer; 0·∞ = 0 (empty sum)."""
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            raise ValueError("scalar must be nonnegative")
        if n == 0:
            return ZERO
        if self._num is None:
            return INF
        return _make(self._num * n)

    __rmul__ = __mul__

    # an LValue operand skips the _coerce call: the law suites compare
    # LValues with each other in their innermost loops

    def __eq__(self, other) -> bool:
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._num == other._num

    def __hash__(self) -> int:
        return hash(self._num)

    def __lt__(self, other) -> bool:
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._num, other._num
        return a is not None and (b is None or a < b)

    def __le__(self, other) -> bool:
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._num, other._num
        return b is None or (a is not None and a <= b)

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def __repr__(self) -> str:
        return f"LValue({self})"

    def __str__(self) -> str:
        return _INF_TOKEN if self._num is None else str(self._num)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return str(self)

    @classmethod
    def from_json(cls, data) -> "LValue":
        n, d = _json_pair(data)
        return INF if n is None else _make(Fraction(n, d))


def _json_pair(data) -> tuple[int | None, int]:
    """The value of a JSON token, a nonnegative integer or a string that
    ``LValue`` parses, as a numerator and a nonzero denominator, not
    necessarily coprime, (None, 1) for ∞: "inf" and the forms that
    ``_ascii_ratio`` reads go straight to integers, every other string
    through ``_parse_token``."""
    if data == _INF_TOKEN:  # the form that ``to_json`` writes for ∞
        return None, 1
    if isinstance(data, str):
        pair = _ascii_ratio(data)
        if pair is not None and pair[1]:
            return pair
        try:
            num = _parse_token(data)  # a zero denominator raises here
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad LValue {data!r}") from exc
        if num is not None and num < 0:
            raise FormatError(f"bad LValue {data!r}")
        return (None, 1) if num is None else (num.numerator, num.denominator)
    if isinstance(data, int) and not isinstance(data, bool):
        if data < 0:
            raise FormatError(f"LValue must be nonnegative, got {data}")
        if data >= _TOO_LARGE:
            raise FormatError(f"LValue must have at most {_MAX_DIGITS} digits")
        return data, 1
    raise FormatError(f"LValue must be an integer or string, got {data!r}")


def _ascii_ratio(s: str) -> tuple[int, int] | None:
    """ASCII digits with an optional / and ASCII digits, the common forms,
    as a numerator and a denominator, without Fraction's regular
    expression; None for any other form."""
    a, slash, b = s.partition("/")
    if s.isascii() and a.isdigit() and (b.isdigit() or not slash):
        if len(s) > _MAX_DIGITS:
            raise _too_many_digits(s)
        return int(a), int(b) if slash else 1
    return None


def _too_many_digits(s: str) -> FormatError:
    return FormatError(f"bad LValue {reprlib.repr(s)}: more than {_MAX_DIGITS} digits")


def _parse_token(s: str) -> Fraction | None:
    s = s.strip()
    pair = _ascii_ratio(s)
    if pair is not None:
        return Fraction(*pair)
    if s.lower() in (_INF_TOKEN, "infinity", "∞"):
        return None
    # Fraction accepts digit separators from Python 3.11 on; refuse them on
    # every version, so the grammar does not depend on the interpreter
    if "_" in s:
        raise ValueError(f"bad LValue {s!r}: underscores are not accepted")
    if len(s) > _MAX_DIGITS:
        raise _too_many_digits(s)
    exponent = ("e" in s or "E" in s) and _EXPONENT.search(s)
    if exponent and len(s) + abs(int(exponent[1])) > _MAX_DIGITS:
        raise _too_many_digits(s)
    return Fraction(s)


def _coerce(x) -> "LValue":
    if isinstance(x, LValue):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return LValue(x)
    return NotImplemented


def _make(num: Fraction) -> "LValue":
    """Internal: wrap an already-validated Fraction without rechecking."""
    out = object.__new__(LValue)
    out._num = num
    return out


ZERO = LValue(0)
INF = LValue(_INF_TOKEN)


def tropical_add(a: LValue, b: LValue) -> LValue:
    """Rig addition: the numeric minimum.  Unit ∞; idempotent."""
    return a if a <= b else b


def tropical_mul(a: LValue, b: LValue) -> LValue:
    """Rig multiplication: numeric addition.  Unit 0; ∞ absorbs."""
    return a + b


def leq(a: LValue, b: LValue) -> bool:
    """The rig order: a ≼ b iff b ≤ a numerically (∞ bottom, 0 top)."""
    return b <= a


def monus(y: LValue, x: LValue) -> LValue:
    """Truncated subtraction max(y − x, 0), the internal hom of the rig.

    Conventions at infinity: ∞ ⊖ finite = ∞ and y ⊖ ∞ = 0; these are the
    unique choices making x + z ≼ y ⟺ z ≼ y ⊖ x hold everywhere.
    """
    if x.is_infinite:
        return ZERO
    if y.is_infinite:
        return INF
    d = y.as_fraction() - x.as_fraction()
    return _make(d) if d > 0 else ZERO
