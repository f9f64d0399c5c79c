"""The min-plus rig on [0, ∞] with exact rational arithmetic.

``LValue`` is an extended nonnegative rational.  Its Python operators keep
the *numeric* reading: ``a + b`` adds, ``a <= b`` is the usual order, and
``min`` picks the numerically smaller value.  The rig structure lives in
the module functions: :func:`tropical_add` is min, :func:`tropical_mul` is
numeric addition, and :func:`leq` is the rig's own order, which runs
opposite to the numeric one (∞ is the bottom element, 0 the top, because
x ≼ y holds exactly when min(x, z) = y for some z).

A value is held as one canonical integer pair: a numerator and a positive
denominator in lowest terms, with ∞ marked by a numerator of ``None``.
Sums, multiples, truncated differences, the order (by cross-multiplication),
the text form and the hash are computed on the two integers; the hash is
``Fraction``'s, so an ``LValue``, the equal ``int`` and the equal
``Fraction`` are one dict key.

One reader, ``_read``, turns a text token into integers for the
constructor (a ``ValueError``) and for every JSON loader (``_json_pair``,
a ``FormatError``); one writer, ``_text``, spells n/d in lowest terms for
``str``, ``to_json`` and the texts of :mod:`tropwitt.witt`.  ``Fraction``
appears only in :meth:`LValue.as_fraction` and in reading the tokens that,
once trimmed, are not ASCII digits or digits/digits: decimals and
exponents such as "1.5" and "1e3", signs, and other Unicode digits.

Floats are rejected throughout; every law test in this package relies on
exact equality.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import FormatError, _shown

_INF_TOKEN = "inf"

# A number token may need at most this many digits: its length plus the
# size of its exponent.  Fraction expands an exponent into a whole integer,
# so a token such as "1e10000000" would take seconds; and a value within
# the limit has at most _MAX_DIGITS + 1 digits above and below its
# fraction bar, so a sum of a few values still prints under Python's limit
# of 4300 digits for converting an integer to a string.
_MAX_DIGITS = 1000
_TOO_LARGE = 10**_MAX_DIGITS
_TOO_LONG = f": more than {_MAX_DIGITS} digits"
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\Z")
_MODULUS = sys.hash_info.modulus

LValueLike = Union["LValue", int, Fraction, str]


class LValue:
    """An exact element of [0, ∞]: a nonnegative rational n/d in lowest
    terms, or infinity (n is None)."""

    __slots__ = ("_n", "_d")

    def __init__(self, value: LValueLike):
        if isinstance(value, str):
            value = _ratio(*_read(value))
        if isinstance(value, LValue):
            n, d = value._n, value._d
        elif isinstance(value, bool):
            raise TypeError("bool is not a valid LValue")
        elif isinstance(value, (int, Fraction)):
            n, d = value.numerator, value.denominator
            if n < 0:
                shown = _shown(n) if d == 1 else f"{_shown(n)}/{_shown(d)}"
                raise ValueError(f"LValue must be nonnegative, got {shown}")
            if n >= _TOO_LARGE or d >= _TOO_LARGE:  # the loaders' limit
                raise ValueError(f"LValue must have at most {_MAX_DIGITS} digits")
        else:
            raise TypeError(f"cannot build LValue from {type(value).__name__}")
        self._n, self._d = n, d

    @property
    def is_infinite(self) -> bool:
        return self._n is None

    @property
    def is_finite(self) -> bool:
        return self._n is not None

    def as_fraction(self) -> Fraction:
        if self._n is None:
            raise ValueError("infinite LValue has no Fraction form")
        return Fraction(self._n, self._d)

    # -- numeric operators -------------------------------------------------

    # an LValue operand skips the _coerce call: the law suites combine and
    # compare LValues with each other in their innermost loops

    def __add__(self, other) -> "LValue":
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, c = self._n, other._n
        if a is None or c is None:
            return INF
        b, d = self._d, other._d
        if b == d:
            return _ratio(a + c, b)
        return _ratio(a * d + c * b, b * d)

    __radd__ = __add__

    def __mul__(self, n) -> "LValue":
        """Scalar multiple by a nonnegative integer; 0·∞ = 0 (empty sum)."""
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            raise ValueError("scalar must be nonnegative")
        if n == 0:
            return ZERO
        if self._n is None:
            return INF
        return _ratio(self._n * n, self._d)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        n, d = self._n, self._d
        if d == 1:  # an integer, or ∞
            return hash(n)
        # Fraction's hash: n over d modulo the hash modulus, or the hash of
        # float infinity when d has no inverse there
        try:
            return hash(hash(n) * pow(d, -1, _MODULUS))
        except ValueError:
            return sys.hash_info.inf

    def __lt__(self, other) -> bool:
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, c = self._n, other._n
        if a is None or c is None:
            return c is None and a is not None
        b, d = self._d, other._d
        return a < c if b == d else a * d < c * b

    def __le__(self, other) -> bool:
        if not isinstance(other, LValue):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, c = self._n, other._n
        if a is None or c is None:
            return c is None
        b, d = self._d, other._d
        return a <= c if b == d else a * d <= c * b

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def __repr__(self) -> str:
        return f"LValue({self})"

    def __str__(self) -> str:
        return _text(self._n, self._d)

    # -- serialization -----------------------------------------------------

    to_json = __str__

    @classmethod
    def from_json(cls, data) -> "LValue":
        return _ratio(*_json_pair(data))


def _json_pair(data) -> tuple[int | None, int]:
    """The value of a JSON token, an integer below the digit limit or a
    string, as ``_read`` gives it; a FormatError for anything else."""
    if data == _INF_TOKEN:  # the form that ``to_json`` writes for ∞
        return None, 1
    if isinstance(data, str):
        try:
            return _read(data)
        except ValueError as exc:
            # a token past the digit limit is named in short, any other as given
            text = str(exc)
            raise FormatError(text if text.endswith(_TOO_LONG) else f"bad LValue {data!r}") from exc
    if isinstance(data, int) and not isinstance(data, bool):
        if data < 0:
            raise FormatError(f"LValue must be nonnegative, got {_shown(data)}")
        if data >= _TOO_LARGE:
            raise FormatError(f"LValue must have at most {_MAX_DIGITS} digits")
        return data, 1
    raise FormatError(f"LValue must be an integer or string, got {_shown(data)}")


def _read(token: str) -> tuple[int | None, int]:
    """The value of a token as integers n ≥ 0 and d ≥ 1, not necessarily
    coprime, or (None, 1) for ∞; a ValueError for a negative value and,
    naming the token, for any other text.  ASCII digits and digits/digits
    go straight to integers, any other token is trimmed and read again,
    and one still of neither form by Fraction."""
    a, slash, b = token.partition("/")
    if token.isascii() and a.isdigit() and (b.isdigit() or not slash) and len(token) <= _MAX_DIGITS:
        d = int(b) if slash else 1
        if d:
            return int(a), d
    s = token.strip()
    if s != token:
        return _read(s)
    if s.lower() in (_INF_TOKEN, "infinity", "∞"):
        return None, 1
    # Fraction accepts digit separators from Python 3.11 on; refuse them on
    # every version, so the grammar does not depend on the interpreter
    if "_" in s:
        raise ValueError(f"bad LValue {s!r}: underscores are not accepted")
    exponent = _EXPONENT.search(s) if len(s) <= _MAX_DIGITS else None
    if len(s) + (abs(int(exponent[1])) if exponent else 0) > _MAX_DIGITS:
        raise ValueError(f"bad LValue {reprlib.repr(s)}{_TOO_LONG}")
    try:
        q = Fraction(s)  # signs, decimal points, exponents; a zero denominator
    except ZeroDivisionError:
        raise ValueError(f"bad LValue {s!r}: zero denominator") from None
    if q < 0:
        raise ValueError(f"LValue must be nonnegative, got {q}")
    return q.numerator, q.denominator


def _coerce(x) -> "LValue":
    """A non-LValue operand as an LValue, or NotImplemented."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return LValue(x)
    return NotImplemented


def _text(n: int | None, d: int) -> str:
    """The text of n/d in lowest terms, d ≥ 1: "n" or "n/d", or "inf" for n None."""
    if n is None:
        return _INF_TOKEN
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


_new = object.__new__


def _ratio(n: int | None, d: int) -> "LValue":
    """Internal: the value n/d for integers n ≥ 0 and d ≥ 1, reduced, or ∞
    when n is None; one call, since the Witt slices make one per entry."""
    if n is None:
        return INF
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    out = _new(LValue)
    out._n = n
    out._d = d
    return out


ZERO = LValue(0)
INF = _new(LValue)  # the one ∞, which _ratio and so the constructor return
INF._n, INF._d = None, 1


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
    a, c = y._n, x._n
    if c is None:
        return ZERO
    if a is None:
        return INF
    b, d = y._d, x._d
    if b == d:
        return _ratio(a - c, b) if a > c else ZERO
    n = a * d - c * b
    return _ratio(n, b * d) if n > 0 else ZERO
