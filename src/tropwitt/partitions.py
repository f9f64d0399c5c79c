"""Integer partitions and the Young-lattice combinatorics built on them.

A :class:`Partition` is the tuple of its parts in canonical form (weakly
decreasing positive parts), so it iterates, indexes, compares equal and
hashes as that tuple: ``Partition([1, 2]) == (2, 1)``.  The empty
partition is a first-class value and stands for the constant monomial 1.
The order used everywhere for sorting and tie-breaking is not the tuple's:
it compares sizes first and then part lists left to right (missing parts
count as 0), so within one size (1,1) < (2) and (2,1) < (3), and it
orders partitions only among themselves.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from operator import ge, gt, le, lt
from typing import Callable, Iterable

from .errors import _LONG, FormatError, _shown


def _ordering(symbol: str, compare: Callable[[tuple, tuple], bool]):
    """A size-first order method; any operand but a partition is a
    TypeError, never the tuple's own lexicographic order."""

    def method(self: Partition, other) -> bool:
        if not isinstance(other, Partition):
            name = type(other).__name__
            raise TypeError(f"'{symbol}' not supported between 'Partition' and {name!r}")
        return compare(self.sort_key(), other.sort_key())

    return method


class Partition(tuple):
    """A weakly decreasing tuple of positive integers, possibly empty."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        ps = sorted(parts, reverse=True)
        for p in ps:
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeError(f"partition parts must be integers, got {p!r}")
        if ps and ps[-1] < 1:
            raise ValueError(f"partition parts must be positive, got {_shown(ps)}")
        return tuple.__new__(cls, ps)

    @classmethod
    def _trusted(cls, parts: Iterable[int]) -> "Partition":
        """The partition of positive ints that are already weakly
        decreasing, without sorting or checking them."""
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def is_empty(self) -> bool:
        return not self

    def is_row(self) -> bool:
        """True for single-part partitions (n); false for ∅ and all others."""
        return len(self) == 1

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        # plain tuples, so that comparing two keys does not come back here
        return (sum(self), tuple(self))

    __lt__ = _ordering("<", lt)
    __le__ = _ordering("<=", le)
    __gt__ = _ordering(">", gt)
    __ge__ = _ordering(">=", ge)

    # -- serialization ----------------------------------------------------

    def key(self) -> str:
        """Comma-joined string form used as a JSON map key ("" for ∅)."""
        return ",".join(map(str, self))

    @classmethod
    def from_key(cls, s: str) -> "Partition":
        # each part ASCII digits: int() alone would also take a sign, spaces,
        # underscores and the digits of other scripts
        if isinstance(s, str):
            parts = s.split(",") if s else ()
            try:
                if all(x.isascii() and x.isdigit() for x in parts):
                    return cls(map(int, parts))
            except ValueError:  # a part of 0, or past int()'s digit limit
                pass
        raise FormatError(f"bad partition key {_shown(s)}")

    def to_json(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    def __str__(self) -> str:
        # _shown names a part past 1000 digits, which a GrowthPath step may hold
        return f"({','.join(map(_shown, self)) if self and self[0] >= _LONG else self.key()})"


EMPTY = Partition()


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order of part lists:
    for each first part k from n down to 1, k followed by each partition of
    n − k whose parts are at most k.  partitions_of(0) is (∅,)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (EMPTY,)
    return tuple(
        Partition._trusted((k, *rest))
        for k in range(n, 0, -1)
        for rest in partitions_of(n - k)
        if not rest or rest[0] <= k
    )


@cache
def partitions_up_to(bound: int) -> tuple[Partition, ...]:
    """All partitions of size ≤ bound (including ∅), sorted size-then-lex:
    within one size, that order is the reverse of ``partitions_of``'s."""
    return tuple(lam for n in range(bound + 1) for lam in reversed(partitions_of(n)))


# Largest degree bound accepted from CLI options, from the loaders that read
# one (SymFunc, WittElem) and from the WittElem constructors.
# A cold process at degree 12 spends about 0.02 s on the power-sum
# transitions that every structure table reads, 0.07 s on the products that
# validation checks and 0.15 s on the multiplicative coproduct; a cold
# `witt validate` of θ(3/2) takes about 0.18 s (0.25 s compiling the
# package from source), and one warm WittElem.mul 2.6 ms (2-vCPU Xeon,
# Python 3.11); the tables grow about 2.5-fold per degree.
MAX_DEGREE = 12


def _check_degree(bound: int, error: type[Exception] = FormatError) -> None:
    """Refuse a degree bound above MAX_DEGREE, before anything is indexed up
    to it: a loader raises FormatError, a constructor ValueError."""
    if bound > MAX_DEGREE:
        raise error(f"degree_bound {_shown(bound)} exceeds the maximum {MAX_DEGREE}")


# Largest n whose whole Plancherel measure, hook_dimension(λ)²/n! over the
# partitions of n (627 at n = 20), is built (`plancherel measure --n`).
MAX_MEASURE_N = 20


@cache
def hook_dimension(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook-length formula)."""
    if not p:
        return 1
    conj = _conjugate(p)
    denom = 1
    for i, row in enumerate(p):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    num = factorial(p.size)
    assert num % denom == 0
    return num // denom


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * parts[0]
    for v in parts:
        for j in range(v):
            out[j] += 1
    return tuple(out)
