"""Integer partitions and the Young-lattice combinatorics built on them.

Partitions are stored in canonical form (weakly decreasing positive parts);
the empty partition is a first-class value and stands for the constant
monomial 1.  The total order used everywhere for sorting and tie-breaking
compares sizes first and then part lists left to right (missing parts count
as 0), so within one size (1,1) < (2) and (2,1) < (3).
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable, Iterator

from .errors import FormatError


class Partition:
    """A weakly decreasing tuple of positive integers, possibly empty."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted(parts, reverse=True)
        for p in ps:
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeError(f"partition parts must be integers, got {p!r}")
        if ps and ps[-1] < 1:
            raise ValueError(f"partition parts must be positive, got {ps}")
        self._parts = tuple(ps)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap a tuple of positive ints that is already weakly decreasing,
        without sorting or checking it."""
        out = object.__new__(cls)
        out._parts = parts
        return out

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    def is_empty(self) -> bool:
        return not self._parts

    def is_row(self) -> bool:
        """True for single-part partitions (n); false for ∅ and all others."""
        return len(self._parts) == 1

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.size, self._parts)

    # -- serialization ----------------------------------------------------

    def key(self) -> str:
        """Comma-joined string form used as a JSON map key ("" for ∅)."""
        return ",".join(str(p) for p in self._parts)

    @classmethod
    def from_key(cls, s: str) -> "Partition":
        # each part ASCII digits: int() alone would also take a sign, spaces,
        # underscores and the digits of other scripts
        parts = s.split(",") if s else ()
        try:
            if all(x.isascii() and x.isdigit() for x in parts):
                return cls(map(int, parts))
        except ValueError:  # a part of 0, or past int()'s digit limit
            pass
        raise FormatError(f"bad partition key {s!r}")

    def to_json(self) -> list[int]:
        return list(self._parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        if not isinstance(data, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in data
        ):
            raise FormatError(f"partition must be a list of positive integers, got {data!r}")
        return cls(data)

    # -- container & comparison protocol ----------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Partition") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Partition") -> bool:
        return other < self

    def __ge__(self, other: "Partition") -> bool:
        return other <= self

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"

    def __str__(self) -> str:
        return "()" if not self._parts else "(" + ",".join(map(str, self._parts)) + ")"


EMPTY = Partition()


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order of part lists.

    partitions_of(0) is (∅,).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (EMPTY,)
    out: list[Partition] = []
    cur = [n]
    while True:
        out.append(Partition._trusted(tuple(cur)))
        # find rightmost part > 1 to decrement, then redistribute remainder
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            break
        rest = len(cur) - i - 1 + 1  # the ones dropped plus the unit taken
        cur = cur[:i] + [cur[i] - 1]
        cap = cur[-1]
        while rest > 0:
            take = min(cap, rest)
            cur.append(take)
            rest -= take
    return tuple(out)


@cache
def partitions_up_to(bound: int) -> tuple[Partition, ...]:
    """All partitions of size ≤ bound (including ∅), sorted size-then-lex."""
    out: list[Partition] = []
    for n in range(bound + 1):
        out.extend(sorted(partitions_of(n)))
    return tuple(out)


def covers(p: Partition) -> tuple[Partition, ...]:
    """Partitions one box above p in the Young lattice.

    Each result increments one part (where the staircase allows) or appends
    a new part 1; results are distinct and weakly decreasing.
    """
    out = []
    parts = p.parts
    for i, v in enumerate(parts):
        if i == 0 or parts[i - 1] > v:
            out.append(Partition._trusted(parts[:i] + (v + 1,) + parts[i + 1:]))
    out.append(Partition._trusted(parts + (1,)))
    return tuple(out)


# Largest degree bound accepted from CLI options, input files and
# WittElem.from_json.  A cold process at degree 12 spends about 0.1 s on the
# power-sum transitions that every structure table reads, 0.1 s on the
# products that validation checks and 0.15 s on the multiplicative
# coproduct; a cold `witt validate` takes about 0.4 s, and one warm
# WittElem.mul 2.5 ms (2-vCPU Xeon); the tables grow about 2.5-fold per
# degree.
MAX_DEGREE = 12


def _check_degree(bound: int) -> None:
    """Refuse a degree bound above MAX_DEGREE, before anything is indexed up to it."""
    if bound > MAX_DEGREE:
        raise FormatError(f"degree_bound {bound} exceeds the maximum {MAX_DEGREE}")


# Largest n whose whole Plancherel measure, hook_dimension(λ)²/n! over the
# partitions of n (627 at n = 20), is built (`plancherel measure --n`).
MAX_MEASURE_N = 20


@cache
def hook_dimension(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook-length formula)."""
    parts = p.parts
    if not parts:
        return 1
    conj = _conjugate(parts)
    denom = 1
    for i, row in enumerate(parts):
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
