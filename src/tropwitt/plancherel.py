"""Plancherel measure and the corresponding growth chain on partitions.

The measure on partitions of n weights λ by dim(λ)²/n! where dim counts
standard Young tableaux; the growth chain steps from λ to a cover μ with
probability dim(μ)/((|λ|+1)·dim(λ)).  Pushing the size-n measure through
one step gives the size-(n+1) measure exactly, which the tests check in
rational arithmetic.  Sampling compares a fixed-denominator uniform draw
(64 random bits) against exact cumulative probabilities, so a seed pins
the whole path.  A path is written to JSON (``plancherel sample``) but
never read: ``plancherel observe`` samples its own from a seed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import factorial
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegreeOverflowError
from .partitions import MAX_MEASURE_N, Partition, _conjugate, hook_dimension, partitions_of
from .quantale import ZERO

if TYPE_CHECKING:
    from .enriched import DistTable, WittSpace

_DRAW_BITS = 64


def plancherel_measure(n: int) -> dict[Partition, Fraction]:
    """The hook-squared measure on partitions of n; sums to exactly 1."""
    if not 1 <= n <= MAX_MEASURE_N:
        raise ValueError(f"n must be in 1..{MAX_MEASURE_N}")
    denom = factorial(n)
    return {
        lam: Fraction(hook_dimension(lam) ** 2, denom) for lam in partitions_of(n)
    }


def growth_step(lam: Partition) -> dict[Partition, Fraction]:
    """Transition probabilities to the covers of lam; zero elsewhere.

    dim(μ)/((n+1)·dim(λ)) is H(λ)/H(μ), where H is the product of the hook
    lengths.  Adding the box (r, c) lengthens by one only the hooks of the
    boxes left of it in row r and above it in column c, so the ratio is
    Π h/(h + 1) over those boxes' hook lengths h in λ.
    """
    conj = _conjugate(lam) if lam else ()
    out = {}
    # the added box sits at row r, column c (0-based): at the end of row r
    # where r = 0 or λ_{r−1} > λ_r, or alone in a new row (c = 0)
    for r, c in enumerate(lam + (0,)):
        if r and lam[r - 1] == c:
            continue
        num = den = 1
        for j in range(c):  # row r: λ_r − j + λ'_j − r − 1
            h = c - j + conj[j] - r - 1
            num, den = num * h, den * (h + 1)
        for i in range(r):  # column c: λ_i − c + λ'_c − i − 1, λ'_c = r
            h = lam[i] - c + r - i - 1
            num, den = num * h, den * (h + 1)
        out[Partition._trusted(lam[:r] + (c + 1,) + lam[r + 1:])] = Fraction(num, den)
    return out


@cache
def _thresholds(lam: Partition) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """The covers of lam and, for each, ⌈C·2⁶⁴⌉ for the cumulative
    probability C up to and including it; the last threshold is 2⁶⁴.

    A draw d of 64 bits takes the first cover with d/2⁶⁴ < C, that is with
    d < ⌈C·2⁶⁴⌉, since d is an integer.  C is kept as an unreduced integer
    pair an/ad.
    """
    mus, thresholds = [], []
    an, ad = 0, 1
    for mu, p in growth_step(lam).items():
        n, d = p.numerator, p.denominator
        an, ad = an * d + n * ad, ad * d
        mus.append(mu)
        thresholds.append(-((-an << _DRAW_BITS) // ad))
    return tuple(mus), tuple(thresholds)


class GrowthPath(NamedTuple):
    """A sampled trajectory λ_1 ⋖ λ_2 ⋖ …, with its seed."""

    seed: int
    steps: tuple[Partition, ...]

    def to_json(self) -> dict:
        return {"seed": self.seed, "steps": [lam.to_json() for lam in self.steps]}


def sample_path(steps: int, seed: int) -> GrowthPath:
    """Draw a growth trajectory of the given length starting at (1)."""
    if steps < 1:
        raise ValueError("steps must be ≥ 1")
    draw = random.Random(seed).getrandbits
    lam = Partition([1])
    out = [lam]
    for _ in range(steps - 1):
        mus, thresholds = _thresholds(lam)
        lam = mus[bisect_right(thresholds, draw(_DRAW_BITS))]
        out.append(lam)
    return GrowthPath(seed, tuple(out))


class ObservedStep(NamedTuple):
    """One slice of a space along a path, flagged by whether the slice is a
    genuine metric space (zero self-distances) or partial-metric only."""

    partition: Partition
    table: DistTable
    is_metric: bool


def observe(space: WittSpace, path: GrowthPath) -> list[ObservedStep]:
    """Slice the space at every step of the path."""
    from .enriched import slice_table

    out = []
    for lam in path.steps:
        if lam.size > space.degree_bound:
            raise DegreeOverflowError(
                f"path reaches {lam}, beyond degree bound {space.degree_bound}"
            )
        table = slice_table(space, lam)
        flat = all(table[(x, x)] == ZERO for x in space.points)
        out.append(ObservedStep(lam, table, flat))
    return out
