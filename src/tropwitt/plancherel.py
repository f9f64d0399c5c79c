"""Plancherel measure and the corresponding growth chain on partitions.

The measure on partitions of n weights λ by dim(λ)²/n! where dim counts
standard Young tableaux; the growth chain steps from λ to a cover μ with
probability dim(μ)/((|λ|+1)·dim(λ)).  Pushing the size-n measure through
one step gives the size-(n+1) measure exactly, which the tests check in
rational arithmetic.  Sampling compares a fixed-denominator uniform draw
(64 random bits) against exact cumulative probabilities, so a seed pins
the whole path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .enriched import DistTable, WittSpace, slice_table
from .errors import DegreeOverflowError, FormatError
from .partitions import Partition, _conjugate, covers, hook_dimension, partitions_of
from .quantale import ZERO

_MAX_MEASURE_N = 20
_DRAW_BITS = 64


def plancherel_measure(n: int) -> dict[Partition, Fraction]:
    """The hook-squared measure on partitions of n; sums to exactly 1."""
    if not 1 <= n <= _MAX_MEASURE_N:
        raise ValueError(f"n must be in 1..{_MAX_MEASURE_N}")
    denom = factorial(n)
    return {
        lam: Fraction(hook_dimension(lam) ** 2, denom) for lam in partitions_of(n)
    }


@cache
def growth_step(lam: Partition) -> dict[Partition, Fraction]:
    """Transition probabilities to the covers of lam; zero elsewhere.

    dim(μ)/((n+1)·dim(λ)) is H(λ)/H(μ), where H is the product of the hook
    lengths.  Adding the box (r, c) lengthens by one only the hooks of the
    boxes left of it in row r and above it in column c, so the ratio is
    Π h/(h + 1) over those boxes' hook lengths h in λ.
    """
    parts = lam.parts
    conj = _conjugate(parts) if parts else ()
    out = {}
    for mu in covers(lam):
        # the added box sits at row r, column c (0-based)
        r = next(i for i, v in enumerate(mu.parts) if i >= len(parts) or v != parts[i])
        c = mu.parts[r] - 1
        num = den = 1
        for j in range(c):  # row r: λ_r − j + λ'_j − r − 1
            h = parts[r] - j + conj[j] - r - 1
            num, den = num * h, den * (h + 1)
        for i in range(r):  # column c: λ_i − c + λ'_c − i − 1, λ'_c = r
            h = parts[i] - c + r - i - 1
            num, den = num * h, den * (h + 1)
        out[mu] = Fraction(num, den)
    return out


@dataclass(frozen=True)
class GrowthPath:
    """A sampled trajectory λ_1 ⋖ λ_2 ⋖ …, with its seed."""

    seed: int
    steps: tuple[Partition, ...]

    def to_json(self) -> dict:
        return {"seed": self.seed, "steps": [lam.to_json() for lam in self.steps]}

    @classmethod
    def from_json(cls, data) -> "GrowthPath":
        if not isinstance(data, dict) or "seed" not in data or "steps" not in data:
            raise FormatError("GrowthPath JSON needs 'seed' and 'steps'")
        seed, raw = data["seed"], data["steps"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FormatError(f"GrowthPath seed must be an integer, got {seed!r}")
        if not isinstance(raw, list):
            raise FormatError("GrowthPath 'steps' must be a list")
        steps = tuple(Partition.from_json(s) for s in raw)
        if not steps or steps[0] != Partition([1]):
            raise FormatError("a growth path starts at (1)")
        for lam, mu in zip(steps, steps[1:]):
            if mu not in covers(lam):
                raise FormatError(f"growth path step {mu} does not cover {lam}")
        return cls(seed, steps)


def sample_path(steps: int, seed: int) -> GrowthPath:
    """Draw a growth trajectory of the given length starting at (1)."""
    if steps < 1:
        raise ValueError("steps must be ≥ 1")
    rng = random.Random(seed)
    lam = Partition([1])
    out = [lam]
    for _ in range(steps - 1):
        draw = Fraction(rng.getrandbits(_DRAW_BITS), 2**_DRAW_BITS)
        acc = Fraction(0)
        for mu, p in growth_step(lam).items():
            acc += p
            if draw < acc:
                lam = mu
                break
        else:  # unreachable: probabilities sum to 1 and draw < 1
            lam = mu
        out.append(lam)
    return GrowthPath(seed, tuple(out))


@dataclass(frozen=True)
class ObservedStep:
    """One slice of a space along a path, flagged by whether the slice is a
    genuine metric space (zero self-distances) or partial-metric only."""

    partition: Partition
    table: DistTable
    is_metric: bool


def observe(space: WittSpace, path: GrowthPath) -> list[ObservedStep]:
    """Slice the space at every step of the path."""
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
