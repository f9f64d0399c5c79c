"""Random instances for the property suites.

Valid Witt elements are never produced by rejection on raw value tables
(a random table essentially never satisfies multiplicativity); they come
from tropical point evaluation and from closed rig operations on such
elements.  Valid Witt spaces come from two families: the scalar embedding
of a random metric space, and point-evaluation entries built over a base
metric with a shared second-level increment, which keeps the composition
axiom while giving nonzero self-distances away from the single-row slices.
Every generated space is verified before it is returned.
"""

from __future__ import annotations

import random

from .enriched import MetricSpace, WittSpace, theta_space
from .quantale import INF, ZERO, LValue, _ratio
from .witt import WittElem, from_points


def random_rational(rng: random.Random, max_num: int = 12) -> LValue:
    return _ratio(rng.randint(0, max_num), rng.randint(1, 4))


def random_lvalue(rng: random.Random) -> LValue:
    """∞ one time in ten, else a random rational."""
    if rng.random() < 0.1:
        return INF
    return random_rational(rng)


def random_witt_elem(rng: random.Random, degree_bound: int, max_points: int = 3) -> WittElem:
    """A valid element from tropical evaluation at 1..max_points points."""
    size = rng.randint(1, max_points)
    return from_points([random_rational(rng) for _ in range(size)], degree_bound)


def min_plus_closure(points: tuple[str, ...], weights: dict) -> dict:
    """All-pairs shortest paths of a weighted digraph (min-plus powers)."""
    dist = dict(weights)
    for x in points:
        dist[(x, x)] = ZERO
    for k in points:
        for x in points:
            for y in points:
                via = dist[(x, k)] + dist[(k, y)]
                if via < dist[(x, y)]:
                    dist[(x, y)] = via
    return dist


def random_metric_space(rng: random.Random, points: tuple[str, ...]) -> MetricSpace:
    """Random directed weights, closed under shortest paths."""
    weights = {
        (x, y): random_rational(rng)
        for x in points
        for y in points
        if x != y
    }
    return MetricSpace(points, min_plus_closure(points, weights))


def random_theta_space(
    rng: random.Random, points: tuple[str, ...], degree_bound: int
) -> WittSpace:
    return theta_space(random_metric_space(rng, points), degree_bound)


def random_point_eval_space(
    rng: random.Random, points: tuple[str, ...], degree_bound: int
) -> WittSpace:
    """A valid space with point-evaluation entries and nonzero self-distance
    beyond the single-row slices.

    Every pair gets degree_bound points: the base metric distance once and
    the distance plus a shared increment for the rest (the diagonal uses
    base 0).  A shared increment keeps composition: sorted entrywise, the
    sum table dominates the direct table level by level.  Random extra
    bumps on the deeper levels are tried on top and kept only when the
    axioms still hold, in at most two tries.
    """
    base = random_metric_space(rng, points)
    bump = _ratio(rng.randint(1, 8), rng.randint(1, 3))

    def build(extra: dict) -> WittSpace:
        dist = {}
        for x in points:
            for y in points:
                d = base.dist(x, y) if x != y else ZERO
                pts = [d] + [d + bump + extra.get((x, y), ZERO)] * (degree_bound - 1)
                dist[(x, y)] = from_points(pts, degree_bound)
        return WittSpace(points, dist)

    for _ in range(2):
        extra = {
            (x, y): random_rational(rng, 3)
            for x in points
            for y in points
            if rng.random() < 0.3
        }
        if not extra:
            continue
        candidate = build(extra)
        if candidate.validate().ok:
            return candidate
    space = build({})
    assert space.validate().ok
    return space
