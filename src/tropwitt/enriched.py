"""Finite metric-like spaces enriched in the quantale or in its Witt rig.

A ``MetricSpace`` is a Lawvere-style metric space: distances are extended
nonnegative rationals, zero on the diagonal, triangle inequality, no
symmetry requirement.  A ``WittSpace`` carries a full Witt element per
ordered pair instead; slicing it at a partition, or at the degree-n
complete element, projects back down to ordinary distance tables.  Slices
at single-row partitions and at complete elements are again metric spaces;
a general slice keeps the triangle inequality but may give a point nonzero
self-distance, which is exactly the partial-metric behavior the tests
exhibit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import DegreeOverflowError, FormatError
from .partitions import Partition
from .quantale import ZERO, LValue
from .report import Report, Violation
from .symfunc import SymFunc, complete, plethysm
from .witt import WittElem, _basis, _column, _composition_excesses, tau, theta

DistTable = dict[tuple[str, str], LValue]


def _check_points(points: Iterable[str]) -> tuple[str, ...]:
    pts = tuple(points)
    if not pts:
        raise ValueError("a space needs at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("point names must be distinct")
    for p in pts:
        if not isinstance(p, str) or "|" in p:
            raise ValueError(f"bad point name {p!r} (strings without '|')")
    return pts


class MetricSpace:
    """Finite point set with an extended-rational distance table."""

    __slots__ = ("_points", "_dist")

    def __init__(self, points: Iterable[str], dist: Mapping[tuple[str, str], LValue]):
        self._points = _check_points(points)
        table: DistTable = {}
        for x in self._points:
            for y in self._points:
                try:
                    table[(x, y)] = LValue(dist[(x, y)])
                except KeyError:
                    raise ValueError(f"missing distance for pair ({x}, {y})") from None
        self._dist = table

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    def dist(self, x: str, y: str) -> LValue:
        return self._dist[(x, y)]

    def table(self) -> DistTable:
        return dict(self._dist)

    def validate(self) -> Report:
        """Zero self-distances and the triangle inequality on all triples."""
        report = Report("metric-space")
        for x in self._points:
            if self.dist(x, x) != ZERO:
                report.add("identity", (x,), f"d({x},{x}) = {self.dist(x, x)} ≠ 0")
        for x in self._points:
            for y in self._points:
                for z in self._points:
                    if not self.dist(x, z) <= self.dist(x, y) + self.dist(y, z):
                        report.add(
                            "triangle",
                            (x, y, z),
                            f"d({x},{z}) = {self.dist(x, z)} > "
                            f"{self.dist(x, y)} + {self.dist(y, z)}",
                        )
        return report

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MetricSpace)
            and self._points == other._points
            and self._dist == other._dist
        )

    def __repr__(self) -> str:
        return f"MetricSpace<{len(self._points)} points>"

    def to_json(self) -> dict:
        return {
            "points": list(self._points),
            "dist": {f"{x}|{y}": v.to_json() for (x, y), v in sorted(self._dist.items())},
        }

    @classmethod
    def from_json(cls, data) -> "MetricSpace":
        points, dist = _parse_space_json(data, LValue.from_json)
        try:
            return cls(points, dist)
        except (ValueError, TypeError) as exc:
            raise FormatError(str(exc)) from exc


class WittSpace:
    """Finite point set with a Witt-element-valued distance table."""

    __slots__ = ("_points", "_dist", "_degree_bound")

    def __init__(self, points: Iterable[str], dist: Mapping[tuple[str, str], WittElem]):
        self._points = _check_points(points)
        table: dict[tuple[str, str], WittElem] = {}
        bounds = set()
        for x in self._points:
            for y in self._points:
                try:
                    entry = dist[(x, y)]
                except KeyError:
                    raise ValueError(f"missing distance for pair ({x}, {y})") from None
                if not isinstance(entry, WittElem):
                    raise TypeError(f"distance for ({x}, {y}) must be a WittElem")
                bounds.add(entry.degree_bound)
                table[(x, y)] = entry
        if len(bounds) != 1:
            raise ValueError(f"entries disagree on degree bound: {sorted(bounds)}")
        self._degree_bound = bounds.pop()
        self._dist = table

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    @property
    def degree_bound(self) -> int:
        return self._degree_bound

    def dist(self, x: str, y: str) -> WittElem:
        return self._dist[(x, y)]

    def validate(self) -> Report:
        """Entry homomorphism checks, identity axiom, composition axiom."""
        report = Report("witt-space")
        for (x, y), entry in sorted(self._dist.items()):
            sub = entry.validate()
            for v in sub.violations:
                report.add("hom", (x, y) + v.witness, f"d({x},{y}): {v.detail}")
        report.violations.extend(self.axiom_violations())
        return report

    def axiom_violations(self) -> Iterator[Violation]:
        """The identity and composition violations, lazily and in report
        order, without the entry homomorphism checks; the first one is found
        without looking at the rest."""
        basis = _basis(self._degree_bound)
        for x in self._points:
            dxx = self.dist(x, x)
            for i in basis.rows:
                if dxx._nums[i] != 0:
                    row = basis.parts[i]
                    yield Violation(
                        "identity", (x, row), f"d({x},{x})(m{row}) = {dxx.value(row)} ≠ 0"
                    )
        for x, y, z, bad, direct, through in _composition_excesses(self._points, self._dist):
            yield Violation(
                "composition", (x, y, z, bad), f"d({x},{z})(m{bad}) = {direct} > {through}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittSpace)
            and self._points == other._points
            and self._dist == other._dist
        )

    def __repr__(self) -> str:
        return f"WittSpace<{len(self._points)} points, N={self._degree_bound}>"

    def to_json(self) -> dict:
        return {
            "degree_bound": self._degree_bound,
            "points": list(self._points),
            "dist": {f"{x}|{y}": v.to_json() for (x, y), v in sorted(self._dist.items())},
        }

    @classmethod
    def from_json(cls, data) -> "WittSpace":
        points, dist = _parse_space_json(data, WittElem.from_json)
        try:
            return cls(points, dist)
        except (ValueError, TypeError) as exc:
            raise FormatError(str(exc)) from exc


def _parse_space_json(data, parse_entry):
    if not isinstance(data, dict) or "points" not in data or "dist" not in data:
        raise FormatError("space JSON needs 'points' and 'dist'")
    points = data["points"]
    raw = data["dist"]
    if not isinstance(points, list) or not isinstance(raw, dict):
        raise FormatError("bad space JSON")
    dist = {}
    for key, v in raw.items():
        if key.count("|") != 1:
            raise FormatError(f"distance key must be 'x|y', got {key!r}")
        x, y = key.split("|")
        dist[(x, y)] = parse_entry(v)
    return points, dist


# -- slices --------------------------------------------------------------------


def slice_table(space: WittSpace, lam: Partition) -> DistTable:
    """The distance table at one partition: d_λ(x, y) = d(x, y)(m_λ)."""
    dist = space._dist
    return dict(zip(dist, _column(space.degree_bound, dist.values(), lam)))


def slice_complete(space: WittSpace, n: int) -> DistTable:
    """The table at the degree-n complete element: min over all |λ| = n."""
    if not 1 <= n <= space.degree_bound:
        raise DegreeOverflowError(f"n = {n} outside 1..{space.degree_bound}")
    h = complete(n, space.degree_bound)
    return {pair: entry.eval(h) for pair, entry in space._dist.items()}


def eval_slice(space: WittSpace, f: SymFunc) -> DistTable:
    """Entrywise evaluation at a general symmetric function."""
    return {pair: entry.eval(f) for pair, entry in space._dist.items()}


def table_space(space: WittSpace, table: DistTable) -> MetricSpace:
    """Wrap a slice table as a MetricSpace (caller asserts the axioms)."""
    return MetricSpace(space.points, table)


def argmin_partition(space: WittSpace, x: str, y: str, f: SymFunc) -> Partition:
    """The partition in the support of f achieving d_λ(x, y)'s minimum,
    smallest in the size-then-lex order on ties."""
    support = f.support()
    if not support:
        raise ValueError("f has empty support")
    entry = space.dist(x, y)
    best_lam = None
    best = None
    for lam in support:
        v = entry.value(lam)
        if best is None or v < best:
            best, best_lam = v, lam
    return best_lam


# -- the induced functors ---------------------------------------------------------


def theta_space(space: MetricSpace, degree_bound: int) -> WittSpace:
    """Entrywise scalar embedding of a metric space."""
    dist = {
        pair: theta(v, degree_bound) for pair, v in space._dist.items()
    }
    return WittSpace(space.points, dist)


def tau_space(space: WittSpace) -> MetricSpace:
    """Entrywise projection to the degree-one value (the initial table)."""
    dist = {pair: tau(entry) for pair, entry in space._dist.items()}
    return MetricSpace(space.points, dist)


def lambda_action(space: WittSpace, g: SymFunc, f: SymFunc) -> DistTable:
    """Act on the slice family: the table of d at the composition g ∘ f."""
    return eval_slice(space, plethysm(g, f))
