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

Both are one structure, a point set with one hom-object per ordered pair,
written once in ``_Space``: the table, its JSON form and its errors.  Each
class adds its entry check, its reader of one entry of a document,
``_read(data, memo)``, and its axioms.  The Witt-space check, with its
report texts, is :mod:`tropwitt.witt`'s, and so is the reader of a Witt
entry, which parses each distinct string token once per document (a
space of k points repeats its values over k² entries).  A metric space
reads each entry with ``LValue.from_json`` and keeps an ``LValue`` entry
as it is, values being immutable.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import DegreeOverflowError, FormatError, _shown
from .partitions import Partition
from .quantale import ZERO, LValue
from .report import Report
from .symfunc import SymFunc, complete, plethysm
from .witt import WittElem, _column, _evals, _failing_pairs, _space_violations, theta

DistTable = dict[tuple[str, str], LValue]

# Largest point count of a space that the loader reads.  Validation tests
# every triple of points, one packed step per middle point over all coproduct
# groups and all (x, z): a cold `cat validate` of a valid space at degree 12
# with values of a few digits took 0.61 s at 6 points and 0.75 s at 8 (2-vCPU
# Xeon, median of 5; 0.83 and 1.13 s before the packed kernel).  Wider
# values cost more: ``validate`` and the entry check ``failing_entries``
# refuse a batch past ``witt.MAX_PACKED_BYTES`` before packing it.
MAX_POINTS = 8


def _check_points(points: Iterable[str]) -> tuple[str, ...]:
    pts = tuple(points)
    if not pts:
        raise ValueError("a space needs at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("point names must be distinct")
    for p in pts:
        if not isinstance(p, str) or "|" in p:
            raise ValueError(f"bad point name {_shown(p)} (strings without '|')")
    return pts


class _Space:
    """Finite point set with one entry per ordered pair, held x-major.  A
    subclass checks an entry in ``_entry`` and reads one from a document
    with ``_read(data, memo)``, memo living for that document."""

    __slots__ = ("_points", "_dist")

    def __init__(self, points: Iterable[str], dist: Mapping[tuple[str, str], object]):
        self._points = _check_points(points)
        table = {}
        for x in self._points:
            for y in self._points:
                try:
                    entry = dist[(x, y)]
                except KeyError:
                    raise ValueError(f"missing distance for pair ({x}, {y})") from None
                table[(x, y)] = self._entry(x, y, entry)
        self._dist = table

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    def dist(self, x: str, y: str):
        return self._dist[(x, y)]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._points == other._points
            and self._dist == other._dist
        )

    def to_json(self) -> dict:
        return {
            "points": list(self._points),
            "dist": {f"{x}|{y}": v.to_json() for (x, y), v in sorted(self._dist.items())},
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "points" not in data or "dist" not in data:
            raise FormatError("space JSON needs 'points' and 'dist'")
        points, raw = data["points"], data["dist"]
        if not isinstance(points, list) or not isinstance(raw, dict):
            raise FormatError("bad space JSON")
        if len(points) > MAX_POINTS:
            raise FormatError(f"{len(points)} points exceed the maximum {MAX_POINTS}")
        if len(raw) > len(points) ** 2:  # so MAX_POINTS also bounds the entries read
            pairs = {f"{x}|{y}" for x in points for y in points}
            extra = next(key for key in raw if key not in pairs)
            raise FormatError(f"distance key {_shown(extra)} is not a pair of the points")
        dist, memo = {}, {}  # memo: what each string token of this document reads as
        for key, v in raw.items():
            if not isinstance(key, str) or key.count("|") != 1:
                raise FormatError(f"distance key must be 'x|y', got {_shown(key)}")
            x, y = key.split("|")
            dist[(x, y)] = cls._read(v, memo)
        try:
            return cls(points, dist)
        except (ValueError, TypeError) as exc:
            raise FormatError(str(exc)) from exc


class MetricSpace(_Space):
    """Finite point set with an extended-rational distance table."""

    __slots__ = ()

    @staticmethod
    def _entry(x: str, y: str, entry) -> LValue:
        return entry if type(entry) is LValue else LValue(entry)  # values are immutable

    @staticmethod
    def _read(data, memo: dict) -> LValue:
        return LValue.from_json(data)

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

    def __repr__(self) -> str:
        return f"MetricSpace<{len(self._points)} points>"


class WittSpace(_Space):
    """Finite point set with a Witt-element-valued distance table.  Its
    check, and the texts of its report, live in :mod:`tropwitt.witt`."""

    __slots__ = ("_degree_bound",)

    def __init__(self, points: Iterable[str], dist: Mapping[tuple[str, str], WittElem]):
        super().__init__(points, dist)
        bounds = {entry.degree_bound for entry in self._dist.values()}
        if len(bounds) != 1:
            raise ValueError(f"entries disagree on degree bound: {sorted(bounds)}")
        (self._degree_bound,) = bounds

    @staticmethod
    def _entry(x: str, y: str, entry) -> WittElem:
        if not isinstance(entry, WittElem):
            raise TypeError(f"distance for ({x}, {y}) must be a WittElem")
        return entry

    # one entry of a document, each string token read once per document
    _read = staticmethod(WittElem._load)

    @property
    def degree_bound(self) -> int:
        return self._degree_bound

    def validate(self) -> Report:
        """Entry homomorphism checks, identity axiom, composition axiom."""
        report = Report("witt-space")
        report.violations = _space_violations(self._points, list(self._dist.values()))
        return report

    def failing_entries(self) -> list[tuple[str, str]]:
        """The pairs (x, y) whose entry fails the homomorphism check,
        x-major; every entry is checked in one packed pass."""
        return _failing_pairs(self._points, list(self._dist.values()))

    def __repr__(self) -> str:
        return f"WittSpace<{len(self._points)} points, N={self._degree_bound}>"

    def to_json(self) -> dict:
        return {"degree_bound": self._degree_bound, **super().to_json()}

    @classmethod
    def from_json(cls, data) -> "WittSpace":
        space = super().from_json(data)
        n = space._degree_bound
        bound = data.get("degree_bound", n)  # optional, but it must match the entries
        if type(bound) is not int or bound != n:
            raise FormatError(f"degree_bound {_shown(bound)} does not match the entries' bound {n}")
        return space


# -- slices --------------------------------------------------------------------


def slice_table(space: WittSpace, lam: Partition) -> DistTable:
    """The distance table at one partition: d_λ(x, y) = d(x, y)(m_λ)."""
    dist = space._dist
    return dict(zip(dist, _column(space.degree_bound, dist.values(), lam)))


def slice_complete(space: WittSpace, n: int) -> DistTable:
    """The table at the degree-n complete element: min over all |λ| = n."""
    if not 1 <= n <= space.degree_bound:
        raise DegreeOverflowError(f"n = {n} outside 1..{space.degree_bound}")
    return eval_slice(space, complete(n, space.degree_bound))


def eval_slice(space: WittSpace, f: SymFunc) -> DistTable:
    """Entrywise evaluation at a general symmetric function, its support
    looked up once."""
    dist = space._dist
    return dict(zip(dist, _evals(space.degree_bound, dist.values(), f)))


# -- the induced functors ---------------------------------------------------------


def theta_space(space: MetricSpace, degree_bound: int) -> WittSpace:
    """Entrywise scalar embedding of a metric space."""
    dist = {
        pair: theta(v, degree_bound) for pair, v in space._dist.items()
    }
    return WittSpace(space.points, dist)


def tau_space(space: WittSpace) -> MetricSpace:
    """Entrywise projection to the degree-one value (the initial table)."""
    return MetricSpace(space.points, slice_table(space, Partition([1])))


def lambda_action(space: WittSpace, g: SymFunc, f: SymFunc) -> DistTable:
    """Act on the slice family: the table of d at the composition g ∘ f."""
    return eval_slice(space, plethysm(g, f))
