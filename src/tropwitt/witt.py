"""The Witt rig over the min-plus quantale, truncated at a degree bound.

A ``WittElem`` is a candidate rig homomorphism from the symmetric
functions to [0, ∞], given by its values on the monomial basis m_λ for
1 ≤ |λ| ≤ N (the empty partition is forced to 0).  Storing values on that
basis is lossless: additivity of a rig homomorphism into an idempotent rig
forces evaluation on a general element to be the minimum over its support,
which is exactly :meth:`WittElem.eval`.  The multiplicativity half of the
homomorphism condition is checkable only on pairs whose product fits under
the bound; :meth:`WittElem.validate` reports every violated pair.

Addition and multiplication come from the two coproducts of the symmetric
functions: a splitting of λ into two sub-multisets for addition, a pair of
equal-degree partitions from the doubled-alphabet coproduct for
multiplication.  Both are degree-local, so truncation never loses terms.

The values are stored densely.  :class:`_Basis` fixes, once per degree
bound, the nonempty partitions up to N in ``partitions_up_to`` order and
the supports of both coproducts and of the products m_μ·m_ν as index
tables.  An element keeps a shared denominator D, the lcm of the reduced
denominators of its finite values, and one integer numerator per basis
partition, ``None`` for ∞; the form is canonical, so equality is tuple
equality.  Every rig operation is then a min over integer sums on those
index tables.  ``LValue`` appears only at the API and JSON boundary.

The coproduct table is flat, one group per λ and left factor μᵢ, holding
the right factors νⱼ of that group: (f·g)(λ) is the min over λ's groups of
f(μᵢ) + min_j g(νⱼ), and the inner min depends on g alone.  The
composition check of a space takes these right minima once per entry, so
each of its k³ products is one pass of additions and one min per λ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, gt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DegreeOverflowError, FormatError
from .partitions import Partition, partitions_of, partitions_up_to
from .quantale import INF, ZERO, LValue, _json_number, _make
from .report import Report
from .symfunc import SymFunc, _comult_scaled, _product_scaled, _splittings, plethysm


class _Coproduct(NamedTuple):
    """The support of Δ×(m_λ) for every λ, grouped by the left factor and
    flattened.  A group (p, i, js) stands for the pairs m_μᵢ ⊗ m_νⱼ, j in
    js, of the coproduct of the λ at position p; the groups of the λ at
    position p are those in slices[p]."""

    groups: tuple[tuple[int, int, tuple[int, ...]], ...]
    slices: tuple[slice, ...]


class _Basis:
    """The nonempty partitions up to a degree bound N, in ``partitions_up_to``
    order, and the structure tables of the Witt rig as tables of positions
    in that order.  Each table is built on first use."""

    def __init__(self, bound: int):
        if bound < 1:
            raise ValueError("degree bound must be ≥ 1")
        self.bound = bound
        self.parts: tuple[Partition, ...] = partitions_up_to(bound)[1:]
        self.index = {lam: i for i, lam in enumerate(self.parts)}
        self.keys = tuple(lam.key() for lam in self.parts)
        self.positions = {key: i for i, key in enumerate(self.keys)}
        # position of the row (n) at rows[n - 1]
        self.rows = tuple(self.index[Partition([n])] for n in range(1, bound + 1))

    @cached_property
    def coproduct(self) -> _Coproduct:
        groups: list[tuple[int, int, tuple[int, ...]]] = []
        slices: list = [None] * len(self.parts)
        for n in range(1, self.bound + 1):
            pos = self._positions(n)
            size = len(pos)
            for lam, acc in zip(pos, _comult_scaled(n)):
                start = len(groups)
                for m, i in enumerate(pos):
                    # the nonzero entries of row μ_m of the flattened table
                    js = tuple(compress(pos, acc[m * size:(m + 1) * size]))
                    if js:
                        groups.append((lam, i, js))
                slices[lam] = slice(start, len(groups))
        return _Coproduct(tuple(groups), tuple(slices))

    @cached_property
    def splittings(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per λ, the multiset splittings λ = μ ⊎ ν as (i, j); the empty
        partition sits at position len(parts), one past the last."""
        index = self.index
        empty = len(self.parts)
        return tuple(
            tuple(
                (index.get(mu, empty), index.get(nu, empty)) for mu, nu in _splittings(lam)
            )
            for lam in self.parts
        )

    @cached_property
    def checks(self) -> tuple[tuple[Partition, Partition, int, int, tuple[int, ...]], ...]:
        """The multiplicativity checks in report order: (μ, ν, i, j, support
        of m_μ·m_ν) for every pair with |μ| ≤ |ν| and |μ| + |ν| ≤ N."""
        index = self.index
        out = []
        for a in range(1, self.bound):
            for b in range(a, self.bound - a + 1):
                pos = self._positions(a + b)
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        if b == a and nu < mu:
                            continue
                        support = tuple(compress(pos, _product_scaled(mu, nu)))
                        out.append((mu, nu, index[mu], index[nu], support))
        return tuple(out)

    def _positions(self, n: int) -> list[int]:
        """The position of each partition of n, in ``partitions_of`` order."""
        return [self.index[lam] for lam in partitions_of(n)]


@cache
def _basis(bound: int) -> _Basis:
    return _Basis(bound)


def _text(n: int | None, den: int) -> str:
    """The JSON text of the value n/den: str of the reduced fraction."""
    if n is None:
        return str(INF)
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _value(n: int | None, den: int) -> LValue:
    return INF if n is None else _make(Fraction(n, den))


def _lift(elems: Sequence["WittElem"]) -> tuple[int, int, list[list[int]]]:
    """The numerator lists of elems over one denominator, with ∞ written as
    one int above every sum of two finite values, so that a sum reads as ∞
    exactly when it reaches that int: (denominator, ∞ mark, lists)."""
    den = lcm(*[f._den for f in elems])
    scaled = [(den // f._den, f._nums) for f in elems]
    top = 0
    for k, nums in scaled:
        finite = [n for n in nums if n is not None]
        if finite:
            top = max(top, max(finite) * k)
    inf = 2 * top + 1
    return den, inf, [[inf if n is None else n * k for n in nums] for k, nums in scaled]


def _composition_excesses(
    points: Sequence, dist: Mapping[tuple, "WittElem"]
) -> Iterator[tuple]:
    """For each triple (x, y, z) of points, in order, where d(x, z) is
    numerically above the product d(x, y)·d(y, z): x, y, z, the first
    partition in ``partitions_up_to`` order where it is, and both values
    there.

    dist maps every pair of points to an element of one degree bound.  The
    entries are lifted to one denominator and one ∞ mark, and the right
    minima of each entry are taken once, so a triple costs one min-plus
    pass and one comparison."""
    pairs = [(x, y) for x in points for y in points]
    den, _, lifted = _lift([dist[pair] for pair in pairs])
    basis = _basis(dist[pairs[0]]._degree_bound)
    groups, slices = basis.coproduct
    lefts = [i for _, i, _ in groups]
    rights = [js for _, _, js in groups]
    entries = dict(zip(pairs, lifted))
    left = {pair: list(map(xs.__getitem__, lefts)) for pair, xs in entries.items()}
    # per group, the min of the right factor over the group's right positions
    right = {
        pair: list(map(min, map(map, repeat(ys.__getitem__), rights)))
        for pair, ys in entries.items()
    }
    for x in points:
        for y in points:
            xy = left[x, y]
            for z in points:
                sums = list(map(add, xy, right[y, z]))
                through = list(map(min, map(sums.__getitem__, slices)))
                # with one ∞ mark, d > t exactly when t is finite and d is
                # ∞ or numerically above t
                k = next(compress(count(), map(gt, entries[x, z], through)), None)
                if k is not None:
                    lam = basis.parts[k]
                    yield x, y, z, lam, dist[x, z].value(lam), _value(through[k], den)


def _stored(fracs: list[Fraction | None]) -> tuple[int, tuple[int | None, ...]]:
    """The canonical stored form of one value per basis partition, None for
    ∞: the lcm of the reduced denominators, and the numerators over it."""
    den = lcm(*(q.denominator for q in fracs if q is not None))
    return den, tuple(None if q is None else q.numerator * (den // q.denominator) for q in fracs)


def _reduced(bound: int, den: int, nums: list[int | None]) -> "WittElem":
    """The canonical element with values nums/den."""
    g = gcd(den, *(n for n in nums if n is not None))
    if g > 1:
        den //= g
        nums = [None if n is None else n // g for n in nums]
    return WittElem._dense(bound, den, tuple(nums))


class WittElem:
    """A candidate rig homomorphism from symmetric functions to [0, ∞]."""

    __slots__ = ("_degree_bound", "_den", "_nums")

    def __init__(self, degree_bound: int, values: Mapping[Partition, LValue]):
        basis = _basis(degree_bound)
        fracs: list[Fraction | None] = [None] * len(basis.parts)
        for lam, v in values.items():
            if lam.is_empty():
                if v != ZERO:
                    raise ValueError("the empty partition is forced to value 0")
                continue
            if lam.size > degree_bound:
                raise DegreeOverflowError(
                    f"partition {lam} exceeds degree bound {degree_bound}"
                )
            v = LValue(v)
            fracs[basis.index[lam]] = None if v.is_infinite else v.as_fraction()
        self._degree_bound = degree_bound
        self._den, self._nums = _stored(fracs)

    @classmethod
    def _dense(cls, degree_bound: int, den: int, nums: tuple) -> "WittElem":
        """Wrap an already canonical stored form without rechecking it."""
        out = object.__new__(cls)
        out._degree_bound = degree_bound
        out._den = den
        out._nums = nums
        return out

    @property
    def degree_bound(self) -> int:
        return self._degree_bound

    def value(self, lam: Partition) -> LValue:
        """The value on m_λ; 0 on the empty partition."""
        return _column(self._degree_bound, (self,), lam)[0]

    def eval(self, f: SymFunc) -> LValue:
        """Evaluate on a general element: min over the support of f."""
        if f.degree() > self._degree_bound:
            raise DegreeOverflowError(
                f"element of degree {f.degree()} exceeds bound {self._degree_bound}"
            )
        index = _basis(self._degree_bound).index
        nums = [0 if lam.is_empty() else self._nums[index[lam]] for lam in f.support()]
        return _value(min((n for n in nums if n is not None), default=None), self._den)

    # -- rig structure -----------------------------------------------------

    def add(self, other: "WittElem") -> "WittElem":
        """Addition: minimum over multiset splittings of each partition."""
        self._check_bound(other)
        den, inf, (xs, ys) = _lift((self, other))
        xs.append(0)  # the empty partition, pinned to 0
        ys.append(0)
        sums = [
            min([xs[i] + ys[j] for i, j in pairs])
            for pairs in _basis(self._degree_bound).splittings
        ]
        return _reduced(self._degree_bound, den, [None if n >= inf else n for n in sums])

    def mul(self, other: "WittElem") -> "WittElem":
        """Multiplication: minimum over doubled-alphabet coproduct pairs."""
        self._check_bound(other)
        den, inf, (xs, ys) = _lift((self, other))
        groups, slices = _basis(self._degree_bound).coproduct
        y = ys.__getitem__
        out = [inf] * len(slices)
        for lam, i, js in groups:
            x = xs[i]
            if x < inf:  # a group whose left value is ∞ adds only ∞
                v = x + min(map(y, js))
                if v < out[lam]:
                    out[lam] = v
        return _reduced(self._degree_bound, den, [None if n >= inf else n for n in out])

    def leq(self, other: "WittElem") -> bool:
        """Pointwise rig order (∞ everywhere is the bottom element)."""
        self._check_bound(other)
        _, _, (xs, ys) = _lift((self, other))
        return all(y <= x for x, y in zip(xs, ys))

    def _check_bound(self, other: "WittElem") -> None:
        if self._degree_bound != other._degree_bound:
            raise ValueError(
                f"degree bounds differ: {self._degree_bound} vs {other._degree_bound}"
            )

    # -- validation ----------------------------------------------------------

    def validate(self) -> Report:
        """Check multiplicativity on every pair fitting under the bound.

        A violation at (μ, ν) means the minimum of the values over the
        support of m_μ·m_ν differs from value(μ) + value(ν).
        """
        report = Report("witt-elem")
        den = self._den
        inf = 2 * max((n for n in self._nums if n is not None), default=0) + 1
        vs = [inf if n is None else n for n in self._nums]
        v = vs.__getitem__
        for mu, nu, i, j, support in _basis(self._degree_bound).checks:
            expected = vs[i] + vs[j]
            got = min(map(v, support))
            if got != expected and (got < inf or expected < inf):
                got, expected = (_text(n if n < inf else None, den) for n in (got, expected))
                report.add(
                    "multiplicativity",
                    (mu, nu),
                    f"min over m{mu}·m{nu} support is {got}, "
                    f"but value{mu} + value{nu} = {expected}",
                )
        return report

    def is_lipschitz(self) -> bool:
        """True when every row value is at most the matching multiple of the
        first: value((n)) ≤ n·value((1)) numerically, for all n ≤ bound.

        Members form the sub-poset on which the scalar embedding θ is left
        adjoint to the initial-value map τ.
        """
        rows = [self._nums[i] for i in _basis(self._degree_bound).rows]
        base = rows[0]
        return base is None or all(
            v is not None and v <= n * base for n, v in enumerate(rows, 1)
        )

    # -- comparison / repr --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittElem)
            and self._degree_bound == other._degree_bound
            and self._den == other._den
            and self._nums == other._nums
        )

    def __repr__(self) -> str:
        basis = _basis(self._degree_bound)
        shown = ", ".join(
            f"{lam}:{_text(n, self._den)}" for lam, n in zip(basis.parts[:6], self._nums)
        )
        more = "" if len(self._nums) <= 6 else ", …"
        return f"WittElem<N={self._degree_bound}, {shown}{more}>"

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        den = self._den
        return {
            "degree_bound": self._degree_bound,
            "values": {
                key: _text(n, den)
                for key, n in zip(_basis(self._degree_bound).keys, self._nums)
            },
        }

    @classmethod
    def from_json(cls, data) -> "WittElem":
        if not isinstance(data, dict) or "degree_bound" not in data or "values" not in data:
            raise FormatError("WittElem JSON needs 'degree_bound' and 'values'")
        bound = data["degree_bound"]
        raw = data["values"]
        bad_bound = not isinstance(bound, int) or isinstance(bound, bool) or bound < 1
        if bad_bound or not isinstance(raw, dict):
            raise FormatError("bad WittElem JSON")
        basis = _basis(bound)
        fracs: list[Fraction | None] = [None] * len(basis.parts)
        oversized = None
        for key, v in raw.items():
            i = basis.positions.get(key)
            if i is None:  # a key that is not canonical, or not under the bound
                lam = Partition.from_key(key)
                if lam.is_empty():
                    raise FormatError("the empty partition must be omitted")
                i = basis.index.get(lam)
                if i is None:
                    # value errors come first: the first oversized
                    # partition is reported once every value has parsed
                    if oversized is None:
                        oversized = lam
                    _json_number(v)
                    continue
            fracs[i] = _json_number(v)
        if oversized is not None:
            raise FormatError(f"partition {oversized} exceeds degree bound {bound}")
        return cls._dense(bound, *_stored(fracs))


def _column(bound: int, elems: Iterable[WittElem], lam: Partition) -> list[LValue]:
    """The values on m_λ of elems of degree bound ``bound``, λ's position
    looked up once; 0 on the empty partition."""
    if lam.is_empty():
        return [ZERO for _ in elems]
    i = _basis(bound).index.get(lam)
    if i is None:
        raise DegreeOverflowError(f"partition {lam} exceeds degree bound {bound}")
    return [_value(f._nums[i], f._den) for f in elems]


# -- distinguished elements and functors -----------------------------------------


def additive_unit(degree_bound: int) -> WittElem:
    """The zero of the rig: ∞ on every nonempty partition."""
    return WittElem(degree_bound, {})


def multiplicative_unit(degree_bound: int) -> WittElem:
    """The unit of the rig: 0 on every single-row partition, ∞ elsewhere."""
    return theta(ZERO, degree_bound)


def theta(r: LValue, degree_bound: int) -> WittElem:
    """Embed a scalar: n·r on the row (n), ∞ on every other partition.

    Monoidal (θ(r)·θ(r′) = θ(r + r′)) and monotone, but does not preserve
    addition; θ(0) is the multiplicative unit.
    """
    r = LValue(r)
    values = {
        Partition([n]): n * r for n in range(1, degree_bound + 1)
    }
    return WittElem(degree_bound, values)


def tau(f: WittElem) -> LValue:
    """Project to the value at the degree-one monomial."""
    return f.value(Partition([1]))


def from_points(points: Iterable[LValue], degree_bound: int) -> WittElem:
    """Tropical evaluation of the monomial basis at a finite multiset.

    value(λ) is the minimum over injective assignments of the parts of λ
    to the points of Σ partᵢ·point; ∞ once λ has more parts than there are
    points.  The result is always a valid homomorphism: supports of
    products add without cancellation, so evaluation commutes with min.
    """
    pts = sorted(LValue(p) for p in points)
    basis = _basis(degree_bound)
    fracs = [p.as_fraction() for p in pts if p.is_finite]
    den = lcm(*(q.denominator for q in fracs))
    # ∞ sorts last, so a λ reaching past the finite points is ∞
    ints = [q.numerator * (den // q.denominator) for q in fracs]
    nums = [
        # largest exponents on the smallest points minimizes the sum
        sum(part * pt for part, pt in zip(lam.parts, ints)) if lam.length <= len(ints) else None
        for lam in basis.parts
    ]
    return _reduced(degree_bound, den, nums)


def coaction(f: WittElem, inner: SymFunc, outer: SymFunc) -> LValue:
    """Evaluate f at outer ∘ inner, the degree-limited composition action.

    With inner fixed, outer ↦ coaction(f, inner, outer) behaves like a
    homomorphism on every pair that stays under the degree bound; taking
    inner = m_(1) recovers plain evaluation.
    """
    return f.eval(plethysm(outer, inner))
