"""The Witt rig over the min-plus quantale, truncated at a degree bound.

A ``WittElem`` stores one extended-rational value per partition of size
1..N (the empty partition is forced to 0).  Storing values on the monomial
basis is lossless: additivity of a rig homomorphism into an idempotent rig
forces evaluation on a general element to be the minimum over its support,
which is exactly :meth:`WittElem.eval`.  The multiplicativity half of the
homomorphism condition is checkable only on pairs whose product fits under
the bound; :meth:`WittElem.validate` reports every violated pair.

Addition and multiplication come from the two coproducts of the symmetric
functions: a splitting of λ into two sub-multisets for addition, a pair of
equal-degree partitions from the doubled-alphabet coproduct for
multiplication.  Both are degree-local, so truncation never loses terms.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import DegreeOverflowError, FormatError
from .partitions import Partition, partitions_of, partitions_up_to
from .quantale import INF, ZERO, LValue, leq as leq_q
from .report import Report
from .symfunc import SymFunc, _basis_product, _comult_table, _splittings, plethysm


class WittElem:
    """A candidate rig homomorphism from symmetric functions to [0, ∞]."""

    __slots__ = ("_degree_bound", "_values")

    def __init__(self, degree_bound: int, values: Mapping[Partition, LValue]):
        if degree_bound < 1:
            raise ValueError("degree bound must be ≥ 1")
        table: dict[Partition, LValue] = {}
        for lam, v in values.items():
            if lam.is_empty():
                if v != ZERO:
                    raise ValueError("the empty partition is forced to value 0")
                continue
            if lam.size > degree_bound:
                raise DegreeOverflowError(
                    f"partition {lam} exceeds degree bound {degree_bound}"
                )
            table[lam] = LValue(v)
        for lam in partitions_up_to(degree_bound):
            if not lam.is_empty():
                table.setdefault(lam, INF)
        self._degree_bound = degree_bound
        self._values = table

    @property
    def degree_bound(self) -> int:
        return self._degree_bound

    def value(self, lam: Partition) -> LValue:
        """The value on m_λ; 0 on the empty partition."""
        if lam.is_empty():
            return ZERO
        try:
            return self._values[lam]
        except KeyError:
            raise DegreeOverflowError(
                f"partition {lam} exceeds degree bound {self._degree_bound}"
            ) from None

    def eval(self, f: SymFunc) -> LValue:
        """Evaluate on a general element: min over the support of f."""
        if f.degree() > self._degree_bound:
            raise DegreeOverflowError(
                f"element of degree {f.degree()} exceeds bound {self._degree_bound}"
            )
        best = INF
        for lam, _ in f.items():
            v = self.value(lam)
            if v < best:
                best = v
        return best

    # -- rig structure -----------------------------------------------------

    def add(self, other: "WittElem") -> "WittElem":
        """Addition: minimum over multiset splittings of each partition."""
        self._check_bound(other)
        mine, theirs = self._values, other._values
        out = {}
        for lam in mine:
            best = INF
            for mu, nu in _splittings(lam):
                # a missing key is the empty partition, pinned to 0
                v = mine.get(mu, ZERO) + theirs.get(nu, ZERO)
                if v < best:
                    best = v
            out[lam] = best
        return WittElem(self._degree_bound, out)

    def mul(self, other: "WittElem") -> "WittElem":
        """Multiplication: minimum over doubled-alphabet coproduct pairs."""
        self._check_bound(other)
        mine, theirs = self._values, other._values
        out = {}
        for n in range(1, self._degree_bound + 1):
            for lam, pairs in _comult_table(n).items():
                best = INF
                for (mu, nu), _ in pairs:
                    v = mine[mu] + theirs[nu]
                    if v < best:
                        best = v
                out[lam] = best
        return WittElem(self._degree_bound, out)

    def leq(self, other: "WittElem") -> bool:
        """Pointwise rig order (∞ everywhere is the bottom element)."""
        self._check_bound(other)
        return all(
            leq_q(self._values[lam], other._values[lam]) for lam in self._values
        )

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
        bound = self._degree_bound
        for a in range(1, bound):
            for b in range(a, bound - a + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        if b == a and nu < mu:
                            continue
                        expected = self.value(mu) + self.value(nu)
                        got = INF
                        for lam, _ in _basis_product(mu, nu):
                            v = self.value(lam)
                            if v < got:
                                got = v
                        if got != expected:
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
        base = self.value(Partition([1]))
        return all(
            self.value(Partition([n])) <= n * base
            for n in range(1, self._degree_bound + 1)
        )

    # -- comparison / repr --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittElem)
            and self._degree_bound == other._degree_bound
            and self._values == other._values
        )

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{lam}:{v}" for lam, v in sorted(self._values.items())[:6]
        )
        more = "" if len(self._values) <= 6 else ", …"
        return f"WittElem<N={self._degree_bound}, {shown}{more}>"

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree_bound": self._degree_bound,
            "values": {
                lam.key(): v.to_json() for lam, v in sorted(self._values.items())
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
        values = {}
        for key, v in raw.items():
            lam = Partition.from_key(key)
            if lam.is_empty():
                raise FormatError("the empty partition must be omitted")
            values[lam] = LValue.from_json(v)
        try:
            return cls(bound, values)
        except (ValueError, DegreeOverflowError) as exc:
            raise FormatError(str(exc)) from exc


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
    pts = sorted((LValue(p) for p in points))
    values: dict[Partition, LValue] = {}
    for lam in partitions_up_to(degree_bound):
        if lam.is_empty():
            continue
        if lam.length > len(pts):
            values[lam] = INF
        else:
            # largest exponents on the smallest points minimizes the sum
            total = ZERO
            for part, pt in zip(lam.parts, pts):
                total = total + part * pt
            values[lam] = total
    return WittElem(degree_bound, values)


def coaction(f: WittElem, inner: SymFunc, outer: SymFunc) -> LValue:
    """Evaluate f at outer ∘ inner, the degree-limited composition action.

    With inner fixed, outer ↦ coaction(f, inner, outer) behaves like a
    homomorphism on every pair that stays under the degree bound; taking
    inner = m_(1) recovers plain evaluation.
    """
    return f.eval(plethysm(outer, inner))
