"""Symmetric functions with natural-number coefficients, monomial basis.

Everything is truncated at a per-value degree bound: a ``SymFunc`` only
stores terms m_λ with |λ| ≤ degree_bound, and products drop the terms that
would land beyond it (or raise in strict mode).  The bound is sound for the
rest of the package because both coproducts respect the grading: the
additive one splits degree across the two factors and the multiplicative
one preserves it on each side.  ``SymFunc`` and the tensors
``TensorSymFunc`` are one structure, written once in :class:`_Combination`;
tensors are only written, and the loader of ``SymFunc`` refuses a degree
bound above ``MAX_DEGREE`` before any key.  An element may have a larger
bound, but no table is built, and no partition indexed, for a size above
``MAX_DEGREE`` (:func:`_prefix`).

The product, the multiplicative coproduct and composition (plethysm) are
read off the power sums, the ghost coordinates (Macdonald, *Symmetric
Functions and Hall Polynomials*, ch. I): p_ρ·p_σ = p_{ρ∪σ},
Δ×(p_ρ) = p_ρ ⊗ p_ρ and p_k ∘ m_μ = m_{kμ}, through one cached p↔m
transition per degree in exact integer arithmetic (:func:`_transition`),
whose row p_ρ is p_ρ′·p_k, ρ′ being ρ without its last part k, read off
the cached transition of degree n − k.
One basis serves every degree bound: it indexes the partitions one size
at a time, on first use, and the positions up to a bound are a prefix
shared by all larger bounds, with m_∅ at position −1.  The structure
tables are kept by position, per size, per λ or per unordered pair: the
product rows, the multiplicative-coproduct groups with their counts and
the multiset splittings.  This module's arithmetic and the Witt rig of
:mod:`tropwitt.witt` both read them.  The tests check them against the
brute-force polynomial route, which lives with the other oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import compress, count, islice, product as iter_product, repeat
from math import factorial, gcd
from operator import attrgetter, floordiv
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConstantTermError, DegreeOverflowError, FormatError, _shown
from .partitions import EMPTY, MAX_DEGREE, Partition, _check_degree, partitions_of


class _Combination:
    """A finitely supported ℕ-combination of basis keys, truncated at a
    degree bound.  A subclass names, for one key, its degree (``_degree``),
    its printed term (``_term``), its JSON key (``_to_key``) and its place
    in the sort order (``_order``)."""

    __slots__ = ("_coeffs", "_degree_bound")

    def __init__(self, coeffs: Mapping, degree_bound: int):
        _check_natural("degree bound", degree_bound)
        degree = self._degree
        clean = {}
        for key, c in coeffs.items():
            if type(c) is not int or c < 0:  # the error text is built only when needed
                _check_natural(f"coefficient of {self._term(key)}", c)
            if c == 0:
                continue
            if degree(key) > degree_bound:
                raise DegreeOverflowError(
                    f"term {self._term(key)} exceeds degree bound {degree_bound}"
                )
            clean[key] = c
        self._coeffs = clean
        self._degree_bound = degree_bound

    @property
    def degree_bound(self) -> int:
        return self._degree_bound

    def items(self) -> Iterator[tuple]:
        return ((key, self._coeffs[key]) for key in sorted(self._coeffs, key=self._order))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._degree_bound == other._degree_bound
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self._coeffs:
            return f"{name}<0>"
        terms = (("" if c == 1 else f"{c}*") + self._term(key) for key, c in self.items())
        return f"{name}<{' + '.join(terms)}>"

    def to_json(self) -> dict:
        to_key = self._to_key
        return {
            "degree_bound": self._degree_bound,
            "coeffs": {to_key(key): c for key, c in self.items()},
        }


class SymFunc(_Combination):
    """A finitely supported ℕ-combination of monomial basis elements m_λ."""

    __slots__ = ()

    _degree = staticmethod(attrgetter("size"))
    _to_key = staticmethod(Partition.key)
    _order = staticmethod(Partition.sort_key)

    @staticmethod
    def _term(lam: Partition) -> str:
        return f"m{lam}"

    def degree(self) -> int:
        """Largest |λ| in the support; 0 for the zero element."""
        return max((lam.size for lam in self._coeffs), default=0)

    @property
    def constant_term(self) -> int:
        return self._coeffs.get(EMPTY, 0)

    @classmethod
    def zero(cls, degree_bound: int) -> "SymFunc":
        return cls({}, degree_bound)

    @classmethod
    def one(cls, degree_bound: int) -> "SymFunc":
        return cls({EMPTY: 1}, degree_bound)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        _check_bounds(self, other)
        out = dict(self._coeffs)
        for lam, c in other._coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymFunc(out, self._degree_bound)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return NotImplemented

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "degree_bound" not in data or "coeffs" not in data:
            raise FormatError(f"{cls.__name__} JSON needs 'degree_bound' and 'coeffs'")
        bound = data["degree_bound"]
        if not _is_natural(bound):
            raise FormatError(f"bad degree_bound {_shown(bound)}")
        _check_degree(bound)
        raw = data["coeffs"]
        if not isinstance(raw, dict):
            raise FormatError("'coeffs' must be an object")
        coeffs = {}
        for key, c in raw.items():
            if not _is_natural(c):
                raise FormatError(f"bad coefficient {_shown(c)} for key {_shown(key)}")
            lam = Partition.from_key(key)
            if lam in coeffs:
                raise FormatError(f"term m{lam} is named twice")
            coeffs[lam] = c
        try:
            return cls(coeffs, bound)
        except DegreeOverflowError as exc:
            raise FormatError(str(exc)) from exc


class TensorSymFunc(_Combination):
    """An ℕ-combination of basis tensors m_μ ⊗ m_ν, bounded per factor."""

    __slots__ = ()

    @staticmethod
    def _degree(pair: tuple[Partition, Partition]) -> int:
        return max(pair[0].size, pair[1].size)

    @staticmethod
    def _term(pair: tuple[Partition, Partition]) -> str:
        return f"m{pair[0]}⊗m{pair[1]}"

    @staticmethod
    def _to_key(pair: tuple[Partition, Partition]) -> str:
        return f"{pair[0].key()}|{pair[1].key()}"

    @staticmethod
    def _order(pair: tuple[Partition, Partition]) -> tuple:
        return (pair[0].sort_key(), pair[1].sort_key())


# -- basis elements ---------------------------------------------------------


def monomial(lam: Partition, degree_bound: int) -> SymFunc:
    """The basis element m_λ; m_∅ is the multiplicative unit."""
    return SymFunc({lam: 1}, degree_bound)


def elementary(n: int, degree_bound: int) -> SymFunc:
    """e_n = m_(1,…,1) with n ones; e_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return monomial(Partition([1] * n), degree_bound)


def complete(n: int, degree_bound: int) -> SymFunc:
    """h_n = Σ over all λ of size n of m_λ; h_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > degree_bound:
        raise DegreeOverflowError(f"h_{n} exceeds degree bound {degree_bound}")
    return SymFunc({lam: 1 for lam in partitions_of(n)}, degree_bound)


# -- power sums ------------------------------------------------------------


def _exact_counts(scaled: Iterable[int], scale: int, what: str) -> Iterator[int]:
    """The nonzero scaled counts, in order, divided exactly by ``scale``.
    A remainder or a negative count means a wrong table."""
    values = list(filter(None, scaled))
    if values and gcd(*values) % scale:
        raise ArithmeticError(f"a coefficient of {what} is not divisible by {scale}")
    if values and min(values) < 0:
        raise ArithmeticError(f"negative coefficient {min(values) // scale} in {what}")
    return map(floordiv, values, repeat(scale))


class _Transition(NamedTuple):
    """The power-sum transition on the partitions of one size n, in
    ``partitions_of`` order: the sparse rows of L (p_ρ = Σ_μ L[ρ][μ] m_μ)
    and of n!·A, A = L⁻¹, both lower triangular and integral, as
    (column, entry) pairs.  Row ρ of L is p_ρ′·p_k, ρ′ being ρ without its
    last part k, read off row ρ′ of size n − k: m_μ·p_k adds k to one
    distinct part value v of μ, or appends it (v = 0), times the
    multiplicity of v + k in the result.  L[ρ][μ] = 0 unless μ dominates
    ρ, so each row of L ends at its diagonal entry, read as ``row[-1]``."""

    parts: tuple[Partition, ...]
    rows: list[list[tuple[int, int]]]
    inverse: list[list[tuple[int, int]]]
    scale: int  # n!


@cache
def _transition(n: int) -> _Transition:
    top = _row(n)  # index the size, or refuse one above MAX_DEGREE; λ's rank is top − _index[λ]
    parts = partitions_of(n)
    if n == 0:
        return _Transition(parts, [[(0, 1)]], [[(0, 1)]], 1)  # p_∅ = m_∅
    rows = []
    for r, rho in enumerate(parts):
        k = rho[-1]
        smaller, terms = _transition(n - k), Counter()
        for m, c in smaller.rows[_row(n - k) - _index[rho[:-1]]]:
            mu = smaller.parts[m]
            for v in {0, *mu}:
                i = mu.index(v) if v else len(mu)
                lam = tuple(sorted((*mu[:i], v + k, *mu[i + 1:]), reverse=True))
                terms[top - _index[lam]] += c * lam.count(v + k)
        row = sorted(terms.items())
        if row[-1][0] != r:
            raise ArithmeticError(f"row {r} of L at n = {n} does not end at its diagonal")
        rows.append(row)
    scale = factorial(n)
    # L·A = I gives row ρ of n!·A from the rows of A above it
    inverse: list[list[tuple[int, int]]] = []
    for r, row in enumerate(rows):
        acc = [0] * len(parts)
        acc[r] = scale
        for m, c in row[:-1]:
            for k, a in inverse[m]:
                acc[k] -= c * a
        diagonal = row[-1][1]
        if gcd(*acc) % diagonal:
            raise ArithmeticError(f"row {r} of n!·L⁻¹ at n = {n} is not integral")
        inverse.append([(k, v // diagonal) for k, v in enumerate(acc) if v])
    return _Transition(parts, rows, inverse, scale)


def _comult_scaled(n: int) -> Iterator[list[int]]:
    """n! times the multiplicative coproduct Δ×(m_λ) of each λ of size n, in
    ``partitions_of`` order, each flattened so that the coefficient of
    m_μ ⊗ m_ν sits at size·μ + ν (positions in ``partitions_of(n)``).

    Δ×(p_ρ) = p_ρ ⊗ p_ρ, so with A = L⁻¹ from :func:`_transition` that
    coefficient is Σ_ρ A[λ][ρ]·L[ρ][μ]·L[ρ][ν].
    """
    t = _transition(n)
    size = len(t.parts)
    # row ρ of L ⊗ L, flattened to (size·μ + ν, L[ρ][μ]·L[ρ][ν])
    squares = [[(size * i + j, a * b) for i, a in row for j, b in row] for row in t.rows]
    for inverse in t.inverse:
        acc = [0] * (size * size)
        for r, a in inverse:
            for k, w in squares[r]:
                acc[k] += a * w
        yield acc


# -- the monomial basis, shared by every degree bound ----------------------------
#
# The nonempty partitions sit at positions 0, 1, … in ``partitions_up_to``
# order, which lists each size in the reverse of ``partitions_of`` order,
# so those up to a degree bound N are a prefix, of length ``_prefix(N)``.

_labels: list[Partition] = [EMPTY]  # the partition at each position, m_∅ last
_keys: list[str] = []  # the JSON key of each nonempty position
_index: dict[Partition, int] = {EMPTY: -1}
_by_key: dict[str, int] = {}
_ends: list[int] = [0]  # at n, the number of nonempty partitions of size ≤ n


def _prefix(n: int) -> int:
    """The number of nonempty partitions of size ≤ n, the positions of the
    degree bound n, each size indexed on first use.  Every table of one
    size comes here first, so a size above MAX_DEGREE is refused before
    anything is indexed or built."""
    if len(_ends) <= n:  # true of every size above MAX_DEGREE
        if n > MAX_DEGREE:
            raise DegreeOverflowError(f"degree {_shown(n)} exceeds the maximum {MAX_DEGREE}")
        while len(_ends) <= n:
            parts = partitions_of(len(_ends))[::-1]
            keys = [lam.key() for lam in parts]
            _index.update(zip(parts, count(len(_keys))))
            _by_key.update(zip(keys, count(len(_keys))))
            _labels[-1:-1] = parts
            _keys.extend(keys)
            _ends.append(len(_keys))
    return _ends[n]


def _row(n: int) -> int:
    """The position of the row (n), the last of size n; m_∅'s at n = 0."""
    return _prefix(n) - 1


def _positions(n: int) -> range:
    """The position of each partition of n, in ``partitions_of`` order,
    which lists the row (n) first."""
    return range(_row(n), _row(n) - len(partitions_of(n)), -1)


def _rank(lam: Partition) -> int:
    """λ's place in ``partitions_of(|λ|)``."""
    return _prefix(lam.size) - 1 - _index[lam]


@cache
def _comult(n: int) -> tuple[tuple[tuple, ...], ...]:
    """Δ×(m_λ) of each λ of size n, in ``partitions_of`` order, as its
    groups (i, js, cs): the sum of c·m_μᵢ ⊗ m_νⱼ over the groups and (j, c)
    in zip(js, cs), ordered by μ and then ν in ``partitions_of`` order;
    :func:`_comult_scaled` divided exactly by n!.  c also counts the
    matrices whose nonzero entries form the multiset λ, with row sums μ and
    column sums ν, the reference route of the tests."""
    pos = _positions(n)
    size, scale = len(pos), factorial(n)
    table = []
    for lam, acc in zip(partitions_of(n), _comult_scaled(n)):
        counts, groups = _exact_counts(acc, scale, f"Δ×(m{lam})"), []
        for m, i in enumerate(pos):
            if js := tuple(compress(pos, acc[m * size:(m + 1) * size])):
                groups.append((i, js, tuple(islice(counts, len(js)))))
        table.append(tuple(groups))
    return tuple(table)


_products: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}


def _product(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """m_μ · m_ν for μ and ν at positions i and j, as (position, count)
    rows with count > 0 in ``partitions_of`` order: :func:`_product_scaled`
    divided exactly, kept per unordered pair."""
    key = (i, j) if i < j else (j, i)  # the product commutes
    if key not in _products:
        mu, nu = _labels[i], _labels[j]
        positions = _positions(mu.size + nu.size)
        scaled = _product_scaled(mu, nu)
        counts = _exact_counts(scaled, factorial(mu.size) * factorial(nu.size), f"m{mu}·m{nu}")
        _products[key] = tuple(zip(compress(positions, scaled), counts))
    return _products[key]


def _product_scaled(mu: Partition, nu: Partition) -> list[int]:
    """|μ|!·|ν|! times the coefficients of m_μ · m_ν, one per partition of
    |μ| + |ν| in ``partitions_of`` order.

    p_ρ·p_σ = p_{ρ∪σ}, so with A = L⁻¹ the coefficient at λ is
    Σ_{ρ,σ} A[μ][ρ]·A[ν][σ]·L[ρ∪σ][λ].
    """
    left, right = _transition(mu.size), _transition(nu.size)
    total = _transition(mu.size + nu.size)
    top = _row(mu.size + nu.size)  # the rank of λ of this size is top − _index[λ]
    acc = [0] * len(total.parts)
    for r, a in left.inverse[_rank(mu)]:
        for s, b in right.inverse[_rank(nu)]:
            union = tuple(sorted(left.parts[r] + right.parts[s], reverse=True))
            for k, c in total.rows[top - _index[union]]:
                acc[k] += a * b * c
    return acc


@cache
def _splittings(i: int) -> tuple[tuple[int, int], ...]:
    """The multiset splittings λ = μ ⊎ ν of λ at position i, as position
    pairs, each once."""
    counts = Counter(_labels[i])  # values in decreasing order
    # μ takes t of the copies of each value; the choices run in
    # lexicographic order, so the k-th from the end is the k-th's complement
    takes = iter_product(*(range(k + 1) for k in counts.values()))
    lefts = [tuple(v for v, t in zip(counts, take) for _ in range(t)) for take in takes]
    at = [_index[left] for left in lefts]
    return tuple(zip(at, reversed(at)))


# -- product ------------------------------------------------------------------


def multiply(f: SymFunc, g: SymFunc, strict: bool = False) -> SymFunc:
    """Product in the monomial basis, truncated at the degree bound.

    Terms of degree above the bound are dropped silently; with
    ``strict=True`` such a term raises instead.
    """
    _check_bounds(f, g)
    bound = f.degree_bound
    if len(_ends) <= bound:  # some sizes up to the bound are not indexed yet
        _prefix(max(f.degree(), g.degree()))
    out: dict[Partition, int] = {}
    for mu, a in f._coeffs.items():
        for nu, b in g._coeffs.items():
            if mu.size + nu.size > bound:
                if strict:
                    raise DegreeOverflowError(
                        f"product term m{mu}·m{nu} exceeds degree bound {bound}"
                    )
                continue
            for p, c in _product(_index[mu], _index[nu]):
                out[_labels[p]] = out.get(_labels[p], 0) + a * b * c
    return SymFunc(out, bound)


# -- coproducts ----------------------------------------------------------------


def coproduct_add(f: SymFunc) -> TensorSymFunc:
    """Additive coproduct: on m_λ the sum of m_μ ⊗ m_ν over multiset
    splittings λ = μ ⊎ ν, extended linearly."""
    if len(_ends) <= f.degree_bound:  # some sizes up to the bound are not indexed yet
        _prefix(f.degree())
    out: dict[tuple[Partition, Partition], int] = {}
    for lam, c in f._coeffs.items():
        for i, j in _splittings(_index[lam]):
            pair = (_labels[i], _labels[j])
            out[pair] = out.get(pair, 0) + c
    return TensorSymFunc(out, f.degree_bound)


def coproduct_mult(f: SymFunc) -> TensorSymFunc:
    """Multiplicative coproduct, extended linearly from the basis."""
    out: dict[tuple[Partition, Partition], int] = {}
    for lam, c in f._coeffs.items():
        for i, js, ks in _comult(lam.size)[_rank(lam)]:
            for j, k in zip(js, ks):
                pair = (_labels[i], _labels[j])
                out[pair] = out.get(pair, 0) + c * k
    return TensorSymFunc(out, f.degree_bound)


# -- counits ---------------------------------------------------------------------


def counit_add(f: SymFunc) -> int:
    """Evaluation at the all-zero point: the coefficient of m_∅."""
    return f.constant_term


def counit_mult(f: SymFunc) -> int:
    """Evaluation at (1,0,0,…): coefficient of m_∅ plus those of all m_(n)."""
    total = f.constant_term
    for lam, c in f._coeffs.items():
        if lam.is_row():
            total += c
    return total


# -- composition ------------------------------------------------------------------------


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """Composition f ∘ g, through the power sums.

    p_k ∘ g sends each m_μ of g to m_{kμ}, and p_ρ ∘ g is the product of
    the p_{ρ_i} ∘ g (Loehr–Remmel, *A computational and combinatorial
    exposé of plethystic calculus*, 2011).  So f ∘ g = Σ_λ f_λ Σ_ρ
    A[λ][ρ]·(p_ρ ∘ g) with A = L⁻¹, summed on integers scaled by
    (deg f)! and divided exactly.  Exact whenever deg f · deg g fits
    under the bound, which is enforced.
    """
    _check_bounds(f, g)
    bound = f.degree_bound
    if g.constant_term != 0:
        raise ConstantTermError("inner argument must have zero constant term")
    if f.degree() * g.degree() > bound:
        raise DegreeOverflowError(
            f"composition degree {f.degree()}·{g.degree()} exceeds bound {bound}"
        )
    powers = {EMPTY: SymFunc.one(bound)}

    def power(rho: tuple[int, ...]) -> SymFunc:
        # p_ρ ∘ g, one part of ρ at a time
        if rho not in powers:
            k = rho[-1]
            pk = {Partition._trusted(k * v for v in mu): c for mu, c in g._coeffs.items()}
            powers[rho] = multiply(power(rho[:-1]), SymFunc(pk, bound))
        return powers[rho]

    scale = factorial(f.degree())
    acc: dict[Partition, int] = {}
    for lam, c in f._coeffs.items():
        t = _transition(lam.size)
        for r, a in t.inverse[_rank(lam)]:
            weight = c * a * (scale // t.scale)
            for nu, b in power(t.parts[r])._coeffs.items():
                acc[nu] = acc.get(nu, 0) + weight * b
    counts = _exact_counts(acc.values(), scale, "f ∘ g")
    return SymFunc(dict(zip(compress(acc, acc.values()), counts)), bound)


def _check_natural(what: str, x, least: int = 0) -> None:
    """Degree bounds and coefficients are plain ints, at least ``least``."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be int, got {_shown(x)}")
    if x < least:
        raise ValueError(f"{what} must be ≥ {least}, got {_shown(x)}")


def _is_natural(x, least: int = 0) -> bool:
    """Whether ``_check_natural`` passes x, for a loader's own error."""
    try:
        _check_natural("", x, least)
    except (TypeError, ValueError):
        return False
    return True


def _check_bounds(f, g) -> None:
    """Two operands, symmetric functions or Witt elements, share a degree bound."""
    if f._degree_bound != g._degree_bound:
        raise ValueError(
            f"degree bounds differ: {f._degree_bound} vs {g._degree_bound}"
        )
