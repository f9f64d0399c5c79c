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

The values are stored densely, by position in the monomial basis of
:mod:`tropwitt.symfunc`, which owns the partition index and the exact
structure constants, and this module reads the supports of its rows.  The
positions of a degree bound N are a prefix, shared with every larger
bound, and m_∅ sits at position −1.  An element keeps a shared
denominator D, the lcm of the reduced denominators of its finite values,
and one integer numerator per nonempty partition, ``None`` for ∞; the
form is canonical, so equality is tuple equality; values enter only
through the loader and the generators.  Every rig operation is a min
over integer sums on position tables, and ``LValue`` appears only at the
API and JSON boundary.

The coproduct is read flat, one group per λ and left factor μᵢ, holding
the right factors νⱼ of that group: (f·g)(λ) is the min over λ's groups of
f(μᵢ) + min_j g(νⱼ), and the inner min depends on g alone.

Validation runs on packed integers, many small sums, minima and
comparisons in one integer operation (Lamport, "Multiple byte processing
with full-word instructions", CACM 18(8), 1975).  :class:`_Packed` lifts
a batch of elements to one denominator and one ∞ mark and lays out each
basis position as one column, a field of whole bytes per element; the
fields are wide enough that 2·∞ stays below each field's top bit, the
guard bit, and Python integers make the word as wide as the batch.
Fields of 1, 2, 4 or 8 bytes are cut from one ``array`` of every value,
column-major; wider ones are written value by value.  The masks of a
layout (guard bits, row and column selectors, repeat constants) depend on
its shape alone and are kept for the next batch of that shape, the small
ones only and a bounded number of them.  A batch whose columns would
take more than ``MAX_PACKED_BYTES`` is refused, as a ``FormatError``,
before any column is built.  A
:class:`_Family` orders a fixed family of position sets by decreasing
size, so round r reads the r-th member of a prefix of the sets, and one
fieldwise min per round (guard-bit subtract, mask, select) takes the
minima of every set for every element at once.  One family holds the
product supports that :meth:`WittElem.validate` checks (:func:`_checks`),
another the right sets of the coproduct groups (:func:`_groups`).  A
space checks all k² entries in one packed pass, and d(x, z) ≤
d(x, y)·d(y, z) in one step per middle point y over the fields
(group, x·k + z): d(x, y)(μᵢ) + min_j d(y, z)(νⱼ) below d(x, z)(λ)
leaves a guard bit set.  Reports are read from the packed pass: the text
of a failed check from its fields, and the witness of a failing triple
from its flagged groups; nothing is looked at again.

The whole check of a space on k points, with its report texts, lives here
(:func:`_space_violations`), and so does the entry check of the ``cat``
commands (:func:`_failing_pairs`); both read d(x, y) at x·k + y.  So does
the loader of one entry, ``WittElem._load``, which reads each distinct
string token of a space document once, through a memo that lives for that
document.  θ(r) is written on its rows directly, m·r at (m), with
:func:`from_points` at the one point r as its oracle in the tests.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, lru_cache
from itertools import compress, count, islice, repeat
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DegreeOverflowError, FormatError
from .partitions import Partition, _check_degree, partitions_of
from .quantale import ZERO, LValue, _json_pair, _ratio, _text
from .report import Report, Violation
from .symfunc import SymFunc, _by_key, _check_bounds, _check_natural, _comult, _index, _is_natural
from .symfunc import _keys, _labels, _positions, _prefix, _product, _row, _splittings


def _getter(positions: Sequence[int]):
    """Read the values at positions, in order, as a tuple: an
    ``itemgetter``, which returns a bare value for one position."""
    if len(positions) == 1:
        (p,) = positions
        return lambda xs: (xs[p],)
    return itemgetter(*positions) if positions else lambda xs: ()


class _Family:
    """A fixed family of nonempty position sets, in order of decreasing
    size, ``order`` holding the family index of each, and getters of
    further positions aligned with the sets, one per set in that order.

    Round r reads the r-th member of every set with more than r members,
    a prefix of the order: ``rounds`` holds the length of that prefix and
    a getter of those members."""

    def __init__(self, sets: Sequence[Sequence[int]], *aligned: Sequence[int]):
        order = sorted(range(len(sets)), key=lambda k: -len(sets[k]))
        self.order = tuple(order)
        ordered = [sets[k] for k in order]
        self.rounds = []
        n = len(ordered)
        for r in range(len(ordered[0]) if ordered else 0):
            while len(ordered[n - 1]) <= r:
                n -= 1
            self.rounds.append((n, _getter([s[r] for s in ordered[:n]])))
        self.aligned = tuple(_getter([pos[k] for k in order]) for pos in aligned)


@cache
def _coproduct(bound: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The coproduct groups of every nonempty λ up to bound, sizes in turn,
    as flat (λ, i, js) without their counts."""
    return tuple(
        (lam, i, js)
        for n in range(1, bound + 1)
        for groups, lam in zip(_comult(n), _positions(n))
        for i, js, _ in groups
    )


@cache
def _splits(bound: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The splittings of every nonempty partition up to bound, by position."""
    return tuple(map(_splittings, range(_prefix(bound))))


@cache
def _groups(bound: int) -> _Family:
    """The right sets of the coproduct groups, with each group's left
    position and λ aligned."""
    lams, lefts, rights = zip(*_coproduct(bound))
    return _Family(rights, lefts, lams)


@cache
def _checks(bound: int) -> tuple[tuple[tuple[int, int], ...], _Family]:
    """The multiplicativity checks in report order, as the positions of
    every pair (μ, ν) with |μ| ≤ |ν| and |μ| + |ν| ≤ N, and the supports
    of their products m_μ·m_ν, with the positions of μ and ν aligned."""
    _prefix(bound)  # index every partition up to the bound
    pairs = tuple(
        (_index[mu], _index[nu])
        for a in range(1, bound)
        for b in range(a, bound - a + 1)
        for mu in partitions_of(a)
        for nu in partitions_of(b)
        if b > a or not nu < mu
    )
    supports = [[p for p, _ in _product(i, j)] for i, j in pairs]
    return pairs, _Family(supports, [i for i, _ in pairs], [j for _, j in pairs])


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


# The array typecode of each item size: the fields of 1, 2, 4 or 8 bytes
# are packed by one array, wider ones value by value.
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}

# The layout masks (guard bits, row and column selectors, repeat constants)
# of at most this many bytes are kept, the _MASKS most recently used: at
# degree 6 that holds every mask of a space on up to 8 points with fields of
# up to 9 bytes, and bounds the cache, with its keys, at 16 MiB.  A larger
# mask is built anew: at degree 12 on 8 points, one composition mask takes
# 0.27 MB per byte of field.
_MASK_BYTES = 1 << 16
_MASKS = 128

# The most bytes of packed columns that one check lays out: the positions up
# to the bound, times the elements, times the field width.  Time and memory
# grow faster than that.  Unrefused, at degree 12, a space with 1000-digit
# values (416-byte fields) took 2.6 s and 107 MB to validate at 2 points
# (451 KB) and 15.5 s and 407 MB at 4; one element whose 271 values have
# distinct 200-digit denominators (22 KB fields over their lcm, 6.0 MB)
# took 6.2 s and 312 MB.  Under the cap, 8 points at degree 12 with 7-byte
# fields (121 KB) take 1.4 s and 49 MB in a cold `cat validate` (2-vCPU
# Xeon, median of 5).
MAX_PACKED_BYTES = 1 << 17


@lru_cache(maxsize=_MASKS)
def _tiled(pattern: bytes, n: int) -> int:
    return int.from_bytes(pattern * n, "little")


class _Packed:
    """Elements of one degree bound, lifted to one denominator and one ∞
    mark, with each basis position laid out as one packed column: the
    value of every element in turn, one field of ``size`` bytes each, the
    first element lowest.

    A field is wide enough that 2·∞ stays below its top bit, the guard
    bit, so a sum of two values fits a field, and a field with its guard
    bit set minus any value borrows from nothing outside it.  The
    integers that the methods read and return are fields packed the same
    way."""

    def __init__(self, elems: Sequence["WittElem"]):
        self.bound = elems[0]._degree_bound
        self.den, self.inf, self.lists = _lift(elems)
        self.count = len(elems)
        self.size = size = (2 * self.inf).bit_length() // 8 + 1
        packed = len(self.lists[0]) * self.count * size
        if packed > MAX_PACKED_BYTES:  # refused before any column is built
            raise FormatError(
                f"{self.count} elements of {len(self.lists[0])} values in {size}-byte fields "
                f"pack to {packed} bytes, above the maximum {MAX_PACKED_BYTES}"
            )
        self.bits = 8 * size
        code = _TYPECODES.get(size)
        if code:  # one array of every value, column-major, cut into columns
            values = array(code, [v for col in zip(*self.lists) for v in col])
            if sys.byteorder == "big":
                values.byteswap()
            raw, step = values.tobytes(), self.count * size
            self.cols = [raw[i : i + step] for i in range(0, len(raw), step)]
        else:
            to_bytes = int.to_bytes
            fields = [list(map(to_bytes, xs, repeat(size), repeat("little"))) for xs in self.lists]
            self.cols = list(map(b"".join, zip(*fields)))

    def tiled(self, pattern: bytes, n: int) -> int:
        """The packed integer whose bytes are pattern, n times; a mask of
        at most _MASK_BYTES bytes is kept for the next layout of its shape."""
        if len(pattern) * n > _MASK_BYTES:
            return int.from_bytes(pattern * n, "little")
        return _tiled(pattern, n)

    def guards(self, n: int) -> int:
        """The guard bits of n fields."""
        return self.tiled(bytes(self.size - 1) + b"\x80", n)

    def gather(self, get: Callable) -> int:
        """The columns that get reads, in its order."""
        return int.from_bytes(b"".join(get(self.cols)), "little")

    def min(self, a: int, b: int, h: int) -> int:
        """The fieldwise min of a and b on the fields whose guard bit is set
        in h, a on the others: a field of (a | H) − b keeps its guard bit
        exactly where a ≥ b, and that bit, spread down the field, selects
        b."""
        t = ((a | h) - b) & h
        return a ^ ((a ^ b) & (t - (t >> (self.bits - 1))))

    def minima(self, family: _Family) -> int:
        """The min over each set of family, fields ordered (set in family
        order, element): one fieldwise min per round, over the fields of
        its prefix."""
        if not family.rounds:
            return 0
        (total, get), *rest = family.rounds
        cols, span = self.cols, self.count * self.bits
        h = self.guards(total * self.count)
        acc = int.from_bytes(b"".join(get(cols)), "little")
        for n, get in rest:
            b = int.from_bytes(b"".join(get(cols)), "little")
            acc = self.min(acc, b, h >> (total - n) * span)
        return acc

    def marks(self, flags: int, fields: int) -> bytes:
        """The top byte of each of the first ``fields`` fields of flags,
        nonzero exactly where the field's guard bit is set."""
        size = self.size
        return flags.to_bytes(fields * size, "little")[size - 1 :: size]

    def field(self, xs: bytes, t: int) -> int:
        """Field t of the bytes xs."""
        size = self.size
        return int.from_bytes(xs[t * size : (t + 1) * size], "little")


def _hom_checks(packed: _Packed) -> tuple[bytes, bytes, bytes]:
    """The multiplicativity checks of every element, fields ordered (check
    in ``checks`` order, element), as bytes: the min over each product
    support, the sum value(μ) + value(ν) clamped at the ∞ mark, and the
    marks of the fields where the two differ.  All three are empty when
    no check fails."""
    _, checks = _checks(packed.bound)
    n = len(checks.order) * packed.count
    h = packed.guards(n)
    ones = h >> (packed.bits - 1)
    got = packed.minima(checks)
    mu, nu = checks.aligned
    expected = packed.min(packed.gather(mu) + packed.gather(nu), ones * packed.inf, h)
    # a nonzero field plus H − 1 carries into its guard bit
    flags = ((got ^ expected) + h - ones) & h
    if not flags:
        return b"", b"", b""
    # each big int is serialised once, and a report reads slices of it
    length = n * packed.size
    got, expected = (xs.to_bytes(length, "little") for xs in (got, expected))
    return got, expected, packed.marks(flags, n)


def _hom_failures(points: Sequence[str], packed: _Packed, checks: tuple) -> list[tuple]:
    """x, y and the index e = x·k + y of each entry of packed, a space on
    points, that fails a multiplicativity check, x-major, read from checks,
    the result of ``_hom_checks(packed)``."""
    marks, n, k = checks[2], packed.count, len(points)
    return [(points[e // k], points[e % k], e) for e in range(n) if any(marks[e::n])]


def _hom_violations(packed: _Packed, checks: tuple[bytes, bytes, bytes], e: int) -> Iterator[tuple]:
    """The failed multiplicativity checks of element e in report order, as
    μ, ν and the report text, read from the fields of checks, the result
    of ``_hom_checks(packed)``."""
    got, expected, marks = checks
    pairs, family = _checks(packed.bound)
    order, n, inf, den = family.order, packed.count, packed.inf, packed.den
    for k, t in sorted((order[t], t) for t in compress(count(), marks[e::n])):
        mu, nu = (_labels[p] for p in pairs[k])
        got_t, expected_t = (
            _text(v if v < inf else None, den)
            for v in (packed.field(got, t * n + e), packed.field(expected, t * n + e))
        )
        yield mu, nu, (
            f"min over m{mu}·m{nu} support is {got_t}, but value{mu} + value{nu} = {expected_t}"
        )


def _composition_excesses(points: Sequence[str], packed: _Packed) -> Iterator[Violation]:
    """The composition violation of each triple (x, y, z) of points, in
    order, where d(x, z) is numerically above the product d(x, y)·d(y, z):
    its witness is x, y, z and the first partition in ``partitions_up_to``
    order where it is, and its text gives both values there.

    packed holds d(x, y) for every pair of points at x·k + y.  Per
    coproduct group of λ and left factor μᵢ, d(x, y)(μᵢ) + min_j d(y, z)(νⱼ)
    is the group's share of the product at λ, so a triple fails exactly
    when some group's share is below d(x, z)(λ).  With fields ordered
    (group, x·k + z), one step per middle point y tests every group of
    every (x, z): shifts and masks pick d(x, y)(μᵢ) and the right minima of
    d(y, z), and a multiplication by a repeat constant copies each across
    the index it lacks.  A failing triple's witness is read from its
    flagged groups: the least λ among them, and the least share of λ's."""
    k = len(points)
    groups = _groups(packed.bound)
    left_of, lam_of = groups.aligned
    n = len(groups.order)
    size, bits, inf, den = packed.size, packed.bits, packed.inf, packed.den
    h = packed.guards(n * k * k)
    right = packed.minima(groups)
    left = packed.gather(left_of)
    # d(x, z)(λ) + H − 1: less a share, a field keeps its guard bit exactly
    # where the share is below d(x, z)(λ); with one ∞ mark, that is where
    # the share is finite and d(x, z)(λ) is ∞ or numerically above it
    caps = (packed.gather(lam_of) | h) - (h >> (bits - 1))
    full, zeros = b"\xff" * size, bytes(size)
    row = packed.tiled(full * k + zeros * (k * k - k), n)  # the fields (group, z)
    column = packed.tiled(full + zeros * (k - 1), n * k)  # the fields (group, x·k)
    # a 1 in each field x·k, and in each field z: the products copy a field
    # (group, z) to every (group, x·k + z), and (group, x·k) likewise
    over_x = packed.tiled(b"\x01" + bytes(k * size - 1), k)
    over_z = packed.tiled(b"\x01" + zeros[1:], k)
    kk = k * k
    failing = []
    for y in range(k):
        shares = ((right >> y * k * bits) & row) * over_x + ((left >> y * bits) & column) * over_z
        fails = (caps - shares) & h
        if fails:
            marks = packed.marks(fails, n * kk)
            for e in range(kk):
                flagged = marks[e::kk]  # per group, in family order, for (x, z)
                if any(flagged):
                    failing.append((e // k, y, e % k, flagged))
    lists, coproduct, order = packed.lists, _coproduct(packed.bound), groups.order
    for x, y, z, flagged in sorted(failing):
        # the failing λ are those of the flagged groups, and λ's product
        # value, below d(x, z)(λ), is the least share of one of them
        shares = [coproduct[order[g]] for g in compress(count(), flagged)]
        p = min(lam for lam, _, _ in shares)
        xy, yz = lists[x * k + y], lists[y * k + z]
        through = min(xy[i] + min([yz[j] for j in js]) for lam, i, js in shares if lam == p)
        direct = lists[x * k + z][p]
        detail = f"= {_text(direct if direct < inf else None, den)} > {_text(through, den)}"
        x, y, z, bad = points[x], points[y], points[z], _labels[p]
        yield Violation("composition", (x, y, z, bad), f"d({x},{z})(m{bad}) {detail}")


def _space_violations(points: Sequence[str], entries: Sequence["WittElem"]) -> list[Violation]:
    """The report of the space on points whose entry d(x, y) is
    entries[x·k + y], from one packed pass: the failed multiplicativity
    checks of its entries, in the order of the names, then the identity
    and the composition violations, in the order of the points."""
    packed = _Packed(entries)
    checks = _hom_checks(packed)
    report = [
        Violation("hom", (x, y, mu, nu), f"d({x},{y}): {detail}")
        for x, y, e in sorted(_hom_failures(points, packed, checks))
        for mu, nu, detail in _hom_violations(packed, checks, e)
    ]
    rows = [_row(n) for n in range(1, packed.bound + 1)]
    for x, dxx in zip(points, entries[:: len(points) + 1]):  # the entries d(x, x)
        for i in rows:
            if dxx._nums[i] != 0:
                row, value = _labels[i], _text(dxx._nums[i], dxx._den)
                detail = f"d({x},{x})(m{row}) = {value} ≠ 0"
                report.append(Violation("identity", (x, row), detail))
    report.extend(_composition_excesses(points, packed))
    return report


def _failing_pairs(points: Sequence[str], entries: Sequence["WittElem"]) -> list[tuple[str, str]]:
    """The pairs (x, y) whose entry fails a multiplicativity check, x-major,
    for entries laid out as in ``_space_violations``; one packed pass."""
    packed = _Packed(entries)
    return [(x, y) for x, y, _ in _hom_failures(points, packed, _hom_checks(packed))]


def _reduced(bound: int, den: int, nums: list[int | None]) -> "WittElem":
    """The canonical element with values nums/den.  The numerators' sum
    lies in their ideal, so taking it first leaves the gcd exact; it is
    mostly prime to den, and math.gcd skips the arguments after a 1."""
    finite = list(filter(None, nums))  # ∞ and 0 leave the gcd as it is
    g = gcd(gcd(den, sum(finite)), *finite)
    if g > 1:
        den //= g
        nums = [None if n is None else n // g for n in nums]
    return WittElem._dense(bound, den, tuple(nums))


def _over_lcm(bound: int, nums: list[int | None], dens: list[int]) -> "WittElem":
    """The canonical element with values nums/dens, each in lowest terms,
    lifted to the lcm D of the denominators.  No gcd is taken: for each
    prime power of D, the value whose denominator carries it in full has a
    numerator prime to it, so D and the lifted numerators are coprime."""
    den = lcm(*dens)
    lifted = tuple([None if n is None else n * (den // d) for n, d in zip(nums, dens)])
    return WittElem._dense(bound, den, lifted)


def _check_degree_bound(degree_bound) -> None:
    """The degree-bound check of the generators: a natural number of at
    least 1, and a ValueError above MAX_DEGREE."""
    _check_natural("degree bound", degree_bound, 1)
    _check_degree(degree_bound, ValueError)


class WittElem:
    """A candidate rig homomorphism from symmetric functions to [0, ∞]."""

    __slots__ = ("_degree_bound", "_den", "_nums")

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
        return _evals(self._degree_bound, (self,), f)[0]

    # -- rig structure -----------------------------------------------------

    def add(self, other: "WittElem") -> "WittElem":
        """Addition: minimum over multiset splittings of each partition."""
        _check_bounds(self, other)
        den, inf, (xs, ys) = _lift((self, other))
        xs.append(0)  # the empty partition at position −1, pinned to 0
        ys.append(0)
        sums = [min([xs[i] + ys[j] for i, j in pairs]) for pairs in _splits(self._degree_bound)]
        return _reduced(self._degree_bound, den, [None if n >= inf else n for n in sums])

    def mul(self, other: "WittElem") -> "WittElem":
        """Multiplication: minimum over doubled-alphabet coproduct pairs."""
        _check_bounds(self, other)
        den, inf, (xs, ys) = _lift((self, other))
        y = ys.__getitem__
        out = [inf] * len(xs)
        for lam, i, js in _coproduct(self._degree_bound):
            x = xs[i]
            if x < inf:  # a group whose left value is ∞ adds only ∞
                v = x + min(map(y, js))
                if v < out[lam]:
                    out[lam] = v
        return _reduced(self._degree_bound, den, [None if n >= inf else n for n in out])

    def leq(self, other: "WittElem") -> bool:
        """Pointwise rig order (∞ everywhere is the bottom element)."""
        _check_bounds(self, other)
        _, _, (xs, ys) = _lift((self, other))
        return all(y <= x for x, y in zip(xs, ys))

    # -- validation ----------------------------------------------------------

    def validate(self) -> Report:
        """Check multiplicativity on every pair fitting under the bound.

        A violation at (μ, ν) means the minimum of the values over the
        support of m_μ·m_ν differs from value(μ) + value(ν).
        """
        report = Report("witt-elem")
        packed = _Packed((self,))
        for mu, nu, detail in _hom_violations(packed, _hom_checks(packed), 0):
            report.add("multiplicativity", (mu, nu), detail)
        return report

    def is_lipschitz(self) -> bool:
        """True when every row value is at most the matching multiple of the
        first: value((n)) ≤ n·value((1)) numerically, for all n ≤ bound.

        Members form the sub-poset on which the scalar embedding θ is left
        adjoint to the initial-value map τ.
        """
        rows = [self._nums[_row(n)] for n in range(1, self._degree_bound + 1)]
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
        shown = ", ".join(f"{lam}:{_text(n, self._den)}" for lam, n in zip(_labels, self._nums[:6]))
        more = "" if len(self._nums) <= 6 else ", …"
        return f"WittElem<N={self._degree_bound}, {shown}{more}>"

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        den = self._den
        return {
            "degree_bound": self._degree_bound,
            "values": {
                key: _text(n, den) for key, n in zip(_keys, self._nums)
            },
        }

    @classmethod
    def from_json(cls, data) -> "WittElem":
        return cls._load(data, {})

    @staticmethod
    def _load(data, memo: dict) -> "WittElem":
        """The element of a JSON document, reading each string value once per
        memo: memo maps a string token to its (n, d), and lives for one
        document.  Only successfully read tokens are kept, so a bad token
        raises where it first occurs; only ``str`` tokens, since as dict keys
        ``True == 1 == 1.0``."""
        if not isinstance(data, dict) or "degree_bound" not in data or "values" not in data:
            raise FormatError("WittElem JSON needs 'degree_bound' and 'values'")
        bound = data["degree_bound"]
        raw = data["values"]
        if not _is_natural(bound, 1) or not isinstance(raw, dict):
            raise FormatError("bad WittElem JSON")
        _check_degree(bound)
        size = _prefix(bound)
        nums: list[int | None] = [None] * size
        dens = [1] * size
        oversized, renamed = None, set()
        for key, v in raw.items():
            i = _by_key.get(key, size)
            if i >= size:  # a key that is not canonical, or above the bound
                lam = Partition.from_key(key)
                if lam.is_empty():
                    raise FormatError("the empty partition must be omitted")
                i = _index.get(lam, size)
                if i >= size:
                    # value errors come first: the first oversized
                    # partition is reported once every value has parsed
                    if oversized is None:
                        oversized = lam
                    _json_pair(v)
                    continue
                # canonical keys are distinct, so only a renamed one can collide
                if _keys[i] in raw or i in renamed:
                    raise FormatError(f"partition {lam} is named twice")
                renamed.add(i)
            if type(v) is str:
                pair = memo.get(v)
                if pair is None:
                    pair = memo[v] = _json_pair(v)
            else:
                pair = _json_pair(v)
            nums[i], dens[i] = pair
        if oversized is not None:
            raise FormatError(f"partition {oversized} exceeds degree bound {bound}")
        return _over_lcm(bound, nums, dens)


def _evals(bound: int, elems: Iterable[WittElem], f: SymFunc) -> list[LValue]:
    """The values at f of elems of degree bound ``bound``, each the min over
    the support of f, which is resolved to positions once; m_∅ is 0."""
    degree = f.degree()
    if degree > bound:
        raise DegreeOverflowError(f"element of degree {degree} exceeds bound {bound}")
    positions = [_index[lam] for lam in f._coeffs]
    if -1 in positions:  # m_∅, pinned to 0, the least value
        return [ZERO for _ in elems]
    get = _getter(positions)
    return [
        _ratio(min([n for n in get(e._nums) if n is not None], default=None), e._den) for e in elems
    ]


def _column(bound: int, elems: Iterable[WittElem], lam: Partition) -> list[LValue]:
    """The values on m_λ of elems of degree bound ``bound``, λ's position
    looked up once; 0 on the empty partition."""
    if lam.is_empty():
        return [ZERO for _ in elems]
    size = _prefix(bound)
    i = _index.get(lam, size)  # the shared index also holds larger partitions
    if i >= size:
        raise DegreeOverflowError(f"partition {lam} exceeds degree bound {bound}")
    return [_ratio(f._nums[i], f._den) for f in elems]


# -- distinguished elements and functors -----------------------------------------


def additive_unit(degree_bound: int) -> WittElem:
    """The zero of the rig: ∞ on every nonempty partition."""
    _check_degree_bound(degree_bound)
    return WittElem._dense(degree_bound, 1, (None,) * _prefix(degree_bound))


def multiplicative_unit(degree_bound: int) -> WittElem:
    """The unit of the rig: 0 on every single-row partition, ∞ elsewhere."""
    return theta(ZERO, degree_bound)


def theta(r: LValue, degree_bound: int) -> WittElem:
    """Embed a scalar: n·r on the row (n), ∞ on every other partition.

    This is tropical evaluation at the one point r: a partition with more
    than one part has no injective assignment to it.  Monoidal
    (θ(r)·θ(r′) = θ(r + r′)) and monotone, but does not preserve addition;
    θ(0) is the multiplicative unit.  Written on the rows directly, over
    r's own reduced denominator, with the checks of :func:`from_points`,
    the one-point evaluation that it equals.
    """
    _check_degree_bound(degree_bound)
    r = LValue(r)
    nums: list[int | None] = [None] * _prefix(degree_bound)
    if r._n is not None:
        for m in range(1, degree_bound + 1):
            nums[_row(m)] = m * r._n
    return WittElem._dense(degree_bound, r._d, tuple(nums))


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
    _check_degree_bound(degree_bound)
    # a λ has at most degree_bound parts, so it reads only that many points
    pts = sorted(LValue(p) for p in points)[:degree_bound]
    size = _prefix(degree_bound)
    finite = [(p._n, p._d) for p in pts if p.is_finite]
    den = lcm(*(d for _, d in finite))
    # ∞ sorts last, so a λ reaching past the finite points is ∞
    ints = [n * (den // d) for n, d in finite]
    nums = [
        # largest exponents on the smallest points minimizes the sum
        sum(part * pt for part, pt in zip(lam, ints)) if len(lam) <= len(ints) else None
        for lam in islice(_labels, size)
    ]
    return _reduced(degree_bound, den, nums)
