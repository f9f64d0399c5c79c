"""Brute-force oracles kept independent of the library's own algorithms.

Each function here recomputes something the package computes smarter, by
the most literal route available, so the tests can compare the two.  The
polynomial route expands a symmetric function in finitely many variables,
multiplies there and peels the result back into the monomial basis.  No
library path calls any function here; among them are the covers of the
Young lattice, the counits applied to one tensor factor, the composition
action of a Witt element and Robinson–Schensted insertion.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm

from tropwitt.enriched import WittSpace
from tropwitt.errors import DegreeOverflowError, FormatError, TropwittError
from tropwitt.partitions import MAX_DEGREE, Partition, partitions_of, partitions_up_to
from tropwitt.plancherel import GrowthPath, growth_step
from tropwitt.quantale import INF, ZERO, LValue, leq
from tropwitt.report import Report, Violation
from tropwitt.symfunc import SymFunc, counit_add, counit_mult, coproduct_mult, monomial, plethysm
from tropwitt.witt import WittElem


def partitions_brute(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Recursive-descent enumeration, descending lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_brute(n - first, first):
            out.append((first,) + rest)
    return out


@cache
def partition_count(n: int, max_part: int | None = None) -> int:
    """Counting recurrence p(n, k) = p(n, k-1) + p(n-k, k)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    if max_part > n:
        max_part = n
    return partition_count(n, max_part - 1) + partition_count(n - max_part, max_part)


def covers(p: Partition) -> tuple[Partition, ...]:
    """Partitions one box above p in the Young lattice: each part
    incremented where the staircase allows, then a new part 1 appended."""
    out = []
    for i, v in enumerate(p):
        if i == 0 or p[i - 1] > v:
            out.append(Partition(p[:i] + (v + 1,) + p[i + 1:]))
    out.append(Partition(p + (1,)))
    return tuple(out)


# -- the polynomial route (Macdonald, *Symmetric Functions and Hall Polynomials*, ch. I) ----

Poly = dict[tuple[int, ...], int]


class NotSymmetricError(TropwittError):
    """A polynomial claimed to be symmetric is not."""


@cache
def _expand_monomial(lam: Partition, k: int) -> tuple[tuple[int, ...], ...]:
    """All distinct exponent vectors of m_λ in k variables (empty if λ has
    more parts than there are variables), in lexicographic order."""
    if len(lam) > k:
        return ()
    if k == 0:
        return ((),)
    # the first variable takes exponent 0 or one of the distinct parts of λ
    out = [(0,) + rest for rest in _expand_monomial(lam, k - 1)]
    for v in sorted(set(lam)):
        rest_parts = list(lam)
        rest_parts.remove(v)
        out.extend((v,) + rest for rest in _expand_monomial(Partition(rest_parts), k - 1))
    return tuple(out)


def expand_in_vars(f: SymFunc, k: int) -> Poly:
    """Substitute x_{k+1} = x_{k+2} = … = 0 and expand into monomials."""
    out: Poly = {}
    for lam, c in f.items():
        for expo in _expand_monomial(lam, k):
            out[expo] = out.get(expo, 0) + c
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Multiply two polynomials given as exponent-tuple → coefficient maps."""
    out: Poly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def from_polynomial(p: Poly, k: int, degree_bound: int | None = None) -> SymFunc:
    """Recover a SymFunc from a symmetric polynomial in k variables.

    Greedily peels the lexicographically leading monomial into an m_λ term
    and subtracts its full orbit; raises NotSymmetricError if a coefficient
    would go negative or the residual cannot reach zero.
    """
    work: Poly = {}
    for expo, c in p.items():
        if len(expo) != k:
            raise ValueError(f"exponent tuple {expo} does not have {k} entries")
        if c < 0:
            raise NotSymmetricError("negative coefficient in input polynomial")
        if c:
            work[expo] = c
    if degree_bound is None:
        degree_bound = max((sum(e) for e in work), default=0)
    out: dict[Partition, int] = {}
    while work:
        lead = max(work)
        c = work[lead]
        lam = Partition(e for e in lead if e)
        if lam.size > degree_bound:
            raise DegreeOverflowError(f"term m{lam} exceeds degree bound {degree_bound}")
        for expo in _expand_monomial(lam, k):
            residual = work.get(expo, 0) - c
            if residual < 0:
                raise NotSymmetricError(f"polynomial is not symmetric (short at {expo})")
            if residual:
                work[expo] = residual
            else:
                work.pop(expo, None)
        out[lam] = out.get(lam, 0) + c
    return SymFunc(out, degree_bound)


def power_sums_by_map_count(parts: tuple[Partition, ...]) -> list[list[tuple[int, int]]]:
    """Sparse rows of L, the power-sum-to-monomial transition matrix on the
    partitions of one size, indexed by position in ``parts``.

    Row ρ lists (μ, L[ρ][μ]) for each nonzero coefficient of m_μ in p_ρ.
    That coefficient counts the maps from the parts of ρ to the positions
    of μ under which each position receives parts summing to its own
    value.  It vanishes unless μ dominates ρ, so with ``parts`` in
    ``partitions_of`` order every row ends at its diagonal entry
    L[ρ][ρ] = Π m_i(ρ)!, and L is lower triangular; every column is
    counted here, so a comparison checks that too.
    """
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def count(rho: tuple[int, ...], mu: tuple[int, ...]) -> int:
        # send the last part of ρ to each position of μ that can take it
        if not rho:
            return 0 if mu else 1
        key = (rho, mu)
        if key not in memo:
            r, rest = rho[-1], rho[:-1]
            total = 0
            for i, v in enumerate(mu):
                if v == r:
                    total += count(rest, mu[:i] + mu[i + 1:])
                elif v > r:
                    smaller = sorted(mu[:i] + (v - r,) + mu[i + 1:], reverse=True)
                    total += count(rest, tuple(smaller))
            memo[key] = total
        return memo[key]

    return [
        [(m, c) for m, mu in enumerate(parts) if (c := count(tuple(rho), tuple(mu)))]
        for rho in parts
    ]


@cache
def count_syt(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of a shape, by removing the largest entry.

    The largest entry must sit at an inner corner; summing over corners
    counts every tableau once.  No hook lengths involved.
    """
    if not shape:
        return 1
    total = 0
    for i, v in enumerate(shape):
        if i == len(shape) - 1 or shape[i + 1] < v:
            smaller = shape[:i] + ((v - 1,) if v > 1 else ()) + shape[i + 1 :]
            total += count_syt(smaller)
    return total


def naive_comult(lam: Partition) -> dict[tuple[Partition, Partition], int]:
    """Literal doubled-alphabet expansion of m_λ on a |λ|×|λ| grid of
    product variables, re-collected in the basis m_μ(x) ⊗ m_ν(y).

    Feasible for |λ| ≤ 4; used to pin the aggregated computation.
    """
    k = lam.size
    cells = [(i, j) for i in range(k) for j in range(k)]
    poly: Counter = Counter()
    for chosen in combinations(cells, len(lam)):
        for assignment in set(permutations(lam)):
            xe = [0] * k
            ye = [0] * k
            for (i, j), e in zip(chosen, assignment):
                xe[i] += e
                ye[j] += e
            poly[(tuple(xe), tuple(ye))] += 1

    def padded(p: Partition) -> tuple[int, ...]:
        return p + (0,) * (k - len(p))

    out: dict[tuple[Partition, Partition], int] = {}
    for mu in partitions_of(k):
        for nu in partitions_of(k):
            c = poly.get((padded(mu), padded(nu)), 0)
            if c:
                out[(mu, nu)] = c

    # completeness: the collected coefficients must rebuild the polynomial
    rebuilt: Counter = Counter()
    for (mu, nu), c in out.items():
        for xe in _orbit(padded(mu)):
            for ye in _orbit(padded(nu)):
                rebuilt[(xe, ye)] += c
    assert rebuilt == poly, f"bivariate collection incomplete for {lam}"
    return out


def comult_by_matrix_count(
    lam: Partition,
) -> tuple[tuple[tuple[Partition, Partition], int], ...]:
    """The multiplicative coproduct of m_λ, aggregated from the doubled
    alphabet by row and column sums: the coefficient of m_μ ⊗ m_ν is the
    number of matrices whose nonzero entries form the multiset λ, with
    row-sum vector μ and column-sum vector ν.

    Counted by backtracking, which is exponential in |λ|; entries come
    ordered by μ, then ν, in ``partitions_of`` order, as the library's
    table does.
    """
    if lam.is_empty():
        return (((lam, lam), 1),)
    out = []
    for mu in partitions_of(lam.size):
        for nu in partitions_of(lam.size):
            c = _matrix_count(lam, mu, nu)
            if c:
                out.append(((mu, nu), c))
    return tuple(out)


def _matrix_count(lam: Partition, mu: Partition, nu: Partition) -> int:
    entries = len(lam)
    if entries < len(mu) or entries < len(nu) or entries > len(mu) * len(nu):
        return 0
    if lam[0] > mu[0] or lam[0] > nu[0]:
        return 0
    cols = list(nu)
    ncols = len(cols)
    remaining = Counter(lam)
    values = sorted(remaining, reverse=True)
    count = 0

    def fill_row(r: int) -> None:
        nonlocal count
        if r == len(mu):
            count += 1
            return
        target = mu[r]

        def place(j: int, acc: int) -> None:
            if acc == target:
                fill_row(r + 1)
                return
            if j == ncols or acc + sum(cols[j:]) < target:
                return
            place(j + 1, acc)
            room = target - acc
            cap = cols[j]
            for v in values:
                if v <= room and v <= cap and remaining[v]:
                    remaining[v] -= 1
                    cols[j] -= v
                    place(j + 1, acc + v)
                    remaining[v] += 1
                    cols[j] += v

        place(0, 0)

    fill_row(0)
    return count


@cache
def product_by_alignment_count(
    mu: Partition, nu: Partition
) -> tuple[tuple[Partition, int], ...]:
    """m_μ · m_ν in the monomial basis, by counting exponent vectors: the
    coefficient at λ is the number of ways to write λ as a componentwise
    sum a + b, where a arranges the parts of μ over the positions of λ and
    b the parts of ν.

    Enumerates every distinct arrangement of μ, so the cost grows
    factorially with the length of λ; entries come in ``partitions_of``
    order, as the library's table does.
    """
    if mu.is_empty():
        return ((nu, 1),)
    if nu.is_empty():
        return ((mu, 1),)
    out = []
    for lam in partitions_of(mu.size + nu.size):
        length = len(lam)
        if length > len(mu) + len(nu) or length < max(len(mu), len(nu)):
            continue
        count = 0
        for arr in expand_in_vars(SymFunc({mu: 1}, mu.size), length):
            residual = []
            for want, got in zip(lam, arr):
                if got > want:
                    break
                if want > got:
                    residual.append(want - got)
            else:
                residual.sort(reverse=True)
                if tuple(residual) == nu:
                    count += 1
        if count:
            out.append((lam, count))
    return tuple(out)


def plethysm_by_substitution(f: SymFunc, g: SymFunc) -> SymFunc:
    """f ∘ g by evaluating f at an alphabet: g is expanded in degree_bound
    variables, each of its monomials enters the alphabet as often as its
    coefficient says, and the expansion of f there is peeled back into the
    monomial basis.  Assumes g has no constant term and
    deg f · deg g ≤ degree_bound.
    """
    bound = f.degree_bound
    alphabet: list[tuple[int, ...]] = []
    for expo, c in sorted(expand_in_vars(g, bound).items()):
        alphabet.extend([expo] * c)
    out: dict[tuple[int, ...], int] = {}
    for lam, c in f.items():
        for choice in expand_in_vars(SymFunc({lam: 1}, lam.size), len(alphabet)):
            combined = [0] * bound
            for power, mono in zip(choice, alphabet):
                if power:
                    for j, e in enumerate(mono):
                        combined[j] += power * e
            key = tuple(combined)
            out[key] = out.get(key, 0) + c
    return from_polynomial(out, bound, bound)


def _orbit(vec: tuple[int, ...]) -> set[tuple[int, ...]]:
    return set(permutations(vec))


def three_way_splittings(lam: Partition) -> Counter:
    """All ordered triples (α, β, γ) with α ⊎ β ⊎ γ = λ, each once."""
    out: Counter = Counter()
    counts = Counter(lam)
    values = sorted(counts)

    def rec(idx: int, a: list, b: list, c: list) -> None:
        if idx == len(values):
            out[(Partition(a), Partition(b), Partition(c))] += 1
            return
        v = values[idx]
        m = counts[v]
        for i in range(m + 1):
            for j in range(m - i + 1):
                rec(
                    idx + 1,
                    a + [v] * i,
                    b + [v] * j,
                    c + [v] * (m - i - j),
                )

    rec(0, [], [], [])
    return out


def nat_combination_exists(
    target: dict[Partition, int], generators: list[dict[Partition, int]]
) -> bool:
    """Exhaustive search for ℕ-coefficients writing target as a combination
    of the generators.  Coefficients are bounded by the largest target
    coefficient: generators have ℕ coefficients, so nothing cancels."""
    bound = max(target.values(), default=0)

    def rec(i: int,residual: dict[Partition, int]) -> bool:
        if i == len(generators):
            return not any(residual.values())
        for a in range(bound + 1):
            candidate = dict(residual)
            ok = True
            for lam, c in generators[i].items():
                candidate[lam] = candidate.get(lam, 0) - a * c
                if candidate[lam] < 0:
                    ok = False
                    break
            if ok and rec(i + 1, candidate):
                return True
        return False

    return rec(0, dict(target))


# -- counits on one tensor factor --------------------------------------------------------------

_COUNITS = {"add": counit_add, "mult": counit_mult}


def tensor_counit_left(t, kind: str) -> SymFunc:
    """(ε ⊗ id)(t) for the counit of kind 'add' or 'mult': each term's left
    factor m_a read by that counit, through ``monomial``."""
    return _tensor_counit(t, _COUNITS[kind], 0)


def tensor_counit_right(t, kind: str) -> SymFunc:
    """(id ⊗ ε)(t), as ``tensor_counit_left`` on the right factor."""
    return _tensor_counit(t, _COUNITS[kind], 1)


def _tensor_counit(t, counit, side: int) -> SymFunc:
    out: dict[Partition, int] = {}
    for pair, c in t.items():
        other = pair[1 - side]
        out[other] = out.get(other, 0) + c * counit(monomial(pair[side], t.degree_bound))
    return SymFunc(out, t.degree_bound)


# -- the Witt rig on partition-keyed LValue tables ------------------------------------------


def elem(bound: int, values: dict[Partition, LValue]) -> WittElem:
    """The element with these values, ∞ at each partition not named (m_∅
    ignored), stored in its canonical form: every value lifted to the lcm
    of the reduced denominators, built here, not by the library's reader."""
    vals = [values.get(lam, INF) for lam in partitions_up_to(bound)[1:]]
    den = lcm(*(v._d for v in vals))
    nums = tuple(None if v._n is None else v._n * (den // v._d) for v in vals)
    return WittElem._dense(bound, den, nums)


def _value_table(f: WittElem) -> dict[Partition, LValue]:
    return {lam: f.value(lam) for lam in partitions_up_to(f.degree_bound) if not lam.is_empty()}


def eval_by_partitions(f: WittElem, g: SymFunc) -> LValue:
    """f at g: one LValue min over the support of g, read from f's value
    table, with m_∅ taken as 0; ∞ for the zero element."""
    if g.degree() > f.degree_bound:
        raise DegreeOverflowError(f"element of degree {g.degree()} exceeds bound {f.degree_bound}")
    table = _value_table(f)
    best = INF
    for lam, _ in g.items():
        v = ZERO if lam.is_empty() else table[lam]
        if v < best:
            best = v
    return best


def coaction(f: WittElem, inner: SymFunc, outer: SymFunc) -> LValue:
    """f at outer ∘ inner, the degree-limited composition action: with inner
    fixed, outer ↦ coaction(f, inner, outer) is a homomorphism on every pair
    under the bound; inner = m_(1) gives plain evaluation, and inner = m_(n)
    the Frobenius map F_n of f read at outer."""
    return f.eval(plethysm(outer, inner))


def from_points_by_lvalues(points: list[LValue], degree_bound: int) -> WittElem:
    """Tropical point evaluation, one LValue sum per partition: the largest
    parts of λ on the smallest points, ∞ past the number of points."""
    pts = sorted(LValue(p) for p in points)
    values = {}
    for lam in partitions_up_to(degree_bound):
        if lam.is_empty():
            continue
        if len(lam) > len(pts):
            values[lam] = INF
        else:
            total = ZERO
            for part, pt in zip(lam, pts):
                total = total + part * pt
            values[lam] = total
    return elem(degree_bound, values)


def _lvalue_from_json(data) -> LValue:
    """A JSON value token through the ``LValue`` constructor."""
    if isinstance(data, (bool, float)) or not isinstance(data, (int, str)):
        raise FormatError(f"LValue must be an integer or string, got {data!r}")
    if isinstance(data, int):
        if data < 0:
            raise FormatError(f"LValue must be nonnegative, got {data}")
        return LValue(data)
    try:
        return LValue(data)
    except ValueError as exc:
        # a token past the digit limit is named in short, with the limit
        text = str(exc) if "more than 1000 digits" in str(exc) else f"bad LValue {data!r}"
        raise FormatError(text) from exc


def witt_from_json_by_partitions(data) -> WittElem:
    """``WittElem.from_json`` by way of a Partition-keyed table: a bound
    above MAX_DEGREE refused first, every key through ``Partition.from_key``,
    every value through the ``LValue`` constructor, then the first
    partition above the bound, if any, named.  A partition within the
    bound that two keys name is reported at the first key not in canonical
    form that names it after another key, or whose canonical key is in the
    document."""
    if not isinstance(data, dict) or "degree_bound" not in data or "values" not in data:
        raise FormatError("WittElem JSON needs 'degree_bound' and 'values'")
    bound = data["degree_bound"]
    raw = data["values"]
    bad_bound = not isinstance(bound, int) or isinstance(bound, bool) or bound < 1
    if bad_bound or not isinstance(raw, dict):
        raise FormatError("bad WittElem JSON")
    if bound > MAX_DEGREE:
        raise FormatError(f"degree_bound {bound} exceeds the maximum {MAX_DEGREE}")
    values = {}
    for key, v in raw.items():
        lam = Partition.from_key(key)
        if lam.is_empty():
            raise FormatError("the empty partition must be omitted")
        if lam.size <= bound and key != lam.key() and (lam in values or lam.key() in raw):
            raise FormatError(f"partition {lam} is named twice")
        values[lam] = _lvalue_from_json(v)
    oversized = next((lam for lam in values if lam.size > bound), None)
    if oversized is not None:
        raise FormatError(f"partition {oversized} exceeds degree bound {bound}")
    return elem(bound, values)


@cache
def multiset_splittings(lam: Partition) -> frozenset[tuple[Partition, Partition]]:
    """Every ordered pair (μ, ν) with μ ⊎ ν = λ, by sending each subset of
    the parts of λ to the left, repeated pairs collapsed."""
    return frozenset(
        (
            Partition(lam[i] for i in chosen),
            Partition(v for i, v in enumerate(lam) if i not in chosen),
        )
        for k in range(len(lam) + 1)
        for chosen in combinations(range(len(lam)), k)
    )


@cache
def _comult_support(lam: Partition) -> list[tuple[Partition, Partition]]:
    """The pairs (μ, ν) of Δ×(m_λ) through the public ``coproduct_mult``,
    which the tests pin to ``comult_by_matrix_count`` up to |λ| = 7."""
    return [pair for pair, _ in coproduct_mult(monomial(lam, lam.size)).items()]


def add_by_partitions(f: WittElem, g: WittElem) -> WittElem:
    """f + g, one LValue min over the multiset splittings of each λ."""
    mine, theirs = _value_table(f), _value_table(g)
    out = {}
    for lam in mine:
        best = INF
        for mu, nu in multiset_splittings(lam):
            # a missing key is the empty partition, pinned to 0
            v = mine.get(mu, ZERO) + theirs.get(nu, ZERO)
            if v < best:
                best = v
        out[lam] = best
    return elem(f.degree_bound, out)


def mul_by_partitions(f: WittElem, g: WittElem) -> WittElem:
    """f · g, one LValue min over the Δ×(m_λ) pairs of each λ."""
    mine, theirs = _value_table(f), _value_table(g)
    out = {}
    for lam in mine:
        best = INF
        for mu, nu in _comult_support(lam):
            v = mine[mu] + theirs[nu]
            if v < best:
                best = v
        out[lam] = best
    return elem(f.degree_bound, out)


def leq_by_partitions(f: WittElem, g: WittElem) -> bool:
    """The pointwise rig order, one LValue comparison per partition."""
    mine, theirs = _value_table(f), _value_table(g)
    return all(leq(mine[lam], theirs[lam]) for lam in mine)


def validate_by_partitions(f: WittElem) -> Report:
    """Multiplicativity on every pair under the bound, in report order."""
    report = Report("witt-elem")
    bound = f.degree_bound
    for a in range(1, bound):
        for b in range(a, bound - a + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    if b == a and nu < mu:
                        continue
                    expected = f.value(mu) + f.value(nu)
                    got = INF
                    for lam, _ in product_by_alignment_count(mu, nu):
                        v = f.value(lam)
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


def validate_space_by_partitions(space: WittSpace) -> Report:
    """Entry checks, identity and composition, in report order, with every
    product and comparison made by the routes above."""
    report = Report("witt-space")
    points, bound = space.points, space.degree_bound
    for x, y in sorted((x, y) for x in points for y in points):
        for v in validate_by_partitions(space.dist(x, y)).violations:
            report.add("hom", (x, y) + v.witness, f"d({x},{y}): {v.detail}")
    for x in points:
        dxx = space.dist(x, x)
        for n in range(1, bound + 1):
            row = Partition([n])
            if dxx.value(row) != ZERO:
                report.add("identity", (x, row), f"d({x},{x})(m{row}) = {dxx.value(row)} ≠ 0")
    for x in points:
        for y in points:
            for z in points:
                through = mul_by_partitions(space.dist(x, y), space.dist(y, z))
                direct = space.dist(x, z)
                if not leq_by_partitions(through, direct):
                    bad = next(
                        lam
                        for lam in partitions_up_to(bound)
                        if not lam.is_empty() and not direct.value(lam) <= through.value(lam)
                    )
                    report.violations.append(
                        Violation(
                            "composition",
                            (x, y, z, bad),
                            f"d({x},{z})(m{bad}) = {direct.value(bad)} > {through.value(bad)}",
                        )
                    )
    return report


# -- the growth chain by exact cumulative sums ------------------------------------------------


def sample_path_by_fractions(steps: int, seed: int, rng=None) -> GrowthPath:
    """``sample_path`` by reduced Fraction sums: each 64-bit draw, over 2⁶⁴,
    takes the first cover whose cumulative probability exceeds it.  `rng`
    stands in for ``random.Random(seed)`` when given."""
    if steps < 1:
        raise ValueError("steps must be ≥ 1")
    if rng is None:
        rng = random.Random(seed)
    lam = Partition([1])
    out = [lam]
    for _ in range(steps - 1):
        draw = Fraction(rng.getrandbits(64), 2**64)
        acc = Fraction(0)
        for mu, p in growth_step(lam).items():
            acc += p
            if draw < acc:
                lam = mu
                break
        out.append(lam)
    return GrowthPath(seed, tuple(out))


def rsk_shape(word) -> Partition:
    """The shape of the Robinson–Schensted insertion tableau of word: each
    letter bumps the least entry of a row that exceeds it into the next row,
    and ends a row that has none (Schensted, "Longest increasing and
    decreasing subsequences", Canad. J. Math. 13, 1961).  λ₁ is the longest
    increasing subsequence and the row count the longest decreasing one."""
    rows: list[list] = []
    for x in word:
        for row in rows:
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
    return Partition([len(row) for row in rows])
