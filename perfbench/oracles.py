"""Independent routes to the expected outputs, written without ``tropwitt``.

Every expected result the benchmark checks against is built here from
first principles, in exactly the JSON form the library emits:

- tropical point evaluation, for ``from_points`` and for the rig laws
  ``from_points(a)·from_points(b) = from_points(pairwise sums)`` and
  ``from_points(a) + from_points(b) = from_points(a ⊎ b)``;
- polynomial expansion in enough variables, for products and plethysms;
- counts of nonnegative integer matrices with given margins, for the
  multiplicative coproduct of complete elements h_n;
- covers in the Young lattice, for growth paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

INF = None  # ∞ in the exact values below; finite values are Fractions


# -- partitions -----------------------------------------------------------------


def partitions_of(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def partitions_up_to(n: int) -> list[tuple[int, ...]]:
    """Nonempty partitions of size 1..n."""
    return [lam for k in range(1, n + 1) for lam in partitions_of(k)]


def key(lam) -> str:
    return ",".join(map(str, lam))


def is_cover(small, big) -> bool:
    """big is one box above small in the Young lattice."""
    if sum(big) != sum(small) + 1 or list(big) != sorted(big, reverse=True) or min(big) < 1:
        return False
    padded = list(small) + [0] * (len(big) - len(small))
    return len(big) - len(small) in (0, 1) and all(b >= s for b, s in zip(big, padded))


def witness_degree(witness: list[str]) -> int:
    """Total size of the partitions in a violation witness, as the library
    writes it: point names and partitions such as ``(3,1)``."""
    return sum(
        int(part) for word in witness if word.startswith("(") for part in word[1:-1].split(",") if part
    )


def report_matches(report: dict, broken: dict | None) -> bool:
    """A validation report (JSON form) is clean when nothing is broken, and
    otherwise shows the broken axiom first at the degree it was broken at.

    The degree check is what stops a validator that skips part of the work
    from passing: a corruption placed at the top degree is only seen by a
    validator that reaches the top degree.
    """
    if broken is None:
        return report["ok"] and not report["violations"]
    degrees = [witness_degree(v["witness"]) for v in report["violations"] if v["kind"] == broken["kind"]]
    return not report["ok"] and bool(degrees) and min(degrees) == broken["degree"]


# -- exact values ------------------------------------------------------------------


def value(s) -> Fraction | None:
    if s == "inf":
        return INF
    return Fraction(s)


def text(v: Fraction | None) -> str:
    return "inf" if v is INF else str(v)


def vadd(a, b):
    return INF if a is INF or b is INF else a + b


def vmin(a, b):
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


def vle(a, b) -> bool:
    """a ≤ b numerically, with ∞ largest."""
    if b is INF:
        return True
    return a is not INF and a <= b


def monus(y, x):
    if x is INF:
        return Fraction(0)
    if y is INF:
        return INF
    return max(y - x, Fraction(0))


# -- Witt elements -------------------------------------------------------------------


def point_eval(points, bound: int) -> dict[str, str]:
    """Values of tropical evaluation at a multiset of points.

    The minimum over injective assignments of parts to points puts the
    largest parts on the smallest points.
    """
    pts = sorted(points, key=lambda p: (p is INF, p if p is not INF else 0))
    values = {}
    for lam in partitions_up_to(bound):
        if len(lam) > len(pts):
            values[key(lam)] = "inf"
            continue
        total = Fraction(0)
        for part, pt in zip(lam, pts):
            total = vadd(total, INF if pt is INF else part * pt)
        values[key(lam)] = text(total)
    return values


def witt_json(values: dict[str, str], bound: int) -> dict:
    return {"degree_bound": bound, "values": values}


def theta_values(r, bound: int) -> dict[str, str]:
    return {
        key(lam): text(INF if r is INF else lam[0] * r) if len(lam) == 1 else "inf"
        for lam in partitions_up_to(bound)
    }


def pairwise_sums(a, b) -> list:
    return [vadd(x, y) for x in a for y in b]


def rig_leq(f_values: dict[str, str], g_values: dict[str, str]) -> bool:
    """f ≼ g in the rig order: g ≤ f numerically at every partition."""
    return all(vle(value(g_values[k]), value(v)) for k, v in f_values.items())


# -- polynomials -------------------------------------------------------------------------


def _placements(lam, slots: int):
    """Distinct exponent vectors of m_λ over `slots` variables, as
    {position: exponent} maps."""
    groups: dict[int, int] = {}
    for p in lam:
        groups[p] = groups.get(p, 0) + 1
    items = sorted(groups.items())

    def rec(i: int, free: tuple[int, ...], acc: dict):
        if i == len(items):
            yield dict(acc)
            return
        part, count = items[i]
        for chosen in combinations(free, count):
            for c in chosen:
                acc[c] = part
            rest = tuple(x for x in free if x not in chosen)
            yield from rec(i + 1, rest, acc)
            for c in chosen:
                del acc[c]

    if len(lam) > slots:
        return
    yield from rec(0, tuple(range(slots)), {})


def to_poly(coeffs: dict[tuple[int, ...], int], nvars: int) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for lam, c in coeffs.items():
        for place in _placements(lam, nvars):
            expo = tuple(place.get(i, 0) for i in range(nvars))
            out[expo] = out.get(expo, 0) + c
    return out


def poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def monomial_coeffs(poly, nvars: int, bound: int) -> dict[str, int]:
    """m-basis coefficients of a symmetric polynomial, read off at the
    exponent vectors that are partitions (exact when nvars ≥ bound)."""
    out = {}
    for lam in [()] + partitions_up_to(bound):
        c = poly.get(tuple(lam) + (0,) * (nvars - len(lam)), 0)
        if c:
            out[key(lam)] = c
    return out


def sym_product(f: dict, g: dict, bound: int) -> dict[str, int]:
    """m-coefficients of f·g, for inputs whose product fits under the bound."""
    return monomial_coeffs(poly_mul(to_poly(f, bound), to_poly(g, bound)), bound, bound)


def sym_plethysm(outer: dict, inner: dict, bound: int) -> dict[str, int]:
    """m-coefficients of outer ∘ inner: outer evaluated at the monomials of
    inner (with multiplicity), expanded in `bound` variables."""
    alphabet = []
    for expo, c in sorted(to_poly(inner, bound).items()):
        alphabet.extend([expo] * c)
    out: dict[tuple[int, ...], int] = {}
    for lam, c in outer.items():
        for place in _placements(lam, len(alphabet)):
            expo = tuple(
                sum(power * alphabet[slot][j] for slot, power in place.items())
                for j in range(bound)
            )
            out[expo] = out.get(expo, 0) + c
    return monomial_coeffs(out, bound, bound)


# -- multiplicative coproduct of complete elements ------------------------------------------


def margin_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Nonnegative integer matrices with the given row and column sums."""
    memo: dict = {}

    def fill(r: int, left: tuple[int, ...]) -> int:
        if r == len(rows):
            return 1 if not any(left) else 0
        state = (r, tuple(sorted(left)))
        if state in memo:
            return memo[state]
        total = 0

        def place(j: int, need: int, acc: list[int]):
            nonlocal total
            if j == len(left) - 1:
                if need <= left[j]:
                    total += fill(r + 1, tuple(acc + [left[j] - need]))
                return
            for x in range(min(need, left[j]) + 1):
                place(j + 1, need - x, acc + [left[j] - x])

        place(0, rows[r], [])
        memo[state] = total
        return total

    return fill(0, cols)


def complete_coproduct(n: int) -> dict[str, int]:
    """Δ×(h_n) = Σ over μ, ν ⊢ n of (number of matrices with margins μ, ν)
    m_μ ⊗ m_ν, because h_n at the doubled alphabet x_i·y_j is the sum of
    all degree-n monomials in the x_i·y_j."""
    out = {}
    for mu in partitions_of(n):
        for nu in partitions_of(n):
            c = margin_count(mu, nu)
            if c:
                out[f"{key(mu)}|{key(nu)}"] = c
    return out


def complete_coeffs(n: int) -> dict[tuple[int, ...], int]:
    return {lam: 1 for lam in partitions_of(n)}


def elementary_coeffs(n: int) -> dict[tuple[int, ...], int]:
    return {(1,) * n: 1}


def support_min(values: dict[str, str], support: list[str]):
    best = INF
    for k in support:
        best = vmin(best, value(values.get(k, "inf")))
    return best
