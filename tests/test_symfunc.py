import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropwitt import symfunc
from tropwitt.errors import ConstantTermError, DegreeOverflowError, FormatError
from tropwitt.partitions import EMPTY, MAX_DEGREE, Partition, partitions_of, partitions_up_to
from tropwitt.symfunc import (
    SymFunc,
    TensorSymFunc,
    complete,
    coproduct_add,
    coproduct_mult,
    counit_add,
    counit_mult,
    elementary,
    monomial,
    multiply,
    plethysm,
    _comult,
    _index,
    _labels,
    _prefix,
    _product,
    _rank,
)
from tropwitt.witt import WittElem

from oracles import (
    NotSymmetricError,
    comult_by_matrix_count,
    expand_in_vars,
    from_polynomial,
    naive_comult,
    nat_combination_exists,
    plethysm_by_substitution,
    poly_mul,
    power_sums_by_map_count,
    product_by_alignment_count,
    tensor_counit_left,
    tensor_counit_right,
    three_way_splittings,
)

N = 8


def m(*parts, bound=N, c=1):
    """c·m_λ, λ having the given parts."""
    return SymFunc({Partition(parts): c}, bound)


def product_rows(mu, nu):
    """m_μ·m_ν from the basis product rows, as (λ, c) entries in row order."""
    _prefix(max(mu.size, nu.size))
    return tuple((_labels[p], c) for p, c in _product(_index[mu], _index[nu]))


def comult_rows(lam):
    """Δ×(m_λ) from the basis coproduct groups, as ((μ, ν), c) entries in
    row order."""
    return tuple(
        ((_labels[i], _labels[j]), c)
        for i, js, cs in _comult(lam.size)[_rank(lam)]
        for j, c in zip(js, cs)
    )


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str):
    """The JSON that code prints in a fresh interpreter, where the basis
    has indexed nothing yet."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def oracle_product(f, g):
    k = f.degree() + g.degree()
    return from_polynomial(
        poly_mul(expand_in_vars(f, k), expand_in_vars(g, k)), k, f.degree_bound
    )


# -- bases -------------------------------------------------------------------


def test_monomial_unit():
    assert m() == SymFunc.one(N)
    assert monomial(EMPTY, N).constant_term == 1
    assert m(2) + m(1, 1) + SymFunc.zero(N) == m(2) + m(1, 1)


def test_elementary_is_column():
    assert elementary(2, N) == m(1, 1)
    assert elementary(0, N) == SymFunc.one(N)


def test_complete_examples():
    # the identities suite checks h_n for n ≥ 1
    assert complete(0, N) == SymFunc.one(N)


def test_basis_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        monomial(Partition([9]), 8)
    with pytest.raises(DegreeOverflowError):
        complete(9, 8)


# -- expansion oracle ----------------------------------------------------------


def test_expand_single_orbits():
    assert expand_in_vars(m(2), 2) == {(2, 0): 1, (0, 2): 1}
    assert expand_in_vars(m(1, 1), 2) == {(1, 1): 1}
    assert expand_in_vars(m(1, 1, 1), 2) == {}


def test_from_polynomial_peels():
    p = {(2, 0): 1, (0, 2): 1, (1, 1): 2}
    assert from_polynomial(p, 2) == m(2, bound=2) + m(1, 1, bound=2, c=2)


def test_from_polynomial_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        from_polynomial({(1, 0): 1}, 2)
    with pytest.raises(NotSymmetricError):
        from_polynomial({(2, 0): 1, (0, 2): 1, (1, 1): 1, (0, 0): 0, (2, 1): 1}, 2)


small_sym = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=2).map(Partition),
    st.integers(1, 4),
    max_size=3,
).map(lambda d: SymFunc(d, 6))


@given(small_sym)
def test_expand_round_trip(f):
    k = 6
    assert from_polynomial(expand_in_vars(f, k), k, 6) == f


# -- product ----------------------------------------------------------------------


def test_product_examples():
    assert m(1) * m(2) == m(3) + m(2, 1)
    assert m(1) * m(1) == m(2) + m(1, 1, c=2)
    assert m() * m(2, 1) == m(2, 1)


def test_basis_product_matches_alignment_count_oracle():
    for total in range(0, 13):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    assert product_rows(mu, nu) == product_by_alignment_count(mu, nu), (mu, nu)


def test_basis_product_matches_polynomial_route_at_degree_twelve():
    mu, nu = Partition([4, 2, 1]), Partition([3, 1, 1])
    k = len(mu) + len(nu)  # enough variables to see every m_λ of the product
    want = from_polynomial(
        poly_mul(expand_in_vars(monomial(mu, 12), k), expand_in_vars(monomial(nu, 12), k)),
        k,
        12,
    )
    assert SymFunc(dict(product_rows(mu, nu)), 12) == want


@pytest.mark.parametrize("n", range(13))
def test_transition_rows_match_the_map_count(n):
    # each row p_ρ′·p_k, read off a smaller size, against the map count
    assert symfunc._transition(n).rows == power_sums_by_map_count(partitions_of(n))


@pytest.mark.parametrize("n", range(7))
def test_power_sums_match_the_polynomial_route(n):
    # p_ρ as the product of the polynomials p_k = m_(k) in n variables
    t = symfunc._transition(n)
    for rho, row in zip(t.parts, t.rows):
        poly = expand_in_vars(SymFunc.one(n), n)
        for k in rho:
            poly = poly_mul(poly, expand_in_vars(m(k, bound=n), n))
        assert from_polynomial(poly, n, n) == SymFunc({t.parts[c]: v for c, v in row}, n), rho


def test_a_transition_row_past_its_diagonal_is_refused(monkeypatch):
    # with size 3 listed in ascending order, row 0 is p_(1,1,1), whose last
    # term, m_(3), sits at rank 2 of the basis: past the diagonal
    _prefix(3)  # index size 3 in its own order first
    real = symfunc.partitions_of
    monkeypatch.setattr(symfunc, "partitions_of", lambda n: real(n)[::-1] if n == 3 else real(n))
    symfunc._transition.cache_clear()
    try:
        with pytest.raises(ArithmeticError) as got:
            symfunc._transition(3)
    finally:
        symfunc._transition.cache_clear()
    assert str(got.value) == "row 0 of L at n = 3 does not end at its diagonal"


# -- one basis for every degree bound -------------------------------------------------

COUNT_COPRODUCT_BUILDS = """
import json
from collections import Counter
import tropwitt.symfunc as S
from tropwitt.witt import from_points
calls, build = Counter(), S._comult_scaled
def counted(n):
    calls[n] += 1
    return build(n)
S._comult_scaled = counted
for bound in (10, 11, 12):
    f = from_points(["1", "2/3", "5"], bound)
    f.mul(f)
print(json.dumps(calls))
"""


def test_each_size_of_the_coproduct_is_built_once_across_bounds():
    assert fresh(COUNT_COPRODUCT_BUILDS) == {str(n): 1 for n in range(1, 13)}


PRODUCT_AT_BOUND_FORTY = """
import json
import tropwitt.symfunc as S
from tropwitt.partitions import Partition
f = S.multiply(S.monomial(Partition([2, 1]), 40), S.monomial(Partition([1]), 40))
print(json.dumps([f.to_json(), len(S._keys), max(lam.size for lam in S._index)]))
"""


def test_product_at_a_large_bound_indexes_only_the_sizes_it_reaches():
    # m_(2,1)·m_(1) has terms of size 4: the sizes up to 4 hold 11 nonempty
    # partitions, where the whole bound 40 holds 215,307
    product, indexed, largest = fresh(PRODUCT_AT_BOUND_FORTY)
    assert product == {"degree_bound": 40, "coeffs": {"2,1,1": 2, "2,2": 2, "3,1": 1}}
    assert (indexed, largest) == (11, 4)


@pytest.mark.parametrize(
    "build, size",
    [
        (lambda: monomial(Partition([13]), 40) * monomial(Partition([1]), 40), 13),
        (lambda: monomial(Partition([6]), 40) * monomial(Partition([7]), 40), 13),
        (lambda: coproduct_mult(monomial(Partition([30]), 40)), 30),
        (lambda: coproduct_add(monomial(Partition([13]), 40)), 13),
        (lambda: plethysm(monomial(Partition([30]), 40), monomial(Partition([1]), 40)), 30),
        (lambda: plethysm(monomial(Partition([13]), 40), SymFunc({}, 40)), 13),
        (lambda: plethysm(complete(4, 40), complete(4, 40)), 16),
    ],
    ids=["m13*m1", "m6*m7", "coprod-mult-m30", "coprod-add-m13", "m30-of-m1", "m13-of-0", "h4-of-h4"],
)
def test_tables_refuse_a_size_above_the_maximum(build, size, monkeypatch):
    # at a bound above MAX_DEGREE an element is built, but no table of a
    # size above it, before anything of that size is indexed or built: a
    # size-30 coproduct once ran for more than 20 s
    real = symfunc.partitions_of

    def parts(n):
        assert n <= MAX_DEGREE, f"listed the partitions of {n}"
        return real(n)

    monkeypatch.setattr(symfunc, "partitions_of", parts)
    with pytest.raises(DegreeOverflowError) as got:
        build()
    assert str(got.value) == f"degree {size} exceeds the maximum {MAX_DEGREE}"
    assert len(symfunc._ends) <= MAX_DEGREE + 1


def test_product_row_times_row():
    for n in range(1, 4):
        for np in range(1, 4):
            got = m(n) * m(np)
            if n == np:
                assert got == m(2 * n) + m(n, n, c=2)
            else:
                assert got == m(n + np) + m(n, np)


def test_rig_laws_against_oracle():
    rng = random.Random(7)
    basis = [lam for lam in partitions_up_to(3) if not lam.is_empty()]
    for _ in range(25):
        lams = [basis[rng.randrange(len(basis))] for _ in range(3)]
        if sum(l.size for l in lams) > 6:
            continue
        f, g, h = (monomial(l, 6) for l in lams)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == oracle_product(oracle_product(f, g), h)
        assert f * (g + h) == oracle_product(f, g + h)


def test_truncation_silent_and_strict():
    f = monomial(Partition([2]), 3)
    assert f * f == SymFunc.zero(3)
    with pytest.raises(DegreeOverflowError):
        multiply(f, f, strict=True)
    g = monomial(Partition([1]), 3)
    # the in-bound part of a mixed product survives truncation
    assert (f + g) * g == g * g + f * g


def test_degree_bound_mismatch():
    with pytest.raises(ValueError):
        multiply(m(1), m(1, bound=6))
    with pytest.raises(ValueError):
        m(1) + m(1, bound=6)


# -- additive coproduct ------------------------------------------------------------


def test_coproduct_add_examples():
    # the identities suite checks the rows and (2, 1)
    assert dict(coproduct_add(m()).items()) == {(EMPTY, EMPTY): 1}


def test_coproduct_add_bidegrees_split_the_degree():
    for lam in partitions_up_to(6):
        for (mu, nu), _ in coproduct_add(monomial(lam, 6)).items():
            assert mu.size + nu.size == lam.size


def test_coproduct_add_matches_the_two_alphabet_expansion():
    # m_λ in the k + k variables x, y is Σ c·m_μ(x)·m_ν(y) over the terms
    # c·m_μ ⊗ m_ν of its splittings
    for lam in partitions_up_to(6):
        k = lam.size
        rebuilt = {}
        for (mu, nu), c in coproduct_add(monomial(lam, k)).items():
            for x, a in expand_in_vars(monomial(mu, k), k).items():
                for y, b in expand_in_vars(monomial(nu, k), k).items():
                    rebuilt[x + y] = rebuilt.get(x + y, 0) + c * a * b
        assert rebuilt == expand_in_vars(monomial(lam, k), 2 * k), lam


def test_coproduct_add_coassociative():
    for lam in partitions_up_to(5):
        left = {}
        right = {}
        for (mu, nu), c in coproduct_add(monomial(lam, 5)).items():
            for (a, b), d in coproduct_add(monomial(mu, 5)).items():
                left[(a, b, nu)] = left.get((a, b, nu), 0) + c * d
            for (a, b), d in coproduct_add(monomial(nu, 5)).items():
                right[(mu, a, b)] = right.get((mu, a, b), 0) + c * d
        assert left == right == dict(three_way_splittings(lam))


def test_counit_add_is_counit_for_coproduct_add():
    for lam in partitions_up_to(6):
        f = monomial(lam, 6)
        assert tensor_counit_left(coproduct_add(f), "add") == f
        assert tensor_counit_right(coproduct_add(f), "add") == f


# -- multiplicative coproduct ----------------------------------------------------------


def test_coproduct_mult_examples():
    # the identities suite checks the rows
    assert dict(coproduct_mult(m(1, 1)).items()) == {
        (Partition([2]), Partition([1, 1])): 1,
        (Partition([1, 1]), Partition([2])): 1,
        (Partition([1, 1]), Partition([1, 1])): 2,
    }


def test_coproduct_mult_matches_naive_doubled_alphabet():
    for lam in partitions_up_to(4):
        if lam.is_empty():
            continue
        got = {pair: c for pair, c in coproduct_mult(monomial(lam, 4)).items()}
        assert got == naive_comult(lam), lam


def test_comult_table_matches_matrix_count_oracle():
    # same entries in the same order, so WittElem.mul and JSON output keep theirs
    for lam in partitions_up_to(7):
        assert comult_rows(lam) == comult_by_matrix_count(lam), lam


def test_comult_table_symmetric_with_counit_at_degree_ten():
    # beyond the oracle's reach: Δ× is cocommutative and ε× picks the rows
    n = 10
    for lam in partitions_of(n):
        table = dict(comult_rows(lam))
        assert all(table.get((nu, mu)) == c for (mu, nu), c in table.items()), lam
        for mu in partitions_of(n):
            assert table.get((mu, Partition([n])), 0) == (mu == lam), (lam, mu)


def test_coproduct_mult_preserves_degree_on_both_sides():
    for lam in partitions_up_to(6):
        for (mu, nu), _ in coproduct_mult(monomial(lam, 6)).items():
            assert mu.size == lam.size and nu.size == lam.size


def test_counit_mult_is_counit_for_coproduct_mult():
    for lam in partitions_up_to(6):
        f = monomial(lam, 6)
        assert tensor_counit_left(coproduct_mult(f), "mult") == f
        assert tensor_counit_right(coproduct_mult(f), "mult") == f


def test_coproduct_mult_coassociative():
    for lam in partitions_up_to(4):
        left = {}
        right = {}
        for (mu, nu), c in coproduct_mult(monomial(lam, 4)).items():
            for (a, b), d in coproduct_mult(monomial(mu, 4)).items():
                left[(a, b, nu)] = left.get((a, b, nu), 0) + c * d
            for (a, b), d in coproduct_mult(monomial(nu, 4)).items():
                right[(mu, a, b)] = right.get((mu, a, b), 0) + c * d
        assert left == right, lam


# -- counits ------------------------------------------------------------------------------


def test_counit_values():
    # the identities suite checks the counits of the monomials
    assert counit_mult(complete(2, N)) == 1
    assert counit_add(complete(2, N)) == 0


# -- composition ----------------------------------------------------------------------------


@given(small_sym)
def test_plethysm_unit_laws(f):
    one_var = monomial(Partition([1]), 6)
    assert plethysm(f, one_var) == f
    if f.constant_term == 0:
        assert plethysm(one_var, f) == f


def test_plethysm_on_sums():
    # e_2 composed with m_(1)+m_(2) in enough variables: exact small case
    inner = m(1) + m(2)
    got = plethysm(m(1, 1), inner)
    # pairs of distinct alphabet entries: x_i x_j, x_i y_j^2, y_i^2 y_j^2 orbits
    want = oracle_product(inner, inner)
    # m_(1,1)(a_1, a_2, ...) = e_2 of the alphabet = (S^2 - sum of squares)/2
    squares = plethysm(m(2), inner)
    assert got + got + squares == want
    assert plethysm(elementary(2, N), inner) == got


def test_plethysm_is_rig_hom_in_left_argument():
    g = m(2)
    for mu in partitions_up_to(2):
        for nu in partitions_up_to(2):
            if mu.is_empty() or nu.is_empty():
                continue
            f1, f2 = monomial(mu, 8), monomial(nu, 8)
            assert plethysm(f1 + f2, g) == plethysm(f1, g) + plethysm(f2, g)
            assert plethysm(f1 * f2, g) == plethysm(f1, g) * plethysm(f2, g)


PLETHYSM_OUTER = [
    m(),
    m(1),
    m(2),
    m(1, 1),
    m(3),
    m(2, 1),
    m(1, 1, 1),
    m() + m(1, c=2) + m(1, 1),  # a constant term
    complete(2, N),
]
PLETHYSM_INNER = [
    SymFunc.zero(N),
    m(1),
    m(1, c=3),
    m(2),
    m(1, 1),
    m(1) + m(2),  # mixed degrees
    m(1, c=2) + m(1, 1),
    m(1) + m(2, 1),
]


@pytest.mark.parametrize("g", PLETHYSM_INNER, ids=repr)
def test_plethysm_matches_substitution_oracle(g):
    for f in PLETHYSM_OUTER:
        if f.degree() * g.degree() <= N:
            assert plethysm(f, g) == plethysm_by_substitution(f, g), (f, g)


def test_plethysm_rejects_constant_term():
    with pytest.raises(ConstantTermError):
        plethysm(m(2), m() + m(1))


def test_plethysm_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        plethysm(m(3), m(3))


def test_plethysm_zero_inner():
    assert plethysm(m(2), SymFunc.zero(N)) == SymFunc.zero(N)
    assert plethysm(m() + m(2), SymFunc.zero(N)) == SymFunc.one(N)


# -- the e-basis does not span over ℕ ------------------------------------------------------------


def test_monomial_not_natural_combination_of_elementary_products():
    def generators(n):
        out = []
        for mu in partitions_of(n):
            prod = SymFunc.one(n)
            for part in mu:
                prod = prod * elementary(part, n)
            out.append(dict(prod.items()))
        return out

    witnesses = {
        n: [
            lam
            for lam in partitions_of(n)
            if not nat_combination_exists({lam: 1}, generators(n))
        ]
        for n in (2, 3, 4)
    }
    assert all(witnesses[n] for n in witnesses)
    assert Partition([2]) in witnesses[2]
    # sanity: e_2 itself is reachable
    assert nat_combination_exists({Partition([1, 1]): 1}, generators(2))


# -- serialization -------------------------------------------------------------------------------


def test_symfunc_json_round_trip():
    f = m(2, 1, c=3) + m() + m(4, c=2)
    data = f.to_json()
    assert data == {"degree_bound": 8, "coeffs": {"": 1, "2,1": 3, "4": 2}}
    assert SymFunc.from_json(data) == f


def test_symfunc_json_rejects_bad_inputs():
    with pytest.raises(FormatError):
        SymFunc.from_json({"coeffs": {}})
    with pytest.raises(FormatError):
        SymFunc.from_json({"degree_bound": 4, "coeffs": {"2,1": -1}})
    with pytest.raises(FormatError):
        SymFunc.from_json({"degree_bound": 4, "coeffs": {"9": 1}})


@pytest.mark.parametrize("cls", [SymFunc, TensorSymFunc])
def test_constructors_reject_what_the_other_rejects(cls):
    key = EMPTY if cls is SymFunc else (EMPTY, EMPTY)
    for bad in (True, 1.5, "1"):
        with pytest.raises(TypeError):
            cls({key: bad}, 4)
        with pytest.raises(TypeError):
            cls({}, bad)
    with pytest.raises(ValueError):
        cls({key: -1}, 4)
    with pytest.raises(ValueError):
        cls({}, -1)


@pytest.mark.parametrize("bound", [13, 10**100], ids=["13", "10**100"])
def test_loaders_refuse_a_bound_above_the_maximum(bound, monkeypatch):
    # before any key is read (this one is malformed) or any partition is
    # indexed: with a term m(30) under a bound of 40, coproduct_mult would
    # build the size-30 coproduct table without end
    def index(n):
        raise AssertionError(f"indexed up to {n}")

    monkeypatch.setattr(symfunc, "_prefix", index)
    with pytest.raises(FormatError) as got:
        SymFunc.from_json({"degree_bound": bound, "coeffs": {"x": 1}})
    assert str(got.value) == f"degree_bound {bound} exceeds the maximum {MAX_DEGREE}"
    monkeypatch.undo()
    loaded = SymFunc.from_json({"degree_bound": MAX_DEGREE, "coeffs": {"12": 1}})
    assert loaded.degree_bound == MAX_DEGREE and loaded.to_json()["coeffs"] == {"12": 1}


_F = SymFunc({Partition([2, 1]): 3, EMPTY: 1, Partition([1, 1]): 1, Partition([3]): 2, Partition([1]): 0},
             4)


@pytest.mark.parametrize(
    "value, printed, coeffs",
    [
        (_F, "SymFunc<m() + m(1,1) + 3*m(2,1) + 2*m(3)>",
         [("", 1), ("1,1", 1), ("2,1", 3), ("3", 2)]),
        (coproduct_add(m(2, 1, bound=4)),
         "TensorSymFunc<m()⊗m(2,1) + m(1)⊗m(2) + m(2)⊗m(1) + m(2,1)⊗m()>",
         [("|2,1", 1), ("1|2", 1), ("2|1", 1), ("2,1|", 1)]),
        (coproduct_mult(m(1, 1, bound=4, c=2) + m(1, bound=4)),
         "TensorSymFunc<m(1)⊗m(1) + 4*m(1,1)⊗m(1,1) + 2*m(1,1)⊗m(2) + 2*m(2)⊗m(1,1)>",
         [("1|1", 1), ("1,1|1,1", 4), ("1,1|2", 2), ("2|1,1", 2)]),
        (tensor_counit_right(coproduct_add(_F), "add"), "SymFunc<m() + m(1,1) + 3*m(2,1) + 2*m(3)>",
         [("", 1), ("1,1", 1), ("2,1", 3), ("3", 2)]),
        (SymFunc.zero(3), "SymFunc<0>", []),
        (TensorSymFunc({}, 2), "TensorSymFunc<0>", []),
    ],
)
def test_printed_and_serialized_forms(value, printed, coeffs):
    # repr, the JSON keys and items() all follow the
    # size-then-lexicographic order, of the left and then the right factor
    # for a tensor
    def term(key):
        sides = tuple(map(Partition.from_key, key.split("|")))
        return sides if len(sides) == 2 else sides[0]

    assert repr(value) == printed
    assert list(value.to_json()["coeffs"].items()) == coeffs
    assert list(value.items()) == [(term(k), c) for k, c in coeffs]


_P21, _P1 = Partition([2, 1]), Partition([1])


@pytest.mark.parametrize(
    "cls, coeffs, bound, error, text",
    [
        (SymFunc, {_P21: True}, 4, TypeError, "coefficient of (2,1) must be int, got True"),
        (SymFunc, {_P21: 1.5}, 4, TypeError, "coefficient of (2,1) must be int, got 1.5"),
        (SymFunc, {_P21: -1}, 4, ValueError, "coefficient of (2,1) must be ≥ 0, got -1"),
        (SymFunc, {}, "4", TypeError, "degree bound must be int, got '4'"),
        (SymFunc, {}, -1, ValueError, "degree bound must be ≥ 0, got -1"),
        (SymFunc, {_P21: 1}, 2, DegreeOverflowError, "term m(2,1) exceeds degree bound 2"),
        (TensorSymFunc, {(_P21, _P1): None}, 4, TypeError,
         "coefficient of (Partition((2, 1)), Partition((1,))) must be int, got None"),
        (TensorSymFunc, {(_P1, _P21): 1}, 2, DegreeOverflowError,
         "term m(1)⊗m(2,1) exceeds degree bound 2"),
    ],
)
def test_constructor_error_texts(cls, coeffs, bound, error, text):
    with pytest.raises(error) as got:
        cls(coeffs, bound)
    assert str(got.value) == text


@pytest.mark.parametrize(
    "cls, data, text",
    [
        (SymFunc, None, "SymFunc JSON needs 'degree_bound' and 'coeffs'"),
        (SymFunc, {"coeffs": {}}, "SymFunc JSON needs 'degree_bound' and 'coeffs'"),
        (SymFunc, {"degree_bound": 4}, "SymFunc JSON needs 'degree_bound' and 'coeffs'"),
        (SymFunc, {"degree_bound": -1, "coeffs": {}}, "bad degree_bound -1"),
        (SymFunc, {"degree_bound": True, "coeffs": {}}, "bad degree_bound True"),
        (SymFunc, {"degree_bound": "4", "coeffs": {}}, "bad degree_bound '4'"),
        (SymFunc, {"degree_bound": 4, "coeffs": []}, "'coeffs' must be an object"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"2,1": -1}}, "bad coefficient -1 for key '2,1'"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"2,1": 1.5}}, "bad coefficient 1.5 for key '2,1'"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"x": "1"}}, "bad coefficient '1' for key 'x'"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"9": 1}}, "term m(9) exceeds degree bound 4"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"0": 1}}, "bad partition key '0'"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"1,,1": 1}}, "bad partition key '1,,1'"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"1|1": 1}}, "bad partition key '1|1'"),
        (SymFunc, {"degree_bound": 4, "coeffs": {"2,1": 1, "1,2": 0}}, "term m(2,1) is named twice"),
        (WittElem, None, "WittElem JSON needs 'degree_bound' and 'values'"),
        (WittElem, {"degree_bound": 4}, "WittElem JSON needs 'degree_bound' and 'values'"),
        (WittElem, {"degree_bound": 0, "values": {}}, "bad WittElem JSON"),
        (WittElem, {"degree_bound": 4, "values": []}, "bad WittElem JSON"),
        (WittElem, {"degree_bound": 4, "values": {"": "1"}}, "the empty partition must be omitted"),
        (WittElem, {"degree_bound": 4, "values": {"9": "1"}}, "partition (9) exceeds degree bound 4"),
        # every value is read before an oversized partition is named
        (WittElem, {"degree_bound": 4, "values": {"9": "x"}}, "bad LValue 'x'"),
        (WittElem, {"degree_bound": 4, "values": {"2,1": "1", "1,2": "1"}},
         "partition (2,1) is named twice"),
        (WittElem, {"degree_bound": 4, "values": {"1": 1.5}},
         "LValue must be an integer or string, got 1.5"),
        (WittElem, {"degree_bound": 4, "values": {"+1": "1"}}, "bad partition key '+1'"),
    ],
)
def test_loader_error_texts(cls, data, text):
    with pytest.raises(FormatError) as got:
        cls.from_json(data)
    assert str(got.value) == text


def _respelled(key: str):
    """Another key for the same partition: its parts reversed, or with a
    leading zero when that changes nothing; None for the empty key."""
    if not key:
        return None
    parts = key.split(",")
    return ",".join(parts[::-1]) if parts != parts[::-1] else "0" + key


def _term(key: str):
    """The partition that a well-formed key names; None otherwise."""
    try:
        return Partition.from_key(key)
    except FormatError:
        return None


@st.composite
def near_miss_documents(draw):
    """A SymFunc or WittElem document with a degree bound up to 6, with
    none, one or two faults among a bad key, a bad value, a wrong bound and
    a repeated partition, and now and then the wrong shape."""
    cls = draw(st.sampled_from([SymFunc, WittElem]))
    body_name = "values" if cls is WittElem else "coeffs"
    bound = draw(st.integers(1, 6))
    keys = [lam.key() for lam in partitions_up_to(bound) if lam.size or cls is not WittElem]
    key = st.sampled_from(keys)
    value = st.sampled_from(["1", "3/2", "inf", 0, 2]) if cls is WittElem else st.integers(0, 3)
    body = draw(st.dictionaries(key, value, max_size=5))
    doc = {"degree_bound": bound, body_name: body}
    for fault in draw(st.lists(st.sampled_from(["key", "value", "bound", "repeat"]), max_size=2)):
        if fault == "key":
            bad = draw(st.sampled_from(["0", "1,,1", "x", "1||1", "", "|", "-1", str(bound + 1)]))
            body[bad] = draw(value)
        elif fault == "value" and body:
            body[draw(st.sampled_from(sorted(body)))] = draw(
                st.sampled_from([-1, True, 1.5, None, "x", 10**5000, -(10**5000)])
            )
        elif fault == "bound":
            doc["degree_bound"] = draw(st.sampled_from(
                [0, -1, True, False, 1.5, "3", None, 13, 10**100, 10**5000, -(10**5000)]
            ))
        elif fault == "repeat" and body:
            again = _respelled(draw(st.sampled_from(sorted(body))))
            if again is not None:
                body[again] = draw(value)
    shapes = [doc] * 12 + [list(doc), {body_name: body}, {**doc, body_name: list(body)}]
    return cls, draw(st.sampled_from(shapes))


@given(near_miss_documents())
@example((SymFunc, {"degree_bound": -(10**5000), "coeffs": {}}))
@example((SymFunc, {"degree_bound": 4, "coeffs": {"1": -(10**5000)}}))
@example((WittElem, {"degree_bound": 10**5000, "values": {}}))
@example((WittElem, {"degree_bound": 4, "values": {"1": -(10**5000)}}))
def test_loaders_on_near_miss_documents(case):
    # a loader raises only FormatError; what loads round-trips; a document
    # whose keys name one partition twice never loads
    cls, doc = case
    try:
        value = cls.from_json(doc)
    except FormatError:
        return
    assert cls.from_json(value.to_json()) == value
    named = [_term(key) for key in doc.get("values", doc.get("coeffs"))]
    named = [t for t in named if t is not None]
    assert len(set(named)) == len(named), f"{doc} loaded as {value!r}"


