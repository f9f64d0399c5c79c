import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tropwitt import witt
from tropwitt.enriched import WittSpace
from tropwitt.errors import DegreeOverflowError, FormatError, _shown
from tropwitt.generate import random_rational, random_witt_elem
from tropwitt.partitions import MAX_DEGREE, Partition, partitions_of, partitions_up_to
from tropwitt.quantale import INF, ZERO, LValue
from tropwitt.symfunc import SymFunc, complete, coproduct_mult, monomial
from tropwitt.witt import (
    WittElem,
    additive_unit,
    from_points,
    multiplicative_unit,
    tau,
    theta,
)

from oracles import coaction

N = 6


def P(*parts):
    return Partition(parts)


def lv(x):
    return LValue(Fraction(x) if not isinstance(x, str) else x)


def some_elems(count, seed=3, max_points=3):
    rng = random.Random(seed)
    return [random_witt_elem(rng, N, max_points=max_points) for _ in range(count)]


# -- evaluation ---------------------------------------------------------------


def test_eval_on_basis_and_units():
    f = from_points([lv(1), lv(2)], N)
    assert f.eval(monomial(P(2, 1), N)) == f.value(P(2, 1))
    assert f.eval(SymFunc.zero(N)) == INF
    assert f.eval(SymFunc.one(N)) == ZERO


def test_eval_on_complete_is_min_over_size():
    f = from_points([lv(1), lv(2)], N)
    for n in range(1, N + 1):
        want = min(f.value(lam) for lam in partitions_of(n))
        assert f.eval(complete(n, N)) == want


def test_eval_rejects_degree_overflow():
    f = theta(lv(1), 4)
    with pytest.raises(DegreeOverflowError):
        f.eval(monomial(P(5), 5))


def test_value_on_empty_partition_is_zero():
    assert theta(lv(7), N).value(Partition()) == ZERO


# -- validation -----------------------------------------------------------------


def test_units_validate():
    assert additive_unit(N).validate().ok
    assert multiplicative_unit(N).validate().ok


def test_invalid_element_reported_with_witness():
    bad = WittElem(4, {P(1): lv(1), P(2): lv(5)})
    report = bad.validate()
    assert not report.ok
    assert any(v.witness == (P(1), P(1)) for v in report.violations)


# -- multiplication ------------------------------------------------------------------


def test_mul_follows_comult_support():
    f, g = some_elems(2, seed=13)
    lam = P(1, 1)
    pairs = [pair for pair, _ in coproduct_mult(monomial(lam, N)).items()]
    assert set(pairs) == {(P(2), P(1, 1)), (P(1, 1), P(2)), (P(1, 1), P(1, 1))}
    want = min(f.value(mu) + g.value(nu) for mu, nu in pairs)
    assert f.mul(g).value(lam) == want


# -- order ------------------------------------------------------------------------------


def test_order_basics():
    f, g = some_elems(2, seed=17)
    assert f.leq(f)
    assert additive_unit(N).leq(f)
    assert additive_unit(N).leq(g)


def test_order_antisymmetric_on_samples():
    elems = some_elems(8, seed=19)
    for f in elems:
        for g in elems:
            if f.leq(g) and g.leq(f):
                assert f == g


def test_mul_is_monotone():
    elems = some_elems(6, seed=23)
    for f in elems:
        for fp in elems:
            if not f.leq(fp):
                continue
            for g in elems[:3]:
                assert f.mul(g).leq(fp.mul(g))


# -- theta / tau ----------------------------------------------------------------------------


def test_theta_values():
    # n·r on the row (n), ∞ on every partition of two or more parts, and 0
    # on the empty one, at every partition up to the bound
    rows = {
        ZERO: lambda n: ZERO,
        lv("3/2"): lambda n: LValue(Fraction(3 * n, 2)),
        INF: lambda n: INF,
    }
    for bound in (1, 6, 12):
        for r, row in rows.items():
            th = theta(r, bound)
            for lam in partitions_up_to(bound):
                parts = len(lam)
                want = ZERO if parts == 0 else row(lam.size) if parts == 1 else INF
                assert th.value(lam) == want, (bound, r, lam)


# scalars as θ takes them: LValues, and ints, Fractions and tokens that it
# coerces; among them 0, ∞, unreduced ratios and values past 2⁶⁴
_SCALARS = st.one_of(
    st.sampled_from([ZERO, INF, 0, "inf", "6/4", " 3/2 ", Fraction(6, 4)]),
    st.builds(lambda p, q: LValue(Fraction(p, q)), st.integers(0, 10**6), st.integers(1, 10**6)),
    st.integers(2**64, 2**200),
    st.builds(Fraction, st.integers(2**64, 2**200), st.integers(1, 2**70)),
)


@given(_SCALARS, st.integers(1, MAX_DEGREE))
@example(ZERO, MAX_DEGREE)
@example(INF, 1)
@example("6/4", 12)
@example(10**30, 7)
def test_theta_is_one_point_evaluation(r, bound):
    # θ is written on the rows directly; from_points is its oracle, down to
    # the stored form (shared denominator and numerators)
    got, want = theta(r, bound), from_points([r], bound)
    assert got == want
    assert (got._den, got._nums) == (want._den, want._nums)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize(
    "r, bound",
    [
        (ZERO, 0), (ZERO, True), (ZERO, 2.5), (ZERO, MAX_DEGREE + 1), (ZERO, 10**5000),
        (-1, 3), (Fraction(-1, 2), 3), (-(10**5000), 3), (10**5000, 3), (1.5, 3), (True, 3),
        (None, 3), ("x", 3), ("-1", 3), ("1/0", 3), (-1, 0), (1.5, MAX_DEGREE + 1),
    ],
    ids=_shown,
)
def test_theta_refuses_what_one_point_evaluation_refuses(r, bound):
    # the same checks in the same order: the bound, then the value
    with pytest.raises(Exception) as want:
        from_points([r], bound)
    with pytest.raises(Exception) as got:
        theta(r, bound)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_tau_examples():
    r = lv("7/3")
    assert tau(theta(r, N)) == r
    assert tau(multiplicative_unit(N)) == ZERO
    f, g = some_elems(2, seed=29)
    assert tau(f.mul(g)) == tau(f) + tau(g)


# -- the adjunction domain -----------------------------------------------------------------------


def test_lipschitz_members():
    rng = random.Random(31)
    assert theta(random_rational(rng), N).is_lipschitz()
    for f in some_elems(6, seed=37):
        assert f.is_lipschitz()


def test_lipschitz_counterexample():
    f = WittElem(4, {P(1): lv(1), P(2): lv(5)})
    assert not f.is_lipschitz()


def test_lipschitz_closed_under_mul():
    elems = some_elems(6, seed=41)
    for f in elems[:3]:
        for g in elems[3:]:
            assert f.mul(g).is_lipschitz()


# -- point evaluation -------------------------------------------------------------------------------


def test_from_points_values():
    f = from_points([lv(1), lv(2)], N)
    assert f.value(P(2, 1)) == lv(4)  # 2·1 + 1·2
    assert f.value(P(1, 1)) == lv(3)
    assert f.value(P(1, 1, 1)) == INF  # more parts than points


def test_from_points_always_validates():
    rng = random.Random(47)
    for _ in range(10):
        pts = [random_rational(rng) for _ in range(rng.randint(1, 4))]
        assert from_points(pts, N).validate().ok


def test_closure_under_rig_ops():
    rng = random.Random(53)
    for _ in range(8):
        f = random_witt_elem(rng, N)
        g = random_witt_elem(rng, N)
        assert f.add(g).validate().ok
        assert f.mul(g).validate().ok


# -- negative results ---------------------------------------------------------------------------------
# The negative-results suite checks these at scale; the worked cases of the
# paper's headline claims stay here as named examples.


def test_unit_plus_unit_at_hook():
    one = multiplicative_unit(N)
    assert one.add(one).value(P(2, 1)) == ZERO
    assert one.value(P(2, 1)) == INF


def test_theta_sum_at_hook():
    rng = random.Random(5)
    for _ in range(20):
        r, rp = random_rational(rng), random_rational(rng)
        got = theta(r, N).add(theta(rp, N)).value(P(2, 1))
        assert got == min(2 * r + rp, r + 2 * rp)


def test_not_characteristic_one():
    one = multiplicative_unit(N)
    assert one.add(one) != one


def test_theta_not_additive():
    r, rp = lv(1), lv(2)
    mixed = theta(r, N).add(theta(rp, N))
    collapsed = theta(min(r, rp), N)
    assert mixed != collapsed
    assert mixed.value(P(2, 1)) == lv(4)
    assert collapsed.value(P(2, 1)) == INF


# -- composition action ----------------------------------------------------------------------------------


def test_coaction_unit_inner():
    f = from_points([lv(1), lv(3)], 8)
    phi = monomial(P(1), 8)
    psi = complete(2, 8)
    assert coaction(f, phi, psi) == f.eval(psi)


def test_coaction_on_rows():
    f = from_points([lv(1), lv(3)], 8)
    for n in (1, 2, 4):
        for np in (1, 2):
            if n * np <= 8:
                got = coaction(f, monomial(P(np), 8), monomial(P(n), 8))
                assert got == f.value(P(n * np))


def test_coaction_theta_example():
    r = lv("2/3")
    assert coaction(theta(r, 8), monomial(P(2), 8), monomial(P(2), 8)) == 4 * r


def test_coaction_respects_products_in_outer():
    f = from_points([lv(1), lv(2), lv(4)], 8)
    inner = monomial(P(2), 8)
    for mu in partitions_up_to(2):
        for nu in partitions_up_to(2):
            if mu.is_empty() or nu.is_empty():
                continue
            prod = monomial(mu, 8) * monomial(nu, 8)
            lhs = coaction(f, inner, prod)
            rhs = coaction(f, inner, monomial(mu, 8)) + coaction(
                f, inner, monomial(nu, 8)
            )
            assert lhs == rhs, (mu, nu)
            both = coaction(f, inner, monomial(mu, 8) + monomial(nu, 8))
            assert both == min(
                coaction(f, inner, monomial(mu, 8)),
                coaction(f, inner, monomial(nu, 8)),
            )


def test_mul_factors_through_complete_elements():
    # products evaluate multiplicatively at every complete element: the
    # doubled-alphabet pairs of the size-n partitions jointly cover all
    # pairs of size-n partitions
    rng = random.Random(61)
    for _ in range(10):
        f = random_witt_elem(rng, N)
        g = random_witt_elem(rng, N)
        prod = f.mul(g)
        for n in range(1, N + 1):
            h = complete(n, N)
            assert prod.eval(h) == f.eval(h) + g.eval(h)


# -- serialization ------------------------------------------------------------------------------------------


def test_json_round_trip():
    f = from_points([lv("1/2"), lv(2)], N)
    assert WittElem.from_json(f.to_json()) == f


def test_json_keys_in_size_lex_order():
    keys = list(theta(lv(1), 4).to_json()["values"])
    assert keys == ["1", "1,1", "2", "1,1,1", "2,1", "3", "1,1,1,1", "2,1,1", "2,2", "3,1", "4"]


def test_json_omits_empty_partition_and_fills_missing():
    data = {"degree_bound": 2, "values": {"1": "1", "2": "2"}}
    f = WittElem.from_json(data)
    assert f.value(P(1, 1)) == INF


def test_json_rejects_bad_documents():
    with pytest.raises(FormatError):
        WittElem.from_json({"values": {}})
    with pytest.raises(FormatError):
        WittElem.from_json({"degree_bound": 2, "values": {"": "0"}})
    with pytest.raises(FormatError):
        WittElem.from_json({"degree_bound": 2, "values": {"1": 0.5}})
    with pytest.raises(FormatError):
        WittElem.from_json({"degree_bound": 2, "values": {"5": "1"}})
    for bound in [True, False, 0, "2", 2.0]:
        with pytest.raises(FormatError):
            WittElem.from_json({"degree_bound": bound, "values": {}})


def test_degree_bound_mismatch_raises():
    with pytest.raises(ValueError):
        theta(lv(1), 4).add(theta(lv(1), 5))
    with pytest.raises(ValueError):
        theta(lv(1), 4).mul(theta(lv(1), 5))
    with pytest.raises(ValueError):
        theta(lv(1), 4).leq(theta(lv(1), 5))


def test_constructor_rejects_nonzero_empty_partition():
    with pytest.raises(ValueError):
        WittElem(3, {Partition(): lv(1)})


_BUILDERS = {
    "WittElem": lambda n: WittElem(n, {}),
    "from_points": lambda n: from_points([lv(1)], n),
    "theta": lambda n: theta(ZERO, n),
    "additive_unit": additive_unit,
    "multiplicative_unit": multiplicative_unit,
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=list(_BUILDERS))
@pytest.mark.parametrize(
    "bound, error, text",
    [
        (True, TypeError, "degree bound must be int, got True"),
        (2.0, TypeError, "degree bound must be int, got 2.0"),
        (2.5, TypeError, "degree bound must be int, got 2.5"),
        (0, ValueError, "degree bound must be ≥ 1, got 0"),
        pytest.param(-(10**5000), ValueError,
                     "degree bound must be ≥ 1, got -<integer of more than 1000 digits>",
                     id="-10**5000"),
    ],
)
def test_degree_bound_is_an_int_of_at_least_one(build, bound, error, text):
    # one check, the one SymFunc uses with a least bound of 0: a bool bound
    # once built an element whose JSON did not load back
    with pytest.raises(error) as got:
        build(bound)
    assert str(got.value) == text
    assert build(1).degree_bound == 1


# bounds above the maximum, and the text that names each: past 4300
# digits, int-to-str conversion raises a ValueError of its own
_ABOVE = [(13, "13"), (10**100, str(10**100)), (10**5000, "<integer of more than 1000 digits>")]


@pytest.mark.parametrize("bound, shown", _ABOVE, ids=["13", "10**100", "10**5000"])
def test_loaders_refuse_a_bound_above_the_maximum(bound, shown):
    # before any partition up to the bound is indexed, with the CLI's text
    elem = {"degree_bound": bound, "values": {}}
    space = {"points": ["a"], "dist": {"a|a": elem}}
    for load, doc in [(WittElem.from_json, elem), (WittSpace.from_json, space)]:
        with pytest.raises(FormatError) as got:
            load(doc)
        assert str(got.value) == f"degree_bound {shown} exceeds the maximum {MAX_DEGREE}"
    assert WittElem.from_json({"degree_bound": MAX_DEGREE, "values": {}}) == additive_unit(MAX_DEGREE)


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=list(_BUILDERS))
@pytest.mark.parametrize("bound, shown", _ABOVE, ids=["13", "10**100", "10**5000"])
def test_constructors_refuse_a_bound_above_the_maximum(build, bound, shown, monkeypatch):
    # the loaders' ceiling and text, as a ValueError, before the basis is
    # indexed up to the bound: once ran until memory ran out at 10**100
    def index(n):
        raise AssertionError(f"indexed up to {n}")

    monkeypatch.setattr(witt, "_prefix", index)
    with pytest.raises(ValueError) as got:
        build(bound)
    assert str(got.value) == f"degree_bound {shown} exceeds the maximum {MAX_DEGREE}"
    monkeypatch.undo()
    assert build(MAX_DEGREE).degree_bound == MAX_DEGREE
