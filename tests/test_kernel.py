"""The dense min-plus kernel of ``WittElem`` and ``WittSpace`` against the
partition-keyed ``LValue`` route in ``tests/oracles.py``.

Elements mix denominators, ∞ entries and zeros; some are valid
homomorphisms (tropical point evaluation), some are corrupted at a few
partitions, and some are arbitrary value tables.  Values, equality, the
JSON form and every report (order, witnesses and detail text) must agree.
The JSON token parser is checked against ``Fraction`` itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from tropwitt.enriched import WittSpace
from tropwitt.generate import random_point_eval_space
from tropwitt.partitions import Partition, partitions_of, partitions_up_to
from tropwitt.quantale import INF, ZERO, LValue, _parse_token
from tropwitt.symfunc import coproduct_mult, monomial
from tropwitt.witt import WittElem, from_points, theta

from oracles import (
    add_by_partitions,
    from_points_by_lvalues,
    leq_by_partitions,
    mul_by_partitions,
    validate_by_partitions,
    validate_space_by_partitions,
    witt_from_json_by_partitions,
)

lvalues = st.one_of(
    st.just(ZERO),
    st.just(INF),
    st.builds(
        lambda p, q: LValue(Fraction(p, q)),
        st.integers(0, 40),
        st.sampled_from([1, 2, 3, 4, 6, 7, 12]),
    ),
)


@st.composite
def witt_elems(draw, bound: int) -> WittElem:
    parts = [lam for lam in partitions_up_to(bound) if not lam.is_empty()]
    kind = draw(st.sampled_from(["points", "corrupted", "table", "sparse", "theta"]))
    if kind == "theta":
        return theta(draw(lvalues), bound)
    if kind in ("points", "corrupted"):
        f = from_points(draw(st.lists(lvalues, min_size=1, max_size=4)), bound)
        if kind == "points":
            return f
        values = {lam: f.value(lam) for lam in parts}
        for lam in draw(st.lists(st.sampled_from(parts), min_size=1, max_size=3)):
            values[lam] = draw(lvalues)
        return WittElem(bound, values)
    if kind == "sparse":
        chosen = draw(st.lists(st.sampled_from(parts), max_size=4))
        return WittElem(bound, {lam: draw(lvalues) for lam in chosen})
    return WittElem(bound, {lam: draw(lvalues) for lam in parts})


@st.composite
def elem_pairs(draw, bounds=st.integers(1, 6)) -> tuple[WittElem, WittElem]:
    bound = draw(bounds)
    return draw(witt_elems(bound)), draw(witt_elems(bound))


def _same(got: WittElem, want: WittElem) -> None:
    assert got == want
    assert got.to_json() == want.to_json()
    assert repr(got) == repr(want)


@given(elem_pairs())
def test_rig_operations_match_partition_route(pair):
    f, g = pair
    _same(f.mul(g), mul_by_partitions(f, g))
    _same(f.add(g), add_by_partitions(f, g))
    assert f.leq(g) == leq_by_partitions(f, g)
    assert g.leq(f) == leq_by_partitions(g, f)


@settings(max_examples=8)
@given(elem_pairs(bounds=st.just(8)))
def test_rig_operations_match_partition_route_at_degree_eight(pair):
    f, g = pair
    _same(f.mul(g), mul_by_partitions(f, g))
    _same(f.add(g), add_by_partitions(f, g))
    assert f.leq(g) == leq_by_partitions(f, g)
    assert f.validate().to_json() == validate_by_partitions(f).to_json()


@given(st.integers(1, 6).flatmap(witt_elems))
def test_validate_matches_partition_route(f):
    assert f.validate().to_json() == validate_by_partitions(f).to_json()


@settings(max_examples=4)
@given(st.sampled_from([10, 12]).flatmap(witt_elems))
def test_validate_matches_partition_route_at_degrees_ten_and_twelve(f):
    assert f.validate().to_json() == validate_by_partitions(f).to_json()


@given(st.integers(1, 8), st.lists(lvalues, max_size=5))
def test_from_points_matches_lvalue_route(bound, points):
    _same(from_points(points, bound), from_points_by_lvalues(points, bound))


@given(st.integers(1, 6).flatmap(witt_elems))
def test_stored_form_is_canonical(f):
    # rebuilding from the values gives the same stored form, so equality
    # of elements is equality of their value tables
    values = {lam: f.value(lam) for lam in partitions_up_to(f.degree_bound)}
    assert WittElem(f.degree_bound, values) == f
    assert WittElem.from_json(f.to_json()) == f


@st.composite
def witt_spaces(draw, bounds=st.sampled_from(range(1, 7)), sizes=st.sampled_from(range(1, 6))):
    bound = draw(bounds)
    points = ("a", "b", "c", "d", "e")[: draw(sizes)]
    space = random_point_eval_space(random.Random(draw(st.integers(0, 10**6))), points, bound)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    pairs = sorted(dist)
    # a point evaluation in place of an entry is still a homomorphism, but
    # usually breaks composition at several triples through that pair
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=4)):
        dist[pair] = from_points(draw(st.lists(lvalues, min_size=1, max_size=bound)), bound)
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        dist[pair] = draw(witt_elems(bound))
    return WittSpace(points, dist)


def _same_space_reports(space: WittSpace) -> None:
    got = space.validate()
    want = validate_space_by_partitions(space)
    assert got.to_json() == want.to_json()
    assert got.violations == want.violations
    axioms = [v for v in want.violations if v.kind != "hom"]
    assert next(space.axiom_violations(), None) == (axioms[0] if axioms else None)


@settings(max_examples=40)
@given(witt_spaces())
def test_space_report_matches_partition_route(space):
    _same_space_reports(space)


@settings(max_examples=3)
@given(witt_spaces(bounds=st.just(8), sizes=st.sampled_from(range(1, 4))))
def test_space_report_matches_partition_route_at_degree_eight(space):
    _same_space_reports(space)


def test_space_broken_at_several_triples():
    points = ("a", "b", "c")
    space = random_point_eval_space(random.Random(5), points, 4)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    dist["a", "c"] = from_points([LValue(30), LValue(31)], 4)
    dist["b", "a"] = from_points([LValue(20)], 4)
    broken = WittSpace(points, dist)
    composition = [v for v in broken.validate().violations if v.kind == "composition"]
    assert len({v.witness[:3] for v in composition}) >= 3
    _same_space_reports(broken)


def coproduct_groups(lam: Partition) -> list[tuple[Partition, list[Partition]]]:
    """The support of Δ×(m_λ), grouped by the left factor."""
    groups: dict[Partition, list[Partition]] = {}
    for mu, nu in coproduct_mult(monomial(lam, lam.size)).support():
        groups.setdefault(mu, []).append(nu)
    return list(groups.items())


def test_space_broken_in_different_size_runs():
    # the product at the row (4) has one coproduct group, whose right set
    # is {(4)}; at (1,1,1,1) the failing groups have right sets of several
    # sizes, so the two raised entries fail in different runs of the
    # segment-min table
    points = ("a", "b", "c", "d", "e")
    space = random_point_eval_space(random.Random(11), points, 4)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    for pair, lam in ((("a", "e"), Partition([4])), (("b", "d"), Partition([1, 1, 1, 1]))):
        values = {mu: dist[pair].value(mu) for mu in partitions_up_to(4)}
        dist[pair] = WittElem(4, {**values, lam: LValue(10**6)})
    broken = WittSpace(points, dist)
    sizes = {}
    for v in broken.validate().violations:
        if v.kind == "composition":
            x, y, z, lam = v.witness
            cap = broken.dist(x, z).value(lam)
            sizes.setdefault(lam, set()).update(
                len(js)
                for mu, js in coproduct_groups(lam)
                if broken.dist(x, y).value(mu) + min(broken.dist(y, z).value(nu) for nu in js) < cap
            )
    assert sizes[Partition([4])] == {1}
    assert len(sizes[Partition([1, 1, 1, 1])]) > 1
    _same_space_reports(broken)


# -- WittElem.from_json against the Partition-keyed loader ---------------------------------

good_tokens = st.one_of(
    st.integers(0, 50),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 40), st.integers(1, 12)),
    st.sampled_from(["inf", "∞", "INF", "infinity", " 7/2 ", "1e3", "1.5", "5/10", "3"]),
)
odd_tokens = st.sampled_from(
    ["1_000", "1_0/3", "-1/2", "1/0", "x", "", -1, -3, 1.5, 0.0, True, False, None, [1], {"a": 1}]
)


@st.composite
def value_keys(draw, bound: int) -> str:
    size = draw(st.sampled_from([*range(1, bound + 1)] * 3 + [bound + 1, bound + 2]))
    lam = draw(st.sampled_from(partitions_of(size)))
    kind = draw(st.sampled_from(["canonical"] * 5 + ["permuted"] * 2 + ["bad"]))
    if kind == "canonical":
        return lam.key()
    if kind == "permuted":
        return ",".join(map(str, draw(st.permutations(lam.parts))))
    return draw(st.sampled_from(["", "a", "0", "-1", "1,,2", "1, 2", " 1", "01", "2,0", "1.0"]))


@st.composite
def elem_documents(draw) -> dict:
    """WittElem documents with canonical, permuted, duplicate, empty,
    oversized and bad keys, and good and bad value tokens."""
    bound = draw(st.integers(1, 6))
    tokens = st.one_of(good_tokens, good_tokens, good_tokens, odd_tokens)
    items = draw(st.lists(st.tuples(value_keys(bound), tokens), max_size=12))
    doc = {"degree_bound": bound, "values": dict(items)}
    bad_bound = draw(st.sampled_from([None] * 45 + [0, -1, True, "3", 2.0]))
    if bad_bound is not None:
        doc["degree_bound"] = bad_bound
    return doc


def _loaded(loader, data):
    try:
        f = loader(data)
    except Exception as exc:  # the kind and the message must agree
        return type(exc), str(exc)
    return f, f.to_json(), repr(f)


def _doc(values: dict, bound: int = 4) -> dict:
    return {"degree_bound": bound, "values": values}


@given(elem_documents())
@example(_doc({"2,1": "1", "1,2": "2/3", "3": 4}))
@example(_doc({"1,2": "1", "2,1": "2/3"}))
@example(_doc({"5": "1", "1": "bad", "6": 2}))
@example(_doc({"1": 1, "": "0"}))
@example(_doc({"1": "1_000"}))
@example(_doc({"1": 1.5, "2": True}))
@example(_doc({"1": -1}))
@example(_doc({"1": "inf", "2": "∞", "1,1": " 7/2 "}))
def test_from_json_matches_partition_keyed_loader(data):
    assert _loaded(WittElem.from_json, data) == _loaded(witt_from_json_by_partitions, data)


def _parsed(parse, s: str):
    try:
        return parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@given(st.text(alphabet="0123456789/+-.e ", max_size=12))
@example("007")
@example("+3")
@example("3/ 4")
@example("0/0")
@example("²")
@example("٣")
@example("4/06")
def test_parse_token_agrees_with_fraction(s):
    # digits and digits/digits take a path of their own; value or error
    # class must be Fraction's
    assert _parsed(_parse_token, s) == _parsed(Fraction, s)
