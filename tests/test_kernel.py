"""The dense min-plus kernel of ``WittElem`` and ``WittSpace`` against the
partition-keyed ``LValue`` route in ``tests/oracles.py``.

Elements mix denominators, ∞ entries and zeros; some are valid
homomorphisms (tropical point evaluation), some are corrupted at a few
partitions, and some are arbitrary value tables.  Values, equality, the
JSON form and every report (order, witnesses and detail text) must agree.
Entries with numerators up to 10³⁰ make packed fields wider than a
machine word.  The loader is checked against the Partition-keyed one,
also on unreduced fractions; the token reader itself is checked against
``Fraction`` in ``tests/test_quantale.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropwitt import witt
from tropwitt.enriched import (
    WittSpace,
    eval_slice,
    lambda_action,
    slice_complete,
    slice_table,
    tau_space,
)
from tropwitt.errors import DegreeOverflowError, FormatError
from tropwitt.generate import random_point_eval_space
from tropwitt.partitions import Partition, partitions_of, partitions_up_to
from tropwitt.quantale import INF, ZERO, LValue
from tropwitt.symfunc import SymFunc, _labels, complete, coproduct_mult, monomial, plethysm
from tropwitt.witt import (
    WittElem,
    _checks,
    _coproduct,
    _groups,
    _Packed,
    additive_unit,
    from_points,
    theta,
)

from oracles import (
    add_by_partitions,
    eval_by_partitions,
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


# numerators up to 10³⁰ over denominators up to 10⁹: the packed fields of
# such entries are wider than 8 bytes
huge_lvalues = st.builds(
    lambda p, q: LValue(Fraction(p, q)), st.integers(0, 10**30), st.integers(1, 10**9)
)


@st.composite
def witt_elems(draw, bound: int, lvalues=lvalues) -> WittElem:
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


def _with_value(f: WittElem, lam: Partition, v: LValue) -> WittElem:
    """f with its value at λ replaced by v."""
    values = {mu: f.value(mu) for mu in partitions_up_to(f.degree_bound)}
    return WittElem(f.degree_bound, {**values, lam: v})


def _same_rig_operations(pair: tuple[WittElem, WittElem]) -> None:
    f, g = pair
    _same(f.mul(g), mul_by_partitions(f, g))
    _same(f.add(g), add_by_partitions(f, g))
    assert f.leq(g) == leq_by_partitions(f, g)
    assert g.leq(f) == leq_by_partitions(g, f)


@given(elem_pairs())
def test_rig_operations_match_partition_route(pair):
    _same_rig_operations(pair)


@settings(max_examples=8)
@given(elem_pairs(bounds=st.just(8)))
def test_rig_operations_match_partition_route_at_degree_eight(pair):
    _same_rig_operations(pair)
    f, _ = pair
    assert f.validate().to_json() == validate_by_partitions(f).to_json()


@settings(max_examples=4)
@given(elem_pairs(bounds=st.sampled_from([10, 12])))
def test_rig_operations_match_partition_route_at_degrees_ten_and_twelve(pair):
    _same_rig_operations(pair)


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
def witt_spaces(
    draw,
    bounds=st.sampled_from(range(1, 7)),
    sizes=st.sampled_from(range(1, 6)),
    lvalues=lvalues,
):
    bound = draw(bounds)
    # listed in any order: hom reports follow the names, composition
    # reports the points' order
    points = tuple(draw(st.permutations(("a", "b", "c", "d", "e", "f", "g", "h")[: draw(sizes)])))
    space = random_point_eval_space(random.Random(draw(st.integers(0, 10**6))), points, bound)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    pairs = sorted(dist)
    # a point evaluation in place of an entry is still a homomorphism, but
    # usually breaks composition at several triples through that pair
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=4)):
        dist[pair] = from_points(draw(st.lists(lvalues, min_size=1, max_size=bound)), bound)
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        dist[pair] = draw(witt_elems(bound, lvalues))
    # an entry that is ∞ everywhere
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=1)):
        dist[pair] = additive_unit(bound)
    # value(1,1) = 0 in two or more entries: each then fails (1)·(1) unless
    # its value(1) is 0, and the names of two of them often order them
    # otherwise than the points do
    off = [(x, y) for x, y in pairs if x != y]
    if bound >= 2 and len(off) >= 2 and draw(st.booleans()):
        for pair in draw(st.lists(st.sampled_from(off), min_size=2, max_size=4, unique=True)):
            dist[pair] = _with_value(dist[pair], Partition([1, 1]), ZERO)
    return WittSpace(points, dist)


def _same_space_reports(space: WittSpace) -> None:
    got = space.validate()
    want = validate_space_by_partitions(space)
    assert got.to_json() == want.to_json()
    assert got.violations == want.violations
    pairs = [(x, y) for x in space.points for y in space.points]
    failing = [pair for pair in pairs if not validate_by_partitions(space.dist(*pair)).ok]
    assert space.failing_entries() == failing


@settings(max_examples=40)
@given(witt_spaces())
def test_space_report_matches_partition_route(space):
    _same_space_reports(space)


@settings(max_examples=3)
@given(witt_spaces(bounds=st.just(8), sizes=st.sampled_from(range(1, 4))))
def test_space_report_matches_partition_route_at_degree_eight(space):
    _same_space_reports(space)


@settings(max_examples=3)
@given(witt_spaces(bounds=st.just(10), sizes=st.sampled_from(range(1, 4))))
def test_space_report_matches_partition_route_at_degree_ten(space):
    _same_space_reports(space)


@settings(max_examples=12)
@given(witt_spaces(bounds=st.sampled_from([1, 2, 3]), sizes=st.sampled_from(range(1, 9))))
def test_space_report_matches_partition_route_with_up_to_eight_points(space):
    _same_space_reports(space)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_eight_point_space_with_broken_entries(bound):
    points = tuple("abcdefgh")
    space = random_point_eval_space(random.Random(bound), points, bound)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    dist["h", "a"] = from_points([LValue(40)] * bound, bound)
    dist["c", "h"] = additive_unit(bound)
    dist["h", "h"] = WittElem(bound, {Partition([1]): LValue(Fraction(1, 3))})
    _same_space_reports(WittSpace(points, dist))


@settings(max_examples=15)
@given(
    witt_spaces(
        bounds=st.sampled_from(range(1, 5)),
        sizes=st.sampled_from(range(1, 5)),
        lvalues=st.one_of(lvalues, huge_lvalues),
    )
)
def test_space_report_matches_partition_route_with_wide_fields(space):
    _same_space_reports(space)


@given(st.integers(1, 6).flatmap(lambda bound: witt_elems(bound, huge_lvalues)))
def test_validate_matches_partition_route_with_wide_fields(f):
    assert f.validate().to_json() == validate_by_partitions(f).to_json()


def test_wide_fields_are_wider_than_a_machine_word():
    f = from_points([LValue(Fraction(10**30 - 1, 10**9 - 7)), LValue(Fraction(1, 3))], 4)
    g = _with_value(f, Partition([2, 1]), ZERO)
    assert _Packed((f, g)).size > 8
    assert f.validate().violations == []
    assert g.validate().to_json() == validate_by_partitions(g).to_json()
    dist = {("a", "a"): theta(ZERO, 4), ("a", "b"): f, ("b", "a"): g, ("b", "b"): g}
    space = WittSpace(("a", "b"), dist)
    assert _Packed(list(space._dist.values())).size > 8
    _same_space_reports(space)


@pytest.mark.parametrize(
    "top, size",
    [(31, 1), (32, 2), (8191, 2), (8192, 3)]
    + [(2**21, 4), (2**29 - 1, 4), (2**53, 8), (2**61 - 1, 8), (2**61, 9)],
)
def test_fields_at_a_byte_boundary(top, size):
    # with integer values whose largest finite one is top, the ∞ mark is
    # 2·top + 1, and 2·∞ = 4·top + 2 lies just below or just above a whole
    # number of bytes less the guard bit; fields of 1, 2, 4 and 8 bytes are
    # cut from one array of every value, wider ones written value by value,
    # and both give the columns of the fieldwise route
    points = ("a", "b", "c")
    base = {(x, y): theta(LValue(0 if x == y else 1 + (x < y)), 3) for x in points for y in points}
    dist = dict(base)
    parts = [lam for lam in partitions_up_to(3) if not lam.is_empty()]
    dist["a", "b"] = WittElem(3, {lam: LValue(top - i) for i, lam in enumerate(parts)})
    dist["c", "a"] = _with_value(base["c", "a"], parts[-1], LValue(top))
    space = WittSpace(points, dist)
    packed = _Packed(list(space._dist.values()))
    assert packed.size == size
    fieldwise = [b"".join(v.to_bytes(size, "little") for v in col) for col in zip(*packed.lists)]
    assert packed.cols == fieldwise
    for entry in dist.values():
        assert entry.validate().to_json() == validate_by_partitions(entry).to_json()
    _same_space_reports(space)


def test_only_small_layout_masks_are_kept():
    # a mask of more than _MASK_BYTES is built anew each time, so the cache
    # stays within _MASKS masks of that size
    packed = _Packed([theta(ZERO, 2)])
    before = witt._tiled.cache_info()
    wide = packed.tiled(b"\x01", witt._MASK_BYTES + 1)
    assert wide == int.from_bytes(b"\x01" * (witt._MASK_BYTES + 1), "little")
    assert witt._tiled.cache_info()[:2] == before[:2]
    assert packed.tiled(b"\x80", 3) == 0x808080 == packed.tiled(b"\x80", 3)
    assert witt._tiled.cache_info().maxsize == witt._MASKS


def test_a_batch_past_the_packed_cap_is_refused(monkeypatch):
    # the cap counts positions × elements × field bytes: a batch at it is
    # checked, one a byte past it refused, by each of the three checks
    points = ("a", "b")
    space = WittSpace(points, {(x, y): theta(LValue(int(x != y)), 3) for x in points for y in points})
    entries, entry = list(space._dist.values()), space.dist("a", "b")
    for check, batch in ((space.validate, entries), (space.failing_entries, entries), (entry.validate, [entry])):
        monkeypatch.undo()
        packed = _Packed(batch)
        at = 6 * packed.count * packed.size  # six partitions of size 1 to 3
        monkeypatch.setattr(witt, "MAX_PACKED_BYTES", at)
        check()
        monkeypatch.setattr(witt, "MAX_PACKED_BYTES", at - 1)
        with pytest.raises(FormatError) as got:
            check()
        assert str(got.value) == (
            f"{packed.count} elements of 6 values in {packed.size}-byte fields "
            f"pack to {at} bytes, above the maximum {at - 1}"
        )


def test_violation_in_the_last_field_of_the_last_group():
    # in family order the last coproduct group at degree 4 is λ = (1,1,1,1)
    # with left factor (4) and right set {(1,1,1,1)}; d(b, a) is finite
    # only at (4) and d(a, b) only at (1,1,1,1), so the triple (b, a, b) is
    # broken by that group alone, in the last field (x, z) = (b, b)
    lam, mu, js = _coproduct(4)[_groups(4).order[-1]]
    last = Partition([1, 1, 1, 1])
    assert (_labels[lam], _labels[mu], [_labels[j] for j in js]) == (
        last,
        Partition([4]),
        [last],
    )
    rows = {Partition([n]): ZERO for n in range(1, 5)}
    dist = {
        ("a", "a"): WittElem(4, rows),
        ("a", "b"): WittElem(4, {last: ZERO}),
        ("b", "a"): WittElem(4, {Partition([4]): ZERO}),
        ("b", "b"): WittElem(4, {**rows, last: LValue(5)}),
    }
    space = WittSpace(("a", "b"), dist)
    witnesses = [v.witness for v in space.validate().violations if v.kind == "composition"]
    assert ("b", "a", "b", last) in witnesses
    _same_space_reports(space)


def test_hom_violation_in_the_last_check_of_the_last_entry():
    # lowering value(1,1) breaks the last check in family order, (1,1)·(2),
    # of the last entry only
    pairs, checks = _checks(4)
    assert tuple(_labels[p] for p in pairs[checks.order[-1]]) == (Partition([1, 1]), Partition([2]))
    points = ("a", "b")
    space = random_point_eval_space(random.Random(3), points, 4)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    dist["b", "b"] = _with_value(dist["b", "b"], Partition([1, 1]), ZERO)
    broken = WittSpace(points, dist)
    hom = [v.witness for v in broken.validate().violations if v.kind == "hom"]
    assert ("b", "b", Partition([1, 1]), Partition([2])) in hom
    assert {w[:2] for w in hom} == {("b", "b")}
    _same_space_reports(broken)


def test_hom_reports_follow_names_and_composition_reports_follow_points():
    # the entries (b, a) and (a, c) break the homomorphism check, and the
    # raised entry (c, b) breaks composition at triples with x = b, a and c
    points = ("b", "a", "c")
    space = random_point_eval_space(random.Random(6), points, 4)
    dist = {(x, y): space.dist(x, y) for x in points for y in points}
    for pair in (("b", "a"), ("a", "c")):
        dist[pair] = _with_value(dist[pair], Partition([1, 1]), ZERO)
    dist["c", "b"] = from_points([LValue(30), LValue(31)], 4)
    broken = WittSpace(points, dist)
    violations = broken.validate().violations
    hom = [v.witness[:2] for v in violations if v.kind == "hom"]
    assert hom[0] == ("a", "c") and hom[-1] == ("b", "a")
    triples = [v.witness[:3] for v in violations if v.kind == "composition"]
    assert triples == sorted(triples, key=lambda t: [points.index(p) for p in t])
    assert triples != sorted(triples)
    _same_space_reports(broken)


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


# -- evaluation against the partition route ------------------------------------------------


@st.composite
def sym_funcs(draw, bound: int, sizes=None) -> SymFunc:
    """Elements of degree bound ``bound`` on partitions whose sizes are drawn
    from sizes (every size up to the bound, ∅ included, by default); the
    zero element is drawn too."""
    sizes = range(bound + 1) if sizes is None else sizes
    parts = [lam for n in sizes for lam in partitions_of(n)]
    support = draw(st.lists(st.sampled_from(parts), max_size=5))
    return SymFunc({lam: draw(st.integers(1, 3)) for lam in support}, bound)


def _entrywise(space: WittSpace, f: SymFunc) -> dict:
    return {pair: eval_by_partitions(space.dist(*pair), f) for pair in space._dist}


@settings(max_examples=40)
@given(st.data())
def test_batched_evaluation_matches_partition_route(data):
    space = data.draw(witt_spaces())
    bound = space.degree_bound
    f = data.draw(sym_funcs(bound))
    want = _entrywise(space, f)
    assert eval_slice(space, f) == want
    assert {pair: space.dist(*pair).eval(f) for pair in space._dist} == want
    n = data.draw(st.integers(1, bound))
    assert slice_complete(space, n) == _entrywise(space, complete(n, bound))
    assert tau_space(space).table() == _entrywise(space, monomial(Partition([1]), bound))
    # an outer g of degree ≤ a after an inner h of degree ≤ b, with a·b ≤ N
    a = data.draw(st.integers(0, bound))
    b = bound // a if a else bound
    g = data.draw(sym_funcs(bound, range(a + 1)))
    h = data.draw(sym_funcs(bound, range(1, b + 1)))
    assert lambda_action(space, g, h) == _entrywise(space, plethysm(g, h))


@given(witt_spaces(), st.data())
def test_evaluation_above_the_bound_is_refused_alike(space, data):
    bound = space.degree_bound
    over = data.draw(sym_funcs(bound + 1)) + monomial(Partition([bound + 1]), bound + 1)
    entry = space.dist(*data.draw(st.sampled_from(sorted(space._dist))))
    with pytest.raises(DegreeOverflowError) as want:
        eval_by_partitions(entry, over)
    with pytest.raises(DegreeOverflowError) as got:
        entry.eval(over)
    assert str(got.value) == str(want.value)
    with pytest.raises(DegreeOverflowError) as got:
        eval_slice(space, over)
    assert str(got.value) == str(want.value)


def test_evaluation_at_the_empty_partition_and_at_zero():
    space = WittSpace(("a", "b"), {
        ("a", "a"): theta(ZERO, 3),
        ("a", "b"): additive_unit(3),
        ("b", "a"): theta(LValue(2), 3),
        ("b", "b"): theta(ZERO, 3),
    })
    for f in (SymFunc.zero(3), SymFunc.one(3), monomial(Partition([2, 1]), 3) + SymFunc.one(3)):
        assert eval_slice(space, f) == _entrywise(space, f)
    assert set(eval_slice(space, SymFunc.zero(3)).values()) == {INF}
    assert set(eval_slice(space, SymFunc.one(3)).values()) == {ZERO}


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
@example(_doc({"1": "9" * 1001}))
@example(_doc({"1": "1"}, 13))
@example(_doc({}, 10**100))
def test_from_json_matches_partition_keyed_loader(data):
    assert _loaded(WittElem.from_json, data) == _loaded(witt_from_json_by_partitions, data)


def space_from_json_by_partitions(data) -> WittSpace:
    """``WittSpace.from_json`` with every entry through the Partition-keyed
    loader, one token at a time."""
    raw = data["dist"]
    dist = {tuple(key.split("|")): witt_from_json_by_partitions(v) for key, v in raw.items()}
    try:
        return WittSpace(data["points"], dist)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc


# tokens that miss the ASCII fast path, and ones that repeat across entries
slow_tokens = st.sampled_from([" inf ", "∞", "1e995", "infinity", " 7/2 ", "1.5"])


@st.composite
def space_documents(draw) -> dict:
    """Documents of spaces whose entries have some value tokens replaced,
    good, slow or bad, the same token often in several entries."""
    space = draw(witt_spaces(bounds=st.integers(1, 4), sizes=st.integers(1, 3)))
    doc = space.to_json()
    tokens = st.one_of(good_tokens, slow_tokens, slow_tokens, odd_tokens)
    token = draw(tokens)
    for key in draw(st.lists(st.sampled_from(sorted(doc["dist"])), max_size=5)):
        values = doc["dist"][key]["values"]
        values[draw(st.sampled_from(sorted(values)))] = draw(st.one_of(st.just(token), tokens))
    return doc


def _space_doc(entries: dict, bound: int = 3) -> dict:
    """A two-point space document whose entries start with the given
    values, the rest filled in from θ(1)."""
    fill = theta(LValue(1), bound).to_json()["values"]
    dist = {}
    for x in "ab":
        for y in "ab":
            values = dict(entries.get((x, y), {}))
            values.update((k, v) for k, v in fill.items() if k not in values)
            dist[f"{x}|{y}"] = _doc(values, bound)
    return {"points": ["a", "b"], "dist": dist}


@given(space_documents())
@example(_space_doc({("a", "a"): {"1": " inf "}, ("a", "b"): {"2": "∞"}, ("b", "a"): {"2": "1e995"}}))
@example(_space_doc({("a", "b"): {"2": "x"}, ("b", "a"): {"2": "x"}}))
@example(_space_doc({("a", "a"): {"1": "1"}, ("a", "b"): {"1": True}}))
@example(_space_doc({("a", "a"): {"1": 1}, ("a", "b"): {"1": "1"}, ("b", "a"): {"1": 1.0}}))
@example(_space_doc({("a", "a"): {"1": 1}, ("b", "a"): {"1": True}}))
@example(_space_doc({("a", "b"): {"4": "1", "1": "bad"}}))
@example(_space_doc({("a", "a"): {"1": "bad"}, ("b", "b"): {"4": "1", "1": "bad"}}))
def test_space_from_json_matches_the_entrywise_loader(data):
    # values, errors and their order must be those of the entrywise
    # loader, for repeated, slow-path and bad tokens alike
    assert _loaded(WittSpace.from_json, data) == _loaded(space_from_json_by_partitions, data)


@pytest.mark.parametrize("key", ["5", "4,1", "1,4"])
def test_partitions_above_the_bound_once_a_larger_bound_is_indexed(key):
    # the basis is shared: with bound 12 built, the index also knows the
    # partitions of 5, so each reader must compare with the prefix of bound 4
    additive_unit(12)
    above = Partition.from_key(key)
    data = _doc({"1": "1", key: "2"})
    with pytest.raises(FormatError) as refused:
        WittElem.from_json(data)
    assert str(refused.value) == f"partition {above} exceeds degree bound 4"
    assert _loaded(WittElem.from_json, data) == _loaded(witt_from_json_by_partitions, data)
    f = theta(LValue(1), 4)
    with pytest.raises(DegreeOverflowError):
        f.value(above)
    with pytest.raises(DegreeOverflowError):
        slice_table(WittSpace(("a",), {("a", "a"): f}), above)


unreduced_tokens = st.one_of(
    st.builds(
        lambda p, q, c: f"{p * c}/{q * c}",
        st.integers(0, 40),
        st.integers(1, 12),
        st.integers(1, 30),
    ),
    st.builds(
        lambda p, q, a, b: f"{'0' * a}{p}/{'0' * b}{q}",
        st.integers(0, 40),
        st.integers(1, 12),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.builds(lambda p, a: "0" * a + str(p), st.integers(0, 10**20), st.integers(0, 3)),
    st.sampled_from(["4/6", "0/5", "007/014", "3/0", "0/0", "00", "inf", "2/4 ", "+4/6"]),
)


@st.composite
def unreduced_documents(draw) -> dict:
    bound = draw(st.integers(1, 5))
    keys = [lam.key() for lam in partitions_up_to(bound) if not lam.is_empty()]
    return _doc(draw(st.dictionaries(st.sampled_from(keys), unreduced_tokens)), bound)


@given(unreduced_documents())
@example(_doc({"1": "4/6", "2": "0/5", "1,1": "007/014"}))
@example(_doc({"1": "4/6", "2": "3/0"}))
@example(_doc({"1": "0/5", "2": "0/7"}))
@example(_doc({"1": "6/4", "2": "10/15", "3": "14/21"}))
def test_from_json_reduces_unreduced_tokens(data):
    # ASCII tokens are read to integer pairs and reduced once per element;
    # the stored form must still be the canonical one
    assert _loaded(WittElem.from_json, data) == _loaded(witt_from_json_by_partitions, data)
