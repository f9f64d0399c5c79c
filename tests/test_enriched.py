import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropwitt.enriched import (
    MAX_POINTS,
    MetricSpace,
    WittSpace,
    eval_slice,
    lambda_action,
    slice_complete,
    slice_table,
    tau_space,
    theta_space,
)
from tropwitt.errors import DegreeOverflowError, FormatError
from tropwitt.generate import random_metric_space, random_point_eval_space
from tropwitt.partitions import Partition, partitions_of, partitions_up_to
from tropwitt.plancherel import observe, sample_path
from tropwitt.quantale import INF, ZERO, LValue
from tropwitt.symfunc import SymFunc, complete, monomial
from tropwitt.witt import WittElem, from_points, theta

from documents import loaded, near_miss_witt_space_documents
from test_kernel import witt_spaces

N = 6


def P(*parts):
    return Partition(parts)


def lv(x):
    return LValue(Fraction(x) if not isinstance(x, str) else x)


def two_point_space(d_ab=1, d_ba=1):
    return MetricSpace(
        ["a", "b"],
        {
            ("a", "a"): ZERO,
            ("b", "b"): ZERO,
            ("a", "b"): lv(d_ab),
            ("b", "a"): lv(d_ba),
        },
    )


def line_space():
    pts = ["x", "y", "z"]
    coords = {"x": 0, "y": 1, "z": 2}
    dist = {
        (a, b): lv(abs(coords[a] - coords[b])) for a in pts for b in pts
    }
    return MetricSpace(pts, dist)


# -- validators ----------------------------------------------------------------


def test_valid_two_point_space():
    assert two_point_space().validate().ok


def test_triangle_violation_reported_with_witness():
    pts = ["x", "y", "z"]
    dist = {(a, b): lv(1) for a in pts for b in pts if a != b}
    dist.update({(a, a): ZERO for a in pts})
    dist[("x", "z")] = lv(3)
    report = MetricSpace(pts, dist).validate()
    assert not report.ok
    assert any(v.witness == ("x", "y", "z") for v in report.violations)


def test_identity_violation_reported():
    dist = {("a", "a"): lv(1)}
    report = MetricSpace(["a"], dist).validate()
    assert not report.ok
    assert report.violations[0].kind == "identity"


def test_witt_space_composition_violation_detected():
    # distances too small on the composite leg
    good = theta(lv(5), N)
    bad = WittSpace(
        ["x", "y", "z"],
        {
            ("x", "x"): theta(ZERO, N),
            ("y", "y"): theta(ZERO, N),
            ("z", "z"): theta(ZERO, N),
            ("x", "y"): theta(lv(1), N),
            ("y", "x"): theta(lv(1), N),
            ("y", "z"): theta(lv(1), N),
            ("z", "y"): theta(lv(1), N),
            ("x", "z"): good,
            ("z", "x"): good,
        },
    )
    report = bad.validate()
    assert not report.ok
    assert any(v.kind == "composition" for v in report.violations)


# -- slices --------------------------------------------------------------------------


def test_theta_slices_scale_linearly():
    space = line_space()
    w = theta_space(space, N)
    for n in range(1, N + 1):
        table = slice_table(w, P(n))
        for x in space.points:
            for y in space.points:
                assert table[(x, y)] == n * space.dist(x, y)


def test_theta_slice_at_hook_is_all_infinite():
    w = theta_space(line_space(), N)
    table = slice_table(w, P(2, 1))
    assert all(v == INF for v in table.values())


def test_slice_at_one_is_tau():
    rng = random.Random(3)
    w = random_point_eval_space(rng, ("a", "b", "c"), N)
    assert slice_table(w, P(1)) == tau_space(w)._dist


def test_slice_at_empty_is_zero_and_above_the_bound_fails():
    w = random_point_eval_space(random.Random(4), ("a", "b"), N)
    assert slice_table(w, P()) == {(x, y): ZERO for x in w.points for y in w.points}
    with pytest.raises(DegreeOverflowError, match=rf"partition \({N + 1}\) exceeds degree bound"):
        slice_table(w, P(N + 1))


def test_complete_slice_is_min_over_size():
    rng = random.Random(5)
    w = random_point_eval_space(rng, ("a", "b", "c"), N)
    for n in range(1, N + 1):
        want = {
            (x, y): min(w.dist(x, y).value(lam) for lam in partitions_of(n))
            for x in w.points
            for y in w.points
        }
        assert slice_complete(w, n) == want
    # explicit n = 2 shape: pointwise min of the two slices
    d2, d11 = slice_table(w, P(2)), slice_table(w, P(1, 1))
    assert slice_complete(w, 2) == {k: min(d2[k], d11[k]) for k in d2}


def test_complete_slice_equals_row_slice_on_theta_images():
    w = theta_space(line_space(), N)
    for n in range(1, N + 1):
        assert slice_complete(w, n) == slice_table(w, P(n))


def test_composition_bound_through_comult_pairs():
    from tropwitt.symfunc import coproduct_mult

    rng = random.Random(17)
    w = random_point_eval_space(rng, ("a", "b", "c"), N)
    for lam in partitions_up_to(4):
        if lam.is_empty():
            continue
        pairs = [pair for pair, _ in coproduct_mult(monomial(lam, N)).items()]
        assert all(mu.size == lam.size and nu.size == lam.size for mu, nu in pairs)
        t = slice_table(w, lam)
        for x in w.points:
            for y in w.points:
                for z in w.points:
                    bound = min(
                        w.dist(x, y).value(mu) + w.dist(y, z).value(nu)
                        for mu, nu in pairs
                    )
                    assert t[(x, z)] <= bound


def test_lipschitz_identity_map():
    rng = random.Random(19)
    w = random_point_eval_space(rng, ("a", "b", "c"), N)
    d1 = slice_table(w, P(1))
    for n in range(1, N + 1):
        dn = slice_table(w, P(n))
        for pair in d1:
            assert dn[pair] <= n * d1[pair]


# -- eval_slice / argmin ------------------------------------------------------------------


def test_eval_slice_on_basis_and_complete():
    rng = random.Random(23)
    w = random_point_eval_space(rng, ("a", "b"), N)
    assert eval_slice(w, monomial(P(2, 1), N)) == slice_table(w, P(2, 1))
    assert eval_slice(w, complete(3, N)) == slice_complete(w, 3)


def test_eval_slice_of_sum_is_pointwise_min():
    rng = random.Random(29)
    w = random_point_eval_space(rng, ("a", "b", "c"), N)
    f, g = monomial(P(2), N), monomial(P(1, 1), N)
    fg = eval_slice(w, f + g)
    tf, tg = eval_slice(w, f), eval_slice(w, g)
    assert fg == {k: min(tf[k], tg[k]) for k in tf}


# -- functors -----------------------------------------------------------------------------


def test_round_trip_tau_theta():
    rng = random.Random(37)
    for _ in range(5):
        space = random_metric_space(rng, ("a", "b", "c", "d"))
        assert tau_space(theta_space(space, N)) == space


def test_theta_space_one_point():
    space = MetricSpace(["only"], {("only", "only"): ZERO})
    w = theta_space(space, N)
    assert w.dist("only", "only") == theta(ZERO, N)
    assert w.validate().ok


def test_tau_space_of_valid_space_is_valid():
    rng = random.Random(41)
    w = random_point_eval_space(rng, ("a", "b", "c"), N)
    assert tau_space(w).validate().ok


# -- the action on slice families -----------------------------------------------------------


def test_action_on_rows_multiplies_the_index():
    rng = random.Random(43)
    w = random_point_eval_space(rng, ("a", "b"), 8)
    for n in (1, 2):
        for np in (1, 2, 3):
            if n * np <= 8:
                got = lambda_action(w, monomial(P(np), 8), monomial(P(n), 8))
                assert got == slice_table(w, P(n * np))


def test_action_unit():
    rng = random.Random(47)
    w = random_point_eval_space(rng, ("a", "b"), N)
    f = complete(2, N)
    assert lambda_action(w, monomial(P(1), N), f) == eval_slice(w, f)


def test_action_additive_in_outer():
    rng = random.Random(53)
    w = random_point_eval_space(rng, ("a", "b"), 8)
    f = monomial(P(2), 8)
    g1, g2 = monomial(P(1), 8), monomial(P(2), 8)
    both = lambda_action(w, g1 + g2, f)
    t1 = lambda_action(w, g1, f)
    t2 = lambda_action(w, g2, f)
    assert both == {k: min(t1[k], t2[k]) for k in t1}


# -- serialization -----------------------------------------------------------------------------


def test_metric_space_json_round_trip():
    space = line_space()
    assert MetricSpace.from_json(space.to_json()) == space


def test_witt_space_json_round_trip():
    rng = random.Random(59)
    w = random_point_eval_space(rng, ("a", "b"), 4)
    assert WittSpace.from_json(w.to_json()) == w
    # the document's own degree_bound may be left out
    doc = w.to_json()
    del doc["degree_bound"]
    assert WittSpace.from_json(doc) == w
    # a metric space never equals a Witt space, in either order
    assert tau_space(w) != w and w != tau_space(w)


def test_space_json_errors():
    with pytest.raises(FormatError):
        MetricSpace.from_json({"points": ["a"]})
    with pytest.raises(FormatError):
        MetricSpace.from_json({"points": ["a"], "dist": {"a": "0"}})
    with pytest.raises(FormatError):
        MetricSpace.from_json({"points": ["a", "b"], "dist": {"a|a": "0"}})
    with pytest.raises(FormatError):  # an unhashable point name
        MetricSpace.from_json({"points": [["a"]], "dist": {"a|a": "0"}})


@pytest.mark.parametrize("cls", [MetricSpace, WittSpace])
def test_loaders_refuse_more_points_than_the_maximum(cls, monkeypatch):
    # before any entry is read: validation multiplies entries over every
    # triple of points
    entry = "1" if cls is MetricSpace else theta(ZERO, 2).to_json()

    def doc(k):
        names = [f"p{i}" for i in range(k)]
        return {"points": names, "dist": {f"{x}|{y}": entry for x in names for y in names}}

    def read(value, memo):
        raise AssertionError(f"read the entry {value!r}")

    monkeypatch.setattr(cls, "_read", staticmethod(read))
    with pytest.raises(FormatError) as got:
        cls.from_json(doc(MAX_POINTS + 1))
    assert str(got.value) == f"{MAX_POINTS + 1} points exceed the maximum {MAX_POINTS}"
    monkeypatch.undo()
    assert len(cls.from_json(doc(MAX_POINTS)).points) == MAX_POINTS


_E3 = theta(ZERO, 3)


@pytest.mark.parametrize(
    "cls, points, dist, error, text, json_text, top",
    [
        (MetricSpace, ["a", "b"], {("a", "a"): ZERO, ("a", "b"): ZERO, ("b", "b"): ZERO},
         ValueError, "missing distance for pair (b, a)", None, {}),
        (WittSpace, ["a", "b"], {("a", "a"): _E3, ("a", "b"): _E3, ("b", "b"): _E3},
         ValueError, "missing distance for pair (b, a)", None, {}),
        (MetricSpace, ["a|b"], {}, ValueError, "bad point name 'a|b' (strings without '|')", None, {}),
        (WittSpace, ["a|b"], {}, ValueError, "bad point name 'a|b' (strings without '|')", None, {}),
        (MetricSpace, [], {}, ValueError, "a space needs at least one point", None, {}),
        (WittSpace, [], {}, ValueError, "a space needs at least one point", None, {}),
        # an entry of the other kind: the JSON loader of the entry reports it
        (MetricSpace, ["a"], {("a", "a"): _E3}, TypeError, "distance for (a, a) must be an LValue",
         f"LValue must be an integer or string, got {_E3.to_json()!r}", {}),
        (WittSpace, ["a"], {("a", "a"): ZERO}, TypeError, "distance for (a, a) must be a WittElem",
         "WittElem JSON needs 'degree_bound' and 'values'", {}),
        (WittSpace, ["a", "b"],
         {("a", "a"): _E3, ("a", "b"): theta(ZERO, 4), ("b", "a"): _E3, ("b", "b"): _E3},
         ValueError, "entries disagree on degree bound: [3, 4]", None, {}),
        # a Witt space's own degree_bound is optional, but must be the
        # entries' as an int; the constructor takes none, so it accepts
        (WittSpace, ["a"], {("a", "a"): _E3}, None, None,
         "degree_bound 99 does not match the entries' bound 3", {"degree_bound": 99}),
        (WittSpace, ["a"], {("a", "a"): _E3}, None, None,
         "degree_bound 'x' does not match the entries' bound 3", {"degree_bound": "x"}),
        (WittSpace, ["a"], {("a", "a"): _E3}, None, None,
         "degree_bound True does not match the entries' bound 3", {"degree_bound": True}),
        (WittSpace, ["a"], {("a", "a"): _E3}, None, None,
         "degree_bound 3.0 does not match the entries' bound 3", {"degree_bound": 3.0}),
    ],
)
def test_constructor_and_loader_errors(cls, points, dist, error, text, json_text, top):
    # the constructor raises a ValueError or TypeError, and from_json the
    # FormatError of the same text, or of the entry loader's; top holds the
    # document's keys besides points and dist
    if error is None:
        cls(points, dist)
    else:
        with pytest.raises(error) as got:
            cls(points, dist)
        assert str(got.value) == text
    doc = {**top, "points": points, "dist": {f"{x}|{y}": v.to_json() for (x, y), v in dist.items()}}
    with pytest.raises(FormatError) as got:
        cls.from_json(doc)
    assert str(got.value) == (json_text or text)


def test_a_value_table_is_no_element():
    # a table becomes an element only through WittElem.from_json or a generator
    with pytest.raises(TypeError) as got:
        WittElem(4, {})
    assert str(got.value) == "WittElem() takes no arguments"


@pytest.mark.parametrize("entry", [0, "0", Fraction(0), None], ids=["int", "str", "fraction", "none"])
def test_a_metric_entry_must_be_a_built_lvalue(entry):
    # nothing is coerced: a value enters through LValue or the loaders
    with pytest.raises(TypeError) as got:
        MetricSpace(["a"], {("a", "a"): entry})
    assert str(got.value) == "distance for (a, a) must be an LValue"


@given(near_miss_witt_space_documents())
@example({"degree_bound": 10**5000, "points": ["a"], "dist": {"a|a": theta(ZERO, 1).to_json()}})
@example({"points": ["a"], "dist": {"a|a": {"degree_bound": 10**5000, "values": {}}}})
@example({"points": ["a"], "dist": {"a|a": {"degree_bound": 1, "values": {"1": -(10**5000)}}}})
def test_witt_space_loader_on_near_miss_documents(doc):
    got = loaded(WittSpace.from_json, doc)
    assert got is FormatError or WittSpace.from_json(got.to_json()) == got
    if got is not FormatError:  # the document names each pair, and no other key
        assert set(doc["dist"]) == {f"{x}|{y}" for x in got.points for y in got.points}


@pytest.mark.parametrize("cls, entry", [(MetricSpace, "1"), (WittSpace, theta(lv(1), 2).to_json())])
@pytest.mark.parametrize("extra", ["a|c", "c|a", "a|a ", "b|zz"])
def test_loaders_refuse_a_key_that_is_no_pair_of_the_points(cls, entry, extra):
    # refused before any entry is read: the extra entry itself is malformed
    dist = {f"{x}|{y}": entry for x in "ab" for y in "ab"}
    for doc in ({**dist, extra: entry}, {extra: "x", **dist}, {extra: {"degree_bound": 5}, **dist}):
        with pytest.raises(FormatError) as got:
            cls.from_json({"points": ["a", "b"], "dist": doc})
        assert str(got.value) == f"distance key {extra!r} is not a pair of the points"


@pytest.mark.parametrize(
    "load, data, text",
    [
        (WittElem.from_json, {"degree_bound": 2, "values": {1: "0"}}, "bad partition key 1"),
        (WittElem.from_json, {"degree_bound": 2, "values": {10**5000: "0"}},
         "bad partition key <integer of more than 1000 digits>"),
        (SymFunc.from_json, {"degree_bound": 2, "coeffs": {1: 1}}, "bad partition key 1"),
        (SymFunc.from_json, {"degree_bound": 2, "coeffs": {10**5000: "x"}},
         "bad coefficient 'x' for key <integer of more than 1000 digits>"),
        (WittSpace.from_json, {"points": ["a"], "dist": {1: theta(ZERO, 1).to_json()}},
         "distance key must be 'x|y', got 1"),
        (WittSpace.from_json, {"points": ["a"], "dist": {10**5000: theta(ZERO, 1).to_json()}},
         "distance key must be 'x|y', got <integer of more than 1000 digits>"),
        (MetricSpace.from_json, {"points": ["a"], "dist": {(1, 2): "0"}},
         "distance key must be 'x|y', got (1, 2)"),
        (MetricSpace.from_json, {"points": ["a"], "dist": {10**5000: "0"}},
         "distance key must be 'x|y', got <integer of more than 1000 digits>"),
        (Partition.from_key, 12, "bad partition key 12"),
        (Partition.from_key, 10**5000, "bad partition key <integer of more than 1000 digits>"),
    ],
    ids=["witt-elem", "witt-elem-long", "sym", "sym-long", "witt-space", "witt-space-long",
         "metric", "metric-long", "key", "key-long"],
)
def test_loaders_refuse_a_key_that_is_not_a_string(load, data, text):
    # JSON text has only string keys, but a library caller's dict may not
    with pytest.raises(FormatError) as got:
        load(data)
    assert str(got.value) == text


@settings(max_examples=40)
@given(witt_spaces())
def test_space_loader_reads_each_entry_as_the_element_loader_does(space):
    # the space loader reads each string token once per document; each of
    # its entries is the element that a load of that entry alone gives
    doc = space.to_json()
    got = WittSpace.from_json(doc)
    assert got == space
    for key, entry in doc["dist"].items():
        assert got.dist(*key.split("|")) == WittElem.from_json(entry)


# one value spelled several ways, tokens that only Fraction reads among
# them, the int 1 and what equals it as a dict key, and bad tokens
_SPELLINGS = [
    "3/2", "6/4", " 3/2", "3/2 ", "1.5", "15e-1",
    "7", "007", 7, "14/2", "0", 0, "000", "0/5",
    "inf", " inf", "∞", "Infinity", 1, "1", True, 1.0,
    "-1", "x", "1/0", -1, None,
]


def _read(load, data):
    """load(data), or the text of the FormatError that it raises."""
    try:
        return load(data)
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def shared_token_documents(draw):
    """A Witt-space document whose entries draw their values from a few
    spellings of a few tokens, so that tokens repeat within an entry and
    across entries."""
    bound = draw(st.integers(1, 4))
    points = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    keys = [lam.key() for lam in partitions_up_to(bound) if not lam.is_empty()]
    values = st.dictionaries(st.sampled_from(keys), st.sampled_from(_SPELLINGS), max_size=len(keys))
    dist = {f"{x}|{y}": {"degree_bound": bound, "values": draw(values)} for x in points for y in points}
    return {"points": points, "dist": dist}


def _doc(*entries):
    """A space on the points a and b whose entries, in order, have these values."""
    keys = ["a|a", "a|b", "b|a", "b|b"]
    return {"points": ["a", "b"], "dist": {k: {"degree_bound": 2, "values": v} for k, v in zip(keys, entries)}}


@settings(max_examples=200)
@given(shared_token_documents())
@example(_doc({"1": "3/2", "2": "6/4"}, {"1": " 3/2", "1,1": "007"}, {"1": "6/4", "2": 7}, {"2": "007"}))
@example(_doc({"1": 1}, {"1": True}, {}, {}))
@example(_doc({"1": 1}, {"1": 1.0}, {}, {}))
@example(_doc({"1": "3/2"}, {"1": "3/2", "2": "x"}, {"1": "x"}, {}))
def test_space_loader_reads_shared_tokens_as_entry_by_entry(doc):
    # the same values, or the same first FormatError text, as loading the
    # entries one at a time, each with nothing remembered from another
    dist = {}
    for key, entry in doc["dist"].items():
        elem = _read(WittElem.from_json, entry)
        if isinstance(elem, str):
            want = elem
            break
        dist[tuple(key.split("|"))] = elem
    else:
        want = WittSpace(doc["points"], dist)
    assert _read(WittSpace.from_json, doc) == want


def test_point_names_cannot_contain_separator():
    with pytest.raises(ValueError):
        MetricSpace(["a|b"], {("a|b", "a|b"): ZERO})


def test_entries_must_share_degree_bound():
    with pytest.raises(ValueError):
        WittSpace(
            ["a", "b"],
            {
                ("a", "a"): theta(ZERO, 4),
                ("a", "b"): theta(lv(1), 5),
                ("b", "a"): theta(lv(1), 4),
                ("b", "b"): theta(ZERO, 4),
            },
        )


def test_slices_functors_and_loading_build_no_fraction(monkeypatch):
    # exact values travel as integer pairs: with Fraction unusable, every
    # slice, both functors, the metric check, an observation and a load of a
    # generated degree-6 space still run, and agree with the values before
    space = random_point_eval_space(random.Random(17), ("a", "b", "c", "d"), N)
    doc = space.to_json()
    h3 = complete(3, N)
    path = sample_path(N, 3)  # the growth chain's own probabilities are Fractions
    before = [slice_table(space, lam) for lam in partitions_up_to(N)]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert [slice_table(space, lam) for lam in partitions_up_to(N)] == before
    assert eval_slice(space, h3) == slice_complete(space, 3)
    metric = tau_space(space)
    assert metric.validate().ok
    assert tau_space(theta_space(metric, N)) == metric
    assert [step.table for step in observe(space, path)] == [
        slice_table(space, lam) for lam in path.steps
    ]
    assert WittSpace.from_json(doc) == space
