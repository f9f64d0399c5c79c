"""Near-miss JSON inputs for the loaders: valid tokens and documents with
a few faults drawn in, and now and then the wrong shape.

Every loader must give a ``FormatError`` or a value on each of them;
``loaded`` turns the one into its class and lets any other exception fail
the test.  Degree bounds stay at 6 or below, but for the bounds 13 and
10**100 that the loaders refuse before indexing, and spaces at four points
or fewer, so that a property test stays fast.  Integers past Python's
4,300 digits for int-to-str conversion appear among the tokens and the
wrong values, so that every error text is checked to name them.
"""

from fractions import Fraction

from hypothesis import strategies as st

from tropwitt.errors import FormatError
from tropwitt.partitions import partitions_up_to
from tropwitt.plancherel import sample_path
from tropwitt.quantale import ZERO
from tropwitt.witt import from_points, theta

_SIGNS = st.sampled_from(["", "+", "-", " ", "-0"])
_SEPARATORS = st.sampled_from(["", "/", ".", "e", "E-", "e+", "/-", " / ", "_", "//"])
_DIGITS = st.text("0123456789", min_size=0, max_size=4)
_NEAR_LIMIT = st.sampled_from([998, 999, 1000, 1001])

# the string tokens, drawn without a filter: a filter that rejects a draw
# from a strategy names that strategy by its repr, which fails on the
# integers past 4300 digits below
near_miss_text_tokens = st.one_of(
    st.sampled_from(
        [
            "", " ", "/", "1/", "/2", "1/0", "0/0", "-0", "-0/1", "+0", "-1", "-1/2", " 3 ",
            "\t3/4\n", "1 /2", "007/014", "inf", "INF", " Infinity ", "∞", "-inf", "+inf",
            "infinite", "inf/1", "nan", "1e3", "1E-2", "-1e-2", "1e+2", "1.5", ".5", "5.",
            "1_000", "1_0/3", "0x10", "٣", "²", "1/2/3", "--1", "1e", "e3", "1.5/2",
        ]
    ),
    st.builds("{}{}{}{}".format, _SIGNS, _DIGITS, _SEPARATORS, _DIGITS),
    # digit counts just under and over the limit of 1000
    _NEAR_LIMIT.map(lambda n: "9" * n),
    _NEAR_LIMIT.map(lambda n: "1/" + "7" * (n - 2)),
    _NEAR_LIMIT.map(lambda n: "-" + "0" * (n - 1)),
    # exponents whose size takes the token to the limit and just past it
    st.builds("{}e{}{}".format, st.sampled_from(["1", "2.5", "-0", "+3"]),
              st.sampled_from(["", "+", "-"]), st.integers(990, 999)),
)
near_miss_tokens = st.one_of(
    near_miss_text_tokens,
    st.sampled_from([0, 2, -1, 10**1000 - 1, 10**1000, -(10**1000), 10**5000, -(10**5000)]),
    st.integers(0, 10**300),
    st.booleans(),
    st.floats(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)

# what a JSON document may hold where an int or a list belongs
_WRONG = st.sampled_from(
    [True, False, 0, -1, 1.5, 2.0, "2", None, [1], {}, 10**5000, -(10**5000)]
)
# a field that no loader reads, some holding a value past a limit
_JUNK = st.one_of(
    _WRONG,
    st.sampled_from(
        [{"degree_bound": 13}, {"degree_bound": 10**100}, [{"points": list("abcdefghi")}]]
    ),
)


def loaded(load, data):
    """load(data), or FormatError when it raises one; any other exception
    propagates and fails the test."""
    try:
        return load(data)
    except FormatError:
        return FormatError


def _shapes(draw, doc: dict, *broken):
    """doc itself, most of the time, or the wrong shape: doc in a list, or
    one of ``broken``."""
    return draw(st.sampled_from([doc] * 12 + [[doc], *broken]))


@st.composite
def near_miss_metric_documents(draw):
    """A metric-space document on up to three points, with none, one or two
    faults among a bad value, a bad or repeated point name, a missing pair
    and a bad or extra key, and now and then the wrong shape."""
    points = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    values = st.sampled_from(["0", "1", "3/2", "6/4", "inf", 2, "0.5"])
    dist = {f"{x}|{y}": draw(values) for x in points for y in points}
    for fault in draw(st.lists(st.sampled_from(["value", "point", "missing", "key"]), max_size=2)):
        if fault == "value" and dist:
            dist[draw(st.sampled_from(sorted(dist)))] = draw(near_miss_tokens)
        elif fault == "point":
            points.append(draw(st.sampled_from([points[0], "x|y", "", 1, True, None, ["a"]])))
        elif fault == "missing" and dist:
            del dist[draw(st.sampled_from(sorted(dist)))]
        elif fault == "key":
            # "z|a", "a|z" and "a|a " name no pair of the points
            keys = ["ab", "a|b|c", "|a", "a|", "z|a", "a|z", "a|a "]
            dist[draw(st.sampled_from(keys))] = draw(values)
    doc = {"points": points, "dist": dist}
    return _shapes(draw, doc, {"points": points}, {"dist": dist}, {**doc, "dist": list(dist)},
                   {**doc, "points": "ab"})

# degree bounds above MAX_DEGREE, which the loaders refuse before indexing
_ABOVE_MAX = st.sampled_from([13, 10**100])
_SMALL = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))


@st.composite
def near_miss_elem_documents(draw, bound=None):
    """A WittElem document of degree bound ``bound`` (drawn when None): a
    point evaluation at up to three small values, with none, one or two
    faults among a bad value, a bad, oversized or repeated key, a wrong or
    huge degree bound and a missing or extra key, and now and then the wrong
    shape."""
    if bound is None:
        bound = draw(st.integers(1, 6))
    doc = from_points(draw(st.lists(_SMALL, min_size=1, max_size=3)), bound).to_json()
    values = doc["values"]
    faults = ["value", "key", "bound", "missing", "extra"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if fault == "value":
            values[draw(st.sampled_from(sorted(values)))] = draw(near_miss_tokens)
        elif fault == "key":
            # "1,2" renames "2,1", which is present; a size above the bound
            # is refused, and so is a part that is not a positive integer in
            # ASCII digits
            keys = ["", "0", "2,0", "x", " 1", "1,2", "1,", "-1", str(bound + 1)]
            values[draw(st.sampled_from(keys))] = draw(st.sampled_from(["0", "2", "inf", 1]))
        elif fault == "bound":
            doc["degree_bound"] = draw(st.one_of(_WRONG, st.integers(1, 6), _ABOVE_MAX))
        elif fault == "missing" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif fault == "extra":
            doc["extra"] = draw(_JUNK)
    return _shapes(draw, doc, {**doc, "values": list(values)}, "x")


@st.composite
def near_miss_sym_documents(draw):
    """A SymFunc document of degree bound at most 6 with up to four small
    terms, with none, one or two faults among a bad or oversized key, a bad
    coefficient, a wrong or huge degree bound, a missing key and a junk
    field, and now and then the wrong shape."""
    bound = draw(st.integers(0, 6))
    keys = st.sampled_from([lam.key() for lam in partitions_up_to(bound)])
    coeffs = draw(st.dictionaries(keys, st.integers(0, 3), max_size=4))
    doc = {"degree_bound": bound, "coeffs": coeffs}
    faults = ["key", "coefficient", "bound", "missing", "extra"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if fault == "key":
            bad = ["0", "2,0", "x", " 1", "1,2", "1,", "-1", "1|1", str(bound + 1)]
            coeffs[draw(st.sampled_from(bad))] = draw(st.integers(0, 3))
        elif fault == "coefficient" and coeffs:
            coeffs[draw(st.sampled_from(sorted(coeffs)))] = draw(_WRONG)
        elif fault == "bound":
            doc["degree_bound"] = draw(st.one_of(_WRONG, st.integers(0, 6), _ABOVE_MAX))
        elif fault == "missing" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif fault == "extra":
            doc["extra"] = draw(_JUNK)
    return _shapes(draw, doc, {**doc, "coeffs": list(coeffs)}, "x")


@st.composite
def near_miss_witt_space_documents(draw):
    """A Witt-space document on up to four points at a degree bound of at
    most 6, θ of a small value on each pair and of 0 on the diagonal, with
    none, one or two faults among a faulty entry, a bad, repeated or extra
    point, a missing pair, a bad or extra key and a wrong degree bound, and
    now and then the wrong shape."""
    bound = draw(st.integers(1, 6))
    points = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    dist = {
        f"{x}|{y}": theta(ZERO if x == y else draw(_SMALL), bound).to_json()
        for x in points
        for y in points
    }
    doc = {"points": points, "dist": dist}
    faults = ["entry", "point", "missing", "key", "bound"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if fault == "entry" and dist:
            dist[draw(st.sampled_from(sorted(dist)))] = draw(near_miss_elem_documents(bound))
        elif fault == "point":
            points.append(draw(st.sampled_from([points[0], "e", "x|y", 1, True, None, ["a"]])))
        elif fault == "missing" and dist:
            del dist[draw(st.sampled_from(sorted(dist)))]
        elif fault == "key":
            # "z|a" and "a|z" name no pair of the points
            keys = ["ab", "a|b|c", "|a", "z|a", "a|z"]
            dist[draw(st.sampled_from(keys))] = theta(ZERO, bound).to_json()
        elif fault == "bound":
            doc["degree_bound"] = draw(st.one_of(_WRONG, st.integers(1, 6)))
    return _shapes(draw, doc, {"points": points}, {**doc, "dist": list(dist)},
                   {**doc, "dist": {k: "0" for k in dist}})


near_miss_partitions = st.one_of(
    st.lists(st.one_of(st.integers(1, 5), _WRONG, st.just(10**100)), max_size=4),
    st.sampled_from(["2,1", {}, 2, None]),
)

_PART_TEXTS = st.one_of(
    st.integers(1, 9).map(str),
    st.sampled_from(["", "0", "-1", "+1", " 1", "1 ", "1_0", "٣", "²", "1e3", "x", "1.0"]),
    st.sampled_from([str(10**100), "9" * 5000]),
)
near_miss_keys = st.builds(",".join, st.lists(_PART_TEXTS, max_size=4))


@st.composite
def near_miss_growth_documents(draw):
    """A growth-path document of up to six steps, with none, one or two
    faults among a bad step, a step dropped, two steps swapped, a step
    appended that need not cover the last shape, a bad seed and a missing
    key, and now and then the wrong shape."""
    path = sample_path(draw(st.integers(1, 6)), draw(st.integers(0, 9)))
    doc = path.to_json()
    steps = doc["steps"]
    faults = ["step", "drop", "swap", "append", "seed", "missing"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        i = draw(st.integers(0, max(len(steps) - 1, 0)))
        if fault == "step" and steps:
            steps[i] = draw(near_miss_partitions)
        elif fault == "drop" and steps:
            del steps[i]
        elif fault == "swap" and i + 1 < len(steps):
            steps[i], steps[i + 1] = steps[i + 1], steps[i]
        elif fault == "append":
            steps.append(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        elif fault == "seed":
            doc["seed"] = draw(st.one_of(_WRONG, st.integers(-(10**30), 10**30)))
        elif fault == "missing" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
    return _shapes(draw, doc, {**doc, "steps": "1"}, [])
