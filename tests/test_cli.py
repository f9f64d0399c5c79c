import contextlib
import io
import json
import random
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropwitt import suites
from tropwitt.cli import COMMANDS, MAX_STEPS, _read_json, main
from tropwitt.enriched import MAX_POINTS, MetricSpace, WittSpace, theta_space
from tropwitt.errors import FormatError
from tropwitt.generate import random_metric_space, random_point_eval_space
from tropwitt.partitions import Partition, partitions_up_to
from tropwitt.quantale import ZERO, LValue
from tropwitt.symfunc import SymFunc, monomial, plethysm
from tropwitt.witt import theta

from documents import (
    near_miss_elem_documents,
    near_miss_metric_documents,
    near_miss_sym_documents,
    near_miss_text_tokens,
    near_miss_witt_space_documents,
)
from oracles import elem


class Runner:
    """Runs the CLI in this process with stdout captured.  The exit code is
    that of the ``SystemExit`` raised, 0 if none; any other exception fails
    the test."""

    def invoke(self, main, args):
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code or 0
        return SimpleNamespace(exit_code=code, output=out.getvalue())


@pytest.fixture
def runner():
    return Runner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def m21(tmp_path):
    return write(tmp_path, "m21.json", monomial(Partition([2, 1]), 8).to_json())


def test_witt_theta_matches_documented_output(runner):
    result = runner.invoke(main, ["witt", "theta", "--r", "3/2", "--degree", "4"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["degree_bound"] == 4
    assert data["values"]["1"] == "3/2"
    assert data["values"]["2"] == "3"
    assert data["values"]["3"] == "9/2"
    assert data["values"]["4"] == "6"
    assert all(
        v == "inf"
        for key, v in data["values"].items()
        if key not in ("1", "2", "3", "4")
    )


@pytest.mark.parametrize(
    "r, rows",
    # a decimal token, which only Fraction reads, and an unreduced ratio
    [("1", ["1", "2", "3"]), ("0.75", ["3/4", "3/2", "9/4"]), ("6/4", ["3/2", "3", "9/2"])],
    ids=["1", "0.75", "6/4"],
)
def test_witt_theta_output_keys_ordered_by_size_then_lex(runner, r, rows):
    # reduced values, finite on the rows (1), (2), (3) only
    result = runner.invoke(main, ["witt", "theta", "--r", r, "--degree", "3"])
    values = list(json.loads(result.output)["values"].items())
    one, two, three = rows
    assert values == [("1", one), ("1,1", "inf"), ("2", two), ("1,1,1", "inf"), ("2,1", "inf"), ("3", three)]


def test_sym_coprod_add_four_terms(runner, tmp_path):
    result = runner.invoke(main, ["sym", "coprod-add", "--input", m21(tmp_path)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["coeffs"] == {"2,1|": 1, "2|1": 1, "1|2": 1, "|2,1": 1}


def test_sym_mul_and_strict(runner, tmp_path):
    f = write(tmp_path, "f.json", monomial(Partition([2]), 3).to_json())
    result = runner.invoke(main, ["sym", "mul", "--input", f, "--other", f])
    assert result.exit_code == 0
    assert json.loads(result.output)["coeffs"] == {}
    result = runner.invoke(
        main, ["sym", "mul", "--input", f, "--other", f, "--strict"]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["kind"] == "validation"


def test_sym_plethysm(runner, tmp_path):
    f = write(tmp_path, "f.json", monomial(Partition([2]), 8).to_json())
    g = write(tmp_path, "g.json", monomial(Partition([3]), 8).to_json())
    result = runner.invoke(main, ["sym", "plethysm", "--input", f, "--other", g])
    assert result.exit_code == 0
    assert json.loads(result.output)["coeffs"] == {"6": 1}


def test_sym_plethysm_writes_a_coefficient_past_the_digit_limit(runner, tmp_path):
    # e_12 ∘ 10**999·m(1), of two valid inputs, has 77 terms of up to 11,989
    # digits, past the 4,300 that Python writes as text by default; the
    # command lifts that limit for its one dump, then restores it
    e12 = {"degree_bound": 12, "coeffs": {",".join("1" * 12): 1}}
    wide = {"degree_bound": 12, "coeffs": {"1": 10**999}}
    f, g = write(tmp_path, "f.json", e12), write(tmp_path, "g.json", wide)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    result = runner.invoke(main, ["sym", "plethysm", "--input", f, "--other", g])
    assert result.exit_code == 0
    want = plethysm(SymFunc.from_json(e12), SymFunc.from_json(wide))
    if limit:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        assert result.output == json.dumps(want.to_json(), indent=2) + "\n"
        assert max(len(str(c)) for _, c in want.items()) == 11989
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "command, code, want",
    [
        ("mul", 0, {"": 4}),
        ("coprod-add", 0, {"|": 2}),
        ("coprod-mult", 0, {"|": 2}),
        ("plethysm", 1, "inner argument must have zero constant term"),
    ],
)
def test_sym_commands_at_degree_bound_zero(runner, tmp_path, command, code, want):
    f = write(tmp_path, "f.json", {"degree_bound": 0, "coeffs": {"": 2}})
    others = [] if command.startswith("coprod") else ["--other", f]
    result = runner.invoke(main, ["sym", command, "--input", f, *others])
    assert result.exit_code == code
    data = json.loads(result.output)
    if code:
        assert data == {"error": {"kind": "validation", "detail": want}}
    else:
        assert data == {"degree_bound": 0, "coeffs": want}


def test_sym_bases(runner):
    result = runner.invoke(main, ["sym", "bases", "--n", "2", "--degree", "6"])
    data = json.loads(result.output)
    assert data["elementary"]["coeffs"] == {"1,1": 1}
    assert data["complete"]["coeffs"] == {"1,1": 1, "2": 1}


@pytest.mark.parametrize("degree", [4, 12])
def test_witt_add_mul_validate(runner, tmp_path, degree):
    a = write(tmp_path, "a.json", theta(LValue(1), degree).to_json())
    b = write(tmp_path, "b.json", theta(LValue(2), degree).to_json())
    result = runner.invoke(main, ["witt", "mul", "--input", a, "--other", b])
    assert result.exit_code == 0
    assert json.loads(result.output) == theta(LValue(3), degree).to_json()

    result = runner.invoke(main, ["witt", "add", "--input", a, "--other", b])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["values"]["1"] == "1"
    assert data["values"]["2,1"] == "4"

    result = runner.invoke(main, ["witt", "validate", "--input", a])
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True


def test_witt_validate_rejects_invalid(runner, tmp_path):
    bad_elem = elem(4, {Partition([1]): LValue(1), Partition([2]): LValue(5)})
    bad = write(tmp_path, "bad.json", bad_elem.to_json())
    result = runner.invoke(main, ["witt", "validate", "--input", bad])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["ok"] is False
    assert report["violations"]

    # other commands refuse the file unless --unchecked
    result = runner.invoke(main, ["witt", "tau", "--input", bad])
    assert result.exit_code == 1
    result = runner.invoke(main, ["witt", "tau", "--input", bad, "--unchecked"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"value": "1"}


def test_witt_eval_and_in_l(runner, tmp_path):
    a = write(tmp_path, "a.json", theta(LValue(2), 4).to_json())
    h2 = write(tmp_path, "h2.json", SymFunc(
        {Partition([2]): 1, Partition([1, 1]): 1}, 4
    ).to_json())
    result = runner.invoke(main, ["witt", "eval", "--input", a, "--sym", h2])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"value": "4"}
    result = runner.invoke(main, ["witt", "in-l", "--input", a])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"lipschitz": True}


def metric_fixture(tmp_path):
    space = MetricSpace(
        ["a", "b"],
        {
            ("a", "a"): ZERO,
            ("b", "b"): ZERO,
            ("a", "b"): LValue(1),
            ("b", "a"): LValue(2),
        },
    )
    return space, write(tmp_path, "metric.json", space.to_json())


def test_cat_theta_tau_round_trip(runner, tmp_path):
    space, path = metric_fixture(tmp_path)
    result = runner.invoke(main, ["cat", "theta", "--input", path, "--degree", "4"])
    assert result.exit_code == 0
    witt_json = json.loads(result.output)
    assert WittSpace.from_json(witt_json) == theta_space(space, 4)

    back = write(tmp_path, "witt_space.json", witt_json)
    result = runner.invoke(main, ["cat", "tau", "--input", back])
    assert result.exit_code == 0
    assert MetricSpace.from_json(json.loads(result.output)) == space


def witnesses(result):
    """The kind and witness of each violation in an exit-1 report."""
    assert result.exit_code == 1
    return [[v["kind"], *v["witness"]] for v in json.loads(result.output)["violations"]]


_ABC = {"a|a": "0", "a|b": "1", "a|c": "5/2", "b|a": "2", "b|b": "0", "b|c": "3/2",
        "c|a": "1", "c|b": "2", "c|c": "0"}


@pytest.mark.parametrize("degree", [6, 12])
def test_cat_validate_both_kinds(runner, tmp_path, degree):
    metric = write(tmp_path, "metric.json", {"points": ["a", "b", "c"], "dist": _ABC})
    assert runner.invoke(main, ["cat", "validate", "--input", metric]).exit_code == 0
    # d(b, b) and d(a, c) raised
    broken = {"points": ["a", "b", "c"], "dist": {**_ABC, "a|c": "3", "b|b": "1"}}
    result = runner.invoke(main, ["cat", "validate", "--input", write(tmp_path, "bad.json", broken)])
    assert witnesses(result) == [["identity", "b"], ["triangle", "a", "b", "c"]]

    result = runner.invoke(main, ["cat", "theta", "--input", metric, "--degree", str(degree)])
    space = json.loads(result.output)
    spath = write(tmp_path, "w.json", space)
    assert runner.invoke(main, ["cat", "validate", "--input", spath]).exit_code == 0
    result = runner.invoke(main, ["cat", "slice", "--input", spath, "--lambda", str(degree)])
    assert json.loads(result.output)["table"]["a|c"] == {6: "15", 12: "30"}[degree]
    # value(1) of d(a, c) raised to 9 breaks each check (1)·(n), n < N,
    # of that entry, and composition through b at (1)
    space["dist"]["a|c"]["values"]["1"] = "9"
    result = runner.invoke(main, ["cat", "validate", "--input", write(tmp_path, "w.json", space)])
    want = [["hom", "a", "c", "(1)", f"({n})"] for n in range(1, degree)]
    assert witnesses(result) == [*want, ["composition", "a", "b", "c", "(1)"]]


def test_cat_slice(runner, tmp_path):
    space, path = metric_fixture(tmp_path)
    wpath = write(tmp_path, "w.json", theta_space(space, 4).to_json())
    result = runner.invoke(
        main, ["cat", "slice", "--input", wpath, "--lambda", "2"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["partition"] == [2]
    assert data["table"]["a|b"] == "2"
    assert data["table"]["b|a"] == "4"

    result = runner.invoke(main, ["cat", "slice", "--input", wpath, "--h", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["table"]["a|b"] == "2"

    result = runner.invoke(
        main,
        ["cat", "slice", "--input", wpath, "--lambda", "2", "--h", "2"],
    )
    assert result.exit_code == 2


def test_cat_act(runner, tmp_path):
    space, _ = metric_fixture(tmp_path)
    wpath = write(tmp_path, "w.json", theta_space(space, 8).to_json())
    g = write(tmp_path, "g.json", monomial(Partition([2]), 8).to_json())
    f = write(tmp_path, "f.json", monomial(Partition([3]), 8).to_json())
    result = runner.invoke(
        main, ["cat", "act", "--input", wpath, "--g", g, "--f", f]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["table"]["a|b"] == "6"


def test_plancherel_cli(runner, tmp_path):
    result = runner.invoke(main, ["plancherel", "measure", "--n", "3"])
    assert result.exit_code == 0
    assert json.loads(result.output)["measure"] == {
        "1,1,1": "1/6",
        "2,1": "2/3",
        "3": "1/6",
    }

    result = runner.invoke(
        main, ["plancherel", "sample", "--steps", "5", "--seed", "42"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["seed"] == 42
    assert [sum(s) for s in data["steps"]] == [1, 2, 3, 4, 5]

    space, _ = metric_fixture(tmp_path)
    wpath = write(tmp_path, "w.json", theta_space(space, 6).to_json())
    result = runner.invoke(
        main,
        ["plancherel", "observe", "--cat", wpath, "--steps", "4", "--seed", "7"],
    )
    assert result.exit_code == 0
    steps = json.loads(result.output)["steps"]
    assert len(steps) == 4
    for step in steps:
        assert step["is_metric"] == (len(step["partition"]) == 1)


def test_suite_run_module_filter(runner):
    result = runner.invoke(main, ["suite", "run", "--module", "quantale"])
    assert result.exit_code == 0
    assert "PASS residuation" in result.output

    result = runner.invoke(main, ["suite", "run", "--module", "nonexistent"])
    assert result.exit_code == 2


def test_suite_run_reports_a_failing_law_with_its_first_twelve_witnesses(runner, monkeypatch):
    # with y ⊖ x read as 0, residuation fails
    monkeypatch.setattr(suites, "monus", lambda y, x: ZERO)
    result = runner.invoke(main, ["suite", "run", "--module", "quantale"])
    assert result.exit_code == 1
    head, *failures = result.output.splitlines()
    assert head.startswith("FAIL residuation: ")
    assert len(failures) == 12 and all(line.startswith("  - ") for line in failures)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises, and it has no
    file descriptor."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "args",
    [["witt", "theta", "--r", "1", "--degree", "2"], ["suite", "run", "--module", "quantale"]],
    ids=["witt-theta", "suite-run"],
)
def test_a_closed_stdout_ends_the_command_with_no_second_write(args):
    # not an unreadable input: no JSON error object goes after the result,
    # and no exception other than the exit leaves main
    out = _ClosedPipe()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 1
    assert out.writes == 1


def test_suite_run_report_times_each_suite(runner, tmp_path):
    out = tmp_path / "suites.json"
    result = runner.invoke(main, ["suite", "run", "--module", "quantale", "--output", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    lines = result.output.splitlines()
    assert len(lines) == len(report["suites"])
    for line, res in zip(lines, report["suites"]):
        assert line == f"PASS {res['name']}: {res['passed']} passed, 0 failed"
        assert isinstance(res["seconds"], float) and res["seconds"] >= 0


def test_malformed_inputs_exit_two(runner, tmp_path):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    result = runner.invoke(main, ["sym", "coprod-add", "--input", str(garbled)])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["kind"] == "parse"

    missing = str(tmp_path / "nope.json")
    result = runner.invoke(main, ["sym", "coprod-add", "--input", missing])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["kind"] == "io"

    wrong_shape = write(tmp_path, "shape.json", {"degree_bound": 4})
    result = runner.invoke(main, ["sym", "coprod-add", "--input", wrong_shape])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["kind"] == "format"

    bool_bound = write(tmp_path, "bool.json", {"degree_bound": True, "values": {"1": "0"}})
    unhashable = write(tmp_path, "points.json", {"points": [["a"]], "dist": {"a|a": "0"}})
    for args in [
        ["witt", "validate", "--input", bool_bound],
        ["witt", "add", "--input", bool_bound, "--other", bool_bound],
        ["cat", "validate", "--input", unhashable],
        ["cat", "theta", "--input", unhashable],
    ]:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert json.loads(result.output)["error"]["kind"] == "format", args


def cli_inputs(tmp_path):
    space, metric = metric_fixture(tmp_path)
    sym = lambda name, parts, n: write(tmp_path, name, monomial(Partition(parts), n).to_json())
    h2 = SymFunc({Partition([2]): 1, Partition([1, 1]): 1}, 4)
    return {
        "m21": m21(tmp_path),
        "m2": sym("m2.json", [2], 6),
        "m3": sym("m3.json", [3], 6),
        "h2": write(tmp_path, "h2.json", h2.to_json()),
        "a": write(tmp_path, "a.json", theta(LValue(1), 4).to_json()),
        "b": write(tmp_path, "b.json", theta(LValue(2), 4).to_json()),
        "metric": metric,
        "space": write(tmp_path, "space.json", theta_space(space, 6).to_json()),
    }


# one successful call of every command that prints JSON
EVERY_COMMAND = [
    ["sym", "mul", "--input", "{m2}", "--other", "{m3}"],
    ["sym", "coprod-add", "--input", "{m21}"],
    ["sym", "coprod-mult", "--input", "{m21}"],
    ["sym", "plethysm", "--input", "{m2}", "--other", "{m3}"],
    ["sym", "bases", "--n", "3", "--degree", "5"],
    ["witt", "add", "--input", "{a}", "--other", "{b}"],
    ["witt", "mul", "--input", "{a}", "--other", "{b}"],
    ["witt", "validate", "--input", "{a}"],
    ["witt", "theta", "--r", "3/2", "--degree", "4"],
    ["witt", "tau", "--input", "{a}"],
    ["witt", "eval", "--input", "{a}", "--sym", "{h2}"],
    ["witt", "in-l", "--input", "{a}"],
    ["cat", "validate", "--input", "{space}"],
    ["cat", "slice", "--input", "{space}", "--lambda", "2,1"],
    ["cat", "theta", "--input", "{metric}", "--degree", "3"],
    ["cat", "tau", "--input", "{space}"],
    ["cat", "act", "--input", "{space}", "--g", "{m2}", "--f", "{m3}"],
    ["plancherel", "measure", "--n", "4"],
    ["plancherel", "sample", "--steps", "5", "--seed", "3"],
    ["plancherel", "observe", "--cat", "{space}", "--steps", "4", "--seed", "7"],
]


def test_every_json_command_is_listed():
    assert set(COMMANDS) - {("suite", "run")} == {tuple(args[:2]) for args in EVERY_COMMAND}


@pytest.mark.parametrize("args", EVERY_COMMAND, ids=lambda args: "-".join(args[:2]))
def test_output_file_holds_the_printed_json(runner, tmp_path, args):
    inputs = cli_inputs(tmp_path)
    args = [a.format(**inputs) for a in args]
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0
    out = tmp_path / "out.json"
    written = runner.invoke(main, args + ["--output", str(out)])
    assert written.exit_code == 0
    assert written.output == ""
    assert out.read_text() == printed.output


def test_failing_input_reports_and_exit_codes(runner, tmp_path):
    bad_elem = elem(4, {Partition([1]): LValue(1), Partition([2]): LValue(5)})
    bad = write(tmp_path, "bad.json", bad_elem.to_json())
    good = write(tmp_path, "good.json", theta(LValue(1), 4).to_json())
    out = tmp_path / "out.json"

    # witt validate: the failing report goes to --output, exit 1
    result = runner.invoke(main, ["witt", "validate", "--input", bad, "--output", str(out)])
    assert result.exit_code == 1
    assert result.output == ""
    assert json.loads(out.read_text()) == bad_elem.validate().to_json()
    out.unlink()

    # a checked input that fails: its report on stdout, never in --output
    result = runner.invoke(
        main, ["witt", "mul", "--input", good, "--other", bad, "--output", str(out)]
    )
    assert result.exit_code == 1
    assert json.loads(result.output) == bad_elem.validate().to_json()
    assert not out.exists()

    # a space with a bad entry: one error object naming the pair
    space, _ = metric_fixture(tmp_path)
    data = theta_space(space, 4).to_json()
    data["dist"]["a|b"] = bad_elem.to_json()
    spath = write(tmp_path, "space.json", data)
    result = runner.invoke(main, ["cat", "slice", "--input", spath, "--lambda", "2"])
    assert "('a', 'b')" in error_of(result, 1)["detail"]


@pytest.mark.parametrize(
    "args, doc, code, detail",
    [
        (["cat", "validate"], {"points": ["a"], "dist": []}, 2,
         "space JSON needs a 'dist' object"),
        (["cat", "validate"], {"points": ["a"], "dist": {}}, 2, "empty 'dist' object"),
        (["cat", "validate"], {"points": ["a", "a"], "dist": {"a|a": "0"}}, 2,
         "point names must be distinct"),
        (["cat", "slice", "--h", "7"], None, 1, "n = 7 outside 1..6"),
        (["cat", "slice", "--lambda", "+2"], None, 2, "bad partition key '+2'"),
    ],
    ids=["dist-list", "dist-empty", "points-repeated", "slice-h-above-bound", "slice-lambda-signed"],
)
def test_cat_errors_name_the_fault(runner, tmp_path, args, doc, code, detail):
    # doc None: the degree-6 space of ``cli_inputs``
    path = cli_inputs(tmp_path)["space"] if doc is None else write(tmp_path, "doc.json", doc)
    assert error_of(runner.invoke(main, [*args, "--input", path]), code)["detail"] == detail


def test_cat_validate_refuses_mixed_entries(runner, tmp_path):
    space, _ = metric_fixture(tmp_path)
    witt_first = theta_space(space, 4).to_json()
    witt_first["dist"]["b|a"] = "2"
    scalar_first = space.to_json()
    scalar_first["dist"]["b|a"] = theta(LValue(2), 4).to_json()
    for data in (witt_first, scalar_first):
        path = write(tmp_path, "mixed.json", data)
        error = error_of(runner.invoke(main, ["cat", "validate", "--input", path]), 2)
        assert error["kind"] == "format"
        assert "mixes" in error["detail"]


def test_output_flag_writes_file(runner, tmp_path):
    out = tmp_path / "out.json"
    result = runner.invoke(
        main, ["witt", "theta", "--r", "2", "--degree", "3", "--output", str(out)]
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["values"]["2"] == "4"


def test_round_trip_through_cli_files(runner, tmp_path):
    rng = random.Random(61)
    w = random_point_eval_space(rng, ("a", "b"), 4)
    path = write(tmp_path, "w.json", w.to_json())
    result = runner.invoke(main, ["cat", "validate", "--input", path])
    assert result.exit_code == 0
    assert WittSpace.from_json(w.to_json()) == w


def error_of(result, code):
    assert result.exit_code == code
    data = json.loads(result.output)
    assert list(data) == ["error"]
    return data["error"]


@pytest.mark.parametrize(
    "args",
    [
        ["witt", "theta", "--r", "1", "--degree", "13"],
        ["witt", "theta", "--r", "1", "--degree", "0"],
        ["sym", "bases", "--n", "13"],
        ["plancherel", "sample", "--steps", "0"],
        ["plancherel", "sample", "--steps", str(MAX_STEPS + 1)],
        ["plancherel", "observe", "--cat", "space.json", "--steps", str(MAX_STEPS + 1)],
        ["witt", "theta", "--degree", "4"],
        ["witt", "theta", "--r", "1", "--bogus"],
        ["witt", "theta", "--r", "1", "--deg", "2"],
        ["witt", "nope"],
        ["witt"],
        [],
        ["witt", "theta", "--r"],
        ["witt", "theta", "--r", "1", "--degree", "x"],
        # a value that starts with "-" and is no plain number reads as an option
        ["witt", "theta", "--r", "-1/2"],
    ],
)
def test_usage_errors_are_one_json_object(runner, args):
    assert error_of(runner.invoke(main, args), 2)["kind"] == "usage"


@pytest.mark.parametrize(
    "option, value",
    [(["--r", "x"], "x"), (["--r", "-1"], "-1"), (["--r=-1/2"], "-1/2"), (["--r", "1/0"], "1/0")],
)
def test_malformed_r_is_a_format_error(runner, option, value):
    error = error_of(runner.invoke(main, ["witt", "theta", *option]), 2)
    assert error == {"kind": "format", "detail": f"bad LValue {value!r}"}


def test_option_value_after_equals_sign(runner):
    spaced = runner.invoke(main, ["witt", "theta", "--r", "3/2", "--degree", "4"])
    joined = runner.invoke(main, ["witt", "theta", "--r=3/2", "--degree=4"])
    assert joined.exit_code == spaced.exit_code == 0
    assert joined.output == spaced.output


@pytest.mark.parametrize("args", [[], ["witt"], ["witt", "theta"], ["suite", "run"]])
def test_help_prints_usage(runner, args):
    result = runner.invoke(main, [*args, "--help"])
    assert result.exit_code == 0
    assert result.output.startswith(f"usage: {' '.join(['tropwitt', *args])} ")


def test_degree_bound_above_ceiling_in_any_input_is_refused(runner, tmp_path):
    sym = write(tmp_path, "sym.json", {"degree_bound": 13, "coeffs": {"1": 1}})
    result = runner.invoke(main, ["sym", "coprod-mult", "--input", sym])
    assert error_of(result, 2)["kind"] == "format"

    elem = write(tmp_path, "elem.json", {"degree_bound": 13, "values": {}})
    result = runner.invoke(main, ["witt", "validate", "--input", elem])
    assert error_of(result, 2)["kind"] == "format"

    space, _ = metric_fixture(tmp_path)
    data = theta_space(space, 2).to_json()
    data["dist"]["a|b"]["degree_bound"] = 13
    nested = write(tmp_path, "space.json", data)
    result = runner.invoke(main, ["cat", "validate", "--input", nested])
    assert error_of(result, 2)["kind"] == "format"


def test_space_above_the_point_cap_is_refused(runner, tmp_path):
    rng = random.Random(3)
    names = tuple(f"p{i}" for i in range(MAX_POINTS + 1))
    at_cap = random_metric_space(rng, names[:MAX_POINTS])
    above = random_metric_space(rng, names)
    for space in (at_cap, above):
        metric = write(tmp_path, "metric.json", space.to_json())
        witt = write(tmp_path, "witt.json", theta_space(space, 2).to_json())
        for args in (
            ["cat", "validate", "--input", metric],
            ["cat", "validate", "--input", witt],
            ["cat", "theta", "--input", metric, "--degree", "2"],
        ):
            result = runner.invoke(main, args)
            if space is at_cap:
                assert result.exit_code == 0, result.output
            else:
                assert "points exceed the maximum" in error_of(result, 2)["detail"]


def test_space_with_a_key_that_is_no_pair_of_the_points_is_refused(runner, tmp_path):
    # a|c names a point outside the space, b|zz a second degree bound too
    pairs = {"a|a": "0", "a|b": "1", "b|a": "1", "b|b": "0"}
    metric = write(tmp_path, "metric.json", {"points": ["a", "b"], "dist": {**pairs, "a|c": "7"}})
    extra = {"degree_bound": 5, "values": {}}
    witt = write(tmp_path, "witt.json",
                 {"points": ["a"], "dist": {"a|a": theta(ZERO, 2).to_json(), "b|zz": extra}})
    for args, key in ((["cat", "validate", "--input", metric], "a|c"),
                      (["cat", "tau", "--input", witt], "b|zz")):
        error = error_of(runner.invoke(main, args), 2)
        detail = f"distance key {key!r} is not a pair of the points"
        assert error == {"kind": "format", "detail": detail}


_THETA_2 = '{"degree_bound": 2, "values": {"1": "0", "1,1": "inf", "2": "0"}}'
_PAIRS = ("a|a", "a|b", "b|a", "b|b")


@pytest.mark.parametrize(
    "args, text, key",
    [
        (["witt", "validate"],
         '{"degree_bound": 2, "values": {"1": "1", "2": "2", "1,1": "2", "1": "5"}}', "1"),
        (["sym", "coprod-add"], '{"degree_bound": 4, "coeffs": {"1": 1, "2": 1, "1": 2}}', "1"),
        (["cat", "validate"],
         '{"points": ["a", "b"], "dist": {%s, "a|b": "2"}}'
         % ", ".join(f'"{p}": "{int(p[0] != p[2])}"' for p in _PAIRS), "a|b"),
        (["cat", "validate"],
         '{"points": ["a", "b"], "dist": {%s, "a|b": %s}}'
         % (", ".join(f'"{p}": {_THETA_2}' for p in _PAIRS), _THETA_2), "a|b"),
        (["witt", "validate"],
         '{"degree_bound": 2, "values": {"1": "1", "1,1": "inf", "2": "2"}, "degree_bound": 2}',
         "degree_bound"),
    ],
    ids=["witt-elem", "sym-func", "metric-space", "witt-space", "top-level"],
)
def test_a_key_named_twice_in_a_document_is_refused(runner, tmp_path, args, text, key):
    # json.load alone keeps the last value of a repeated key
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    error = error_of(runner.invoke(main, [*args, "--input", str(doc)]), 2)
    assert error == {"kind": "format", "detail": f"key {key!r} is named twice in one object"}


def test_a_tensor_key_named_twice_is_refused_by_the_reader(tmp_path):
    # no command reads a tensor; the CLI's one JSON reader refuses it all the same
    doc = tmp_path / "tensor.json"
    doc.write_text('{"degree_bound": 2, "coeffs": {"1|1": 1, "|2": 1, "1|1": 3}}')
    with pytest.raises(FormatError, match=r"^key '1\|1' is named twice in one object$"):
        _read_json(str(doc))


def test_values_too_wide_to_check_are_refused_at_once(runner, tmp_path):
    # 999-digit distances at degree 12: 416-byte fields, 4 × 271 of them;
    # checked, the 2-point space took 2.6 s, and an element whose values
    # have distinct 50-digit denominators 1.1 s
    metric = MetricSpace(["a", "b"], {(x, y): LValue(0 if x == y else 10**998) for x in "ab" for y in "ab"})
    space = write(tmp_path, "space.json", theta_space(metric, 12).to_json())
    parts = [lam.key() for lam in partitions_up_to(12) if not lam.is_empty()]
    values = {key: f"1/{10**50 + 2 * i + 1}" for i, key in enumerate(parts)}
    elem = write(tmp_path, "elem.json", {"degree_bound": 12, "values": values})
    for args in (["cat", "validate", "--input", space], ["cat", "tau", "--input", space],
                 ["witt", "validate", "--input", elem]):
        start = time.perf_counter()
        error = error_of(runner.invoke(main, args), 2)
        assert time.perf_counter() - start < 1, args
        assert error["kind"] == "format" and "above the maximum 131072" in error["detail"], error


def test_non_positive_partition_key_is_a_format_error(runner, tmp_path):
    sym = write(tmp_path, "sym.json", {"degree_bound": 4, "coeffs": {"0": 1}})
    result = runner.invoke(main, ["sym", "coprod-add", "--input", sym])
    assert error_of(result, 2)["kind"] == "format"

    elem = write(tmp_path, "elem.json", {"degree_bound": 4, "values": {"2,0": "1"}})
    result = runner.invoke(main, ["witt", "validate", "--input", elem])
    assert error_of(result, 2)["kind"] == "format"


@pytest.mark.parametrize(
    "token",
    ["1e996", "2.5e-993", "1" * 1001, "1/" + "3" * 999, "1e1000000"],
    ids=["1e996", "2.5e-993", "1001-digits", "1-over-999-digits", "1e1000000"],
)
def test_number_token_past_the_digit_limit_is_a_format_error(runner, tmp_path, token):
    # a token's length plus its exponent may be at most 1000
    elem = write(tmp_path, "elem.json", {"degree_bound": 2, "values": {"1": token}})
    start = time.perf_counter()
    result = runner.invoke(main, ["witt", "validate", "--input", elem])
    assert time.perf_counter() - start < 1
    assert "more than 1000 digits" in error_of(result, 2)["detail"]
    result = runner.invoke(main, ["witt", "theta", "--r", token, "--degree", "2"])
    assert "more than 1000 digits" in error_of(result, 2)["detail"]
    metric = write(tmp_path, "metric.json", {"points": ["a", "b"], "dist": {
        "a|a": "0", "a|b": token, "b|a": "1", "b|b": "0"}})
    result = runner.invoke(main, ["cat", "validate", "--input", metric])
    assert "more than 1000 digits" in error_of(result, 2)["detail"]


def test_values_at_the_digit_limit_print_in_reports(runner, tmp_path):
    values = {"1": "1e995", "2": "1/" + "7" * 998, "1,1": 10**1000 - 1}
    elem = write(tmp_path, "elem.json", {"degree_bound": 2, "values": values})
    result = runner.invoke(main, ["witt", "validate", "--input", elem])
    assert result.exit_code == 1
    (violation,) = json.loads(result.output)["violations"]
    assert f"value(1) + value(1) = 2{'0' * 995}" in violation["detail"]
    result = runner.invoke(main, ["witt", "theta", "--r", "9" * 1000, "--degree", "2"])
    assert json.loads(result.output)["values"]["2"] == "1" + "9" * 999 + "8"
    too_large = write(tmp_path, "large.json", {"degree_bound": 2, "values": {"1": 10**1000}})
    result = runner.invoke(main, ["witt", "validate", "--input", too_large])
    assert "at most 1000 digits" in error_of(result, 2)["detail"]


@pytest.mark.parametrize(
    "text",
    [
        '{"degree_bound": 2, "values": {"1": %s}}' % ("1" * 5000),
        '{"degree_bound": %s, "values": {"1": "1"}}' % ("1" * 5000),
    ],
    ids=["value", "degree_bound"],
)
def test_json_integer_past_the_conversion_limit_is_a_format_error(runner, tmp_path, text):
    # int() refuses more than 4300 digits with a ValueError of its own; the
    # reader refuses the token first
    elem = tmp_path / "elem.json"
    elem.write_text(text)
    result = runner.invoke(main, ["witt", "validate", "--input", str(elem)])
    error = error_of(result, 2)
    assert error["kind"] == "format"
    assert "at most 1000 digits" in error["detail"]


_SYM = st.just({"degree_bound": 4, "coeffs": {"1": 1, "2": 1}})
_SYMS = near_miss_sym_documents()
_WITT = near_miss_elem_documents()
_SPACES = st.one_of(near_miss_witt_space_documents(), near_miss_metric_documents())
_DEGREE = st.sampled_from(["1", "4", "0", "13", "x"]).map(lambda d: ["--degree", d])
_NONE = st.just([])
_STEPS = st.sampled_from(["1", "4", "7", "0", "501", "x"]).map(lambda n: ["--steps", n])
_SEED = st.sampled_from(["0", "-3", " 7", "1.5", "x", "", str(10**100), "9" * 5000])
_SEEDS = st.one_of(_NONE, _SEED.map(lambda s: ["--seed", s]))

# each witt and cat command: its input documents by option, and its other options
_CALLS = {
    ("witt", "add"): ({"input": _WITT, "other": _WITT}, _NONE),
    ("witt", "mul"): ({"input": _WITT, "other": _WITT}, _NONE),
    ("witt", "validate"): ({"input": _WITT}, _NONE),
    ("witt", "tau"): ({"input": _WITT}, _NONE),
    ("witt", "in-l"): ({"input": _WITT}, _NONE),
    ("witt", "eval"): ({"input": _WITT, "sym": _SYM}, _NONE),
    ("witt", "theta"): ({}, st.builds(lambda r, d: ["--r", r, *d],
                                      near_miss_text_tokens, _DEGREE)),
    ("cat", "validate"): ({"input": _SPACES}, _NONE),
    ("cat", "slice"): ({"input": _SPACES}, st.sampled_from(
        [["--lambda", "2,1"], ["--lambda", ""], ["--lambda", "2,x"], ["--h", "3"], ["--h", "7"],
         ["--h", "0"], []])),
    ("cat", "theta"): ({"input": _SPACES}, _DEGREE),
    ("cat", "tau"): ({"input": _SPACES}, _NONE),
    ("cat", "act"): ({"input": _SPACES, "g": _SYM, "f": _SYM}, _NONE),
}


# each command that reads a symmetric function or a space for plancherel,
# with its documents and its other options
_SYM_CALLS = {
    ("sym", "mul"): ({"input": _SYMS, "other": _SYMS}, st.sampled_from([[], ["--strict"]])),
    ("sym", "coprod-add"): ({"input": _SYMS}, _NONE),
    ("sym", "coprod-mult"): ({"input": _SYMS}, _NONE),
    ("sym", "plethysm"): ({"input": _SYMS, "other": _SYMS}, _NONE),
    ("witt", "eval"): ({"input": _WITT, "sym": _SYMS}, _NONE),
    ("plancherel", "observe"): ({"cat": _SPACES}, st.builds(list.__add__, _STEPS, _SEEDS)),
}


def _near_miss_call(draw, calls):
    """A command of ``calls`` on near-miss documents: its group, name and
    options, and its documents by the option that names each file."""
    key = draw(st.sampled_from(sorted(calls)))
    files, extra = calls[key]
    docs = {option: draw(doc) for option, doc in files.items()}
    # a degree bound above MAX_DEGREE, which the loaders refuse before indexing
    big = draw(st.sampled_from([None] * 8 + [13, 10**100]))
    if big is not None and isinstance(docs.get("input"), dict):
        docs["input"]["degree_bound"] = big
    options = list(draw(extra))  # a copy: st.just and sampled_from share their lists
    takes_unchecked = any(flag == "--unchecked" for flag, _ in COMMANDS[key][1])
    if takes_unchecked and draw(st.booleans()):
        options.append("--unchecked")
    return [*key, *options], docs


@st.composite
def witt_and_cat_calls(draw):
    return _near_miss_call(draw, _CALLS)


@st.composite
def sym_eval_and_observe_calls(draw):
    return _near_miss_call(draw, _SYM_CALLS)


@contextlib.contextmanager
def _any_digits():
    # json.dumps prints an int through int.__repr__, which refuses more
    # than 4300 digits where the interpreter has that limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run_near_miss(folder, call):
    """Run a near-miss call; exit 0, 1 or 2, one JSON object on
    stdout, and nothing raised but the exit."""
    args, docs = call
    with _any_digits():
        for option, doc in docs.items():
            args += [f"--{option}", write(folder, f"{option}.json", doc)]
    result = Runner().invoke(main, args)
    assert result.exit_code in (0, 1, 2)
    assert isinstance(json.loads(result.output), dict)


@given(witt_and_cat_calls())
def test_witt_and_cat_commands_on_near_miss_documents(tmp_path_factory, call):
    _run_near_miss(tmp_path_factory.mktemp("docs"), call)


@given(sym_eval_and_observe_calls())
def test_sym_eval_and_observe_commands_on_near_miss_documents(tmp_path_factory, call):
    # the loaders are these commands' only guard against a bound past the cap
    _run_near_miss(tmp_path_factory.mktemp("docs"), call)


@given(st.sampled_from(["quantale", "plancherel", "", "x", "Quantale", " quantale", "quantale\n"]),
       _SEEDS)
def test_suite_run_on_near_miss_options(module, seed):
    # one text line per suite on exit 0 or 1, one JSON error object on exit 2
    result = Runner().invoke(main, ["suite", "run", "--module", module, *seed])
    if result.exit_code == 2:
        assert list(json.loads(result.output)) == ["error"]
    else:
        assert result.exit_code == 0
        assert result.output.startswith("PASS ")
