import contextlib
import io
import json
import random
import time
from types import SimpleNamespace

import pytest

from tropwitt.cli import COMMANDS, MAX_POINTS, MAX_STEPS, main
from tropwitt.enriched import MetricSpace, WittSpace, theta_space
from tropwitt.generate import random_metric_space, random_point_eval_space
from tropwitt.partitions import Partition
from tropwitt.quantale import ZERO, LValue
from tropwitt.symfunc import SymFunc, monomial
from tropwitt.witt import WittElem, theta


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


def test_witt_theta_output_keys_ordered_by_size_then_lex(runner):
    result = runner.invoke(main, ["witt", "theta", "--r", "1", "--degree", "3"])
    keys = list(json.loads(result.output)["values"])
    assert keys == ["1", "1,1", "2", "1,1,1", "2,1", "3"]


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


def test_witt_add_mul_validate(runner, tmp_path):
    a = write(tmp_path, "a.json", theta(LValue(1), 4).to_json())
    b = write(tmp_path, "b.json", theta(LValue(2), 4).to_json())
    result = runner.invoke(main, ["witt", "mul", "--input", a, "--other", b])
    assert result.exit_code == 0
    assert json.loads(result.output) == theta(LValue(3), 4).to_json()

    result = runner.invoke(main, ["witt", "add", "--input", a, "--other", b])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["values"]["1"] == "1"
    assert data["values"]["2,1"] == "4"

    result = runner.invoke(main, ["witt", "validate", "--input", a])
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True


def test_witt_validate_rejects_invalid(runner, tmp_path):
    bad_elem = WittElem(4, {Partition([1]): LValue(1), Partition([2]): LValue(5)})
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


def test_cat_validate_both_kinds(runner, tmp_path):
    space, path = metric_fixture(tmp_path)
    result = runner.invoke(main, ["cat", "validate", "--input", path])
    assert result.exit_code == 0

    w = theta_space(space, 4)
    wpath = write(tmp_path, "w.json", w.to_json())
    result = runner.invoke(main, ["cat", "validate", "--input", wpath])
    assert result.exit_code == 0

    bad = MetricSpace(
        ["a", "b"],
        {
            ("a", "a"): LValue(1),
            ("b", "b"): ZERO,
            ("a", "b"): LValue(1),
            ("b", "a"): LValue(2),
        },
    )
    bad_path = write(tmp_path, "bad.json", bad.to_json())
    result = runner.invoke(main, ["cat", "validate", "--input", bad_path])
    assert result.exit_code == 1


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
    bad_elem = WittElem(4, {Partition([1]): LValue(1), Partition([2]): LValue(5)})
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
