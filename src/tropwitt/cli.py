"""Command-line front end: JSON in, JSON out, exact arithmetic throughout.

Each ``tropwitt GROUP COMMAND`` is one row of ``COMMANDS``: its body and its
option specs, from which :func:`main` builds a standard-library ``argparse``
parser.  Options are spelled in full, as ``--opt value`` or ``--opt=value``;
``--help`` prints the usage of the root, a group or a command.

Exit codes: 0 success, 1 validation failure (an input fails its axioms, or
a law suite fails), 2 malformed input (a bad or missing option or command,
a malformed ``--r``, an unreadable file, bad JSON, a key that one JSON
object names twice, a schema mismatch, or a value past a limit: a degree
bound above ``MAX_DEGREE`` or more points than ``enriched.MAX_POINTS``,
checked by the loader that reads it, or values too wide to check, past
``witt.MAX_PACKED_BYTES``).  Errors are reported as one JSON object on
stdout.  Every command takes ``--output`` to write its JSON result to a
file instead of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable

# the standard library, the package and its base modules only: a command
# reads every other public name as T.<name>, which loads just the module
# that the package's table names for it, so a cold process loads only what
# it runs
import tropwitt as T

from .errors import FormatError, TropwittError
from .partitions import MAX_DEGREE, MAX_MEASURE_N, Partition
from .quantale import _MAX_DIGITS, LValue
from .report import DEFAULT_SEED, Report

DEFAULT_DEGREE = 8
# Largest --steps of a growth path.  A cold `plancherel sample` takes 0.28 s
# at 500 steps; in-process, sampling takes 0.49 s at 1,000 and 1.6 s at 2,000
# (2-vCPU Xeon).
MAX_STEPS = 500


# -- option specs -------------------------------------------------------------


def _integer(lo: int | None, hi: int | None) -> Callable[[str], int]:
    """An option type: an integer in [lo, hi], where None leaves a side open."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"{value} exceeds the maximum {hi}")
        return value

    return integer


def _option(flag, dest=None, *, required=False, default=None, ints=None, help=None):
    """One option spec: ``flag`` and its ``add_argument`` keywords.  The value
    goes to ``dest`` (default: the flag's name); it is required, or it has a
    ``default``; with ``ints=(lo, hi)`` it is an integer in that range,
    otherwise the string as given."""
    if default is not None:
        help = f"{help + ' ' if help else ''}(default: {default})"
    kw = dict(dest=dest, metavar=flag[2:].upper(), required=required, default=default, help=help)
    if ints is not None:
        kw["type"] = _integer(*ints)
    return flag, kw


def _flag(flag: str, help: str | None = None):
    return flag, {"action": "store_true", "help": help}


INPUT = _option("--input", "input_", required=True)
OTHER = _option("--other", required=True)
UNCHECKED = _flag("--unchecked", "skip the validation of the inputs")
DEGREE = _option("--degree", default=DEFAULT_DEGREE, ints=(1, MAX_DEGREE))
STEPS_SEED = (
    _option("--steps", required=True, ints=(1, MAX_STEPS)),
    _option("--seed", default=0, ints=(None, None)),
)
OUTPUT = _option("--output", help="write the JSON result here instead of stdout")

DESCRIPTION = (
    "Witt vectors over the min-plus rig: symmetric functions, validated"
    " homomorphisms, enriched spaces, and the law suites."
)
# each group with its help text, in the order --help lists them
GROUPS = {
    "sym": "Symmetric-function operations.",
    "witt": "Witt-rig operations on validated value tables.",
    "cat": "Enriched-space operations (metric spaces and their Witt versions).",
    "plancherel": "Plancherel measure and the growth chain on partitions.",
    "suite": "Run the law suites.",
}
# (group, command) -> (run, option specs); `run` takes each option by its dest
COMMANDS: dict[tuple[str, str], tuple[Callable[..., None], tuple]] = {}


# -- running a command ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one JSON error object with exit 2, like
    every other malformed input."""

    def error(self, message: str):
        _fail(2, "usage", f"{self.prog}: {message}")


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``tropwitt *argv``.  It holds only the group and the
    command that ``argv`` names, or all of them where ``argv`` names none,
    for ``--help`` and the usage error to list.  A cold ``witt theta`` builds
    and parses in 3.1 ms this way, and in 7.8 ms with every parser and
    option built (2-vCPU Xeon, median of 7)."""
    root = _Parser(prog="tropwitt", description=DESCRIPTION, allow_abbrev=False)
    groups = root.add_subparsers(dest="group", required=True)
    for group in [g for g in GROUPS if [g] == argv[:1]] or GROUPS:
        help = GROUPS[group]
        parser = groups.add_parser(group, help=help, description=help, allow_abbrev=False)
        commands = parser.add_subparsers(dest="command", required=True)
        keys = [key for key in COMMANDS if key[0] == group]
        for key in [k for k in keys if list(k) == argv[:2]] or keys:
            parser = commands.add_parser(key[1], allow_abbrev=False)
            for flag, kw in COMMANDS[key][1]:
                parser.add_argument(flag, **kw)
    return root


def main(argv: list[str] | None = None) -> None:
    """Run ``tropwitt *argv`` (default: the process arguments)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = vars(_parser(argv).parse_args(argv))
    run, _ = COMMANDS[args.pop("group"), args.pop("command")]
    handle_errors(run, **args)


def _echo(text: str) -> None:
    # one write per line, newline included, as a reader may stop at any line;
    # once it has, exit 1 with no second write (Python's SIGPIPE recipe)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):  # no file descriptor, nothing to flush
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        sys.exit(1)


def _fail(code: int, kind: str, detail: str) -> None:
    _echo(json.dumps({"error": {"kind": kind, "detail": detail}}))
    sys.exit(code)


def handle_errors(fn, **kwargs):
    """``fn(**kwargs)``; an error it raises exits 1 or 2 with one JSON error
    object."""
    try:
        return fn(**kwargs)
    except FormatError as exc:
        _fail(2, "format", str(exc))
    except json.JSONDecodeError as exc:
        _fail(2, "parse", str(exc))
    except OSError as exc:
        _fail(2, "io", str(exc))
    except (TropwittError, ValueError, TypeError) as exc:
        _fail(1, "validation", str(exc))


def _json_int(token: str) -> int:
    # refused before int() runs: past 4300 digits int() raises a ValueError
    # of its own, and the LValue check allows no more digits than this
    if len(token) - token.startswith("-") > _MAX_DIGITS:
        raise FormatError(f"a JSON integer must have at most {_MAX_DIGITS} digits")
    return int(token)


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    # a key that an object repeats is malformed, where a dict keeps its last value
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise FormatError(f"key {key!r} is named twice in one object")
    return obj


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=_json_int, object_pairs_hook=_json_object)


def _emit(data, output: str | None) -> None:
    text = json.dumps(data, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        _echo(text)


def command(group: str, name: str, *options):
    """Register the decorated body as ``group name`` with ``options`` and
    ``--output``.

    The body returns its result: a JSON payload, or an object serialised by
    its ``to_json``.  The result goes to stdout, or to the ``--output`` file.
    A returned ``Report`` that fails then exits 1.  Errors the body raises
    exit 1 or 2 with one JSON object (:func:`handle_errors`).
    """

    def register(body):
        def run(output, **kwargs):
            result = body(**kwargs)
            _emit(result.to_json() if hasattr(result, "to_json") else result, output)
            if isinstance(result, Report) and not result.ok:
                sys.exit(1)

        COMMANDS[group, name] = run, (*options, OUTPUT)
        return body

    return register


def _load(cls, path: str):
    return cls.from_json(_read_json(path))


def _checked(value, unchecked: bool):
    """`value` once its ``validate()`` report passes.  A failing report goes
    to stdout, never to ``--output``, and exits 1; ``--unchecked`` skips it."""
    if not unchecked:
        report = value.validate()
        if not report.ok:
            _emit(report.to_json(), None)
            sys.exit(1)
    return value


def _load_witt(path: str, unchecked: bool) -> T.WittElem:
    return _checked(_load(T.WittElem, path), unchecked)


def _load_witt_space(path: str, unchecked: bool) -> T.WittSpace:
    space = _load(T.WittSpace, path)
    if not unchecked:
        bad = space.failing_entries()
        if bad:
            _fail(1, "validation", f"entries fail the homomorphism check: {bad}")
    return space


def _table_json(space_points, table) -> dict:
    return {
        "points": list(space_points),
        "table": {f"{x}|{y}": v.to_json() for (x, y), v in sorted(table.items())},
    }


# -- sym ----------------------------------------------------------------------


@command("sym", "mul", INPUT, OTHER, _flag("--strict", "reject terms beyond the degree bound"))
def sym_mul(input_, other, strict):
    return T.multiply(_load(T.SymFunc, input_), _load(T.SymFunc, other), strict=strict)


@command("sym", "coprod-add", INPUT)
def sym_coprod_add(input_):
    return T.coproduct_add(_load(T.SymFunc, input_))


@command("sym", "coprod-mult", INPUT)
def sym_coprod_mult(input_):
    return T.coproduct_mult(_load(T.SymFunc, input_))


@command(
    "sym",
    "plethysm",
    _option("--input", "input_", required=True, help="outer factor"),
    _option("--other", required=True, help="inner factor"),
)
def sym_plethysm(input_, other):
    return T.plethysm(_load(T.SymFunc, input_), _load(T.SymFunc, other))


@command("sym", "bases", _option("--n", required=True, ints=(0, MAX_DEGREE)), DEGREE)
def sym_bases(n, degree):
    return {
        "elementary": T.elementary(n, degree).to_json(),
        "complete": T.complete(n, degree).to_json(),
    }


# -- witt -----------------------------------------------------------------------


@command("witt", "add", INPUT, OTHER, UNCHECKED)
def witt_add(input_, other, unchecked):
    return _load_witt(input_, unchecked).add(_load_witt(other, unchecked))


@command("witt", "mul", INPUT, OTHER, UNCHECKED)
def witt_mul(input_, other, unchecked):
    return _load_witt(input_, unchecked).mul(_load_witt(other, unchecked))


@command("witt", "validate", INPUT)
def witt_validate(input_):
    return _load(T.WittElem, input_).validate()


@command("witt", "theta", _option("--r", required=True, help="a rational like 3/2, or inf"), DEGREE)
def witt_theta(r, degree):
    # read as a JSON value is: a malformed one is a format error
    return T.theta(LValue.from_json(r), degree)


@command("witt", "tau", INPUT, UNCHECKED)
def witt_tau(input_, unchecked):
    return {"value": T.tau(_load_witt(input_, unchecked)).to_json()}


@command("witt", "eval", INPUT, _option("--sym", "sym_path", required=True), UNCHECKED)
def witt_eval(input_, sym_path, unchecked):
    f = _load_witt(input_, unchecked)
    return {"value": f.eval(_load(T.SymFunc, sym_path)).to_json()}


@command("witt", "in-l", INPUT, UNCHECKED)
def witt_in_l(input_, unchecked):
    return {"lipschitz": _load_witt(input_, unchecked).is_lipschitz()}


# -- cat -----------------------------------------------------------------------------


def _detect_space(data):
    if not isinstance(data, dict) or not isinstance(data.get("dist"), dict):
        raise FormatError("space JSON needs a 'dist' object")
    kinds = {isinstance(v, dict) for v in data["dist"].values()}
    if not kinds:
        raise FormatError("empty 'dist' object")
    if len(kinds) > 1:
        raise FormatError("'dist' mixes WittElem objects and scalar distances")
    return (T.WittSpace if kinds.pop() else T.MetricSpace).from_json(data)


@command("cat", "validate", INPUT)
def cat_validate(input_):
    return _detect_space(_read_json(input_)).validate()


@command(
    "cat",
    "slice",
    INPUT,
    _option("--lambda", "lam", help="partition key like 2,1"),
    _option("--h", "h_n", ints=(1, None), help="degree of the complete element"),
    UNCHECKED,
)
def cat_slice(input_, lam, h_n, unchecked):
    if (lam is None) == (h_n is None):
        raise FormatError("exactly one of --lambda and --h is required")
    space = _load_witt_space(input_, unchecked)
    if lam is not None:
        p = Partition.from_key(lam)
        table = T.slice_table(space, p)
        payload = {"partition": p.to_json()}
    else:
        table = T.slice_complete(space, h_n)
        payload = {"n": h_n}
    payload.update(_table_json(space.points, table))
    return payload


@command("cat", "theta", INPUT, DEGREE, UNCHECKED)
def cat_theta(input_, degree, unchecked):
    return T.theta_space(_checked(_load(T.MetricSpace, input_), unchecked), degree)


@command("cat", "tau", INPUT, UNCHECKED)
def cat_tau(input_, unchecked):
    return T.tau_space(_load_witt_space(input_, unchecked))


@command(
    "cat",
    "act",
    INPUT,
    _option("--g", "g_path", required=True, help="outer factor"),
    _option("--f", "f_path", required=True, help="inner factor"),
    UNCHECKED,
)
def cat_act(input_, g_path, f_path, unchecked):
    space = _load_witt_space(input_, unchecked)
    g, f = _load(T.SymFunc, g_path), _load(T.SymFunc, f_path)
    return _table_json(space.points, T.lambda_action(space, g, f))


# -- plancherel ------------------------------------------------------------------------


@command("plancherel", "measure", _option("--n", required=True, ints=(1, MAX_MEASURE_N)))
def plancherel_measure_cmd(n):
    measure = T.plancherel_measure(n)
    return {"n": n, "measure": {lam.key(): str(p) for lam, p in sorted(measure.items())}}


@command("plancherel", "sample", *STEPS_SEED)
def plancherel_sample(steps, seed):
    return T.sample_path(steps, seed)


@command(
    "plancherel", "observe", _option("--cat", "cat_path", required=True), *STEPS_SEED, UNCHECKED
)
def plancherel_observe(cat_path, steps, seed, unchecked):
    space = _load_witt_space(cat_path, unchecked)
    steps_json = []
    for step in T.observe(space, T.sample_path(steps, seed)):
        entry = {"partition": step.partition.to_json(), "is_metric": step.is_metric}
        entry.update(_table_json(space.points, step.table))
        steps_json.append(entry)
    return {"seed": seed, "steps": steps_json}


# -- suite ---------------------------------------------------------------------------------


# hand-written: it prints one text line per suite, and JSON only to --output
def suite_run(module, seed, output):
    from .suites import run_all

    results = run_all(module=module, seed=seed)
    if not results:
        raise FormatError(f"no suites tagged with module {module!r}")
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        _echo(f"{status} {res.name}: {res.passed} passed, {res.failed} failed")
        for failure in res.failures:
            _echo(f"  - {failure}")
    all_ok = all(res.ok for res in results)
    if output:
        _emit({"ok": all_ok, "suites": [r.to_json() for r in results]}, output)
    sys.exit(0 if all_ok else 1)


COMMANDS["suite", "run"] = suite_run, (
    _option("--module", help="only suites tagged with this module"),
    _option("--seed", default=DEFAULT_SEED, ints=(None, None)),
    _option("--output", help="write the JSON report here"),
)


if __name__ == "__main__":
    main()
