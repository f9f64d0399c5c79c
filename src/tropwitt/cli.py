"""Command-line front end: JSON in, JSON out, exact arithmetic throughout.

Exit codes: 0 success, 1 validation failure (an input fails its axioms, or
a law suite fails), 2 malformed input (bad options, unreadable file, bad
JSON, schema mismatch, a degree bound above ``MAX_DEGREE``, a space with more
points than ``MAX_POINTS``).  Errors are
reported as one JSON object on stdout.  Every command takes ``--output`` to
write its JSON result to a file instead of stdout.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import TYPE_CHECKING

import click

# every command needs these; a command imports the modules it computes with
# in its body, so a cold process loads only what it runs
from .errors import FormatError, TropwittError
from .partitions import MAX_MEASURE_N, Partition
from .quantale import LValue
from .report import DEFAULT_SEED, Report

if TYPE_CHECKING:
    from .enriched import WittSpace
    from .witt import WittElem

DEFAULT_DEGREE = 8
# Largest degree bound accepted from options and input files.  A cold process
# at degree 12 spends about 0.3 s on the product table and 0.4 s on the
# multiplicative-coproduct table, a cold `witt validate` takes about 0.4 s,
# and one warm WittElem.mul 2.5 ms (2-vCPU Xeon); the tables grow about
# 2.5-fold per degree.
MAX_DEGREE = 12
# Largest point count of a space in an input file.  Validation tests every
# triple of points, k³ fused passes over the coproduct groups, though each
# entry's inner minima are taken once: a cold `cat validate` of a valid
# space at degree 12 took 0.93 s at 6 points and 1.19 s at 8 (2-vCPU Xeon
# in a slow phase, median of 5; 1.00 and 1.39 s before the fused check).
MAX_POINTS = 8
# Largest --steps of a growth path.  A cold `plancherel sample` takes 0.28 s
# at 500 steps; in-process, sampling takes 0.49 s at 1,000 and 1.6 s at 2,000
# (2-vCPU Xeon).
MAX_STEPS = 500


def _path(*decls, **attrs):
    return click.option(*decls, required=True, type=click.Path(), **attrs)


INPUT = _path("--input", "input_")
OTHER = _path("--other")
UNCHECKED = click.option("--unchecked", is_flag=True)
DEGREE = click.option(
    "--degree",
    default=DEFAULT_DEGREE,
    type=click.IntRange(min=1, max=MAX_DEGREE),
    show_default=True,
)
STEPS_SEED = (
    click.option("--steps", required=True, type=click.IntRange(min=1, max=MAX_STEPS)),
    click.option("--seed", default=0, type=int, show_default=True),
)
OUTPUT = click.option("--output", type=click.Path())


def _fail(code: int, kind: str, detail: str) -> None:
    click.echo(json.dumps({"error": {"kind": kind, "detail": detail}}))
    sys.exit(code)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FormatError as exc:
            _fail(2, "format", str(exc))
        except json.JSONDecodeError as exc:
            _fail(2, "parse", str(exc))
        except OSError as exc:
            _fail(2, "io", str(exc))
        except (TropwittError, ValueError, TypeError) as exc:
            _fail(1, "validation", str(exc))

    return wrapper


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    # check before any object is built: WittElem enumerates every partition
    # up to its bound on construction, and validating a space multiplies its
    # entries over every triple of points
    nodes = [data]
    while nodes:
        node = nodes.pop()
        if isinstance(node, dict):
            bound = node.get("degree_bound")
            if isinstance(bound, int) and bound > MAX_DEGREE:
                raise FormatError(f"degree_bound {bound} exceeds the maximum {MAX_DEGREE}")
            points = node.get("points")
            if isinstance(points, list) and len(points) > MAX_POINTS:
                raise FormatError(f"{len(points)} points exceed the maximum {MAX_POINTS}")
            nodes.extend(node.values())
        elif isinstance(node, list):
            nodes.extend(node)
    return data


def _emit(data, output: str | None) -> None:
    text = json.dumps(data, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def command(group: click.Group, name: str, *options):
    """Register the decorated body as ``group name`` with ``options`` and
    ``--output``.

    The body returns its result: a JSON payload, or an object serialised by
    its ``to_json``.  The result goes to stdout, or to the ``--output`` file.
    A returned ``Report`` that fails then exits 1.  Errors the body raises
    exit 1 or 2 with one JSON object (:func:`handle_errors`).
    """

    def register(body):
        @handle_errors
        def run(output, **kwargs):
            result = body(**kwargs)
            _emit(result.to_json() if hasattr(result, "to_json") else result, output)
            if isinstance(result, Report) and not result.ok:
                sys.exit(1)

        for option in reversed((*options, OUTPUT)):
            run = option(run)
        return group.command(name)(run)

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


def _load_witt(path: str, unchecked: bool) -> WittElem:
    from .witt import WittElem

    return _checked(_load(WittElem, path), unchecked)


def _load_witt_space(path: str, unchecked: bool) -> WittSpace:
    from .enriched import WittSpace

    space = _load(WittSpace, path)
    if not unchecked:
        bad = [
            (x, y)
            for x in space.points
            for y in space.points
            if not space.dist(x, y).validate().ok
        ]
        if bad:
            _fail(1, "validation", f"entries fail the homomorphism check: {bad}")
    return space


def _table_json(space_points, table) -> dict:
    return {
        "points": list(space_points),
        "table": {f"{x}|{y}": v.to_json() for (x, y), v in sorted(table.items())},
    }


class _JsonErrorGroup(click.Group):
    """Reports click's usage errors (bad or missing options) as one JSON
    error object with exit 2, like every other malformed input."""

    def main(self, *args, **kwargs):
        kwargs["standalone_mode"] = False
        try:
            return super().main(*args, **kwargs)
        except click.ClickException as exc:
            _fail(2, "usage", exc.format_message())


@click.group(cls=_JsonErrorGroup)
def main() -> None:
    """Witt vectors over the min-plus rig: symmetric functions, validated
    homomorphisms, enriched spaces, and the law suites."""


# -- sym ----------------------------------------------------------------------


@main.group()
def sym() -> None:
    """Symmetric-function operations."""


@command(
    sym,
    "mul",
    INPUT,
    OTHER,
    click.option("--strict", is_flag=True, help="reject terms beyond the degree bound"),
)
def sym_mul(input_, other, strict):
    from .symfunc import SymFunc, multiply

    return multiply(_load(SymFunc, input_), _load(SymFunc, other), strict=strict)


@command(sym, "coprod-add", INPUT)
def sym_coprod_add(input_):
    from .symfunc import SymFunc, coproduct_add

    return coproduct_add(_load(SymFunc, input_))


@command(sym, "coprod-mult", INPUT)
def sym_coprod_mult(input_):
    from .symfunc import SymFunc, coproduct_mult

    return coproduct_mult(_load(SymFunc, input_))


@command(
    sym,
    "plethysm",
    _path("--input", "input_", help="outer factor"),
    _path("--other", help="inner factor"),
)
def sym_plethysm(input_, other):
    from .symfunc import SymFunc, plethysm

    return plethysm(_load(SymFunc, input_), _load(SymFunc, other))


@command(
    sym,
    "bases",
    click.option("--n", required=True, type=click.IntRange(min=0, max=MAX_DEGREE)),
    DEGREE,
)
def sym_bases(n, degree):
    from .symfunc import complete, elementary

    return {
        "elementary": elementary(n, degree).to_json(),
        "complete": complete(n, degree).to_json(),
    }


# -- witt -----------------------------------------------------------------------


@main.group()
def witt() -> None:
    """Witt-rig operations on validated value tables."""


@command(witt, "add", INPUT, OTHER, UNCHECKED)
def witt_add(input_, other, unchecked):
    return _load_witt(input_, unchecked).add(_load_witt(other, unchecked))


@command(witt, "mul", INPUT, OTHER, UNCHECKED)
def witt_mul(input_, other, unchecked):
    return _load_witt(input_, unchecked).mul(_load_witt(other, unchecked))


@command(witt, "validate", INPUT)
def witt_validate(input_):
    from .witt import WittElem

    return _load(WittElem, input_).validate()


@command(
    witt,
    "theta",
    click.option("--r", required=True, type=str, help="a rational like 3/2, or inf"),
    DEGREE,
)
def witt_theta(r, degree):
    from .witt import theta

    return theta(LValue(r), degree)


@command(witt, "tau", INPUT, UNCHECKED)
def witt_tau(input_, unchecked):
    from .witt import tau

    return {"value": tau(_load_witt(input_, unchecked)).to_json()}


@command(witt, "eval", INPUT, _path("--sym", "sym_path"), UNCHECKED)
def witt_eval(input_, sym_path, unchecked):
    from .symfunc import SymFunc

    f = _load_witt(input_, unchecked)
    return {"value": f.eval(_load(SymFunc, sym_path)).to_json()}


@command(witt, "in-l", INPUT, UNCHECKED)
def witt_in_l(input_, unchecked):
    return {"lipschitz": _load_witt(input_, unchecked).is_lipschitz()}


# -- cat -----------------------------------------------------------------------------


@main.group()
def cat() -> None:
    """Enriched-space operations (metric spaces and their Witt versions)."""


def _detect_space(data):
    from .enriched import MetricSpace, WittSpace

    if not isinstance(data, dict) or not isinstance(data.get("dist"), dict):
        raise FormatError("space JSON needs a 'dist' object")
    kinds = {isinstance(v, dict) for v in data["dist"].values()}
    if not kinds:
        raise FormatError("empty 'dist' object")
    if len(kinds) > 1:
        raise FormatError("'dist' mixes WittElem objects and scalar distances")
    return (WittSpace if kinds.pop() else MetricSpace).from_json(data)


@command(cat, "validate", INPUT)
def cat_validate(input_):
    return _detect_space(_read_json(input_)).validate()


@command(
    cat,
    "slice",
    INPUT,
    click.option("--lambda", "lam", type=str, help="partition key like 2,1"),
    click.option(
        "--h", "h_n", type=click.IntRange(min=1), help="degree of the complete element"
    ),
    UNCHECKED,
)
def cat_slice(input_, lam, h_n, unchecked):
    from .enriched import slice_complete, slice_table

    if (lam is None) == (h_n is None):
        raise FormatError("exactly one of --lambda and --h is required")
    space = _load_witt_space(input_, unchecked)
    if lam is not None:
        p = Partition.from_key(lam)
        table = slice_table(space, p)
        payload = {"partition": p.to_json()}
    else:
        table = slice_complete(space, h_n)
        payload = {"n": h_n}
    payload.update(_table_json(space.points, table))
    return payload


@command(cat, "theta", INPUT, DEGREE, UNCHECKED)
def cat_theta(input_, degree, unchecked):
    from .enriched import MetricSpace, theta_space

    return theta_space(_checked(_load(MetricSpace, input_), unchecked), degree)


@command(cat, "tau", INPUT, UNCHECKED)
def cat_tau(input_, unchecked):
    from .enriched import tau_space

    return tau_space(_load_witt_space(input_, unchecked))


@command(
    cat,
    "act",
    INPUT,
    _path("--g", "g_path", help="outer factor"),
    _path("--f", "f_path", help="inner factor"),
    UNCHECKED,
)
def cat_act(input_, g_path, f_path, unchecked):
    from .enriched import lambda_action
    from .symfunc import SymFunc

    space = _load_witt_space(input_, unchecked)
    g, f = _load(SymFunc, g_path), _load(SymFunc, f_path)
    return _table_json(space.points, lambda_action(space, g, f))


# -- plancherel ------------------------------------------------------------------------


@main.group()
def plancherel() -> None:
    """Plancherel measure and the growth chain on partitions."""


@command(
    plancherel,
    "measure",
    click.option("--n", required=True, type=click.IntRange(min=1, max=MAX_MEASURE_N)),
)
def plancherel_measure_cmd(n):
    from .plancherel import plancherel_measure

    measure = plancherel_measure(n)
    return {"n": n, "measure": {lam.key(): str(p) for lam, p in sorted(measure.items())}}


@command(plancherel, "sample", *STEPS_SEED)
def plancherel_sample(steps, seed):
    from .plancherel import sample_path

    return sample_path(steps, seed)


@command(plancherel, "observe", _path("--cat", "cat_path"), *STEPS_SEED, UNCHECKED)
def plancherel_observe(cat_path, steps, seed, unchecked):
    from .plancherel import observe, sample_path

    space = _load_witt_space(cat_path, unchecked)
    steps_json = []
    for step in observe(space, sample_path(steps, seed)):
        entry = {"partition": step.partition.to_json(), "is_metric": step.is_metric}
        entry.update(_table_json(space.points, step.table))
        steps_json.append(entry)
    return {"seed": seed, "steps": steps_json}


# -- suite ---------------------------------------------------------------------------------


@main.group()
def suite() -> None:
    """Run the law suites."""


# hand-written: it prints one text line per suite, and JSON only to --output
@suite.command("run")
@click.option("--module", "module", type=str, help="only suites tagged with this module")
@click.option("--seed", default=DEFAULT_SEED, type=int, show_default=True)
@click.option("--output", type=click.Path(), help="write the JSON report here")
@handle_errors
def suite_run(module, seed, output):
    from .suites import run_all

    results = run_all(module=module, seed=seed)
    if not results:
        raise FormatError(f"no suites tagged with module {module!r}")
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        click.echo(f"{status} {res.name}: {res.passed} passed, {res.failed} failed")
        for failure in res.failures:
            click.echo(f"  - {failure}")
    all_ok = all(res.ok for res in results)
    if output:
        _emit({"ok": all_ok, "suites": [r.to_json() for r in results]}, output)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
