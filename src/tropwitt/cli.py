"""Command-line front end: JSON in, JSON out, exact arithmetic throughout.

Exit codes: 0 success, 1 validation failure (an input fails its axioms, or
a law suite fails), 2 malformed input (bad options, unreadable file, bad
JSON, schema mismatch, a degree bound above ``MAX_DEGREE``).  Errors are
reported as one JSON object on stdout.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .enriched import (
    MetricSpace,
    WittSpace,
    lambda_action,
    slice_complete,
    slice_table,
    tau_space,
    theta_space,
)
from .errors import FormatError, TropwittError
from .partitions import Partition
from .plancherel import observe, plancherel_measure, sample_path
from .quantale import LValue
from .symfunc import (
    SymFunc,
    complete,
    coproduct_add,
    coproduct_mult,
    elementary,
    multiply,
    plethysm,
)
from .witt import WittElem, tau, theta
from . import suites as suites_mod

DEFAULT_DEGREE = 8
# Largest degree bound accepted from options and input files.  A cold process
# at degree 12 spends about 0.35 s on the multiplicative-coproduct table and
# 8 s on the product table, and one WittElem.mul takes 0.25-0.35 s (2-vCPU
# Xeon); each grows about threefold per degree.
MAX_DEGREE = 12
DEGREE = click.IntRange(min=1, max=MAX_DEGREE)


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
    # up to its bound on construction
    nodes = [data]
    while nodes:
        node = nodes.pop()
        if isinstance(node, dict):
            bound = node.get("degree_bound")
            if isinstance(bound, int) and bound > MAX_DEGREE:
                raise FormatError(f"degree_bound {bound} exceeds the maximum {MAX_DEGREE}")
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


def _load_sym(path: str) -> SymFunc:
    return SymFunc.from_json(_read_json(path))


def _load_witt(path: str, unchecked: bool) -> WittElem:
    elem = WittElem.from_json(_read_json(path))
    if not unchecked:
        report = elem.validate()
        if not report.ok:
            click.echo(json.dumps(report.to_json(), indent=2))
            sys.exit(1)
    return elem


def _load_witt_space(path: str, unchecked: bool) -> WittSpace:
    space = WittSpace.from_json(_read_json(path))
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


@sym.command("mul")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--other", required=True, type=click.Path())
@click.option("--strict", is_flag=True, help="reject terms beyond the degree bound")
@click.option("--output", type=click.Path())
@handle_errors
def sym_mul(input_, other, strict, output):
    f, g = _load_sym(input_), _load_sym(other)
    _emit(multiply(f, g, strict=strict).to_json(), output)


@sym.command("coprod-add")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--output", type=click.Path())
@handle_errors
def sym_coprod_add(input_, output):
    _emit(coproduct_add(_load_sym(input_)).to_json(), output)


@sym.command("coprod-mult")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--output", type=click.Path())
@handle_errors
def sym_coprod_mult(input_, output):
    _emit(coproduct_mult(_load_sym(input_)).to_json(), output)


@sym.command("plethysm")
@click.option("--input", "input_", required=True, type=click.Path(), help="outer factor")
@click.option("--other", required=True, type=click.Path(), help="inner factor")
@click.option("--output", type=click.Path())
@handle_errors
def sym_plethysm(input_, other, output):
    _emit(plethysm(_load_sym(input_), _load_sym(other)).to_json(), output)


@sym.command("bases")
@click.option("--n", required=True, type=click.IntRange(min=0, max=MAX_DEGREE))
@click.option("--degree", default=DEFAULT_DEGREE, type=DEGREE, show_default=True)
@click.option("--output", type=click.Path())
@handle_errors
def sym_bases(n, degree, output):
    _emit(
        {
            "elementary": elementary(n, degree).to_json(),
            "complete": complete(n, degree).to_json(),
        },
        output,
    )


# -- witt -----------------------------------------------------------------------


@main.group()
def witt() -> None:
    """Witt-rig operations on validated value tables."""


@witt.command("add")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--other", required=True, type=click.Path())
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def witt_add(input_, other, unchecked, output):
    f = _load_witt(input_, unchecked)
    g = _load_witt(other, unchecked)
    _emit(f.add(g).to_json(), output)


@witt.command("mul")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--other", required=True, type=click.Path())
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def witt_mul(input_, other, unchecked, output):
    f = _load_witt(input_, unchecked)
    g = _load_witt(other, unchecked)
    _emit(f.mul(g).to_json(), output)


@witt.command("validate")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--output", type=click.Path())
@handle_errors
def witt_validate(input_, output):
    elem = WittElem.from_json(_read_json(input_))
    report = elem.validate()
    _emit(report.to_json(), output)
    if not report.ok:
        sys.exit(1)


@witt.command("theta")
@click.option("--r", required=True, type=str, help="a rational like 3/2, or inf")
@click.option("--degree", default=DEFAULT_DEGREE, type=DEGREE, show_default=True)
@click.option("--output", type=click.Path())
@handle_errors
def witt_theta(r, degree, output):
    _emit(theta(LValue(r), degree).to_json(), output)


@witt.command("tau")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def witt_tau(input_, unchecked, output):
    _emit({"value": tau(_load_witt(input_, unchecked)).to_json()}, output)


@witt.command("eval")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--sym", "sym_path", required=True, type=click.Path())
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def witt_eval(input_, sym_path, unchecked, output):
    f = _load_witt(input_, unchecked)
    phi = _load_sym(sym_path)
    _emit({"value": f.eval(phi).to_json()}, output)


@witt.command("in-l")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def witt_in_l(input_, unchecked, output):
    f = _load_witt(input_, unchecked)
    _emit({"lipschitz": f.is_lipschitz()}, output)


# -- cat -----------------------------------------------------------------------------


@main.group()
def cat() -> None:
    """Enriched-space operations (metric spaces and their Witt versions)."""


def _detect_space(data):
    if not isinstance(data, dict) or "dist" not in data or not isinstance(data["dist"], dict):
        raise FormatError("space JSON needs a 'dist' object")
    for v in data["dist"].values():
        if isinstance(v, dict):
            return WittSpace.from_json(data)
        return MetricSpace.from_json(data)
    raise FormatError("empty 'dist' object")


@cat.command("validate")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--output", type=click.Path())
@handle_errors
def cat_validate(input_, output):
    space = _detect_space(_read_json(input_))
    report = space.validate()
    _emit(report.to_json(), output)
    if not report.ok:
        sys.exit(1)


@cat.command("slice")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--lambda", "lam", type=str, help="partition key like 2,1")
@click.option("--h", "h_n", type=click.IntRange(min=1), help="degree of the complete element")
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def cat_slice(input_, lam, h_n, unchecked, output):
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
    _emit(payload, output)


@cat.command("theta")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--degree", default=DEFAULT_DEGREE, type=DEGREE, show_default=True)
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def cat_theta(input_, degree, unchecked, output):
    space = MetricSpace.from_json(_read_json(input_))
    if not unchecked:
        report = space.validate()
        if not report.ok:
            click.echo(json.dumps(report.to_json(), indent=2))
            sys.exit(1)
    _emit(theta_space(space, degree).to_json(), output)


@cat.command("tau")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def cat_tau(input_, unchecked, output):
    space = _load_witt_space(input_, unchecked)
    _emit(tau_space(space).to_json(), output)


@cat.command("act")
@click.option("--input", "input_", required=True, type=click.Path())
@click.option("--g", "g_path", required=True, type=click.Path(), help="outer factor")
@click.option("--f", "f_path", required=True, type=click.Path(), help="inner factor")
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def cat_act(input_, g_path, f_path, unchecked, output):
    space = _load_witt_space(input_, unchecked)
    g, f = _load_sym(g_path), _load_sym(f_path)
    table = lambda_action(space, g, f)
    _emit(_table_json(space.points, table), output)


# -- plancherel ------------------------------------------------------------------------


@main.group()
def plancherel() -> None:
    """Plancherel measure and the growth chain on partitions."""


@plancherel.command("measure")
@click.option("--n", required=True, type=click.IntRange(min=1, max=20))
@click.option("--output", type=click.Path())
@handle_errors
def plancherel_measure_cmd(n, output):
    measure = plancherel_measure(n)
    _emit(
        {
            "n": n,
            "measure": {lam.key(): str(p) for lam, p in sorted(measure.items())},
        },
        output,
    )


@plancherel.command("sample")
@click.option("--steps", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--output", type=click.Path())
@handle_errors
def plancherel_sample(steps, seed, output):
    _emit(sample_path(steps, seed).to_json(), output)


@plancherel.command("observe")
@click.option("--cat", "cat_path", required=True, type=click.Path())
@click.option("--steps", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--unchecked", is_flag=True)
@click.option("--output", type=click.Path())
@handle_errors
def plancherel_observe(cat_path, steps, seed, unchecked, output):
    space = _load_witt_space(cat_path, unchecked)
    path = sample_path(steps, seed)
    steps_json = []
    for step in observe(space, path):
        entry = {"partition": step.partition.to_json(), "is_metric": step.is_metric}
        entry.update(_table_json(space.points, step.table))
        steps_json.append(entry)
    _emit({"seed": seed, "steps": steps_json}, output)


# -- suite ---------------------------------------------------------------------------------


@main.group()
def suite() -> None:
    """Run the law suites."""


@suite.command("run")
@click.option("--module", "module", type=str, help="only suites tagged with this module")
@click.option("--seed", default=suites_mod.DEFAULT_SEED, type=int, show_default=True)
@click.option("--output", type=click.Path(), help="write the JSON report here")
@handle_errors
def suite_run(module, seed, output):
    results = suites_mod.run_all(module=module, seed=seed)
    if not results:
        _fail(2, "format", f"no suites tagged with module {module!r}")
    all_ok = True
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        click.echo(f"{status} {res.name}: {res.passed} passed, {res.failed} failed")
        for failure in res.failures:
            click.echo(f"  - {failure}")
        all_ok = all_ok and res.ok
    if output:
        _emit(
            {"ok": all_ok, "suites": [r.to_json() for r in results]},
            output,
        )
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
