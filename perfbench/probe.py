"""Fresh-process probes: set-up timing and CLI replay with spans.

``python3 perfbench/probe.py setup --bound N`` times, in a fresh
interpreter, the import of ``tropwitt`` and the warming of the structure
tables up to degree N through public calls (``multiply``, ``coproduct_add``
and ``coproduct_mult`` on monomials), stage by stage.  With ``--cli`` it
times a fresh ``import tropwitt.cli`` instead, which every CLI call pays.

``python3 perfbench/probe.py replay --spec FILE`` replays one CLI command's
public calls (import, from_json, validate, the operation, to_json) inside
spans, because a trace cannot see inside the ``python -m tropwitt.cli``
child that the benchmark times.

Both print one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COMULT_DEGREES = (6, 7, 8)


def setup(bound: int) -> dict:
    """Import tropwitt and warm its structure tables up to `bound`.

    Returns the total in seconds and the cumulative multiplicative-coproduct
    time after each degree in COMULT_DEGREES that the bound reaches.
    """
    t0 = time.perf_counter()
    import tropwitt as T

    t1 = time.perf_counter()
    parts = T.partitions_up_to(bound)
    t2 = time.perf_counter()
    for mu in parts[1:]:
        for nu in parts[1:]:
            if mu.size + nu.size <= bound:
                T.multiply(T.monomial(mu, bound), T.monomial(nu, bound))
    t3 = time.perf_counter()
    for lam in parts:
        T.coproduct_add(T.monomial(lam, bound))
    t4 = time.perf_counter()
    comult = {}
    for d in range(bound + 1):
        for lam in T.partitions_of(d):
            T.coproduct_mult(T.monomial(lam, bound))
        if d in COMULT_DEGREES:
            comult[str(d)] = time.perf_counter() - t4
    t5 = time.perf_counter()
    return {
        "setup_s": t5 - t0,
        "enumerate_s": t2 - t1,
        "product_table_s": t3 - t2,
        "splitting_table_s": t4 - t3,
        "comult_s": comult,
    }


def setup_cli() -> dict:
    t0 = time.perf_counter()
    import tropwitt.cli  # noqa: F401

    return {"setup_s": time.perf_counter() - t0}


# -- replay ------------------------------------------------------------------------


def _options(argv: list[str]) -> dict[str, str]:
    opts = {}
    for i, word in enumerate(argv):
        if word.startswith("--"):
            opts[word[2:]] = argv[i + 1]
    return opts


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def replay(argv: list[str], tracer: Tracer) -> None:
    """Replay the public calls of `tropwitt <argv>` inside spans.

    Calls that the CLI makes on a cold process are tagged ``cold``.
    """
    span = tracer.span
    with span("cli.import", tag="cold"):
        import tropwitt.cli  # noqa: F401
    import tropwitt as T
    from tropwitt import suites

    group, command = argv[0], argv[1]
    opts = _options(argv[2:])

    def witt_in(path: str):
        data = _read(path)
        with span("witt.from_json", tag="cold"):
            elem = T.WittElem.from_json(data)
        with span("witt.validate", tag="cold"):
            elem.validate()
        return elem

    def sym_in(path: str):
        data = _read(path)
        with span("symfunc.from_json", tag="cold"):
            return T.SymFunc.from_json(data)

    def space_in(path: str):
        data = _read(path)
        with span("enriched.from_json", tag="cold"):
            space = T.WittSpace.from_json(data)
        for x in space.points:
            for y in space.points:
                with span("witt.validate", tag="cold"):
                    space.dist(x, y).validate()
        return space

    if group == "witt":
        if command == "theta":
            with span("quantale.from_json", tag="cold"):
                r = T.LValue(opts["r"])
            with span("witt.theta", tag="cold"):
                out = T.theta(r, int(opts["degree"]))
            with span("witt.to_json", tag="cold"):
                out.to_json()
        elif command in ("add", "mul"):
            try:
                f = witt_in(opts["input"])
            except (T.FormatError, json.JSONDecodeError):
                return  # the malformed-input command stops here, as the CLI does
            g = witt_in(opts["other"])
            with span(f"witt.{command}", tag="cold"):
                out = f.add(g) if command == "add" else f.mul(g)
            with span("witt.to_json", tag="cold"):
                out.to_json()
        elif command == "validate":
            witt_in(opts["input"])
        elif command == "tau":
            f = witt_in(opts["input"])
            with span("witt.tau", tag="cold"):
                T.tau(f).to_json()
    elif group == "sym":
        f = sym_in(opts["input"])
        if command == "coprod-mult":
            with span("symfunc.coproduct_mult", tag="cold"):
                out = T.coproduct_mult(f)
        else:
            g = sym_in(opts["other"])
            name = "multiply" if command == "mul" else "plethysm"
            with span(f"symfunc.{name}", tag="cold"):
                out = T.multiply(f, g) if command == "mul" else T.plethysm(f, g)
        with span("symfunc.to_json", tag="cold"):
            out.to_json()
    elif group == "cat":
        if command == "validate":
            data = _read(opts["input"])
            with span("enriched.from_json", tag="cold"):
                space = T.WittSpace.from_json(data)
            with span("enriched.validate", tag="cold"):
                space.validate()
        elif command == "theta":
            data = _read(opts["input"])
            with span("enriched.from_json", tag="cold"):
                metric = T.MetricSpace.from_json(data)
            with span("enriched.validate", tag="cold"):
                metric.validate()
            with span("enriched.theta_space", tag="cold"):
                out = T.theta_space(metric, int(opts["degree"]))
            with span("enriched.to_json", tag="cold"):
                out.to_json()
        elif command == "slice":
            space = space_in(opts["input"])
            if "lambda" in opts:
                with span("partitions.from_key", tag="cold"):
                    lam = T.Partition.from_key(opts["lambda"])
                with span("enriched.slice", tag="cold"):
                    T.slice_table(space, lam)
            else:
                with span("enriched.slice", tag="cold"):
                    T.slice_complete(space, int(opts["h"]))
    elif group == "plancherel":
        space = space_in(opts["cat"]) if command == "observe" else None
        with span("plancherel.sample_path", tag="cold"):
            path = T.sample_path(int(opts["steps"]), int(opts["seed"]))
        if space is not None:
            with span("plancherel.observe", tag="cold"):
                T.observe(space, path)
    elif group == "suite":
        name = {"quantale": "residuation", "plancherel": "plancherel"}[opts["module"]]
        with span(f"suites.{name}", tag="cold"):
            suites.SUITES[name](suites.DEFAULT_SEED)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--bound", type=int, default=8)
    s.add_argument("--cli", action="store_true")
    r = sub.add_parser("replay")
    r.add_argument("--spec", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    if args.mode == "setup":
        out = setup_cli() if args.cli else setup(args.bound)
    else:
        tracer = Tracer()
        with open(args.spec, encoding="utf-8") as fh:
            argv = json.load(fh)
        replay(argv, tracer)
        out = {"spans": tracer.records}
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
