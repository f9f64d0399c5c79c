"""The in-process ``spaces`` workload: Witt spaces and their entries.

Each operation is a handful of public ``tropwitt`` calls, each inside a
span named after its module.  Only the calls are timed; the result is
checked against the generator's independent expectation afterwards, so a
check never counts as latency.  Import this module only after the set-up
has been measured: it imports ``tropwitt``.
"""

from __future__ import annotations

import json
import time

import oracles as O
import tropwitt as T
from spans import Tally, run_loop


def run(inputs: dict, tracer, seconds: float, between) -> Tally:
    n = inputs["degree_bound"]
    ops = inputs["ops"]
    raw = [s["json"] for s in inputs["spaces"]]
    spaces = [T.WittSpace.from_json(data) for data in raw]
    plethysms = [(T.SymFunc.from_json(p["g"]), T.SymFunc.from_json(p["f"])) for p in inputs["plethysms"]]
    pool = inputs["elements"]
    elems = [T.WittElem.from_json(e["json"]) for e in pool]
    span = tracer.span

    def entry(i, x, y, lam_key):
        return raw[i]["dist"][f"{x}|{y}"]["values"][lam_key]

    def call_elem(op):
        kind = op["kind"]
        if kind in ("elem_mul", "elem_add"):
            a, b = elems[op["a"]], elems[op["b"]]
            with span("witt." + kind[5:], tag=op["tag"]):
                return a.mul(b) if kind == "elem_mul" else a.add(b)
        if kind == "elem_validate":
            with span("witt.validate", tag=op["tag"]):
                return elems[op["a"]].validate()
        if kind == "elem_leq":
            with span("witt.leq"):
                return elems[op["a"]].leq(elems[op["b"]])
        if kind == "elem_theta":
            with span("quantale.from_json"):
                r = T.LValue.from_json(op["r"])
            with span("witt.theta"):
                return T.theta(r, n)
        if kind == "elem_tau":
            with span("witt.tau"):
                return T.tau(elems[op["a"]])
        if kind == "elem_to_json":
            with span("witt.to_json", tag=op["tag"]):
                return elems[op["a"]].to_json()
        if kind == "elem_from_json":
            with span("witt.from_json", tag=op["tag"]):
                return T.WittElem.from_json(pool[op["a"]]["json"])
        with span("quantale.from_json"):
            x = T.LValue.from_json(op["x"])
        with span("quantale.from_json"):
            y = T.LValue.from_json(op["y"])
        with span("quantale.op"):
            return (T.tropical_add(x, y), T.tropical_mul(x, y), T.monus(y, x), T.leq(x, y))

    def call_space(op):
        kind, space = op["kind"], spaces[op["space"]]
        if kind == "from_json":
            with span("enriched.from_json"):
                return T.WittSpace.from_json(raw[op["space"]])
        if kind == "validate":
            with span("enriched.validate"):
                return space.validate()
        if kind == "slice_all":
            with span("partitions.up_to"):
                parts = [lam for lam in T.partitions_up_to(n) if not lam.is_empty()]
            with span("enriched.slice"):
                return parts, [T.slice_table(space, lam) for lam in parts]
        if kind == "slice_complete":
            with span("enriched.slice_complete"):
                return T.slice_complete(space, op["n"])
        if kind == "theta_tau":
            with span("enriched.tau_space"):
                metric = T.tau_space(space)
            with span("enriched.theta_space"):
                return metric, T.theta_space(metric, n)
        if kind == "lambda_action":
            g, f = plethysms[op["pleth"]]
            with span("enriched.lambda_action"):
                return T.lambda_action(space, g, f)
        if kind == "observe":
            with span("plancherel.sample_path"):
                path = T.sample_path(op["steps"], op["seed"])
            with span("plancherel.observe"):
                return path, T.observe(space, path)
        raise ValueError(f"unknown operation {kind!r}")

    def check_elem(op, out):
        kind, expect = op["kind"], op["expect"]
        if kind in ("elem_mul", "elem_add", "elem_theta", "elem_from_json"):
            shown = out.to_json()
            return shown == O.witt_json(expect, n), shown
        if kind == "elem_to_json":
            return out == O.witt_json(expect, n), out
        if kind == "elem_validate":
            shown = out.to_json()
            return O.report_matches(shown, expect), [(v["kind"], v["witness"]) for v in shown["violations"]]
        if kind == "elem_tau":
            return out.to_json() == expect, out.to_json()
        if kind == "elem_leq":
            return out == expect, out
        shown = [v.to_json() for v in out[:3]] + [out[3]]
        return shown == expect, shown

    def table_json(table):
        return {f"{x}|{y}": v.to_json() for (x, y), v in sorted(table.items())}

    def check_space(op, out):
        kind, i = op["kind"], op["space"]
        pts = raw[i]["points"]
        if kind == "from_json":
            shown = out.to_json()
            return shown == raw[i], len(json.dumps(shown))
        if kind == "validate":
            shown = out.to_json()
            return O.report_matches(shown, op["expect"]), [(v["kind"], v["witness"]) for v in shown["violations"]]
        if kind == "slice_all":
            parts, tables = out
            shown = [table_json(t) for t in tables]
            ok = sorted(tuple(lam.to_json()) for lam in parts) == sorted(O.partitions_up_to(n)) and all(
                shown[j][f"{x}|{y}"] == entry(i, x, y, lam.key())
                for j, lam in enumerate(parts) for x in pts for y in pts
            )
            return ok, shown
        if kind == "slice_complete":
            keys = [O.key(lam) for lam in O.partitions_of(op["n"])]
            shown = table_json(out)
            ok = all(
                shown[pair] == O.text(O.support_min(e["values"], keys))
                for pair, e in raw[i]["dist"].items()
            )
            return ok, shown
        if kind == "theta_tau":
            metric, lifted = out
            shown = lifted.to_json()
            ok = all(
                metric.dist(x, y).to_json() == entry(i, x, y, "1")
                and shown["dist"][f"{x}|{y}"]["values"]
                == O.theta_values(O.value(entry(i, x, y, "1")), n)
                for x in pts for y in pts
            )
            return ok, shown
        if kind == "lambda_action":
            support = inputs["plethysms"][op["pleth"]]["support"]
            shown = table_json(out)
            ok = all(
                shown[pair] == O.text(O.support_min(e["values"], support))
                for pair, e in raw[i]["dist"].items()
            )
            return ok, shown
        path, steps = out
        shown = [
            {"partition": s.partition.to_json(), "is_metric": s.is_metric, "table": table_json(s.table)}
            for s in steps
        ]
        chain = op["path"]
        ok = (
            len(shown) == len(chain)
            and [lam.to_json() for lam in path.steps] == chain
            and chain[0] == [1]
            and all(O.is_cover(a, b) for a, b in zip(chain, chain[1:]))
        )
        for lam, step in zip(chain, shown):
            k = O.key(lam)
            ok = ok and step["table"] == {f"{x}|{y}": entry(i, x, y, k) for x in pts for y in pts}
            ok = ok and step["is_metric"] == all(entry(i, x, x, k) == "0" for x in pts)
        return ok, shown

    def step(op_id: int):
        op = ops[op_id % len(ops)]
        on_elem = "space" not in op
        t0 = time.perf_counter()
        with span("op." + op["kind"], op_id):
            try:
                out = call_elem(op) if on_elem else call_space(op)
            except Exception as exc:  # an unexpected exception is a failed operation
                out = exc
        t1 = time.perf_counter()
        try:
            if isinstance(out, Exception):
                ok, shown = False, repr(out)
            else:
                ok, shown = check_elem(op, out) if on_elem else check_space(op, out)
        except Exception as exc:  # a malformed result is a failed operation
            ok, shown = False, repr(exc)
        output = json.dumps(shown, sort_keys=True, default=str).encode() if op_id < len(ops) else None
        label = "" if ok else f"{op['kind']}: {shown!s:.200}"
        return t1 - t0, ok, label, output

    tally = run_loop(Tally(tracer), len(ops), step, seconds, between)
    if tracer.enabled:
        # the plethysm half of lambda_action, timed alone for the symfunc layer
        for j, (g, f) in enumerate(plethysms):
            with span("op.plethysm", f"plethysm:{j}"):
                with span("symfunc.plethysm"):
                    T.plethysm(g, f)
    return tally
