"""Generate one workload's inputs and expected outputs from its seed.

Run as its own process (``python3 perfbench/gen.py --workload W --seed N``)
so that the measured process starts with cold ``functools.cache`` tables;
the inputs go back as one JSON document on stdout.  Expected outputs come
from the independent routes in ``oracles.py``; the library only builds
inputs here (random spaces from ``tropwitt.generate``, growth paths).

Each workload is a fixed *cycle* of operations: the count of every kind of
operation per cycle is fixed, and only the values drawn from the seed vary,
so runs with different seeds do the same mix of work.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracles as O

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tropwitt import LValue, WittSpace, from_points, sample_path, theta  # noqa: E402
from tropwitt import generate  # noqa: E402

SPACES_N = 6


def rational(rng: random.Random, lo: int = 1, hi: int = 12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def points_json(points) -> list[str]:
    return [O.text(p) for p in points]


# -- spaces ---------------------------------------------------------------------------

# Small plethysms g ∘ f for lambda_action: deg g · deg f ≤ 6.
PLETHYSMS = [
    ("h", 2, "h", 2),
    ("h", 3, "h", 2),
    ("h", 2, "h", 3),
    ("e", 2, "h", 2),
    ("h", 2, "e", 2),
    ("e", 3, "h", 2),
]
SPACES_MIX = {"slice_complete": 4, "slice_all": 5, "observe": 5, "theta_tau": 5, "lambda_action": 6}
# Element operations per cycle, on the entries' own kind of element: dense
# (from N finite points) and sparse (1-2 points, sometimes ∞).  A dense mul
# costs several times a sparse one, so a kernel change that helps one kind
# and hurts the other shows.
ELEM_MIX = {
    "mul_dense": 8, "mul_sparse": 6, "add": 6, "validate": 6, "leq": 4,
    "theta": 2, "tau": 2, "to_json": 3, "from_json": 3, "quantale": 2,
}
POOL_DENSE = 8
POOL_SPARSE = 8
# Corrupted elements: value(1,1) = 0 while value(1) > 0 breaks m1·m1 at
# degree 2; corrupt_top breaks only pairs at the top degree.
CORRUPT = ("low", "top", "top")

def _sym(kind: str, n: int) -> dict:
    return O.complete_coeffs(n) if kind == "h" else O.elementary_coeffs(n)


def sym_json(coeffs: dict, bound: int) -> dict:
    return {"degree_bound": bound, "coeffs": {O.key(lam): c for lam, c in coeffs.items()}}


def point_names(k: int) -> tuple[str, ...]:
    return tuple("pqrstuvw"[:k])


def corrupt_top(values: dict, rng: random.Random, bound: int) -> dict:
    """A copy of valid values with value(λ) = 0 at a random λ ⊢ bound.

    All values are positive, so every pair (μ, ν) with λ in the support of
    m_μ·m_ν breaks multiplicativity, and only such pairs: |μ| + |ν| = bound.
    """
    values = dict(values)
    values[O.key(rng.choice(O.partitions_of(bound)))] = "0"
    return values


def break_space(data: dict, kind: str, rng: random.Random, bound: int) -> dict:
    """A copy of a valid point-evaluation space with one axiom broken at the
    top degree only, so only a validator that reaches the top degree sees it."""
    data = json.loads(json.dumps(data))
    p, q = data["points"][0], data["points"][1]
    if kind == "hom":
        entry = data["dist"][f"{p}|{q}"]
        entry["values"] = corrupt_top(entry["values"], rng, bound)
    elif kind == "identity":
        data["dist"][f"{p}|{p}"]["values"][str(bound)] = "1"
    else:
        # composition: raise the largest of d(p, q)'s points by 10^6.  Only
        # value(1^bound) uses that point, so the entry stays a homomorphism,
        # but it now exceeds d(p, r)·d(r, q) there.
        values = data["dist"][f"{p}|{q}"]["values"]
        top = O.key((1,) * bound)
        values[top] = O.text(O.value(values[top]) + 10**6)
    return data


def gen_elements(rng: random.Random, n: int) -> tuple[list[dict], list[dict]]:
    """A pool of Witt elements at degree bound n and a cycle of element
    operations on it, each with its expected output."""
    pool = []
    for _ in range(POOL_DENSE):
        pool.append(("dense", [rational(rng) for _ in range(n)]))
    for _ in range(POOL_SPARSE):
        pts = [rational(rng) for _ in range(rng.randint(1, 2))]
        if len(pts) == 2 and rng.random() < 0.25:
            pts[1] = O.INF
        pool.append(("sparse", pts))
    elems = [
        {"kind": kind, "points": points_json(pts), "json": O.witt_json(O.point_eval(pts, n), n)}
        for kind, pts in pool
    ]
    for i, where in enumerate(CORRUPT):
        values = dict(elems[i]["json"]["values"])
        if where == "low":
            values["1,1"] = "0"
        else:
            values = corrupt_top(values, rng, n)
        broken = {"kind": "multiplicativity", "degree": 2 if where == "low" else n}
        elems.append({"kind": "corrupt", "points": None, "json": O.witt_json(values, n), "broken": broken})
    dense = [i for i, e in enumerate(elems) if e["kind"] == "dense"]
    sparse = [i for i, e in enumerate(elems) if e["kind"] == "sparse"]
    corrupt = [i for i, e in enumerate(elems) if e["kind"] == "corrupt"]
    valid = dense + sparse

    def pts(i):
        return [O.value(p) for p in elems[i]["points"]]

    def vals(i):
        return elems[i]["json"]["values"]

    ops = []
    for kind, count in ELEM_MIX.items():
        for j in range(count):
            if kind in ("mul_dense", "mul_sparse"):
                side = dense if kind == "mul_dense" else sparse
                a, b = rng.choice(side), rng.choice(side)
                expect = O.point_eval(O.pairwise_sums(pts(a), pts(b)), n)
                ops.append({"kind": "elem_mul", "tag": kind[4:], "a": a, "b": b, "expect": expect})
            elif kind == "add":
                side = dense if j % 2 == 0 else sparse
                a, b = rng.choice(side), rng.choice(side)
                expect = O.point_eval(pts(a) + pts(b), n)
                ops.append({"kind": "elem_add", "tag": elems[a]["kind"], "a": a, "b": b, "expect": expect})
            elif kind == "validate":
                a = corrupt[j] if j < len(corrupt) else rng.choice(valid)
                ops.append({"kind": "elem_validate", "tag": elems[a]["kind"], "a": a,
                            "expect": elems[a].get("broken")})
            elif kind == "leq":
                a, b = rng.choice(valid), rng.choice(valid)
                ops.append({"kind": "elem_leq", "a": a, "b": b, "expect": O.rig_leq(vals(a), vals(b))})
            elif kind == "theta":
                r = rational(rng, 0)
                ops.append({"kind": "elem_theta", "r": O.text(r), "expect": O.theta_values(r, n)})
            elif kind == "tau":
                a = rng.choice(valid)
                ops.append({"kind": "elem_tau", "a": a, "expect": vals(a)["1"]})
            elif kind in ("to_json", "from_json"):
                a = rng.choice(dense if j % 2 == 0 else sparse)
                ops.append({"kind": "elem_" + kind, "tag": elems[a]["kind"], "a": a, "expect": vals(a)})
            else:
                a, b = rng.choice(valid), rng.choice(valid)
                x, y = O.value(vals(a)["1"]), O.value(vals(b)["1"])
                ops.append({
                    "kind": "quantale", "x": O.text(x), "y": O.text(y),
                    "expect": [O.text(O.vmin(x, y)), O.text(O.vadd(x, y)),
                               O.text(O.monus(y, x)), O.vle(y, x)],
                })
    return elems, ops


def gen_spaces(rng: random.Random) -> dict:
    n = SPACES_N
    spaces = []
    for k in (3, 4, 5):
        space = generate.random_point_eval_space(rng, point_names(k), n)
        spaces.append({"family": "point-eval", "json": space.to_json(), "broken": None})
        space = generate.random_theta_space(rng, point_names(k), n)
        spaces.append({"family": "theta", "json": space.to_json(), "broken": None})
    for kind, k in (("hom", 3), ("identity", 4), ("composition", 4)):
        base = generate.random_point_eval_space(rng, point_names(k), n)
        spaces.append({"family": "broken", "json": break_space(base.to_json(), kind, rng, n),
                       "broken": {"kind": kind, "degree": n}})
    valid = [i for i, s in enumerate(spaces) if s["broken"] is None]
    plethysms = []
    for gk, gn, fk, fn in PLETHYSMS:
        g, f = _sym(gk, gn), _sym(fk, fn)
        support = sorted(O.sym_plethysm(g, f, n))
        plethysms.append({"g": sym_json(g, n), "f": sym_json(f, n), "support": support})

    ops = [{"kind": "from_json", "space": i} for i in range(len(spaces))]
    # Validation is the slowest operation, and its cost depends on the
    # space: the 5-point point-evaluation space costs most, then the three
    # 4-point point-evaluation spaces (one valid, two broken) about equally.
    # Those three are validated four times per cycle and the others twice,
    # so that the 90th percentile falls inside the 4-point group (ranks 3-14
    # of 100 from the top) rather than on an edge between spaces of
    # different cost.
    for i, s in enumerate(spaces):
        reps = 4 if s["family"] != "theta" and len(s["json"]["points"]) == 4 else 2
        ops += reps * [{"kind": "validate", "space": i, "expect": s["broken"]}]
    for kind, count in SPACES_MIX.items():
        for j in range(count):
            op = {"kind": kind, "space": valid[j % len(valid)]}
            if kind == "slice_complete":
                op["n"] = rng.randint(1, n)
            elif kind == "lambda_action":
                op["pleth"] = j % len(plethysms)
            elif kind == "observe":
                steps, seed = n, rng.randrange(10**6)
                path = sample_path(steps, seed).to_json()["steps"]
                op.update(steps=steps, seed=seed, path=path)
            ops.append(op)
    elems, elem_ops = gen_elements(rng, n)
    ops += elem_ops
    rng.shuffle(ops)
    return {"degree_bound": n, "spaces": spaces, "plethysms": plethysms, "elements": elems, "ops": ops}


# -- cli-cold ---------------------------------------------------------------------------

# The order of invocations is fixed; the seed only draws the values.  Each
# block of five is one heavy command and four light ones.  A run that stops
# mid-cycle repeats the first blocks, so the heavy commands start from the
# one of middle cost (cold, on a 2-vCPU Xeon: sym-coprod-mult-8 about 4.0 s,
# witt-mul-8 4.5 s, the cat validates 4.9 s).  The light commands are
# ranked by measured cold cost (about 150 ms for the first eight, up to
# 0.8 s for the plancherel suite) and dealt out by rank, so every block
# holds one from each quarter of the ranking and keeps the cycle's mix.
HEAVY = ("witt-mul-8", "cat-validate-8", "sym-coprod-mult-8", "cat-validate-8-broken")
LIGHT_BY_COST = (
    "plancherel-sample", "malformed", "witt-theta", "cat-slice",
    "sym-mul", "cat-theta", "plancherel-observe", "cat-slice-h",
    "witt-validate", "witt-validate-corrupt", "witt-add", "witt-tau",
    "witt-mul-6", "sym-plethysm", "suite-quantale", "suite-plancherel",
)


def point_eval_space(rng: random.Random, k: int, bound: int) -> WittSpace:
    """The shared-increment point-evaluation space of ``tropwitt.generate``,
    built without the axiom check that would need the degree-`bound` tables
    in this process.  It is valid by construction."""
    names = point_names(k)
    base = generate.random_metric_space(rng, names)
    bump = LValue(rational(rng, 1, 8))
    dist = {}
    for x in names:
        for y in names:
            d = base.dist(x, y) if x != y else LValue(0)
            dist[(x, y)] = from_points([d] + [d + bump] * (bound - 1), bound)
    return WittSpace(names, dist)


def gen_cli_cold(rng: random.Random) -> dict:
    cmds = []

    def add(name, argv, files, check, expect):
        cmds.append({"name": name, "argv": argv, "files": files, "check": check, "expect": expect})

    dense8 = [rational(rng) for _ in range(8)]
    sparse8 = [rational(rng) for _ in range(2)]
    f8, g8 = O.witt_json(O.point_eval(dense8, 8), 8), O.witt_json(O.point_eval(sparse8, 8), 8)

    r = rational(rng, 0)
    add("witt-theta", ["witt", "theta", "--r", O.text(r), "--degree", "8"], {}, "json",
        O.witt_json(O.theta_values(r, 8), 8))
    add("witt-add", ["witt", "add", "--input", "@f", "--other", "@g"], {"f": f8, "g": g8}, "json",
        O.witt_json(O.point_eval(dense8 + sparse8, 8), 8))
    add("witt-mul-8", ["witt", "mul", "--input", "@f", "--other", "@g"], {"f": f8, "g": g8}, "json",
        O.witt_json(O.point_eval(O.pairwise_sums(dense8, sparse8), 8), 8))
    a6, b6 = [rational(rng) for _ in range(6)], [rational(rng) for _ in range(6)]
    add("witt-mul-6", ["witt", "mul", "--input", "@f", "--other", "@g"],
        {"f": O.witt_json(O.point_eval(a6, 6), 6), "g": O.witt_json(O.point_eval(b6, 6), 6)}, "json",
        O.witt_json(O.point_eval(O.pairwise_sums(a6, b6), 6), 6))
    add("witt-validate", ["witt", "validate", "--input", "@f"], {"f": f8}, "report",
        {"code": 0, "broken": None})
    corrupt = O.witt_json(corrupt_top(f8["values"], rng, 8), 8)
    add("witt-validate-corrupt", ["witt", "validate", "--input", "@f"], {"f": corrupt}, "report",
        {"code": 1, "broken": {"kind": "multiplicativity", "degree": 8}})
    add("witt-tau", ["witt", "tau", "--input", "@f"], {"f": f8}, "json",
        {"value": O.text(min(dense8))})

    def small_sym():
        terms = rng.sample(O.partitions_up_to(3), 2)
        return {lam: rng.randint(1, 3) for lam in terms}

    f, g = small_sym(), small_sym()
    add("sym-mul", ["sym", "mul", "--input", "@f", "--other", "@g"],
        {"f": sym_json(f, 6), "g": sym_json(g, 6)}, "json",
        {"degree_bound": 6, "coeffs": O.sym_product(f, g, 6)})
    a, b, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 7)
    top, low = O.complete_coproduct(8), O.complete_coproduct(k)
    coeffs = {key: a * c for key, c in top.items()}
    for key, c in low.items():
        coeffs[key] = coeffs.get(key, 0) + b * c
    hsum = {lam: a for lam in O.partitions_of(8)}
    hsum.update({lam: b for lam in O.partitions_of(k)})
    add("sym-coprod-mult-8", ["sym", "coprod-mult", "--input", "@f"], {"f": sym_json(hsum, 8)}, "json",
        {"degree_bound": 8, "coeffs": coeffs})
    h3, h2 = O.complete_coeffs(3), O.complete_coeffs(2)
    add("sym-plethysm", ["sym", "plethysm", "--input", "@g", "--other", "@f"],
        {"g": sym_json(h3, 8), "f": sym_json(h2, 8)}, "json",
        {"degree_bound": 8, "coeffs": O.sym_plethysm(h3, h2, 8)})

    space8 = point_eval_space(rng, 3, 8).to_json()
    add("cat-validate-8", ["cat", "validate", "--input", "@s"], {"s": space8}, "report",
        {"code": 0, "broken": None})
    add("cat-validate-8-broken", ["cat", "validate", "--input", "@s"],
        {"s": break_space(space8, "identity", rng, 8)}, "report",
        {"code": 1, "broken": {"kind": "identity", "degree": 8}})
    metric = generate.random_metric_space(rng, point_names(4))
    mjson = metric.to_json()
    add("cat-theta", ["cat", "theta", "--input", "@m", "--degree", "8"], {"m": mjson}, "json", {
        "degree_bound": 8,
        "points": mjson["points"],
        "dist": {pair: O.witt_json(O.theta_values(O.value(v), 8), 8) for pair, v in mjson["dist"].items()},
    })
    space6 = generate.random_point_eval_space(rng, point_names(3), 6).to_json()
    lam = rng.choice(O.partitions_up_to(6))
    add("cat-slice", ["cat", "slice", "--input", "@s", "--lambda", O.key(lam)], {"s": space6}, "json", {
        "partition": list(lam),
        "points": space6["points"],
        "table": {pair: e["values"][O.key(lam)] for pair, e in space6["dist"].items()},
    })
    hn = rng.randint(1, 6)
    add("cat-slice-h", ["cat", "slice", "--input", "@s", "--h", str(hn)], {"s": space6}, "json", {
        "n": hn,
        "points": space6["points"],
        "table": {pair: O.text(O.support_min(e["values"], [O.key(m) for m in O.partitions_of(hn)]))
                  for pair, e in space6["dist"].items()},
    })
    steps, seed = rng.randint(6, 12), rng.randrange(10**6)
    add("plancherel-sample", ["plancherel", "sample", "--steps", str(steps), "--seed", str(seed)], {},
        "path", sample_path(steps, seed).to_json())
    steps6, seed6 = 6, rng.randrange(10**6)
    path = sample_path(steps6, seed6).to_json()["steps"]
    add("plancherel-observe",
        ["plancherel", "observe", "--cat", "@s", "--steps", str(steps6), "--seed", str(seed6)],
        {"s": space6}, "json", {"seed": seed6, "steps": [observed_step(space6, lam) for lam in path]})
    add("suite-quantale", ["suite", "run", "--module", "quantale"], {}, "suite", ["residuation"])
    add("suite-plancherel", ["suite", "run", "--module", "plancherel"], {}, "suite", ["plancherel"])
    bad, kind = rng.choice([
        ('{"degree_bound": 8, "values": {"1": 1.5}}', "format"),
        ('{"degree_bound": 8, "values": {"x": "1"}}', "format"),
        ('{"degree_bound": 8, "values": ', "parse"),
    ])
    add("malformed", ["witt", "mul", "--input", "@bad", "--other", "@g"], {"bad": bad, "g": g8}, "error",
        {"code": 2, "kind": kind})

    # One heavy command in every five invocations, so that the 90th
    # percentile falls inside the heavy group.
    index = {c["name"]: i for i, c in enumerate(cmds)}
    assert sorted(index) == sorted(HEAVY + LIGHT_BY_COST)
    blocks = len(HEAVY)
    order = []
    for b, name in enumerate(HEAVY):
        order.append(index[name])
        order.extend(index[light] for light in LIGHT_BY_COST[b::blocks])
    return {"commands": cmds, "order": order}


def observed_step(space: dict, lam: list[int]) -> dict:
    k = O.key(lam)
    table = {pair: e["values"][k] for pair, e in space["dist"].items()}
    flat = all(table[f"{x}|{x}"] == "0" for x in space["points"])
    return {"partition": lam, "is_metric": flat, "points": space["points"], "table": table}


GENERATORS = {"spaces": gen_spaces, "cli-cold": gen_cli_cold}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args()
    rng = random.Random(f"{args.workload}:{args.seed}")
    json.dump(GENERATORS[args.workload](rng), sys.stdout)


if __name__ == "__main__":
    main()
