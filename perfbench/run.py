"""The tropwitt benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

- ``cli-cold``: one cold ``python -m tropwitt.cli`` process at a time over a
  fixed mix of twenty README commands, one in five needing the full
  degree-8 multiplicative coproduct table;
- ``spaces``: at degree 6, validation, slices, functors, the
  lambda-action and growth-path observation on seeded Witt spaces, some
  of them deliberately broken, and Witt-rig operations on dense, sparse
  and corrupted elements.

The run is one process and a closed loop with one client.  Inputs and
expected outputs come from ``gen.py`` in a separate process, so this
process starts with cold ``functools.cache`` tables; generation time is
excluded from every end-to-end metric.  The timed phase repeats the
workload's cycle of operations until ``--seconds`` have passed, ending on a
cycle boundary.  Every result is checked, outside the timed calls, against
an independent route.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
environment, the error rate and the sample counts.  A full record (with the
spans of a traced run) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import probe  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli-cold", "spaces")
# Degree bound whose tables the spaces set-up builds.
SPACES_BOUND = 6
# Set-up samples per run: fresh interpreters, taken between operations of
# the timed phase (after every cycle of spaces, after every CLI_SETUP_EVERY
# cli-cold invocations) so that they see the host as the operations do, and
# topped up to at least MIN_SETUP_SAMPLES.  The median is reported.
MIN_SETUP_SAMPLES = 11
CLI_SETUP_EVERY = 2
SUBPROCESS_TIMEOUT_S = 120

CLI_COMMANDS = (
    "witt-theta", "witt-add", "witt-mul-8", "witt-mul-6", "witt-validate",
    "witt-validate-corrupt", "witt-tau", "sym-mul", "sym-coprod-mult-8",
    "sym-plethysm", "cat-validate-8", "cat-validate-8-broken", "cat-theta",
    "cat-slice", "cat-slice-h", "plancherel-sample", "plancherel-observe",
    "suite-quantale", "suite-plancherel", "malformed",
)

# Per-layer metrics that are the median of one kind of span:
# name -> (span name, span tag or None for any, scale, unit).
SPAN_METRICS = {
    "witt.mul_dense_ms": ("witt.mul", "dense", 1e3, "ms"),
    "witt.mul_sparse_ms": ("witt.mul", "sparse", 1e3, "ms"),
    "witt.add_ms": ("witt.add", None, 1e3, "ms"),
    "witt.validate_ms": ("witt.validate", None, 1e3, "ms"),
    "witt.leq_us": ("witt.leq", None, 1e6, "us"),
    "witt.from_json_ms": ("witt.from_json", None, 1e3, "ms"),
    "witt.to_json_ms": ("witt.to_json", None, 1e3, "ms"),
    "quantale.from_json_us": ("quantale.from_json", None, 1e6, "us"),
    "quantale.op_us": ("quantale.op", None, 1e6, "us"),
    "enriched.validate_ms": ("enriched.validate", None, 1e3, "ms"),
    "enriched.slice_ms": ("enriched.slice", None, 1e3, "ms"),
    "enriched.lambda_action_ms": ("enriched.lambda_action", None, 1e3, "ms"),
    "enriched.from_json_ms": ("enriched.from_json", None, 1e3, "ms"),
    "plancherel.sample_path_ms": ("plancherel.sample_path", None, 1e3, "ms"),
    "plancherel.observe_ms": ("plancherel.observe", None, 1e3, "ms"),
    "symfunc.plethysm_ms": ("symfunc.plethysm", None, 1e3, "ms"),
    "symfunc.multiply_ms": ("symfunc.multiply", None, 1e3, "ms"),
    "suites.residuation_s": ("suites.residuation", None, 1.0, "s"),
    "suites.plancherel_s": ("suites.plancherel", None, 1.0, "s"),
    "cli.import_ms": ("cli.import", None, 1e3, "ms"),
}
SPAN_METRICS.update({f"cli.{c}_ms": (f"cli.{c}", None, 1e3, "ms") for c in CLI_COMMANDS})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_json(args: list[str]) -> dict:
    """Run one of the benchmark's own helper processes; parse its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout)


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tropwitt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupSampler:
    """Set-up samples, each from an interpreter that had not yet imported
    tropwitt.  For spaces the first sample is this process, which then
    keeps its warm tables for the timed phase."""

    def __init__(self, workload: str):
        if workload == "cli-cold":
            self.probe = ["perfbench/probe.py", "setup", "--cli"]
            self.samples = []
        else:
            self.probe = ["perfbench/probe.py", "setup", "--bound", str(SPACES_BOUND)]
            sys.path.insert(0, str(SRC))
            self.samples = [probe.setup(SPACES_BOUND)]
            import tropwitt

            if Path(tropwitt.__file__).resolve().parent != SRC / "tropwitt":
                raise RuntimeError(f"imported tropwitt from {tropwitt.__file__}, not from {SRC}")

    def take(self) -> None:
        self.samples.append(run_json(self.probe))

    def top_up(self) -> None:
        while len(self.samples) < MIN_SETUP_SAMPLES:
            self.take()


def replay_cli(inputs: dict, argvs, tracer) -> int:
    """Replay each CLI command's public calls in a fresh process; merge the
    spans.  Returns the number of replays that failed."""
    failed = 0
    spec = OUT / "work" / "replay-spec.json"
    for c in inputs["order"]:
        name = inputs["commands"][c]["name"]
        spec.write_text(json.dumps(argvs[c]), encoding="utf-8")
        op_id = f"replay:{name}"
        try:
            records = run_json(["perfbench/probe.py", "replay", "--spec", str(spec)])["spans"]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError):
            failed += 1
            tracer.mark_failed(op_id)
            continue
        start = min(r[1] for r in records)
        end = max(r[2] for r in records)
        root = tracer.add("replay." + name, start, end, op_id)
        base = len(tracer.records)
        for name_, s, e, parent, _, tag in records:
            tracer.add(name_, s, e, op_id, tag, root if parent < 0 else base + parent)
    return failed


def layer_metrics(tracer, setup: list[dict], scaling: list[dict], gen_s: float, timed_s: float, timed_spans: int) -> dict:
    metrics = {}
    for name, value in spans.layer_summary(tracer).items():
        unit = "ms" if name.endswith("_ms") else "count"
        metrics[name] = (value, unit)
    for name, (span_name, tag, scale, unit) in SPAN_METRICS.items():
        metrics[name] = (spans.median(spans.durations(tracer, span_name, tag)) * scale, unit)
    for d in probe.COMULT_DEGREES:
        values = [s["comult_s"][str(d)] for s in scaling]
        metrics[f"symfunc.comult_table_n{d}_s"] = (spans.median(values), "s")
    stages = setup if "product_table_s" in setup[0] else scaling
    for stage, name in (
        ("product_table_s", "symfunc.product_table_ms"),
        ("splitting_table_s", "symfunc.splitting_table_ms"),
        ("enumerate_s", "partitions.enumerate_ms"),
    ):
        metrics[name] = (spans.median([s[stage] for s in stages]) * 1e3, "ms")
    metrics["generate.busy_s"] = (gen_s, "s")
    overhead = timed_spans * spans.span_cost_s() / timed_s if timed_s else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="tropwitt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tropwitt" / "__init__.py").is_file():
        print(f"error: no tropwitt sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()

    t0 = time.perf_counter()
    inputs = run_json(["perfbench/gen.py", "--workload", args.workload, "--seed", str(args.seed)])
    gen_s = time.perf_counter() - t0

    sampler = SetupSampler(args.workload)
    every = CLI_SETUP_EVERY if args.workload == "cli-cold" else len(inputs["ops"])

    def between(done: int) -> None:
        if done % every == 0:
            sampler.take()

    if args.workload == "cli-cold":
        import cold

        argvs = cold.materialize(inputs, work)
        loop = spans.Tally(tracer)
        peak_rss_mb = cold.run(loop, inputs, argvs, ROOT, child_env(), work, args.seconds, between) / 1024
    else:
        import warm

        loop = warm.run(inputs, tracer, args.seconds, between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_spans = len(tracer.records)
    sampler.top_up()
    setup = sampler.samples

    attempted = len(loop.latencies)
    failed = loop.failed
    busy = sum(loop.latencies)
    if args.trace:
        if args.workload == "cli-cold":
            replay_failed = replay_cli(inputs, argvs, tracer)
            attempted += len(inputs["order"])
            failed += replay_failed
        scaling = [run_json(["perfbench/probe.py", "setup", "--bound", "8"])]
        metrics = layer_metrics(tracer, setup, scaling, gen_s, busy, timed_spans)
    else:
        correct_per_cycle = loop.cycle * (attempted - failed) / attempted
        metrics = {
            "setup_s": (spans.median([s["setup_s"] for s in setup]), "s"),
            "throughput_ops_s": (correct_per_cycle / spans.cycle_time(loop.latencies, loop.cycle), "1/s"),
            "latency_p50_ms": (spans.median(loop.latencies) * 1e3, "ms"),
            "latency_p90_ms": (spans.p90(loop.latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    info = {
        "env": environment(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "timed_wall_s": loop.wall,
        "cycles": loop.cycles,
        "latency_samples": len(loop.latencies),
        "setup_samples_s": [s["setup_s"] for s in setup],
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "outputs_sha256": loop.digest.hexdigest(),
        "failures": loop.failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(info, result=result, latencies=loop.latencies)
    if args.trace:
        record["spans"] = tracer.records
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
