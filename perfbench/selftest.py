"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json for one second with seed 7, untraced
and traced, and asserts that

- every metric named in BENCHMARK.json is printed, with its unit;
- the error rate is 0 and the run reports itself correct;
- the traced and the untraced run produce the same outputs (the digest of
  the first cycle of operation outputs is equal).

Exits 0 when every assertion holds, 1 otherwise.  The cli-cold workload
always runs one whole cycle (about 20 s, more when traced).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 1
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def check_metrics(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    got = result["metrics"]
    for metric in expected:
        name = metric["name"]
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
        elif got[name]["unit"] != metric["unit"]:
            problems.append(f"{label}: metric {name} has unit {got[name]['unit']}, expected {metric['unit']}")
        elif not isinstance(got[name]["value"], (int, float)):
            problems.append(f"{label}: metric {name} is not a number")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            info, result = run(workload, trace)
            runs[trace] = info
            problems += check_metrics(result, expected, label)
            error_rate = info["error_rate"]["value"]
            if error_rate != 0 or result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: error rate {error_rate}, failures {info['failures']}")
            print(f"{label}: {result['attempted']} operations, error rate {error_rate}", flush=True)
        if runs[0]["outputs_sha256"] != runs[1]["outputs_sha256"]:
            problems.append(f"{workload}: traced and untraced outputs differ")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
