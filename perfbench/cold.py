"""The ``cli-cold`` workload: one cold ``python -m tropwitt.cli`` at a time.

Every invocation is a fresh interpreter, so it pays the import and rebuilds
whatever structure tables its command needs.  The benchmark times each
child from spawn to exit, keeps the child's own peak resident memory (from
``wait4``), and checks its exit code and stdout afterwards.  This module
does not import ``tropwitt``.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

import oracles as O
from spans import Tally, run_loop

CHILD_TIMEOUT_S = 60
# gen.py orders the invocations in blocks of one heavy and four light
# commands; a run ends on a block boundary once a whole cycle is done.
BLOCK = 5


def run_child(argv: list[str], cwd: Path, env: dict, stderr_path: Path) -> tuple[int, bytes, int]:
    """Run a child to completion: (exit code, stdout, peak RSS in KiB).

    The child is reaped with ``wait4`` so its own resource usage is kept;
    a child that outlives CHILD_TIMEOUT_S is killed and reported as -9.
    """
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
    chunks = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                proc.kill()
                break
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks), usage.ru_maxrss


def check(cmd: dict, code: int, stdout: bytes) -> bool:
    kind, expect = cmd["check"], cmd["expect"]
    text = stdout.decode("utf-8", "replace")
    if kind == "suite":
        lines = text.splitlines()
        return (
            code == 0
            and all(line.startswith("PASS ") for line in lines)
            and [line.split(":")[0][5:] for line in lines] == expect
        )
    doc = json.loads(text)  # exactly one JSON document, or the check fails
    if kind == "json":
        return code == 0 and doc == expect
    if kind == "report":
        return code == expect["code"] and O.report_matches(doc, expect["broken"])
    if kind == "path":
        steps = doc["steps"]
        return (
            code == 0
            and doc == expect
            and steps[0] == [1]
            and all(O.is_cover(a, b) for a, b in zip(steps, steps[1:]))
        )
    if kind == "error":
        return (
            code == expect["code"]
            and list(doc) == ["error"]
            and doc["error"]["kind"] == expect["kind"]
        )
    raise ValueError(f"unknown check {kind!r}")


def materialize(inputs: dict, work: Path) -> list[list[str]]:
    """Write every command's input files; return each command's argv."""
    argvs = []
    for i, cmd in enumerate(inputs["commands"]):
        paths = {}
        for name, content in cmd["files"].items():
            path = work / f"{i:02d}-{cmd['name']}-{name}.json"
            path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
            paths["@" + name] = str(path)
        argvs.append([paths.get(word, word) for word in cmd["argv"]])
    return argvs


def run(tally: Tally, inputs: dict, argvs, root: Path, env: dict, work: Path, seconds: float, between) -> int:
    """Run the commands in order, cycle after cycle, for at least `seconds`.
    Returns the largest peak RSS of any child, in KiB."""
    cmds, order = inputs["commands"], inputs["order"]
    stderr_path = work / "child-stderr.txt"
    peak_rss_kib = 0

    def step(op_id: int):
        nonlocal peak_rss_kib
        c = order[op_id % len(order)]
        cmd = cmds[c]
        argv = [sys.executable, "-m", "tropwitt.cli", *argvs[c]]
        t0 = time.perf_counter()
        with tally.tracer.span("cli." + cmd["name"], op_id):
            code, stdout, rss = run_child(argv, root, env, stderr_path)
        t1 = time.perf_counter()
        peak_rss_kib = max(peak_rss_kib, rss)
        try:
            ok = check(cmd, code, stdout)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        label = "" if ok else f"{cmd['name']}: exit {code}: {stdout[:200]!r} " + stderr_path.read_text(
            errors="replace"
        )[-300:]
        return t1 - t0, ok, label, f"{cmd['name']}:{code}:".encode() + stdout

    run_loop(tally, len(order), step, seconds, between, stop_every=BLOCK)
    return peak_rss_kib
