"""The package and the CLI load only the modules that are used.

``tropwitt`` resolves its public names on first use, and each CLI command
and each law suite imports the modules it computes with in its own body.
The commands run in fresh interpreters, the way ``python -m tropwitt.cli``
runs them.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tropwitt
from tropwitt.generate import random_metric_space

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that cost a cold process milliseconds to import and that no
# command needs: a third-party option parser, and the modules behind
# dataclasses (inspect loads ast, dis and tokenize)
HEAVY = {"click", "dataclasses", "inspect"}

# run the CLI as `python -m tropwitt.cli <argv>` does, then report the exit
# code, the tropwitt modules loaded, and the HEAVY modules that the run loads
# beyond those of a bare interpreter with json and runpy, as JSON on stderr
RUN_CLI = """
import json, runpy, sys
bare = set(sys.modules)
sys.argv = ["tropwitt", *json.loads(sys.argv[1])]
try:
    runpy.run_module("tropwitt.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "tropwitt")
heavy = sorted(m for m in set(sys.modules) - bare if m.split(".")[0] in %r)
print(json.dumps({"code": code, "modules": loaded, "heavy": heavy}), file=sys.stderr)
""" % sorted(HEAVY)

BASE = {"tropwitt", "tropwitt.errors", "tropwitt.partitions", "tropwitt.quantale", "tropwitt.report"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=False
    )


def _run_cli(argv: list[str]) -> tuple[int, str, set[str], list[str]]:
    proc = _python("-c", RUN_CLI, json.dumps(argv))
    report = json.loads(proc.stderr.splitlines()[-1])
    return report["code"], proc.stdout, set(report["modules"]), report["heavy"]


@pytest.fixture(scope="module")
def metric_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "metric.json"
    space = random_metric_space(random.Random(3), ("a", "b", "c"))
    path.write_text(json.dumps(space.to_json()))
    return str(path)


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["witt", "theta", "--r", "1", "--degree", "4"], BASE | {"tropwitt.symfunc", "tropwitt.witt"}),
        (["sym", "bases", "--n", "2", "--degree", "3"], BASE | {"tropwitt.symfunc"}),
        (
            ["cat", "validate", "--input", "{metric}"],
            BASE | {"tropwitt.symfunc", "tropwitt.witt", "tropwitt.enriched"},
        ),
        (["plancherel", "sample", "--steps", "5"], BASE | {"tropwitt.plancherel"}),
        (["suite", "run", "--module", "quantale"], BASE | {"tropwitt.suites"}),
    ],
    ids=lambda v: "-".join(v[:2]) if isinstance(v, list) else None,
)
def test_a_command_loads_only_its_modules(metric_path, argv, modules):
    code, stdout, loaded, heavy = _run_cli([a.format(metric=metric_path) for a in argv])
    assert code == 0, stdout
    if argv[0] == "suite":
        assert stdout == "PASS residuation: 22736 passed, 0 failed\n"
    else:
        json.loads(stdout)
    assert loaded == modules
    assert heavy == []


def test_importing_the_package_and_the_cli_loads_no_computing_module():
    probe = "import json, sys, {}; print(json.dumps([m for m in sys.modules if m.startswith('tropwitt')]))"
    assert json.loads(_python("-c", probe.format("tropwitt")).stdout) == ["tropwitt"]
    loaded = json.loads(_python("-c", probe.format("tropwitt.cli")).stdout)
    assert set(loaded) == BASE | {"tropwitt.cli"}


def test_every_public_name_resolves_to_its_module_attribute():
    for name in tropwitt.__all__:
        value = getattr(tropwitt, name)
        module = importlib.import_module(f"tropwitt.{tropwitt._MODULE_OF[name]}")
        assert value is getattr(module, name)
        assert vars(tropwitt)[name] is value  # cached after the first read


def test_dir_lists_every_public_name():
    assert set(tropwitt.__all__) <= set(dir(tropwitt))
    assert {"__version__", "__all__"} <= set(dir(tropwitt))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tropwitt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tropwitt.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        tropwitt.nosuch  # noqa: B018
    assert not hasattr(tropwitt, "nosuch")
