"""The package and the CLI load only the modules that are used.

``tropwitt`` resolves its public names on first use, through its table of
the module that defines each name.  The CLI and the law suites read every
name beyond the base modules through that table, so each command and each
suite loads only the modules it computes with.  The commands run in fresh
interpreters, the way ``python -m tropwitt.cli`` runs them.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropwitt

from test_cli import EVERY_COMMAND, cli_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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
def inputs(tmp_path_factory):
    return cli_inputs(tmp_path_factory.mktemp("imports"))


_SYMFUNC, _WITT = {"symfunc"}, {"symfunc", "witt"}
_ENRICHED = _WITT | {"enriched"}
# beyond BASE, the modules that each command loads: by group, by command
# where its group's do not serve, and by the module a suite run names
LOADS = {
    "sym": _SYMFUNC,
    "witt": _WITT,
    "cat": _ENRICHED,
    "plancherel": {"plancherel"},
    "plancherel observe": _ENRICHED | {"plancherel"},
    "suite run quantale": {"suites"},
    "suite run plancherel": {"plancherel", "suites"},
    "suite run symfunc": {"suites", "symfunc"},
    "suite run witt": _ENRICHED | {"generate", "suites"},
    "suite run enriched": _ENRICHED | {"generate", "suites"},
}
SUITE_RUNS = [["suite", "run", "--module", module] for module in
              ("quantale", "plancherel", "symfunc", "witt", "enriched")]


def _name(argv: list[str]) -> str:
    return " ".join(argv[:2] + argv[3:4] if argv[0] == "suite" else argv[:2])


@pytest.mark.parametrize("argv", EVERY_COMMAND + SUITE_RUNS, ids=lambda v: _name(v).replace(" ", "-"))
def test_a_command_loads_only_its_modules(inputs, argv):
    code, stdout, loaded, heavy = _run_cli([a.format(**inputs) for a in argv])
    assert code == 0, stdout
    if argv == SUITE_RUNS[0]:
        assert stdout == "PASS residuation: 22736 passed, 0 failed\n"
    elif argv[0] == "suite":
        assert stdout and all(line.startswith("PASS ") for line in stdout.splitlines())
    else:
        json.loads(stdout)
    modules = LOADS.get(_name(argv)) or LOADS[argv[0]]
    assert loaded == BASE | {f"tropwitt.{m}" for m in modules}
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


def _names_read(paths) -> set[str]:
    """The names that the files read: each loaded ``Name``, loaded
    ``Attribute`` and import alias, so a docstring or a definition is not a
    use."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    # the library, less the package's table of names, or the benchmark uses
    # each public name; one that only the tests reach belongs in oracles.py
    library = [path for path in (SRC / "tropwitt").glob("*.py") if path.name != "__init__.py"]
    used = _names_read(library + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(set(tropwitt.__all__) - used) == []


def _attributes_read(path) -> set[tuple[str, tuple[str, ...]]]:
    """Each attribute name that the file loads, with the names of the
    classes whose bodies hold the read, outermost first."""
    reads = set()

    def visit(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = (*classes, node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, classes))
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return reads


def test_every_public_member_has_a_caller():
    # each public member of a public class, or of its tropwitt bases, is
    # read by the benchmark or by the library outside the body of the class
    # that defines it; NamedTuple fields are data, not members.  A member
    # passes when any object's attribute of the same name is read
    bench = {name for path in (ROOT / "perfbench").glob("*.py") for name, _ in _attributes_read(path)}
    library = {path.stem: _attributes_read(path) for path in (SRC / "tropwitt").glob("*.py")}
    unread = set()
    for name in tropwitt.__all__:
        value = getattr(tropwitt, name)
        for cls in value.__mro__ if isinstance(value, type) else ():
            if not cls.__module__.startswith("tropwitt."):
                continue
            module = cls.__module__.removeprefix("tropwitt.")
            for member in vars(cls):
                if member.startswith("_") or member in getattr(cls, "_fields", ()) or member in bench:
                    continue
                if not any(
                    attr == member and not (file == module and cls.__name__ in classes)
                    for file, reads in library.items()
                    for attr, classes in reads
                ):
                    unread.add(f"{name}.{member}")
    assert sorted(unread) == []


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
