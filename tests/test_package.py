"""The package as a whole: src/ holds only what a command reaches, its
layers reach each other through their modules, and the version is one
value."""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

import twistcert

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twistcert"

# Definitions that nothing in src/ references, kept for the reader named:
# the oracle tests stay unchanged, and the benchmark tracer wraps
# sweep_intervals by name.
OUTSIDE_READERS = {
    "adjacency": "tests/test_oracles.py",
    "complement_census": "tests/test_oracles.py",
    "gf2_rank": "tests/test_oracles.py",
    "sweep_intervals": "tests/test_acceptance.py (acceptance 3) and perfbench/trace_cli.py",
}


def _scan_src():
    """Every function, class and method defined in src/twistcert/*.py,
    dunder methods aside, as {name: [file:line, ...]}, and every name
    that a Name, an Attribute or an import alias there references outside
    the OUTSIDE_READERS definitions, which no command runs."""
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        todo: list[ast.AST] = [ast.parse(path.read_text(), filename=str(path))]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
                if node.name in OUTSIDE_READERS:
                    continue
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name.rpartition(".")[2])
            todo.extend(ast.iter_child_nodes(node))
    return defined, referenced


def test_every_definition_in_src_is_reached():
    # a test-only definition belongs in the test module that reads it
    defined, referenced = _scan_src()
    unreached = sorted(f"{where} {name}" for name, places in defined.items()
                       if name not in referenced and name not in OUTSIDE_READERS for where in places)
    assert not unreached, "reached by no command: " + ", ".join(unreached)


def test_outside_readers_list_is_not_stale():
    defined, referenced = _scan_src()
    gone = sorted(name for name in OUTSIDE_READERS if name not in defined)
    assert not gone, "no longer defined in src/: " + ", ".join(gone)
    reached = sorted(name for name in OUTSIDE_READERS if name in referenced)
    assert not reached, "referenced in src/, so no longer outside-only: " + ", ".join(reached)


# what ``from . import`` may bind besides a layer module: the package's own names
PACKAGE_NAMES = {"__version__", "SweepResult"}


def test_layers_reach_each_other_only_through_their_modules():
    # ``from .layer import name`` binds a second copy of the name, which a
    # patch of the layer's attribute misses, and executes the layer at
    # import even when no command calls it
    layers = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and node.level
             and (node.module or not {a.name for a in node.names} <= layers | PACKAGE_NAMES)]
    assert not found, "import a layer's name, not its module: " + ", ".join(found)


def test_one_version_in_pyproject_package_and_cli():
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version\s*=\s*"([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match and match.group(1) == twistcert.__version__
    proc = subprocess.run([sys.executable, "-m", "twistcert.cli", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"twistcert {twistcert.__version__}\n"
