"""Reachability gate: every statement of ``src/twistcert/`` runs under tier-1.

Run from anywhere, with the test dependencies installed::

    python tools/reach.py

It installs a line tracer limited to ``src/twistcert/``, runs the tier-1
tests in this process through ``pytest.main``, and compares the lines
reached with the statements of each file's ``ast``, docstrings skipped.  A
statement is reached when a line event falls on one of its lines (for a
compound statement, on its header), so statements that share a line are
reached together; a statement that compiles to no code, such as
``nonlocal``, is not counted.  It exits 1 and lists each statement
that was not reached, except those in a branch that ``ALLOWED`` names with
a reason.  An entry with no reason, or one that matches no unreached
statement, also fails it.  A failing tier-1 fails it with pytest's exit
code.  Standard library and pytest only; it is not part of tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistcert"

# (file, header line of the branch whose body may stay unreached, reason)
ALLOWED = (
    ("cli.py", "if module is None:",
     "a layer's first import: in-process the tests import every layer before the CLI, so cli._layer "
     "finds each in sys.modules; the subprocess tests of test_cli and test_package run this branch"),
    ("cli.py", 'if __name__ == "__main__":',
     "runs only as python -m twistcert.cli, which test_package starts in a subprocess"),
)


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements of the module, classes and functions."""
    owners = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef)))]
    return {id(owner.body[0]) for owner in owners
            if isinstance(owner.body[0], ast.Expr) and isinstance(owner.body[0].value, ast.Constant)
            and isinstance(owner.body[0].value.value, str)}


def _lines(node: ast.stmt) -> range:
    """The statement's lines, decorators included, or only its header's
    for a compound statement."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _code_lines(code) -> set[int]:
    """Lines that an instruction of ``code``, or of a code object nested in it, is on."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, range, str]]:
    """(first line, lines, first source line) of each statement of the
    file that compiles to code, docstrings skipped, in line order."""
    text = path.read_text()
    tree = ast.parse(text)
    executable = _code_lines(compile(text, str(path), "exec"))
    skip = _docstrings(tree)
    found = [(node.lineno, _lines(node), text.splitlines()[node.lineno - 1].strip())
             for node in ast.walk(tree)
             if isinstance(node, ast.stmt) and id(node) not in skip and executable.intersection(_lines(node))]
    return sorted(found, key=lambda statement: statement[0])


def allowed_lines(path: Path, header: str) -> set[int]:
    """The lines of the body of each branch of the file whose header line reads ``header``."""
    text = path.read_text()
    return {line for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.If) and text.splitlines()[node.lineno - 1].strip() == header
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1)}


def trace_tier1() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1: pytest's exit code and, per file of the package, the lines reached."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)  # no code of the package runs in another thread
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code, reached = trace_tier1()
    if code:
        print(f"reach: tier-1 failed (pytest exit {code})")
        return code

    problems = [f"ALLOWED entry {name}: {header!r} gives no reason"
                for name, header, reason in ALLOWED if not reason.strip()]
    counts = {"reached": 0, "allowed": 0, "unreached": 0}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        hit = reached.get(str(path), set())
        entries = [(header, allowed_lines(path, header)) for name, header, _ in ALLOWED if name == path.name]
        for first, lines, source in statements(path):
            matched = {(path.name, header) for header, body in entries if first in body}
            if hit.intersection(lines):
                counts["reached"] += 1
            elif matched:
                counts["allowed"] += 1
                used |= matched
            else:
                counts["unreached"] += 1
                problems.append(f"{path.relative_to(ROOT)}:{first}: not reached: {source}")
    problems += [f"ALLOWED entry {name}: {header!r} matches no unreached statement"
                 for name, header, _ in ALLOWED if (name, header) not in used]
    for line in problems:
        print(line)
    print("reach: {reached} statements of src/twistcert reached, {allowed} allowed unreached, "
          "{unreached} not reached".format(**counts))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
