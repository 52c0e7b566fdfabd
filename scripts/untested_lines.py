#!/usr/bin/env python3
"""List the library statements that a pytest selection never runs.

    python scripts/untested_lines.py [pytest argument ...]

The selection (every test when no argument is given) runs in this process
under sys.settrace, which records the lines run in src/gamedyn/ only.  A
statement counts as run when one of its lines is: a simple statement's
own lines, a compound statement's header (decorators and signature
included).  Docstrings and global and nonlocal declarations are not
statements here.  Every statement that no test ran is printed as
path:line and its first line of source, in file order.  A test that
starts a subprocess (the CLI and script tests do) runs the library
outside this process, so what it runs there is not traced and may be
listed.  The exit status is pytest's.
"""

import ast
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gamedyn"


def statements(source: str) -> list[tuple[int, range]]:
    """Per statement of the module, docstrings and declarations left out:
    its first line and the lines whose running counts as running it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        doc = _docstring(node)
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for child in block:
                if child is doc or isinstance(child, (ast.Global, ast.Nonlocal)):
                    continue  # a declaration runs no code
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                inner = getattr(child, "body", None)
                last = inner[0].lineno - 1 if isinstance(inner, list) else child.end_lineno
                out.append((child.lineno, range(first, max(first, last) + 1)))
    return sorted(out)


def _docstring(node: ast.AST) -> ast.stmt | None:
    """The statement that is node's docstring, if it has one."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            return first
    return None


def main(argv: list[str]) -> int:
    # read before the run, so that an edit made while it runs moves no line
    modules = [(path, path.read_text()) for path in sorted(SRC.glob("*.py"))]
    ran = set()
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = 0
    for path, source in modules:
        lines = source.splitlines()
        for line, span in statements(source):
            total += 1
            if not any((str(path), n) in ran for n in span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} of {total} statements in {SRC.relative_to(ROOT)} not run; "
          "tests that start a subprocess are not traced")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
