"""Which code of the package the test suite never reaches.

Runs the test suite in this process under ``sys.settrace`` and records, for
every frame of a module of ``src/macx``, the lines it executed and the
line-to-line steps it took. It then prints every statement that never ran
and every ``if`` or ``while`` whose true or false arm was never taken, and
exits 1 if there is any (or if the suite itself fails). The ``__main__``
guard of a module is exempt, since the suite imports modules rather than
running them as scripts; a ``while True`` loop has no false arm to take.

    PYTHONPATH=src python tests/reach.py

Tracing makes the suite several times slower, so this is a script, not a
test module, and the suite does not run it.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "macx"
EXIT = -1  # the destination of a step that leaves the frame


def _header(node):
    """The first and last line of a statement's own text: for a compound
    statement, up to the end of its test, iterable or decorated line."""
    first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
    if isinstance(node, (ast.If, ast.While)):
        return first, node.test.end_lineno
    if isinstance(node, ast.For):
        return first, node.iter.end_lineno
    if isinstance(node, ast.With):
        return first, node.items[-1].context_expr.end_lineno
    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Try)):
        return first, node.lineno
    return first, node.end_lineno


def _is_docstring(body, i):
    node = body[i]
    return (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node):
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__")


def _is_forever(node):
    return isinstance(node.test, ast.Constant) and node.test.value is True


def analyse(source):
    """(statements, branches) of a module's source: each statement as the
    range of its header lines; each ``if`` and ``while`` (but ``while
    True``) as (scope, its header range, the header range of the first
    statement of its body), its scope being the (name, first line) of the
    code object that runs it. A statement's first event may come from any
    line of its header, as from a later line of a multi-line dict."""
    statements, branches = [], []

    def visit(body, scope):
        for i, node in enumerate(body):
            if _is_docstring(body, i) or (scope == ("<module>", 1) and _is_main_guard(node)):
                continue
            span = _header(node)
            statements.append(span)
            if isinstance(node, ast.If) or isinstance(node, ast.While) and not _is_forever(node):
                branches.append((scope, span, _header(node.body[0])))
            inner = (node.name, span[0]) if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else scope
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)

    visit(ast.parse(source).body, ("<module>", 1))
    return statements, branches


class Tracer:
    """Lines run per file, and steps (from line, to line) per file and code
    object, for the files of the package. A step that follows an exception
    is not recorded: it is no arm of the statement it leaves."""

    def __init__(self, files):
        self.lines = {f: set() for f in files}
        self.steps = {f: {} for f in files}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        lines = self.lines.get(code.co_filename)
        if lines is None:
            return None
        steps = self.steps[code.co_filename].setdefault((code.co_name, code.co_firstlineno), set())
        prev, raised = frame.f_lineno, False  # a resumed generator goes on from its yield

        def local(frame, event, arg):
            nonlocal prev, raised
            if event == "line":
                line = frame.f_lineno
                lines.add(line)
                if not raised:
                    steps.add((prev, line))
                prev, raised = line, False
            elif event == "return":
                if not raised:
                    steps.add((prev, EXIT))
            elif event == "exception":
                raised = True
            return local

        return local


def report(path, source, lines, steps):
    """The findings for one module, one line each."""
    text = source.splitlines()
    name = path.relative_to(ROOT)
    statements, branches = analyse(source)
    found = [f"{name}:{first}: never ran: {text[first - 1].strip()}"
             for first, last in statements if lines.isdisjoint(range(first, last + 1))]
    for scope, (first, last), (body_first, body_last) in branches:
        header, body = range(first, last + 1), range(body_first, body_last + 1)
        leaving = {b for a, b in steps.get(scope, ()) if a in header and b not in header}
        if leaving.isdisjoint(body):
            found.append(f"{name}:{first}: never took its true arm: {text[first - 1].strip()}")
        if not any(b not in body for b in leaving):
            found.append(f"{name}:{first}: never took its false arm: {text[first - 1].strip()}")
    return found


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    sources = {str(p): p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    tracer = Tracer(sources)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    found = []
    for path, source in sources.items():
        found += report(Path(path), source, tracer.lines[path], tracer.steps[path])
    print("\n".join(found) if found else "every statement ran and every arm was taken")
    if status != 0:
        print(f"the test suite failed (pytest exit {int(status)})")
    return 1 if found or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
