"""Which lines and branches of ``src/prframes`` the tier-1 tests never take.

    python tests/branches.py [PYTEST_ARG ...]

Runs pytest in this process (``-q -p no:cacheprovider --hypothesis-seed=0``,
then the given arguments, by default the whole suite) under a
``sys.settrace`` tracer that follows only frames of ``src/prframes``.  It
records each arc, a pair (line, next line) within one frame, and then
prints every statement that never ran and every ``if``/``while`` test that
went only one way.  A statement ran when a line of its header did; a def
whose body never ran is one entry; code that only a subprocess runs (the
demos, one CLI test) counts as never run.  This is a report, not a gate:
it exits 0 whatever it finds.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "prframes")
RETURN = -1  # the "next line" of an arc that leaves the frame


def trace(argv) -> dict:
    """Arcs per file of the package, taken while pytest runs on ``argv``."""
    arcs = defaultdict(set)

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        seen, last = arcs[path], [frame.f_lineno]

        def local(frame, event, arg):
            if event == "line":
                seen.add((last[0], frame.f_lineno))
                last[0] = frame.f_lineno
            elif event == "exception":
                last[0] = None  # a test that raises is neither branch
            elif event == "return" and last[0] is not None:
                seen.add((last[0], RETURN))
            return local

        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.argv = ["pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv]
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        runpy.run_module("pytest", run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.settrace(None)
    return arcs


def code_lines(code) -> set:
    """Lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def report(path: str, arcs: set) -> list:
    with open(path) as fh:
        source = fh.read()
    text, executable = source.splitlines(), code_lines(compile(source, path, "exec"))
    ran = {b for _, b in arcs}
    out = []

    def header(node) -> set:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        return set(range(first, max(first, last) + 1))

    def note(node, what):
        out.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}: {what}: {text[node.lineno - 1].strip()}")

    def walk(body):
        unrun = False  # one entry for a run of statements that never ran
        for node in body:
            lines = header(node)
            if lines & executable and not lines & ran:
                if not unrun:
                    note(node, "never ran")
                unrun = True
                continue
            unrun = False
            sides = ("body", "orelse", "finalbody", "handlers")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not any(header(s) & ran for s in node.body):
                    note(node, "never called")
                    continue
            if isinstance(node, (ast.If, ast.While)) and not isinstance(node.test, ast.Constant):
                span = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
                inside = set(span) if span[0] > node.lineno else set()
                taken = {b in inside for a, b in arcs if a in lines and b not in lines}
                if inside and len(taken) == 1:
                    note(node, f"went only {'true' if True in taken else 'false'}")
                    sides = ("body",) if True in taken else ("orelse",)
            for side in sides:
                walk(getattr(node, side, None) or [])

    walk(ast.parse(source).body)
    return out


def main(argv) -> int:
    arcs = trace(argv)
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if name.endswith(".py"):
            found += report(path, arcs.get(path, set()))
    print(*found, sep="\n")
    print(f"branches: {len(found)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
