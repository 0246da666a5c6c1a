"""List the statements of `src/wtgc` that no tier-1 test executes.

    PYTHONPATH=src python tests/dump_coverage.py [PYTEST ARGS...]

Runs pytest in-process (by default on the tier-1 suite, `tests` and
`perfbench`) under `sys.settrace` and `threading.settrace`, records each
line run in a module of `src/wtgc`, and prints, per module, every
statement of which no line ran, then the total.  Docstrings, `def` and
`class` headers and `import` lines are skipped; a compound statement
counts only its header (`if`, `for`, `while`, `with`), a `try` is only
its parts.  Code that runs only in a subprocess is not seen.  Hypothesis
deadlines are off, since tracing slows every line.  The `coverage`
package is not needed.  Not part of the test suite.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wtgc"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)


def statements(path: Path):
    """(first line, last line) of every statement that should run."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body[0].docstring = True
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if getattr(node, "docstring", False):
            continue
        if isinstance(node, (ast.If, ast.For, ast.AsyncFor, ast.While,
                             ast.With, ast.AsyncWith)):
            yield node.lineno, max(node.lineno, node.body[0].lineno - 1)
        else:
            yield node.lineno, node.end_lineno


def main(args):
    prefix = str(SRC) + os.sep
    ours = {}  # co_filename -> whether it names a module of src/wtgc
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return local if ours[name] else None

    settings.register_profile(
        "traced", deadline=None, suppress_health_check=list(HealthCheck))
    settings.load_profile("traced")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(args or ["tests", "perfbench"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = {(os.path.realpath(name), n) for name, n in hits}
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        missed = sorted({first for first, last in statements(path)
                         if not any((str(path), n) in ran
                                    for n in range(first, last + 1))})
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)}")
            for first in missed:
                print(f"  {first}: {lines[first - 1].strip()}")
    print(f"{total} statements not executed (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
