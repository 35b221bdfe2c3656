"""Lines of ``src/nabla`` that no Tier-1 test runs.

The script runs the Tier-1 suite in this process, with
``--hypothesis-seed=0`` and ``-p no:cacheprovider``, under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records line events only
in code under ``src/nabla``.  It sets the tracer before pytest imports
nabla, so class bodies count as run.  It then compiles every module of
``src/nabla`` and, for each code object nested in one (functions, methods,
lambdas, comprehensions and class bodies; the module's own top level is
not counted), prints each of its lines that no test ran, as
``src/nabla/<module>.py:<line>: <source>``, followed by the count.  It
exits 1 if any line was not run or if a test failed.

Tests that run nabla in a child process (``nabla`` on the command line,
the ``run_in_child`` fixture) are not traced: a line that only they run is
reported as not run.

Usage, from anywhere::

    python tools/linetrace.py

It takes about four times as long as plain Tier-1 (about 63 s against
17 s on a 2-vCPU machine).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parents[1]
SOURCES = REPO / "src" / "nabla"
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--continue-on-collection-errors", "tests"]

# A code object's file, qualified name and first line: the same for the
# object an import makes and the one compiling the module again makes.
Key = tuple[str, str, int]


def _key(code: CodeType) -> Key:
    return code.co_filename, code.co_qualname, code.co_firstlineno


def trace_tests() -> tuple[int, dict[Key, set[int]]]:
    """Run Tier-1 under the tracer; its exit code and the lines each traced
    code object ran (its first line once it is entered)."""
    import pytest  # before the tracer, so that pytest's own import is not traced

    prefix = str(SOURCES) + os.sep
    ran: dict[Key, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[_key(frame.f_code)].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran.setdefault(_key(code), set()).add(code.co_firstlineno)
        return local

    sys.path[:0] = [str(REPO / "src"), str(REPO)]  # as ``python -m pytest`` with PYTHONPATH=src
    os.chdir(REPO)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def nested_code(code: CodeType):
    """Every code object nested in ``code``, at any depth, not ``code`` itself."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const
            yield from nested_code(const)


def not_run(ran: dict[Key, set[int]]) -> list[tuple[Path, int]]:
    """Each line of a nested code object of a ``src/nabla`` module that is
    not among the lines ``ran`` records for that object, in file order."""
    missed = set()
    for path in sorted(SOURCES.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in nested_code(module):
            seen = ran.get(_key(code), set())
            missed |= {(path, line) for _, _, line in code.co_lines() if line is not None and line not in seen}
    return sorted(missed)


def main() -> int:
    status, ran = trace_tests()
    missed = not_run(ran)
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path, _ in missed}
    for path, line in missed:
        print(f"{path.relative_to(REPO)}:{line}: {texts[path][line - 1].strip()}")
    print(f"{len(missed)} lines not run")
    return 1 if missed or status else 0


if __name__ == "__main__":
    sys.exit(main())
