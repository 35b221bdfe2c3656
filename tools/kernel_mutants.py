"""Mutation score of the trusted kernel's rejection sites.

Each ``raise _Err(...)`` statement in ``src/nabla/kernel.py`` is one site
where ``check`` rejects a derivation.  A helper that raises guards every
rule that calls it, so its ``raise`` is killed as soon as one caller's
condition is tested; each use of a helper is therefore a site as well.  A
statement that only calls such a helper, like ``_proves(...)`` or
``_same_judgment(...)``, is blanked: the mutant replaces it, as it does a
``raise``, with ``pass``.  A call of a helper that returns the value it
checks (``_need_lwff``, ``_need_rwff``, ``_moves_last``, ``_last_two``)
is replaced with that value unchecked: ``node.premises[i].conclusion``,
or the conclusion's last two labels.  Either way the one condition the
site guards is no longer enforced; ``_one_fresh_label``, whose result is
not one value it checks, stays one mutant (its ``raise``) for its two
callers.  For every site this script writes the mutant into a temporary
copy of the repository and runs the Tier-1 suite there, two mutants at a
time; the mutant is killed when a test fails.  It prints killed/total,
then the line and source of each surviving mutant, and exits 1 if any
survives.

Usage, from the repository root::

    python tools/kernel_mutants.py [--repo DIR]

``--repo`` names the checkout to mutate (default: the one holding this
script).  A full run takes Tier-1 once per site, stopping at the first
failure: about 12 minutes for the kernel's 104 sites (41 raise, 29 blanked
calls, 34 unchecked values) on a 2-vCPU machine.  It is not part of Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

KERNEL = Path("src/nabla/kernel.py")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

# The value each checking helper returns, unchecked, from the source of the
# call's arguments.
UNCHECKED = {
    "_need_lwff": lambda node, i: f"{node}.premises[{i}].conclusion",
    "_need_rwff": lambda node, i, kind: f"{node}.premises[{i}].conclusion",
    "_moves_last": lambda node, i, premise: f"{node}.premises[{i}].conclusion",
    "_last_two": lambda node: f"{node}.conclusion.seq[-2:]",
}


def _raises(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "_Err"
    )


def _calls(node: ast.AST, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def sites(source: str) -> list[ast.stmt | ast.Call]:
    """Every ``raise _Err(...)`` statement, every statement that only calls
    a top-level function holding one, and every call of an ``UNCHECKED``
    helper outside those helpers, in source order."""
    tree = ast.parse(source)
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    helpers = {f.name for f in functions if any(_raises(n) for n in ast.walk(f))}
    found = [n for n in ast.walk(tree) if _raises(n) or (isinstance(n, ast.Expr) and _calls(n.value, helpers))]
    found += [node for f in functions if f.name not in UNCHECKED for node in ast.walk(f) if _calls(node, UNCHECKED)]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def _unchecked(source: str, call: ast.Call) -> str:
    return UNCHECKED[call.func.id](*(ast.get_source_segment(source, a) for a in call.args))


def mutant(source: str, site: ast.stmt | ast.Call) -> str:
    """``source`` with ``site`` replaced: a statement by ``pass``, a call by
    its ``UNCHECKED`` value.  The other lines the site spanned become
    blank, so every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first, last = site.lineno - 1, site.end_lineno - 1
    if isinstance(site, ast.Call):
        head, tail = lines[first].encode()[: site.col_offset], lines[last].encode()[site.end_col_offset :]
        lines[first] = head.decode() + _unchecked(source, site) + tail.decode()
    else:
        lines[first] = " " * site.col_offset + "pass\n"
    for i in range(first + 1, last + 1):
        lines[i] = "\n"
    return "".join(lines)


def describe(source: str, site: ast.stmt | ast.Call) -> str:
    """The message argument of a raise site, the call a call site makes, or
    a call and the unchecked value that replaces it."""
    if isinstance(site, ast.Raise):
        return ast.get_source_segment(source, site.exc.args[1])
    if isinstance(site, ast.Call):
        return f"{ast.get_source_segment(source, site)} -> {_unchecked(source, site)}"
    return ast.get_source_segment(source, site)


def run_tier1(base: Path, work: Path, index: int, text: str) -> bool:
    """Run Tier-1 on a copy of ``base`` with ``text`` as the kernel; True
    when a test fails (the mutant is killed)."""
    root = work / f"mutant-{index}"
    shutil.copytree(base, root)
    (root / KERNEL).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    shutil.rmtree(root, ignore_errors=True)
    return done.returncode != 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    source = (args.repo / KERNEL).read_text(encoding="utf-8")
    found = sites(source)
    with tempfile.TemporaryDirectory(prefix="kernel-mutants-") as tmp:
        work = Path(tmp)
        base = work / "base"
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in COPIED:
            src = args.repo / name
            if src.is_dir():
                shutil.copytree(src, base / name, ignore=ignore)
            elif src.exists():
                shutil.copy2(src, base / name)
        with ThreadPoolExecutor(max_workers=2) as pool:
            killed = list(pool.map(lambda p: run_tier1(base, work, p[0], mutant(source, p[1])), enumerate(found)))
    survivors = [s for s, k in zip(found, killed) if not k]
    print(f"killed {len(found) - len(survivors)}/{len(found)}")
    for s in survivors:
        print(f"survived: line {s.lineno}: {describe(source, s)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
