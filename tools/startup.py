"""Per-module import time of nabla's start-up, in two checkouts side by side.

Each run starts a fresh ``python -X importtime`` that imports the modules the
benchmark's measuring process imports, once from each checkout's ``src``;
there are ``RUNS`` runs per checkout, and the two checkouts alternate, the
old one first in odd runs.  Only the
imports this statement makes are counted, not those the interpreter made
before it (``site`` and whatever it loads).  For every module the tool
prints the median and quartiles (``statistics.quantiles(n=4)``) of its
self time in microseconds over the runs, in the old and the new checkout;
a module that one checkout does not import reads 0 there.  The first row,
``(all)``, is the sum over the statement's modules, which is the whole
import; ``(modules)`` counts them.

The tool prints two tables: one from children started as usual, and one
from children started with ``python -S``, which skips ``site``.  A ``.pth``
file in site-packages can import standard modules (``importlib.resources``,
``typing``, ``pathlib``) before the statement, and the first table then
leaves them out; the second shows what an interpreter without them pays.

Usage, from anywhere::

    python tools/startup.py OLD NEW

``OLD`` and ``NEW`` are checkout roots (each holds ``src/nabla``).  The
children inherit the environment: with ``PYTHONDONTWRITEBYTECODE=1`` and no
``__pycache__`` each import also compiles its module, as a fresh checkout
does.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

MODULES = ("nabla.cli", "nabla.fuzz", "nabla.semantics", "nabla.translate")
MARK = "startup.py: statement begins"
RUNS = 20


def _import_times(root: Path, flags: tuple[str, ...]) -> dict[str, int]:
    """Self time in microseconds of each module the statement imports, in
    one fresh interpreter, started with ``flags``, that reads nabla from
    ``root / "src"``."""
    code = f"import sys\nsys.stderr.write({MARK!r} + '\\n')\nimport {', '.join(MODULES)}\n"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, *flags, "-X", "importtime", "-c", code], capture_output=True, text=True, env=env, check=True)
    lines = done.stderr.splitlines()
    times: dict[str, int] = {}
    for line in lines[lines.index(MARK) + 1 :]:
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = (part.strip() for part in line[len("import time:") :].split("|"))
            if self_us.isdigit():
                times[name] = times.get(name, 0) + int(self_us)
    return times


def _spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _table(sides: dict[str, Path], flags: tuple[str, ...]) -> None:
    """Print the table of ``RUNS`` children per side, started with ``flags``."""
    runs: dict[str, list[dict[str, int]]] = {"old": [], "new": []}
    for i in range(RUNS):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            runs[side].append(_import_times(sides[side], flags))
    for per_run in runs.values():
        for times in per_run:
            times["(modules)"] = len(times)
            times["(all)"] = sum(v for k, v in times.items() if k != "(modules)")
    names = sorted(set().union(*runs["old"], *runs["new"]))
    table = {
        name: {side: _spread([t.get(name, 0) for t in runs[side]]) for side in sides}
        for name in names
    }
    order = sorted(names, key=lambda n: (not n.startswith("("), -max(table[n]["old"]["median"], table[n]["new"]["median"])))
    print(f"{'module':32s} {'old median [q1, q3] us':>30s} {'new median [q1, q3] us':>30s}")
    for name in order:
        cells = [f"{s['median']:9.0f} [{s['q1']:7.0f}, {s['q3']:7.0f}]" for s in table[name].values()]
        print(f"{name:32s} {cells[0]:>30s} {cells[1]:>30s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    for title, flags in (("python", ()), ("python -S", ("-S",))):
        print(f"children started as: {title}")
        _table(sides, flags)
    return 0


if __name__ == "__main__":
    sys.exit(main())
