"""The whole-sequence oracle's time per call against G nesting and lasso size.

For each ``G`` nesting ``n`` in 1..4 (the most ``G`` on one path of the
formula) and each lasso size ``s + p`` in 2..8, the tool draws, from a
fixed seed, ``FORMULAS`` core history formulas of ``G`` nesting ``n`` and
``LASSOS`` lassos of that size (every split of the size into a stem and a
period of at least 1, in turn), with one observation sequence of up to 3
positions in ``0..8`` per lasso.  It calls ``semantics._eval_h_oracle`` on
every formula and lasso at two horizons:

- ``new``: ``semantics._min_horizon``, the slack proved per formula;
- ``old``: ``max(seq) + (s + p) * temporal_depth + 1``, the horizon the
  oracle required before.

and prints, per cell, the mean microseconds per call, the slowest call in
milliseconds and the mean slack.  The oracle's memo holds up to one entry
per node and sequence, which grows as the slack plus one to the power of
the ``G`` nesting, so a cell whose largest such estimate passes
``MEMO_BUDGET`` is not run and reads ``null``: at the old horizon one
sample of nesting 3 took minutes and gigabytes.  Each timed pass is the
best of ``REPEATS``, with the collector off.

Usage, from the repository root::

    python tools/oracle_ladder.py [--out BENCH_42.json]

``--out`` writes the table as the key ``oracle_ladder`` of that JSON file,
keeping its other keys.  It takes about a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nabla.formulas import Always, Atom, Bottom, Formula, temporal_depth  # noqa: E402
from nabla.gen import random_history_formula, random_obs_sequence  # noqa: E402
from nabla.semantics import LassoModel, _eval_h_oracle, _min_horizon  # noqa: E402

NESTINGS = range(1, 5)
SIZES = range(2, 9)
FORMULAS = 12
LASSOS = 12
REPEATS = 3
MEMO_BUDGET = 200_000
SEED = 42


def g_nesting(f: Formula) -> int:
    """The most ``G`` on one path of ``f``."""
    if type(f) in (Atom, Bottom):
        return 0
    below = max(g_nesting(c) for c in f._fields(f))
    return below + (type(f) is Always)


def _formulas(rng: random.Random, n: int) -> list[Formula]:
    out = []
    while len(out) < FORMULAS:
        f = random_history_formula(rng, rng.randint(n, 8))
        if g_nesting(f) == n:
            out.append(f)
    return out


def _lassos(rng: random.Random, size: int) -> list[tuple[LassoModel, tuple[int, ...]]]:
    out = []
    for i in range(LASSOS):
        s = i % size
        cells = [frozenset(x for x in ("p", "q", "r") if rng.random() < 0.5) for _ in range(size)]
        out.append((LassoModel(tuple(cells[:s]), tuple(cells[s:])), random_obs_sequence(rng, max_len=3, max_value=8)))
    return out


def _old_horizon(m: LassoModel, sigma: tuple[int, ...], g: Formula) -> int:
    return max(sigma) + (m.stem_len + m.period) * temporal_depth(g) + 1


def _cell(calls, horizon, n: int) -> dict | None:
    """Time every call at ``horizon``; None when a call's memo estimate
    passes the budget."""
    runs = [(m, sigma, g, horizon(m, sigma, g)) for m, sigma, g in calls]
    slacks = [h - max(sigma) for _, sigma, _, h in runs]
    if max((slack + 1) ** n for slack in slacks) > MEMO_BUDGET:
        return None
    best, slowest = float("inf"), 0.0
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            for m, sigma, g, h in runs:
                t = time.perf_counter()
                _eval_h_oracle(m, sigma, g, h)
                slowest = max(slowest, time.perf_counter() - t)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return {
        "us_per_call": round(best / len(runs) * 1e6, 2),
        "slowest_ms": round(slowest * 1e3, 3),
        "mean_slack": round(sum(slacks) / len(slacks), 2),
    }


def ladder() -> dict:
    rng = random.Random(SEED)
    cells = []
    for n in NESTINGS:
        formulas = _formulas(rng, n)
        for size in SIZES:
            calls = [(m, sigma, g) for m, sigma in _lassos(rng, size) for g in formulas]
            row = {"g_nesting": n, "size": size, "calls": len(calls)}
            for name, horizon in (("new", _min_horizon), ("old", _old_horizon)):
                row[name] = _cell(calls, horizon, n)
            cells.append(row)
            print(json.dumps(row), flush=True)
    return {
        "command": "python tools/oracle_ladder.py --out BENCH_42.json",
        "python": platform.python_version(),
        "what": (
            f"semantics._eval_h_oracle per call, {FORMULAS} formulas of each G nesting times {LASSOS} lassos of each "
            f"size s+p, seed {SEED}; best of {REPEATS} passes, collector off, wall-clock and unscaled; "
            f"a null cell's (slack+1)**nesting passed {MEMO_BUDGET}"
        ),
        "cells": cells,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    table = ladder()
    if args.out:
        data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        data["oracle_ladder"] = table
        args.out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
