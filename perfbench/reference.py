"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

On a shared host the same code runs at different speeds from one phase to
the next: other tenants slowed every item of a workload by up to 1.7 times,
in phases of a second to minutes.  ``measure.py`` times ``reference`` every
``EVERY_S`` seconds between items, and ``run.py`` scales each item's time by
``REF_S`` over the reference times measured next to it.  The reported times
are then the times the item would take at the speed at which the reference
takes ``REF_S``; a change to nabla moves them, a slow phase of the machine
mostly does not.  Nothing here imports nabla, so no change to the program
changes the reference.

The work is of the kind nabla does: building formula trees as tuples,
memoised recursion over them through a dict, and frozenset traffic.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference's time on the two-vCPU VM the benchmark was tuned on, in a
# quiet phase: the speed that reported times are scaled to.
REF_S = 0.6e-3
EVERY_S = 0.02
# An item's speed is the median of the reference times within this many
# seconds of it, and at least the one before and the one after it.
WINDOW_S = 0.1


def reference() -> int:
    atoms = [("atom", f"p{i}") for i in range(6)]
    memo: dict = {}

    def build(depth: int, n: int):
        if depth == 0:
            return atoms[n % 6]
        if n % 3 == 0:
            return ("G", build(depth - 1, n * 7 + 1))
        return ("->" if n % 3 == 1 else "&", build(depth - 1, n * 5 + 2), build(depth - 1, n * 3 + 1))

    def size(f) -> int:
        if f in memo:
            return memo[f]
        n = 1 + sum(size(x) for x in f[1:] if isinstance(x, tuple))
        memo[f] = n
        return n

    acc = 0
    for r in range(3):
        f = build(8, r)
        acc += size(f)
        acc += len(frozenset(map(repr, f[1:])) | frozenset(atoms))
    return acc


def timed() -> tuple[float, float]:
    """(midpoint, seconds) of one run of ``reference``."""
    t0 = perf_counter()
    reference()
    t1 = perf_counter()
    return (t0 + t1) / 2, t1 - t0


def scaler(refs: list[tuple[float, float]]):
    """A function that scales a time measured over [start, end] to the reference speed."""
    mids = [m for m, _ in refs]
    durs = [d for _, d in refs]

    def scale(t: float, start: float, end: float) -> float:
        lo = min(bisect_left(mids, start - WINDOW_S), max(0, bisect_left(mids, start) - 1))
        hi = max(bisect_right(mids, end + WINDOW_S), bisect_right(mids, end) + 1)
        return t * REF_S / statistics.median(durs[lo:hi])

    return scale
