"""Run one workload of the nabla benchmark and print its metrics.

    python3 perfbench/run.py --workload check-proofs --seed 1 --seconds 25 --trace 0

Run it from a checkout of the repository; nabla is imported from the
checkout's ``src``, so there is nothing to build.  The inputs are made
from ``--seed`` (see ``inputs.py``) in a work directory under
``.bench_work/``, which is removed at the end.  A run measures a fixed
number of passes, chosen from ``--seconds`` and the pass times in
``PASSES``, so the same seed times the same work on every commit.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` it
holds every per-layer metric: each item runs untraced and then, renamed,
traced, and the difference between the two is the tracing overhead.
End-to-end times are scaled to one machine speed (see ``reference.py``);
the same metrics in wall-clock time go to standard error.
A summary with the error rate and every failed item goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import reference
import tracer

# Per workload: seconds one base pass takes at the recorded baseline, and
# base passes per run, enough for at least 100 distinct items so that the
# 90th percentile has ten items beyond it.
PASSES = {
    "check-proofs": (4.6, 1),
    "check-wide": (5.9, 1),
    "eval-deep": (0.9, 4),
    "fuzz-lemmas": (1.2, 4),
}
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150


def plan(workload: str, seconds: int) -> tuple[int, int]:
    """Base passes, and copies of them that fill about ``seconds`` at the baseline speed."""
    pass_s, bases = PASSES[workload]
    return bases, max(1, round(seconds / (pass_s * bases)))


def _child(root: Path, work: Path, *flags: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(root / "perfbench" / "measure.py"), str(work), *flags]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")


def end_to_end(result: dict, setups: list[float], scale) -> dict:
    # Every copy of a base item is an item of its own (renamed, or another
    # fuzz draw), so the rates and percentiles are over all items measured.
    items = [(it["work"], scale(it)) for it in result["items"]]
    ms = [1e3 * t for _, t in items]
    ok = sum(it["status"] == "correct" for it in result["items"])
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": sum(w for w, _ in items) / sum(t for _, t in items),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mib": result["rss_kib"] / 1024,
        "ok_rate": ok / len(result["items"]),
    }


def summary(args, run: dict, result: dict, gen_s: float) -> str:
    items = result["items"]
    by_id = {it["id"]: it for ps in run["passes"] for it in ps}
    bad = Counter(
        (by_id[it["id"]]["props"].get("source", by_id[it["id"]]["kind"]), it["status"], it["detail"])
        for it in items
        if it["status"] != "correct"
    )
    lines = [
        f"{args.workload} seed {args.seed}: {len(items)} items in {len(run['passes'])} passes, "
        f"loop {result['loop_s']:.2f} s, inputs generated in {gen_s:.2f} s, "
        f"error_rate {sum(bad.values()) / len(items):.4f} ({sum(bad.values())}/{len(items)})"
    ]
    lines += [f"  {n} x {src} {status}: {detail}" for (src, status, detail), n in sorted(bad.items())]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the nabla benchmark.")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "nabla" / "__init__.py").is_file():
        print(f"error: no nabla sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        bases, copies = plan(args.workload, args.seconds)
        # A traced run times one copy untraced and one traced.
        run = inputs.build(root, work, args.workload, args.seed, bases, 2 if args.trace else copies)
        gen_s = time.perf_counter() - t0
        (work / "inputs.json").write_text(json.dumps(run), encoding="utf-8")

        by_id = {it["id"]: it for ps in run["passes"] for it in ps}
        if args.trace:
            _child(root, work, "--trace")
            result = json.loads((work / "result.json").read_text())
            names, spans = tracer.load(work / "spans.bin")
            metrics = tracer.aggregate(names, spans, [by_id[r["id"]] for r in result["items"]], result)
        else:
            # Set-up is generating the warm-up inputs, importing nabla and
            # running the warm-up, each time in a fresh process.  The middle
            # one of these processes goes on to measure, so that the set-up
            # times are spread over the run, as the item times are.
            setups, setups_wall = [], []
            for r in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                inputs.build_pass(root, work, args.workload, args.seed, "w")
                gen_w = time.perf_counter() - t0
                if r != SETUP_REPEATS // 2:
                    _child(root, work, "--setup-only", str(r))
                    setup = json.loads((work / f"setup-{r}.json").read_text())
                else:
                    _child(root, work)
                    setup = result = json.loads((work / "result.json").read_text())
                setups_wall.append(gen_w + setup["import_s"] + setup["warmup_s"])
                setups.append(setups_wall[-1] * reference.REF_S / statistics.median(setup["setup_refs"]))
            to_ref = reference.scaler(result["refs"])
            metrics = end_to_end(result, setups, lambda it: to_ref(it["t"], it["start"], it["start"] + it["t"]))
            wall = end_to_end(result, setups_wall, lambda it: it["t"])
            print("wall-clock " + json.dumps(wall), file=sys.stderr)
            # Each process's set-up time, in the order they ran.
            print("setups " + json.dumps(setups), file=sys.stderr)
        print(summary(args, run, result, gen_s), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    statuses = [(it["status"], by_id[it["id"]].get("known_defect", False)) for it in result["items"]]
    print(json.dumps({
        # A known defect (ROADMAP item 3) that raises is a failure but not a
        # wrong answer; any other exception or any wrong answer is.
        "correct": not any(s == "wrong" or (s == "error" and not known) for s, known in statuses),
        "attempted": len(result["items"]),
        "failed": sum(it["status"] != "correct" for it in result["items"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
