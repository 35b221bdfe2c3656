"""Run a workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload eval-deep --seeds 1-10 [--trace 0] [--out FILE]

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median,
next to the bound in ``BENCHMARK.json``.  ``setup_s.once`` is the
set-up time of the measuring process alone, what ``setup_s`` would read
without its repeats, and ``wall.<metric>`` is a metric in wall-clock
time, not scaled to the reference speed.  ``--out`` appends every run's
JSON line, with each process's set-up time and the wall-clock metrics, to
FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        sys.stderr.write(proc.stderr)
        proc.check_returncode()
        line = proc.stdout.strip().splitlines()[-1]
        tagged = {}
        for ln in proc.stderr.splitlines():
            tag, _, rest = ln.partition(" ")
            if tag in ("setups", "wall-clock"):
                tagged[tag] = json.loads(rest)
        record = {"workload": args.workload, "seed": seed, "result": json.loads(line)}
        if "wall-clock" in tagged:
            record["wall_clock"] = tagged["wall-clock"]
            for name, value in tagged["wall-clock"].items():
                values.setdefault(f"wall.{name}", []).append(value)
        if "setups" in tagged:
            record["setups"] = setups = tagged["setups"]
            # What setup_s would read if it were timed once, in the measuring process alone.
            values.setdefault("setup_s.once", []).append(setups[len(setups) // 2])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        for name, m in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:45s} median {med:12.6g}  spread {spread:7.4f}" + (f"  bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
