"""One measuring process of the nabla benchmark.

Reads the inputs that ``inputs.py`` wrote, imports nabla, runs the warm-up
items, then times the measured items one after another (a closed loop with
one caller), checking each output against its known answer after its time
is taken.  Between items, untraced, it times ``reference.reference`` every
``reference.EVERY_S`` seconds, and around import and warm-up, so that
``run.py`` can scale the times to one machine speed.  Writes a JSON result,
and with ``--trace`` a span file, next to the inputs.  Items are timed in
loop order; the result lists them so.

    python3 perfbench/measure.py WORKDIR [--setup-only N | --trace]

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def _reset_caches(kernel) -> None:
    # A one-shot `nabla check` starts with an empty formula cache, so every
    # measured item does too.
    cache = getattr(kernel, "_NORM_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


class Runner:
    def __init__(self, root: Path):
        from nabla import cli, formulas, fuzz, kernel, semantics, translate

        self.root, self.cli, self.fuzz, self.kernel, self.sem = root, cli, fuzz, kernel, semantics
        self.formulas, self.translate = formulas, translate
        self.eval_ltl = semantics.eval_ltl  # bound now, so that checking an answer is never traced

    def prepare(self, item: dict) -> None:
        """Turn an evaluation item into nabla objects; not part of its time."""
        if item["kind"] == "eval":
            f = self.formulas.parse_ltl(item["formula"])
            cells = lambda rows: tuple(frozenset(r) for r in rows)
            item["_source"] = f
            item["_image"] = self.translate.translate(f)
            item["_model"] = self.sem.LassoModel(cells(item["stem"]), cells(item["loop"]))

    @staticmethod
    def release(item: dict) -> None:
        for key in ("_source", "_image", "_model"):
            item.pop(key, None)

    def run(self, item: dict) -> tuple[float, dict]:
        """Time one item through the public entry point a user reaches."""
        _reset_caches(self.kernel)
        out, err = io.StringIO(), io.StringIO()
        res: dict = {}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if item["kind"] == "cli":
                    res["rc"] = self.cli.main(list(item["argv"]))
                elif item["kind"] == "eval":
                    res["value"] = self.sem.eval_h(item["_model"], tuple(item["seq"]), item["_image"])
                else:
                    r = self.fuzz.run_lemma(item["lemma"], item["samples"], item["seed"], 6, item["inject"])
                    res["report"] = r.to_dict()
            except SystemExit as e:  # argparse exits on a bad command line
                res["rc"] = e.code
            except Exception as e:  # noqa: BLE001 - an exception is an outcome to record
                res["exc"] = f"{type(e).__name__}: {str(e)[:200]}"
            t = time.perf_counter() - t0
        res["out"], res["err"] = out.getvalue(), err.getvalue()
        if "writes" in item:
            (self.root / item["writes"]).write_text(res["out"], encoding="utf-8")
        return t, res

    def judge(self, item: dict, res: dict) -> tuple[str, str]:
        """``correct``, ``wrong`` (an answer other than the known one) or
        ``error`` (an exception instead of an answer), with a short detail."""
        if "exc" in res:
            return "error", res["exc"]
        try:
            for expect in item["expect"]:
                if self._matches(item, expect, res):
                    return "correct", ""
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return "wrong", f"unreadable output: {e}"
        got = {k: v for k, v in res.items() if k in ("rc", "value")}
        if "report" in res:
            got = {"status": res["report"]["status"], "checked": res["report"]["checked"]}
        return "wrong", f"got {json.dumps(got)}{' ' + res['err'].strip()[:120] if res.get('err') else ''}"

    def _matches(self, item: dict, expect: dict, res: dict) -> bool:
        kind = expect["type"]
        if kind == "any":
            return True
        if kind == "value":
            return res["value"] is expect["value"]
        if kind == "eval_ltl":
            # The translation lemma and its corollary: the image holds at a
            # sequence iff the source holds at the sequence's last position.
            return res["value"] is self.eval_ltl(item["_model"], item["seq"][-1], item["_source"])
        if kind == "fuzz":
            report = res["report"]
            return report["status"] == expect["status"] and report["checked"] == expect.get("checked", report["checked"])
        rc, out = res.get("rc"), res["out"]
        if kind == "parse_error":
            return rc == 2 and out == ""
        if kind == "emitted":
            return rc == 0 and out.rstrip().splitlines()[-1].startswith("root ")
        data = json.loads(out)
        if kind == "corpus":
            return rc == 0 and data["ok"] is True and sorted(r["name"] for r in data["results"]) == expect["names"]
        if kind == "accepted":
            return (
                rc == 0
                and data["verdict"] == "accepted"
                and data["conclusion"] == expect["conclusion"]
                and data["open_assumptions"] == expect["opens"]
            )
        if kind == "rejected":
            return (
                rc == 1
                and data["verdict"] == "rejected"
                and data["reason"] == expect.get("reason", data["reason"])
                and data["node"] == expect.get("node", data["node"])
            )
        raise ValueError(f"unknown expectation {kind!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="One measuring process of the nabla benchmark.")
    ap.add_argument("work", type=Path, help="work directory holding inputs.json")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", metavar="N", help="time import and warm-up only; write setup-N.json")
    mode.add_argument("--trace", action="store_true", help="trace copy 1 of each item, right after copy 0 untraced")
    args = ap.parse_args(argv)
    work, root = args.work, Path(__file__).resolve().parents[1]
    run = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    # The inputs are many small objects that a nabla process would not
    # hold; keep the garbage collector from scanning them, inside items and
    # in the collection after each item.
    gc.freeze()
    import reference

    setup_refs = [reference.timed()[1] for _ in range(3)]
    t0 = time.perf_counter()
    runner = Runner(root)
    import_s = time.perf_counter() - t0
    import nabla

    if Path(nabla.__file__).resolve().parent != root / "src" / "nabla":
        print(f"error: imported nabla from {nabla.__file__}, not from this checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    for item in run["warmup"]:
        runner.prepare(item)
        runner.run(item)
    warmup_s = time.perf_counter() - t0
    setup_refs += [reference.timed()[1] for _ in range(3)]
    result = {"import_s": import_s, "warmup_s": warmup_s, "setup_refs": setup_refs}
    if args.setup_only is not None:
        (work / f"setup-{args.setup_only}.json").write_text(json.dumps(result))
        return 0

    items = [it for ps in run["passes"] for it in ps]
    tracer = None
    if args.trace:
        from tracer import Tracer

        # Copy 1 of each item runs traced right after copy 0 runs untraced,
        # so both meet the same machine and their difference is the overhead.
        tracer = Tracer()
        partner = {it["key"]: it for it in items if it["copy"] == 1}
        items = [x for it in items if it["copy"] == 0 for x in (it, partner.pop(it["key"]))] + list(partner.values())
    # Each item is prepared right before it runs, and its answer is checked
    # and its nabla objects dropped right after, all outside the item's
    # time, so that prepared objects and outputs do not pile up and swell
    # peak RSS.  Then the garbage collector runs, also outside the item's
    # time: each item starts with no garbage left by the items before it,
    # as a fresh process would, and pays for the collections its own
    # garbage causes.
    result["items"], result["refs"], aside = [], [], 0.0
    t0 = time.perf_counter()
    for i, item in enumerate(items):
        t1 = time.perf_counter()
        runner.prepare(item)
        if tracer is None and (not result["refs"] or t1 - result["refs"][-1][0] >= reference.EVERY_S):
            result["refs"].append(reference.timed())
        aside += time.perf_counter() - t1
        traced = tracer is not None and item["copy"] == 1
        if traced:
            tracer.item = i
            tracer.install()
        start = time.perf_counter()
        t, res = runner.run(item)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        status, detail = runner.judge(item, res)
        work_done = res["report"]["checked"] if "report" in res else 1
        result["items"].append(
            {"id": item["id"], "t": t, "start": start, "work": work_done, "status": status, "detail": detail}
        )
        runner.release(item)
        gc.collect()
        aside += time.perf_counter() - t1
    result["loop_s"] = time.perf_counter() - t0 - aside
    if tracer is None:
        result["refs"].append(reference.timed())
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(work / "spans.bin")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
