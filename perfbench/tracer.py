"""Spans around nabla's public functions, recorded from outside the package.

``Tracer.install`` rebinds each traced function in every nabla module that
holds it, so calls between modules go through a wrapper: for example
``eval_h`` in both ``nabla.semantics`` and ``nabla.fuzz``, and ``check``
in ``nabla.cli``, ``nabla.corpus`` and ``nabla.kernel``.  Functions that
recurse through their own module's globals stay unwrapped inside that
module, so a recursion is one span.  A span records its name, start, end,
parent span and item, plus up to two counts; spans stay in flat arrays in
memory and ``dump`` writes them out at the end.

``aggregate`` turns a span file into the per-layer metrics: self time is a
span's duration minus its children's, and counting work done by the tracer
itself (node counts, for example) is a child span of its own that no layer
reports, so it leaves every layer's self time unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"

# (defining module, attribute, span name, also rebind inside the defining module)
TARGETS = (
    ("nabla.cli", "main", "cli.main", True),
    ("nabla.scripts", "parse_script", "scripts.parse_script", True),
    ("nabla.scripts", "serialize", "scripts.serialize", True),
    ("nabla.derived", "expand", "derived.expand", True),
    ("nabla.derived", "derive_tautology", "derived.derive_tautology", True),
    ("nabla.corpus", "run_corpus", "corpus.run_corpus", True),
    ("nabla.kernel", "check", "kernel.check", True),
    ("nabla.semantics", "eval_h", "semantics.eval_h", True),
    ("nabla.semantics", "eval_ltl", "semantics.eval_ltl", True),
    ("nabla.semantics", "eval_h_oracle", "semantics.eval_h_oracle", True),
    ("nabla.semantics", "random_lasso", "semantics.random_lasso", True),
    ("nabla.semantics", "falsify_consequence", "semantics.falsify_consequence", True),
    ("nabla.formulas", "desugar", "formulas.desugar", False),
    ("nabla.translate", "translate", "translate.translate", True),
    ("nabla.gen", "random_until_formula", "gen.random_formula", False),
    ("nabla.gen", "random_history_formula", "gen.random_formula", False),
    ("nabla.gen", "random_local_formula", "gen.random_formula", False),
    ("nabla.gen", "random_hist_tier_formula", "gen.random_formula", False),
    ("nabla.gen", "DerivationSampler.sample", "gen.DerivationSampler.sample", True),
    ("nabla.fuzz", "run_lemma", "fuzz.run_lemma", True),
)

LEMMAS = ("translation", "last", "corollary", "last-local", "soundness", "quantifier-bound")
PARSE_BUCKETS = ((4, "kib4"), (16, "kib16"), (64, "kib64"), (None, "kib256"))
CTX_BUCKETS = ((128, "ctx128"), (256, "ctx256"), (512, "ctx512"), (1024, "ctx1024"), (None, "ctx2048"))

_FIELDS = (("name", "i"), ("parent", "i"), ("item", "i"), ("start", "d"), ("end", "d"), ("a", "d"), ("b", "d"))


def _bucket(value: float, buckets) -> str:
    for limit, label in buckets:
        if limit is None or value <= limit:
            return label
    raise AssertionError("last bucket is open")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in _FIELDS}
        self.stack = [-1]
        self.item = -1
        self.falsify: list | None = None  # [goal, goal evaluations] of the open falsifier call
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: int) -> int:
        s = self.spans
        i = len(s["name"])
        s["name"].append(name)
        s["parent"].append(self.stack[-1])
        s["item"].append(self.item)
        s["a"].append(0.0)
        s["b"].append(0.0)
        s["end"].append(0.0)
        self.stack.append(i)
        s["start"].append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.spans["end"][i] = perf_counter()
        self.stack.pop()

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, count=None):
        """``count(args, kwargs, result)`` returns the span's two counts; it
        runs after the span closes, inside a bookkeeping span."""
        idx, book = self._name(name), self._name(BOOKKEEPING)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                j = self._open(book)
                try:
                    self.spans["a"][i], self.spans["b"][i] = count(args, kwargs, result)
                finally:
                    self._close(j)
            return result

        return traced

    def _falsify(self, fn):
        idx = self._name("semantics.falsify_consequence")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            goal = args[1] if len(args) > 1 else kwargs["goal"]
            samples = args[2] if len(args) > 2 else kwargs["samples"]
            outside, self.falsify = self.falsify, [goal, 0]
            i = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                useful, self.falsify = self.falsify[1], outside
            # Samples drawn, and how many reached the goal: the falsifier
            # evaluates the goal only after every premise held.
            self.spans["a"][i] = samples if result is None else result.sample_index + 1
            self.spans["b"][i] = useful
            return result

        return traced

    def _eval_generic(self, fn):
        @functools.wraps(fn)
        def counted(m, interp, phi):
            if self.falsify is not None and phi is self.falsify[0]:
                self.falsify[1] += 1
            return fn(m, interp, phi)

        return counted

    def install(self) -> None:
        from nabla.kernel import all_nodes

        nodes = lambda root: len(all_nodes(root))
        counts = {
            "scripts.parse_script": lambda a, k, r: (len(a[0].encode("utf-8")), 0),
            "kernel.check": lambda a, k, r: (nodes(a[0]), 0),
            "derived.expand": lambda a, k, r: (nodes(a[0]), nodes(r)),
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "nabla" or n.startswith("nabla.")]
        for home_name, attr, span, own in TARGETS + (("nabla.semantics", "eval_generic", None, True),):
            home = sys.modules.get(home_name)
            if home is None:
                continue
            if "." in attr:  # a method: the class is the one binding
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, meth, None)
                if orig is not None:
                    setattr(cls, meth, self.wrap(orig, span))
                    self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            if span is None:
                wrapper = self._eval_generic(orig)
            elif span == "semantics.falsify_consequence":
                wrapper = self._falsify(orig)
            else:
                wrapper = self.wrap(orig, span, counts.get(span))
            for m in modules:
                if m is home and not own:
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.spans["name"]), "fields": [f for f, _ in _FIELDS]}
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in _FIELDS:
                self.spans[field].tofile(fh)


def load(path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {}
        for field, code in _FIELDS:
            spans[field] = array(code)
            spans[field].fromfile(fh, header["count"])
    return header["names"], spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(names: list[str], spans: dict, items: list[dict], result: dict) -> dict:
    """Per-layer metrics of one traced run; ``items`` are the measured items
    in loop order and ``result`` their timings, where copy 0 of each item
    ran untraced and copy 1 traced."""
    n = len(spans["name"])
    name, parent, item = spans["name"], spans["parent"], spans["item"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    self_t = list(dur)
    for i in range(n):
        if parent[i] >= 0:
            self_t[parent[i]] -= dur[i]
    idx = {x: i for i, x in enumerate(names)}
    total = {x: 0.0 for x in names}
    calls = {x: 0 for x in names}
    for i in range(n):
        total[names[name[i]]] += self_t[i]
        calls[names[name[i]]] += 1
    sel = lambda x: [i for i in range(n) if name[i] == idx[x]] if x in idx else []

    out: dict[str, float] = {}
    for layer in (
        "scripts.parse_script", "scripts.serialize", "derived.derive_tautology", "derived.expand",
        "corpus.run_corpus", "kernel.check", "semantics.eval_h", "semantics.eval_ltl",
        "semantics.eval_h_oracle", "semantics.random_lasso", "semantics.falsify_consequence",
        "formulas.desugar", "translate.translate", "gen.random_formula", "gen.DerivationSampler.sample",
    ):
        out[f"{layer}.s"] = total.get(layer, 0.0)
    out["cli.main.self_s"] = total.get("cli.main", 0.0)
    out["fuzz.run_lemma.self_s"] = total.get("fuzz.run_lemma", 0.0)

    parses = sel("scripts.parse_script")
    mib = lambda ids: _ratio(sum(spans["a"][i] for i in ids), sum(self_t[i] for i in ids)) / 2**20
    out["scripts.parse_script.mib_per_s"] = mib(parses)
    for limit, label in PARSE_BUCKETS:
        ids = [i for i in parses if _bucket(spans["a"][i] / 1024, PARSE_BUCKETS) == label]
        out[f"scripts.parse_script.mib_per_s.{label}"] = mib(ids)

    expands = sel("derived.expand")
    out["derived.expand.nodes_added"] = sum(spans["b"][i] - spans["a"][i] for i in expands)

    checks = sel("kernel.check")
    nodes = sum(spans["a"][i] for i in checks)
    out["kernel.check.nodes"] = nodes
    out["kernel.check.us_per_node"] = 1e6 * _ratio(out["kernel.check.s"], nodes)
    ctx = {i: _bucket(items[item[i]]["props"]["ctx"], CTX_BUCKETS) for i in checks if "ctx" in items[item[i]]["props"]}
    for _, label in CTX_BUCKETS:
        ids = [i for i, bucket in ctx.items() if bucket == label]
        out[f"kernel.check.us_per_node.{label}"] = 1e6 * _ratio(sum(self_t[i] for i in ids), sum(spans["a"][i] for i in ids))

    out["semantics.eval_h.calls"] = calls.get("semantics.eval_h", 0)
    evals = sel("semantics.eval_h")
    for k in (1, 2, 3):
        members = {j for j, it in enumerate(items) if it["copy"] == 1 and it["props"].get("k") == k}
        ids = [i for i in evals if item[i] in members]
        out[f"semantics.eval_h.ms.depth{k}"] = 1e3 * _ratio(sum(self_t[i] for i in ids), len(members))

    falsify = sel("semantics.falsify_consequence")
    samples = sum(spans["a"][i] for i in falsify)
    useful = sum(spans["b"][i] for i in falsify)
    out["semantics.falsify_consequence.samples"] = samples
    out["semantics.falsify_consequence.useful"] = useful
    out["semantics.falsify_consequence.useful_ratio"] = _ratio(useful, samples)

    # Per-lemma throughput comes from the untraced copies.
    timed = list(zip(items, result["items"]))
    for lemma in LEMMAS:
        runs = [r for it, r in timed if it["copy"] == 0 and it["props"].get("lemma") == lemma and not it["props"].get("injected")]
        out[f"fuzz.{lemma}.samples_per_s"] = _ratio(sum(r["work"] for r in runs), sum(r["t"] for r in runs))

    pairs: dict[str, dict[int, float]] = {}
    for it, r in timed:
        pairs.setdefault(it["key"], {})[it["copy"]] = r["t"]
    both = [p for p in pairs.values() if len(p) == 2]
    out["trace.spans"] = n
    out["trace.overhead_pct"] = 100 * (_ratio(sum(p[1] for p in both), sum(p[0] for p in both)) - 1)
    return out
