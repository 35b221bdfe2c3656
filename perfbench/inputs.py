"""Seeded inputs for the nabla benchmark.

``build`` makes every input of a workload from the workload name and the
seed alone, writes the scripts they need into a work directory, and records
for each item its known answer and its traffic properties (script bytes,
node count, largest open context, atom count, necessitation depth k, lasso
stem and period, sequence length).  Nothing here imports nabla: the known
answers come from how an input is built, from the bundled corpus tables
restated below, or, for evaluations that are not valid by construction,
from ``eval_ltl``, which ``measure.py`` calls outside an item's time.

A run is one warm-up pass and several measured base passes, each measured
in a few copies that rename atoms and labels (or, for fuzz calls, shift the
seed).  Every base pass and the warm-up draw from their own random stream,
so no measured item repeats within a run and the warm-up shares no input
with the measured passes.  The warm-up's stream does not depend on the
seed, so set-up does the same work for every seed.

Print what share of a run's measured items has each property, for the
passes and copies that ``run.py`` measures at ``run_seconds``::

    python3 perfbench/inputs.py --workload check-wide --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("check-proofs", "check-wide", "eval-deep", "fuzz-lemmas")

# --- formulas ---------------------------------------------------------------
# A formula is a tuple: ("atom", name), ("bot",), (op, a) for the unary
# operators ~ G X F H, or (op, a, b) for -> | & U.

BINARY = ("->", "|", "&", "U")


def fmt(f) -> str:
    """Concrete syntax as nabla prints it: every compound fully parenthesised."""
    if f[0] == "atom":
        return f[1]
    if f[0] == "bot":
        return "bot"
    if f[0] in BINARY:
        return f"({fmt(f[1])} {f[0]} {fmt(f[2])})"
    return f"({f[0]} {fmt(f[1])})"


def desugar(f):
    """Core form: ~a = a -> bot, a | b = ~a -> b, a & b = ~(~a | ~b), F a = ~G ~a."""
    op = f[0]
    if op in ("atom", "bot"):
        return f
    if op == "~":
        return ("->", desugar(f[1]), ("bot",))
    if op == "|":
        return ("->", ("->", desugar(f[1]), ("bot",)), desugar(f[2]))
    if op == "&":
        return desugar(("~", ("|", ("~", f[1]), ("~", f[2]))))
    if op == "F":
        return ("->", ("G", ("->", desugar(f[1]), ("bot",))), ("bot",))
    if op in BINARY:
        return (op, desugar(f[1]), desugar(f[2]))
    return (op, desugar(f[1]))


def substitute(f, env: dict):
    if f[0] == "atom":
        return env.get(f[1], f)
    if f[0] == "bot":
        return f
    return (f[0],) + tuple(substitute(x, env) for x in f[1:])


def replace_first(f, name: str, by):
    """Replace the leftmost occurrence of atom ``name``; returns (formula, done)."""
    if f == ("atom", name):
        return by, True
    if f[0] in ("atom", "bot"):
        return f, False
    parts, done = [f[0]], False
    for x in f[1:]:
        if not done:
            x, done = replace_first(x, name, by)
        parts.append(x)
    return tuple(parts), done


def _a(n):
    return ("atom", n)


def sized_prop(rng: random.Random, names: list[str], leaves: int, turn: int):
    """A random tree over every name with exactly ``leaves`` leaves whose
    connectives cycle through -> | & from ``turn``: its desugared size
    depends only on ``leaves`` and ``turn``."""
    pool = [_a(x) for x in names] + [_a(rng.choice(names)) for _ in range(leaves - len(names))]
    rng.shuffle(pool)
    ops = [("->", "|", "&")[(turn + i) % 3] for i in range(leaves - 1)]
    while len(pool) > 1:
        i = rng.randrange(len(pool) - 1)
        pool[i:i + 2] = [(ops.pop(), pool[i], pool[i + 1])]
    return pool[0]


_P, _Q = _a("P"), _a("Q")
_UNTIL = ("U", _P, _Q)
_UNFOLD = ("|", _Q, ("&", _P, ("X", _UNTIL)))

# The until-language axiom schemata A2-A8 of the bundled corpus, over the
# metavariables P and Q.  Every uniform substitution instance is valid.
AXIOMS = {
    "A2": ("->", ("G", ("->", _P, _Q)), ("->", ("G", _P), ("G", _Q))),
    "A3": (
        "&",
        ("->", ("X", ("~", _P)), ("~", ("X", _P))),
        ("->", ("~", ("X", _P)), ("X", ("~", _P))),
    ),
    "A4": ("->", ("X", ("->", _P, _Q)), ("->", ("X", _P), ("X", _Q))),
    "A5": ("->", ("G", _P), ("&", _P, ("X", ("G", _P)))),
    "A6": ("->", ("G", ("->", _P, ("X", _P))), ("->", _P, ("G", _P))),
    "A7L": ("->", _UNTIL, _UNFOLD),
    "A7R": ("->", _UNFOLD, _UNTIL),
    "A8": ("->", _UNTIL, ("F", _Q)),
}


def mutant(name: str):
    """The schema with its first P negated (Q for A8): no longer valid."""
    var = "Q" if name == "A8" else "P"
    f, _ = replace_first(AXIOMS[name], var, ("~", _a(var)))
    return f


# --- the bundled corpus, restated as known answers ---------------------------

CORPUS_AXIOMS = ("A2", "A3", "A4", "A5", "A6", "A7L", "A7R", "A8")
CORPUS_TAUTOLOGIES = ("A1-peirce", "A1-excluded-middle", "A1-double-negation")
MUTATION_REASONS = {
    "gi_eigenlabel_reused": "FreshnessViolation",
    "xi_eigenlabel_reused": "FreshnessViolation",
    "histI_eigenlabel_reused": "FreshnessViolation",
    "ser_eigenlabel_reused": "FreshnessViolation",
    "split_eigenlabel_reused": "FreshnessViolation",
    "ind_eigenlabel_reused": "FreshnessViolation",
    "last_on_history_formula": "NotLocalFormula",
    "histE_sequence_swapped": "SequenceMismatch",
    "impI_discharges_wrong_assumption": "BadDischarge",
    "unknown_rule_name": "UnknownRule",
    "impE_major_not_implication": "ShapeMismatch",
}

_KEYWORDS = frozenset(
    "assume node root lwff rwff concl prem disch subst le succ bot G X F H U".split()
    + "botE impI impE GI GE XI XE histI histE last serS linS reflLe transLe eqLe splitLe baseLe ind".split()
    + "andI andE1 andE2 orIl orIr orE FI FE".split()
)
_IDENT = re.compile(r"\b[A-Za-z][A-Za-z0-9_]*\b")


def rename(script: str, suffix: str) -> str:
    """Append ``suffix`` to every label and atom, leaving comments out.

    An injective renaming of labels and atoms keeps every verdict, reason
    code and node id, so a renamed corpus script keeps its known answer
    while being a new input."""
    lines = [ln.split("#", 1)[0].rstrip() for ln in script.splitlines()]
    sub = lambda m: m.group(0) if m.group(0) in _KEYWORDS else m.group(0) + suffix
    return "\n".join(_IDENT.sub(sub, ln) for ln in lines if ln) + "\n"


def root_conclusion(script: str) -> str:
    root = re.search(r"^root (\d+)$", script, re.M).group(1)
    line = re.search(rf"^node {root} \S+ concl (.*) prem ", script, re.M).group(1)
    return line.strip()


def _corpus(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    base = root / "src" / "nabla" / "corpus"
    axioms = {n: (base / f"{n}.ndp").read_text(encoding="utf-8") for n in CORPUS_AXIOMS}
    mutations = {n: (base / "mutations" / f"{n}.ndp").read_text(encoding="utf-8") for n in MUTATION_REASONS}
    return axioms, mutations


# --- items --------------------------------------------------------------------


def _accepted(conclusion: str, opens: list[str]) -> dict:
    return {"type": "accepted", "conclusion": conclusion, "opens": sorted(opens)}


class _Pass:
    """Collects the items of copy ``copy`` of base pass ``base`` ("w" for
    the warm-up) and writes their scripts under ``work``.

    The copies of one base draw the same random numbers and differ only in
    the names of atoms and labels (``suffix``, the same length in every
    copy), or for fuzz calls in the seed: each is a new input, and a
    renamed one costs what its base costs."""

    def __init__(self, root: Path, work: Path, base, copy: int):
        self.root, self.copy = root, copy
        self.key = "w" if base == "w" else f"b{base}"
        self.tag = "w" if base == "w" else f"b{base}c{copy}"
        self.suffix = "_w" if base == "w" else f"_{base}{copy}"
        self.mark = "w" if base == "w" else str(copy)
        self.dir = work / self.tag
        self.units: list[list[dict]] = []
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> str:
        return (self.dir / f"{name}.ndp").relative_to(self.root).as_posix()

    def script(self, name: str, text: str) -> str:
        path = self.path(name)
        (self.root / path).write_text(text, encoding="utf-8")
        return path

    def check(self, name: str, text: str, expect: list[dict], **props) -> dict:
        path = self.script(name, text)
        props.setdefault("bytes", len(text.encode()))
        return {"kind": "cli", "argv": ["check", path, "--json"], "expect": expect, "props": props}

    def add(self, *items: dict) -> None:
        self.units.append(list(items))

    def items(self, rng: random.Random) -> list[dict]:
        rng.shuffle(self.units)  # a taut item stays right before the check of its output
        out = [it for unit in self.units for it in unit]
        for i, it in enumerate(out):
            it["id"], it["key"], it["copy"] = f"{self.tag}-{i:03d}", f"{self.key}-{i:03d}", self.copy
        return out


def _deep_probe(rng: random.Random, label: str, atom: str, depth: int) -> tuple[str, dict]:
    """A script whose only line asserts a formula nested ``depth`` deep."""
    text, core = atom, atom
    for op in (rng.choice("~GXHF") for _ in range(depth)):
        text = f"({op} {text})"
        if op == "~":
            core = f"({core} -> bot)"
        elif op == "F":
            core = f"((G ({core} -> bot)) -> bot)"
        else:
            core = f"({op} {core})"
    script = f"assume 1 lwff {label} : {text}\nroot 1\n"
    # Either a documented depth limit (a parse error) or a full verdict.
    return script, [{"type": "parse_error"}, _accepted(f"{label} : {text}", [f"{label} : {core}"])]


def _broken(rng: random.Random, script: str, how: int) -> str:
    lines = script.splitlines()
    if how == 0:
        lines = [ln for ln in lines if not ln.startswith("root ")]
    elif how == 1:
        i = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("node ")])
        lines[i] = "nod" + lines[i][4:]
    elif how == 2:
        i = rng.choice([i for i, ln in enumerate(lines) if " lwff " in ln and ln.endswith(")")])
        lines[i] = lines[i][:-1]
    else:
        i = rng.choice([i for i, ln in enumerate(lines) if " prem " in ln])
        lines[i] = re.sub(r" prem (\S+)", lambda m: f" prem {m.group(1)},999", lines[i])
    return "\n".join(lines) + "\n"


_ATOM_NAMES = list("pqrstuvwyz")
CORPUS_ITEM = {"kind": "cli", "argv": ["corpus", "--json"], "props": {"source": "corpus"},
               "expect": [{"type": "corpus", "names": sorted(CORPUS_AXIOMS + CORPUS_TAUTOLOGIES + tuple(MUTATION_REASONS))}]}


def _peirce(rng: random.Random, p: _Pass, n_atoms: int, j: int) -> tuple[dict, dict]:
    """``taut`` on an instance of Peirce's law, then ``check`` on its output.

    The shape of the instance, which sets what deriving and checking it
    cost, comes from a schedule that is the same for every seed; the seed
    picks the atom names, in the same order as the schedule's, and the
    label."""
    sched = random.Random(f"peirce/{p.key}/{n_atoms}/{j}")
    names = [x + p.suffix for x in sorted(rng.sample(_ATOM_NAMES, n_atoms))]
    a = sized_prop(sched, names, n_atoms + 1 + j % 2, j)
    f = ("->", ("->", ("->", a, _a(sched.choice(names))), a), a)
    label = rng.choice(("b", "b", "w", f"l{j}"))
    argv = ["taut", fmt(f)] + ([] if label == "b" else ["--label", label])
    path = p.path(f"taut{n_atoms}_{j}")
    props = {"atoms": n_atoms, "source": "taut"}
    taut = {"kind": "cli", "argv": argv, "writes": path, "props": props, "expect": [{"type": "emitted"}]}
    chk = {"kind": "cli", "argv": ["check", path, "--json"], "props": dict(props, source="taut-check"),
           "expect": [_accepted(f"{label} : {fmt(desugar(f))}", [])]}
    return taut, chk


def check_proofs_pass(p: _Pass, rng: random.Random, corpus) -> None:
    axioms, mutations = corpus
    for name, text in axioms.items():
        t = rename(text, p.suffix)
        p.add(p.check(name, t, [_accepted(root_conclusion(t), [])], source=name))
    for name, text in mutations.items():
        t = rename(text, p.suffix)
        p.add(p.check(name, t, [{"type": "rejected", "reason": MUTATION_REASONS[name]}], source=name))
    for n_atoms in (2, 3, 4, 5):
        for j in range(10):
            p.add(*_peirce(rng, p, n_atoms, j))
    for how in range(4):
        base = rename(axioms[rng.choice(("A2", "A4", "A5", "A6", "A8"))], f"{p.suffix}e{how}")
        p.add(p.check(f"broken{how}", _broken(rng, base, how), [{"type": "parse_error"}], source="parse-error"))
    # Known defects (ROADMAP item 3); they stay in so that the error rate shows them.
    lab, atom = f"b{p.suffix}", f"p{p.suffix}"
    schema = f"assume 1 lwff {lab} : {atom}\nnode 2 andE1 concl {lab} : {atom} prem 1\nroot 2\n"
    probes = [p.check("schema_mismatch", schema, [{"type": "rejected"}, {"type": "parse_error"}], source="schema-mismatch")]
    text, expect = _deep_probe(rng, lab, atom, 600)
    probes.append(p.check("deep600", text, expect, source="deep-600"))
    for probe in probes:
        probe["known_defect"] = True
        p.add(probe)


def wide_script(rng: random.Random, n: int, variant: str, prefix: str) -> tuple[str, dict, dict]:
    """An impE chain over ``n`` open implications, closed by transLe, serS and impI.

    ``accept``: serS's eigenlabel is fresh, so the freshness scan passes
    the whole context.  ``fresh``: the eigenlabel occurs in the transLe
    premises, which carry the highest ids, so the scan walks the whole
    context before it fails.  ``shape``: one impE in the middle of the
    chain takes the wrong minor premise."""
    x = prefix
    lines = [f"assume 1 lwff b : {x}0"]
    nid, prev, bad_at, bad_node = 1, 1, (rng.randint(n // 3, 2 * n // 3) if variant == "shape" else -1), None
    before = None
    for i in range(1, n + 1):
        lines.append(f"assume {nid + 1} lwff b : ({x}{i - 1} -> {x}{i})")
        minor = before if i == bad_at else prev
        lines.append(f"node {nid + 2} impE concl b : {x}{i} prem {nid + 1},{minor}")
        if i == bad_at:
            bad_node = nid + 2
        before, prev, nid = prev, nid + 2, nid + 2
    eigen = "d" if variant == "fresh" else "c"
    lines += [
        f"assume {nid + 1} rwff le(b,d)",
        f"assume {nid + 2} rwff le(d,b)",
        f"node {nid + 3} transLe concl b : {x}{n} prem {nid + 1},{nid + 2},{prev}",
        f"assume {nid + 4} rwff succ(b,{eigen})",
        f"node {nid + 5} serS concl b : {x}{n} prem {nid + 3} disch {nid + 4}",
        f"node {nid + 6} impI concl b : ({x}0 -> {x}{n}) prem {nid + 5} disch 1",
        f"root {nid + 6}",
    ]
    text = "\n".join(lines) + "\n"
    if variant == "accept":
        opens = [f"b : ({x}{i - 1} -> {x}{i})" for i in range(1, n + 1)] + ["le(b,d)", "le(d,b)"]
        expect = _accepted(f"b : ({x}0 -> {x}{n})", opens)
    elif variant == "fresh":
        expect = {"type": "rejected", "reason": "FreshnessViolation", "node": nid + 5}
    else:
        expect = {"type": "rejected", "reason": "ShapeMismatch", "node": bad_node}
    props = {"bytes": len(text.encode()), "nodes": nid + 6, "ctx": n + 3, "variant": variant}
    return text, expect, props


WIDE_ITEMS = 100


def check_wide_pass(p: _Pass, rng: random.Random, count: int = WIDE_ITEMS, fill: bool = True) -> None:
    # One context size per log-uniform stratum of 100..2000, and a fixed
    # 70/15/15 mix of endings spread over the strata, so that every pass
    # has the same spread of sizes and verdicts.  Without ``fill`` each
    # size is its stratum's midpoint, for a warm-up whose cost does not
    # depend on the seed.
    for i in range(count):
        variant = "fresh" if i % 20 in (3, 10, 17) else "shape" if i % 20 in (6, 13, 19) else "accept"
        n = round(math.exp(math.log(100) + (i + (rng.random() if fill else 0.5)) / count * math.log(20)))
        prefix = f"{rng.choice('acegkmnz')}{p.mark}_"
        text, expect, props = wide_script(rng, n, variant, prefix)
        p.add(p.check(f"wide{i:03d}", text, [expect], **props))


# Lasso shapes (stem, period) over 2..6.  In base pass i, copy c of axiom j
# takes shape (2j + c + 2i) mod 16, so over eight base passes every axiom
# meets every shape once at each depth.
LASSOS = ((2, 2), (2, 4), (2, 6), (3, 3), (3, 5), (4, 2), (4, 4), (4, 6),
          (5, 3), (5, 5), (6, 2), (6, 4), (6, 6), (3, 4), (4, 3), (5, 4))
_EVAL_ATOMS = "abcdefghjkmnpqrstuvwyz"


def eval_deep_pass(p: _Pass, rng: random.Random, index: int, copies: int = 2) -> None:
    # What an evaluation costs depends on the lasso's cells and the sequence,
    # so these come from a schedule of their own, the same for every seed
    # (the warm-up has its own): the seed picks only the names of the atoms,
    # in the same order.  Renaming atoms in formula and cells alike keeps
    # every truth value, so each seed costs the same.
    atoms = [f"{a}{p.mark}" for a in sorted(rng.sample(_EVAL_ATOMS, 3))]
    for j, name in enumerate(AXIOMS):
        for k in (1, 2, 3):
            for valid in (True, False):
                for c in range(copies):
                    sched = random.Random(f"eval-deep/{p.key}/{name}/{k}/{valid}/{c}")
                    x, y = sched.sample(atoms, 2)
                    f = substitute(AXIOMS[name] if valid else mutant(name), {"P": _a(x), "Q": _a(y)})
                    for _ in range(k):
                        f = ("G", f)
                    s, per = LASSOS[(2 * j + c + 2 * index) % len(LASSOS)]
                    cells = [sorted(a for a in atoms if sched.random() < 0.5) for _ in range(s + per)]
                    seq = [sched.randint(0, s + per) for _ in range((j + c + index) % 3 + 1)]
                    p.add({
                        "kind": "eval", "formula": fmt(f), "stem": cells[:s], "loop": cells[s:], "seq": seq,
                        "expect": [{"type": "value", "value": True} if valid else {"type": "eval_ltl"}],
                        "props": {"axiom": name, "k": k, "valid": valid, "stem": s, "period": per, "seq_len": len(seq)},
                    })


# Sample counts per pass follow the acceptance suite (1000 per lemma,
# 10000 for quantifier-bound, 50 derivations for soundness), split into
# calls of comparable length.
FUZZ_CALLS = (
    ("translation", 1000, 2),
    ("last", 1000, 2),
    ("corollary", 1000, 2),
    ("last-local", 1000, 1),
    ("quantifier-bound", 10000, 14),
    ("soundness", 50, 4),
)
INJECTED = ("translation", "quantifier-bound")


def fuzz_pass(p: _Pass, rng: random.Random) -> None:
    for lemma, total, calls in FUZZ_CALLS:
        for c in range(calls):
            n = total * (c + 1) // calls - total * c // calls
            p.add({"kind": "fuzz", "lemma": lemma, "samples": n, "seed": rng.randrange(2**31) + p.copy, "inject": None,
                   "expect": [{"type": "fuzz", "status": "ok", "checked": n}], "props": {"lemma": lemma, "samples": n}})
    for lemma in INJECTED:
        p.add({"kind": "fuzz", "lemma": lemma, "samples": 2000, "seed": rng.randrange(2**31) + p.copy,
               "inject": "valuation-shift", "expect": [{"type": "fuzz", "status": "falsified"}],
               "props": {"lemma": lemma, "injected": True}})


def _warmup(p: _Pass, rng: random.Random, workload: str, root: Path) -> None:
    if workload == "check-proofs":
        axioms, _ = _corpus(root)
        for name in ("A2", "A5"):
            t = rename(axioms[name], p.suffix)
            p.add(p.check(name, t, [_accepted(root_conclusion(t), [])], source=name))
        p.add(*_peirce(rng, p, 2, 0))
        p.add(*_peirce(rng, p, 3, 1))
    elif workload == "check-wide":
        check_wide_pass(p, rng, 6, fill=False)
    elif workload == "eval-deep":
        eval_deep_pass(p, rng, 0, 1)
        p.units = [u for u in p.units[::2] if u[0]["props"]["k"] < 3]  # cheap, steady items
    else:
        fuzz_pass(p, rng)
        for (it,) in p.units:
            it["samples"] = max(1, it["samples"] // 20)
            it["expect"] = [{"type": "any"}]


def build_pass(root: Path, work: Path, workload: str, seed: int, base, copy: int = 0) -> list[dict]:
    """Write copy ``copy`` of base pass ``base`` (``"w"``: the warm-up) and return its items."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # The warm-up is the same for every seed, so set-up costs the same.
    rng = random.Random(f"{workload}/w" if base == "w" else f"{workload}/{seed}/{base}")
    p = _Pass(root, work, base, copy)
    if base == "w":
        _warmup(p, rng, workload, root)
    elif workload == "check-proofs":
        check_proofs_pass(p, rng, _corpus(root))
    elif workload == "check-wide":
        check_wide_pass(p, rng)
    elif workload == "eval-deep":
        eval_deep_pass(p, rng, base)
    else:
        fuzz_pass(p, rng)
    return p.items(rng)


def build(root: Path, work: Path, workload: str, seed: int, bases: int, copies: int) -> dict:
    """Write a run's inputs under ``work``.  Measured passes run copy by copy,
    so the copies of an item lie a whole round of base passes apart."""
    passes = [build_pass(root, work, workload, seed, b, c) for c in range(copies) for b in range(bases)]
    if workload == "check-proofs":  # the bundled corpus is one fixed input: once per run
        passes[-1].append(dict(CORPUS_ITEM, id="corpus", key="corpus", copy=copies - 1))
    return {"workload": workload, "seed": seed, "warmup": build_pass(root, work, workload, seed, "w"), "passes": passes}


def _bucket(key: str, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool) and key in ("bytes", "nodes", "ctx"):
        return f"<={2 ** max(0, math.ceil(math.log2(max(value, 1))))}"
    return value


def describe(run: dict) -> dict:
    """Share of measured items per property value (sizes in powers of two)."""
    items = [it for ps in run["passes"] for it in ps]
    shares: dict[str, Counter] = {}
    for it in items:
        for key, value in it["props"].items():
            shares.setdefault(key, Counter())[str(_bucket(key, value))] += 1
    return {
        "items": len(items),
        "shares": {k: {v: round(c / len(items), 4) for v, c in sorted(cnt.items())} for k, cnt in shares.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    import run  # run.py imports this module, so only now

    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    bases, copies = run.plan(args.workload, spec["run_seconds"])
    work = root / ".bench_work" / f"inputs-{args.workload}-{args.seed}"
    try:
        print(json.dumps(describe(build(root, work, args.workload, args.seed, bases, copies)), indent=2))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
