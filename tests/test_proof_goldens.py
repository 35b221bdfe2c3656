"""Byte-for-byte goldens for the proof layer.

``tests/golden/proof_check.json`` holds the stdout and exit code of
``nabla check --json`` and ``nabla check --emit-primitive`` on every bundled
script and on derived-rule probes, each probe written once with
abbreviations and once desugared.  ``proof_taut.json`` holds ``nabla taut``
on the three A1 instances, ``proof_corpus.json`` the stdout of
``nabla corpus --json``, and ``mutation_sweep.json`` the
``check(...).to_dict()`` of seeded mutations of corpus and sampled
derivations, ``fault_order.json`` the verdict on every single and
double fault of one accepted node per rule, which pins the order in which
each validator tests its conditions, and ``taut_batch.json`` the outcome of
``derive_tautology`` on seeded random propositional formulas: the node count
and SHA-256 of the serialized proof, or the ``NotATautology`` message.
``derived_uses.json`` holds seeded applications of every derived rule and
their wrong-shape variants: the serialized expansion and its verdict, or
the id of the node that ``expand`` refuses, without the message.
``sampled_derivations.json`` holds seeded ``DerivationSampler`` draws of
one to nine steps, each serialized with the next 64 bits of its generator,
so that it pins every draw the sampler makes.  A refactor of the proof
layer keeps all eight unchanged.

``python -m tests.test_proof_goldens`` rewrites the eight files from the
code as it stands.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest

import nabla
from nabla.cli import main
from nabla.corpus import ENTRIES, TAUTOLOGY_INSTANCES, load_entry
from nabla.derived import NotATautology, SchemaMismatch, derive_tautology, expand
from nabla.formulas import And, Always, Atom, Bottom, Hist, Implies, Next, Not, Or, Sometime, desugar, format_formula, parse_h, parse_ltl
from nabla.gen import DerivationSampler, _draw
from nabla.kernel import Apply, Assume, Le, Lwff, Succ, all_nodes, check, labels_of_generic
from nabla.scripts import serialize

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(nabla.__file__).parent / "corpus"

# Derived-rule probes, written with abbreviations; ``desugared`` gives the
# second spelling.
PROBES = {
    "andE1_on_atom": """
assume 1 lwff b : p
node 2 andE1 concl b : p prem 1
root 2
""",
    "andI": """
assume 1 lwff b : p
assume 2 lwff b : (X q)
node 3 andI concl b : (p & (X q)) prem 1,2
root 3
""",
    "andE2": """
assume 1 lwff b : (p & (X q))
node 2 andE2 concl b : (X q) prem 1
root 2
""",
    "orIl": """
assume 1 lwff b : p
node 2 orIl concl b : (p | (G q)) prem 1
root 2
""",
    "orIl_not_a_disjunction": """
assume 1 lwff b : p
node 2 orIl concl b : (p -> q) prem 1
root 2
""",
    "orE": """
assume 1 lwff b : (p | q)
assume 2 lwff b : p
assume 3 lwff b : q
node 4 orIr concl b : (q | p) prem 2
node 5 orIl concl b : (q | p) prem 3
node 6 orE concl b : (q | p) prem 1,4,5 disch 2,3
root 6
""",
    "FI": """
assume 1 lwff b c : (p & q)
assume 2 rwff le(b,c)
node 3 FI concl b : (F (p & q)) prem 1,2
root 3
""",
    "FI_not_sometime": """
assume 1 lwff b c : p
assume 2 rwff le(b,c)
node 3 FI concl b : (G p) prem 1,2
root 3
""",
}


def desugared(script: str) -> str:
    """``script`` with every formula printed desugared."""
    lines = []
    for line in script.strip().splitlines():
        head, colon, rest = line.partition(" : ")
        if colon:
            formula, prem, tail = rest.partition(" prem ")
            line = f"{head} : {format_formula(desugar(parse_h(formula)))}{prem}{tail}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def cli(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue()}


def check_outputs() -> dict:
    scripts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.ndp"))}
    scripts |= {f"mutations/{p.stem}": p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("mutations/*.ndp"))}
    for name, text in PROBES.items():
        scripts[f"probe/{name}"] = text.lstrip()
        scripts[f"probe/{name}/desugared"] = desugared(text)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.ndp"
        for name, text in scripts.items():
            path.write_text(text, encoding="utf-8")
            out[name] = {"json": cli("check", str(path), "--json"), "emit-primitive": cli("check", str(path), "--emit-primitive")}
    return out


def taut_outputs() -> dict:
    return {name: cli("taut", text) for name, text in TAUTOLOGY_INSTANCES}


# --- mutation sweep ----------------------------------------------------------

RULES = (
    "botE", "impI", "impE", "GI", "GE", "XI", "XE", "histI", "histE",
    "last", "serS", "linS", "reflLe", "transLe", "eqLe", "splitLe", "baseLe", "ind",
    "andI", "nope",
)
KINDS = ("rule", "drop", "add", "shuffle", "discharge", "label", "formula")
SWEEP = 2000


def postorder(root) -> list:
    """Every node once, premises then discharges before their node.  The
    sweep walks with this order of its own, so that its mutations do not
    depend on any walk of the code under test."""
    out, seen, stack = [], set(), [(root, False)]
    while stack:
        n, done = stack.pop()
        if done:
            out.append(n)
        elif id(n) not in seen:
            seen.add(id(n))
            stack.append((n, True))
            if isinstance(n, Apply):
                stack.extend((m, False) for m in reversed(n.premises + n.discharges))
    return out


def judgement(n):
    return n.formula if isinstance(n, Assume) else n.conclusion


def changed_formula(f, rng):
    options = [Implies(f, Bottom()), Always(f), Next(f), Hist(f), Bottom(), Atom("p"), Implies(Atom("q"), f)]
    options += [v for v in vars(f).values() if not isinstance(v, str)]  # an operand
    return rng.choice(options)


def changed_labels(phi, labels, rng):
    if isinstance(phi, Lwff):
        seq = list(phi.seq)
        seq[rng.randrange(len(seq))] = rng.choice(labels)
        return Lwff(tuple(seq), phi.formula)
    a, b = (rng.choice(labels), phi.b) if rng.random() < 0.5 else (phi.a, rng.choice(labels))
    return type(phi)(a, b)


def mutate(root, rng):
    """One seeded mutation of ``root``: the mutation's kind, the id of the
    node it changes, and the rebuilt derivation."""
    order = postorder(root)
    assumes = [n for n in order if isinstance(n, Assume)]
    labels = sorted({x for n in order for x in labels_of_generic(judgement(n))}) + ["z"]
    while True:
        kind = rng.choice(KINDS)
        if kind in ("label", "formula"):
            picks = [i for i, n in enumerate(order) if kind == "label" or isinstance(judgement(n), Lwff)]
        else:
            least = {"drop": 1, "shuffle": 2}.get(kind, 0)
            picks = [i for i, n in enumerate(order) if isinstance(n, Apply) and len(n.premises) >= least]
        if picks:
            break
    i = rng.choice(picks)
    memo = {}

    def new(x):
        return memo.get(id(x), x)

    for j, n in enumerate(order):
        if isinstance(n, Assume):
            if j == i:
                phi = n.formula
                if kind == "label":
                    phi = changed_labels(phi, labels, rng)
                else:
                    phi = Lwff(phi.seq, changed_formula(phi.formula, rng))
                memo[id(n)] = Assume(n.id, phi)
            continue
        rule, concl, prems, disch = n.rule, n.conclusion, [new(p) for p in n.premises], [new(a) for a in n.discharges]
        if j == i:
            if kind == "rule":
                rule = rng.choice([r for r in RULES if r != rule])
            elif kind == "drop":
                del prems[rng.randrange(len(prems))]
            elif kind == "add":
                prems.insert(rng.randrange(len(prems) + 1), new(rng.choice(order[:i])))
            elif kind == "shuffle":
                a, b = rng.sample(range(len(prems)), 2)
                prems[a], prems[b] = prems[b], prems[a]
            elif kind == "discharge":
                disch.append(new(rng.choice(assumes)))
            elif kind == "label":
                concl = changed_labels(concl, labels, rng)
            else:
                concl = Lwff(concl.seq, changed_formula(concl.formula, rng))
        memo[id(n)] = Apply(n.id, rule, concl, tuple(prems), tuple(disch))
    return kind, order[i].id, new(root)


def bases() -> list:
    out = [(e.name, load_entry(e.name)) for e in ENTRIES]
    out += [(name, derive_tautology(parse_ltl(text), "b")) for name, text in TAUTOLOGY_INSTANCES]
    rng = random.Random(1010)
    for k in range(40):
        out.append((f"sampled-{k}", DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=rng.randint(2, 9))))
    return out


def sweep_outputs() -> list:
    derivations = bases()
    rng = random.Random(2024)
    out = []
    for k in range(SWEEP):
        name, root = derivations[k % len(derivations)]
        kind, node, mutant = mutate(root, rng)
        try:
            verdict = check(mutant).to_dict()
        except Exception as e:  # check is total; a raise would be recorded here
            verdict = {"raised": type(e).__name__}
        out.append({"base": name, "kind": kind, "node": node, "check": verdict})
    return out


# --- fault order -------------------------------------------------------------
#
# When one node breaks several side conditions, ``check`` reports the first
# that its validator tests.  ``fault_order.json`` pins that order: for one
# accepted node per rule it records the verdict after every single fault
# and every pair of faults in two different parts of the node.

P, Q = Atom("p"), Atom("q")


def _lwff(i, seq, f):
    return Assume(i, Lwff(tuple(seq.split()), f))


def _from_falsum(i, seq, f):
    """``seq : f`` by botE from an assumption at label ``x``, so that the
    labels of ``seq`` occur in no open assumption."""
    return Apply(i, "botE", Lwff(tuple(seq.split()), f), (_lwff(i + 1, "x", Bottom()),))


def fault_bases() -> list:
    """One accepted node per rule, each with id 1."""
    le, succ = (lambda i, a, b: Assume(i, Le(a, b))), (lambda i, a, b: Assume(i, Succ(a, b)))
    h, eq_case, lin_hyp = _lwff(2, "b", P), _lwff(4, "b", P), _lwff(5, "b d", P)
    return [
        Apply(1, "botE", Lwff(("b",), Q), (_lwff(2, "b", Bottom()),), (_lwff(3, "b", Implies(Q, Bottom())),)),
        Apply(1, "impI", Lwff(("b",), Implies(P, P)), (h,), (h,)),
        Apply(1, "impE", Lwff(("b",), Q), (_lwff(2, "b", Implies(P, Q)), _lwff(3, "b", P))),
        Apply(1, "GI", Lwff(("b",), Always(P)), (_from_falsum(2, "b c", P),), (le(4, "b", "c"),)),
        Apply(1, "GE", Lwff(("b", "c"), P), (_lwff(2, "b", Always(P)), le(3, "b", "c"))),
        Apply(1, "XI", Lwff(("b",), Next(P)), (_from_falsum(2, "b c", P),), (succ(4, "b", "c"),)),
        Apply(1, "XE", Lwff(("b", "c"), P), (_lwff(2, "b", Next(P)), succ(3, "b", "c"))),
        Apply(1, "histI", Lwff(("b", "c"), Hist(P)), (_from_falsum(2, "b d", P),), (le(4, "b", "d"), le(5, "d", "c"))),
        Apply(1, "histE", Lwff(("b", "d"), P), (_lwff(2, "b c", Hist(P)), le(3, "b", "d"), le(4, "d", "c"))),
        Apply(1, "last", Lwff(("c",), P), (_lwff(2, "b c", P),)),
        Apply(1, "serS", Lwff(("b",), P), (h,), (succ(3, "x", "y"),)),
        Apply(1, "linS", Lwff(("b", "d"), P), (succ(2, "b", "c"), succ(3, "b", "d"), _lwff(4, "b c", P), lin_hyp), (lin_hyp,)),
        Apply(1, "reflLe", Lwff(("b",), P), (h,), (le(3, "x", "x"),)),
        Apply(1, "transLe", Lwff(("b",), P), (le(2, "x", "y"), le(3, "y", "z"), _lwff(4, "b", P)), (le(5, "x", "z"),)),
        Apply(1, "eqLe", Lwff(("a", "c"), P), (le(2, "b", "c"), le(3, "c", "b"), _lwff(4, "a b", P))),
        Apply(
            1, "splitLe", Lwff(("b",), P), (le(2, "x", "y"), _lwff(3, "b", P), eq_case, _lwff(5, "b", P)),
            (eq_case, succ(6, "x", "w"), le(7, "w", "y")),
        ),
        Apply(1, "baseLe", Lwff(("b",), P), (succ(2, "x", "y"), _lwff(3, "b", P)), (le(4, "x", "y"),)),
        Apply(
            1, "ind", Lwff(("a", "b"), P), (_lwff(2, "a b0", P), le(3, "b0", "b"), _from_falsum(4, "a bj", P)),
            (le(6, "b0", "bi"), succ(7, "bi", "bj"), _lwff(8, "a bi", P)),
        ),
    ]


def swapped_atoms(f):
    """``f`` with the atoms p and q exchanged: the same operators over a
    different operand."""
    if isinstance(f, Atom):
        return Atom({"p": "q", "q": "p"}.get(f.name, f.name))
    return type(f)(*(swapped_atoms(x) if not isinstance(x, str) else x for x in vars(f).values()))


def judgement_faults(phi) -> dict:
    """Named ways to break one judgement: its labels, their number and its
    formula, or for a relational formula its labels and its relation."""
    if isinstance(phi, Lwff):
        seq, f = phi.seq, phi.formula
        return {
            "last-label": Lwff(seq[:-1] + ("z",), f),
            "length": Lwff(seq[:1] if len(seq) > 1 else seq + ("z",), f),
            "formula": Lwff(seq, Implies(f, Bottom())),
            "atoms": Lwff(seq, swapped_atoms(f)),
        }
    other = Succ if isinstance(phi, Le) else Le
    return {"last-label": type(phi)(phi.a, "z"), "reversed": type(phi)(phi.b, phi.a), "relation": other(phi.a, phi.b)}


def node_faults(node) -> list:
    """Every fault of ``node`` as (part, name, new judgement): a part is a
    premise index, the conclusion, or the discharges, which gain a class."""
    faults = []
    for i, p in enumerate(node.premises):
        phi = p.conclusion
        wrong_kind = Le(phi.seq[0], "z") if isinstance(phi, Lwff) else Lwff((phi.a,), P)
        faults += [(i, name, new) for name, new in {"kind": wrong_kind, **judgement_faults(phi)}.items()]
    faults += [("conclusion", name, new) for name, new in judgement_faults(node.conclusion).items()]
    return faults + [("discharges", "unrelated", Lwff(("z",), Atom("r"))), ("discharges", "relation", Le("z", "z"))]


def faulty(node, faults):
    """``node`` with ``faults`` applied; a premise is replaced by a new
    assumption of its faulty judgement."""
    premises, conclusion, discharges = list(node.premises), node.conclusion, node.discharges
    for part, _, new in faults:
        if part == "conclusion":
            conclusion = new
        elif part == "discharges":
            discharges += (Assume(99, new),)
        else:
            premises[part] = Assume(90 + part, new)
    return Apply(node.id, node.rule, conclusion, tuple(premises), discharges)


def fault_outputs() -> list:
    out = []
    for node in fault_bases():
        faults = node_faults(node)
        combos = [(f,) for f in faults] + [(f, g) for f, g in itertools.combinations(faults, 2) if f[0] != g[0]]
        for combo in combos:
            names = [f"{'premise ' + str(part + 1) if isinstance(part, int) else part}: {name}" for part, name, _ in combo]
            out.append({"rule": node.rule, "faults": names, "check": check(faulty(node, combo)).to_dict()})
    return out


# --- tautology batch ---------------------------------------------------------

TAUT_BATCH = 300


def random_prop(rng, atoms, budget):
    """A formula over ``-> & | ~ bot`` and ``atoms`` with at most ``budget``
    connectives."""
    if budget <= 0:
        return Atom(rng.choice(atoms)) if rng.random() < 0.9 else Bottom()
    op = rng.choice((Implies, And, Or, Not))
    if op is Not:
        return Not(random_prop(rng, atoms, budget - 1))
    left = rng.randint(0, budget - 1)
    return op(random_prop(rng, atoms, left), random_prop(rng, atoms, budget - 1 - left))


def taut_batch_outputs() -> list:
    """``derive_tautology`` on seeded formulas of 1-6 atoms and budget
    0-16: three fifths left as drawn, a fifth the operand of Peirce's law
    with a second drawn formula and a fifth the operand of excluded middle,
    so that about half are tautologies."""
    rng = random.Random(2323)
    out = []
    for _ in range(TAUT_BATCH):
        atoms = [f"a{i}" for i in range(rng.randint(1, 6))]
        a = random_prop(rng, atoms, rng.randint(0, 16))
        shape = rng.randrange(5)
        if shape == 1:
            a = Implies(Implies(Implies(a, random_prop(rng, atoms, rng.randint(0, 4))), a), a)
        elif shape == 2:
            a = Or(a, Not(a))
        text = format_formula(a)
        try:
            root = derive_tautology(parse_ltl(text), "b")
        except NotATautology as e:
            out.append({"formula": text, "refused": str(e)})
        else:
            digest = hashlib.sha256(serialize(root).encode()).hexdigest()
            out.append({"formula": text, "nodes": len(all_nodes(root)), "sha256": digest})
    return out


# --- derived-rule uses -------------------------------------------------------
#
# Each derived rule applied to operands drawn from the history grammar, at
# sequences of one to three labels, and its wrong-shape variants.  The
# goal of the case and witness premises of orE and FE is drawn too, and so
# is whether those premises use the assumptions that the rule discharges.

USES_PER_RULE = 6
_DERIVED = ("andI", "andE1", "andE2", "orIl", "orIr", "orE", "FI", "FE")


def _operand(rng):
    return _draw(rng, "history", rng.randrange(4), ("p", "q", "r"))


def _labels(rng):
    return tuple(rng.sample(("a", "b", "c", "d"), rng.randint(1, 3)))


def derived_use(rule, rng):
    """One application of ``rule`` to drawn operands, at a drawn sequence."""
    a, b, c = _operand(rng), _operand(rng), _operand(rng)
    s = _labels(rng)
    if rule == "andI":
        return Apply(3, rule, Lwff(s, And(a, b)), (_lwff(1, " ".join(s), a), _lwff(2, " ".join(s), b)))
    if rule in ("andE1", "andE2"):
        return Apply(2, rule, Lwff(s, a if rule == "andE1" else b), (Assume(1, Lwff(s, And(a, b))),))
    if rule in ("orIl", "orIr"):
        return Apply(2, rule, Lwff(s, Or(a, b)), (Assume(1, Lwff(s, a if rule == "orIl" else b)),))
    if rule == "orE":
        major, ha, hb = Assume(1, Lwff(s, Or(a, b))), Assume(2, Lwff(s, a)), Assume(3, Lwff(s, b))
        if rng.random() < 0.5:
            t = s
            case_a = Apply(5, "impE", Lwff(t, c), (Assume(4, Lwff(t, Implies(a, c))), ha))
            case_b = Apply(7, "impE", Lwff(t, c), (Assume(6, Lwff(t, Implies(b, c))), hb))
        else:
            t = _labels(rng)
            case_a = case_b = Assume(4, Lwff(t, c))
        return Apply(9, rule, Lwff(t, c), (major, case_a, case_b), (ha, hb))
    if rule == "FI":
        c_label = rng.choice(("w", s[-1]))
        return Apply(3, rule, Lwff(s, Sometime(a)), (Assume(1, Lwff(s + (c_label,), a)), Assume(2, Le(s[-1], c_label))))
    major, hr, hw = Assume(1, Lwff(s, Sometime(a))), Assume(2, Le(s[-1], "w")), Assume(3, Lwff(s + ("w",), a))
    if rng.random() < 0.5:
        t, c, hyp = s, Sometime(a), Apply(4, "FI", Lwff(s, Sometime(a)), (hw, hr))
    else:
        t = _labels(rng)
        hyp = Assume(4, Lwff(t, c))
    disch = rng.choice([(hr, hw), (hw, hr), (hr,), (hw,)])
    return Apply(9, rule, Lwff(t, c), (major, hyp), disch)


def _rebuilt(root, premises=None, conclusion=None, discharges=None):
    """``root``, a derived-rule application, with its parts replaced."""
    return Apply(
        root.id,
        root.rule,
        conclusion or root.conclusion,
        root.premises if premises is None else premises,
        root.discharges if discharges is None else discharges,
    )


def use_variants(root, rng) -> dict:
    """``root`` and its wrong-shape variants, by name."""
    out = {"ok": root}
    prems = root.premises
    if len(prems) > 1:
        i, j = rng.sample(range(len(prems)), 2)
        swapped = list(prems)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out["swapped-premise"] = _rebuilt(root, premises=tuple(swapped))
    seq = root.conclusion.seq
    wrong = rng.choice([seq + ("z",), seq[1:] or ("z",), seq[:-1] + ("z",)])
    out["wrong-sequence"] = _rebuilt(root, conclusion=Lwff(wrong, root.conclusion.formula))
    out["stray-discharge"] = _rebuilt(root, discharges=root.discharges + (Assume(20, Lwff(("z",), Atom("r"))),))
    out["foreign-discharge"] = _rebuilt(root, discharges=root.discharges + (Assume(21, Succ(seq[-1], "w")),))
    if root.rule == "FE":
        out["no-witness"] = _rebuilt(root, discharges=())
    return out


def spelled(root, fn, assumptions_only=False):
    """The derivation rebuilt with ``fn`` applied to every formula, or to
    the assumptions' formulas only."""
    def generic(phi, assumed=True):
        return Lwff(phi.seq, fn(phi.formula)) if isinstance(phi, Lwff) and (assumed or not assumptions_only) else phi

    memo = {}
    for n in all_nodes(root):
        if isinstance(n, Assume):
            memo[id(n)] = Assume(n.id, generic(n.formula))
        else:
            premises, discharges = tuple(memo[id(p)] for p in n.premises), tuple(memo[id(a)] for a in n.discharges)
            memo[id(n)] = Apply(n.id, n.rule, generic(n.conclusion, False), premises, discharges)
    return memo[id(root)]


def derived_uses_outputs() -> list:
    """Every use written, desugared and, for the correct ones, with only the
    assumptions desugared, so that premises and conclusion are spelled
    apart; each expanded and checked, or the refusing node's id."""
    rng = random.Random(2727)
    out = []
    for rule in _DERIVED:
        for k in range(USES_PER_RULE):
            for variant, root in use_variants(derived_use(rule, rng), rng).items():
                spellings = {"written": root, "desugared": spelled(root, desugar)}
                if variant == "ok":
                    spellings["mixed"] = spelled(root, desugar, assumptions_only=True)
                for spelling, d in spellings.items():
                    entry = {"use": f"{rule}/{k}/{variant}/{spelling}"}
                    try:
                        expanded = expand(d)
                    except SchemaMismatch as e:
                        entry["refused"] = e.node_id
                    else:
                        entry["expanded"] = serialize(expanded)
                        entry["check"] = check(expanded).to_dict()
                    out.append(entry)
    return out


# --- sampled derivations -----------------------------------------------------

SAMPLED = 60


def sampled_outputs() -> list:
    """``DerivationSampler`` on seeded generators, at 1-9 steps in turn."""
    rng = random.Random(3131)
    out = []
    for k in range(SAMPLED):
        steps = 1 + k % 9
        g = random.Random(rng.randrange(2**32))
        d = DerivationSampler(g).sample(steps=steps)
        out.append({"steps": steps, "script": serialize(d), "next_bits": g.getrandbits(64)})
    return out


def dump(value) -> str:
    if isinstance(value, list):
        return "[\n" + ",\n".join(json.dumps(x, sort_keys=True) for x in value) + "\n]\n"
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


PROOF_GOLDENS = {
    "proof_check": check_outputs,
    "proof_taut": taut_outputs,
    "proof_corpus": lambda: cli("corpus", "--json"),
    "mutation_sweep": sweep_outputs,
    "fault_order": fault_outputs,
    "taut_batch": taut_batch_outputs,
    "derived_uses": derived_uses_outputs,
    "sampled_derivations": sampled_outputs,
}


@pytest.mark.parametrize("name", sorted(PROOF_GOLDENS))
def test_proof_layer_matches_golden(name):
    assert dump(PROOF_GOLDENS[name]()) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_mutation_sweep_reaches_every_reason():
    sweep = json.loads((GOLDEN / "mutation_sweep.json").read_text(encoding="utf-8"))
    assert len(sweep) == SWEEP
    assert {m["kind"] for m in sweep} == set(KINDS)
    reasons = {m["check"].get("reason") for m in sweep}
    assert {"ShapeMismatch", "FreshnessViolation", "NotLocalFormula", "BadDischarge", "UnknownRule", "SequenceMismatch"} <= reasons
    assert None in reasons  # some mutations are accepted


if __name__ == "__main__":
    for name, make in PROOF_GOLDENS.items():
        (GOLDEN / f"{name}.json").write_text(dump(make()), encoding="utf-8")
