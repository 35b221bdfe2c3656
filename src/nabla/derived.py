"""Derived rules as checked schemas, plus proof transformers.

The kernel trusts only its 18 primitive rules.  Each rule of
``DERIVED_RULES`` is a schema, ``rules/<rule>.ndp``: a derivation in the
script grammar, checked by the kernel on first use.  Its atoms are formula
metavariables; a label in a relational formula stands for one label, any
other for a label sequence, maybe empty, at most one per judgment.  Its
open assumptions, in id order, are the rule's premises, and one that it
discharges but no node uses stands for the classes an application
discharges there.  ``expand`` matches an application against its schema up
to desugaring and builds the instance, numbered in schema-id order; the
kernel re-checks it downstream.  ``mp_compose``, ``nec_g`` and
``nec_x`` make the Hilbert closure rules executable over closed proofs;
the helpers they build on, ``rename_labels``, ``labels_of_derivation`` and
``max_node_id``, live here, not in the trusted kernel, since ``check``
runs none of them.  ``derive_tautology`` builds a closed proof for any
classical propositional tautology by case-splitting.  One evaluator of Kleene's
three-valued logic serves its two steps.  It first looks for one
subformula that decides the formula alone: true either way, everything
else undetermined.  The atoms are tried in name order, then the first
four subformulas that occur more than once, outermost first; one that
occurs once can decide the formula only if nothing needs assigning.
Such a subformula is the only split variable, and the formula is then a
tautology; otherwise the atoms are, in name order.  One walk of the
split tree, false branch first, then decides, refutes and builds: a
branch stops splitting once its partial valuation decides the formula,
the first false one names the first falsifying valuation, and each
subproof is built once and shared by every branch that needs it.  Each
walk visits a shared object once, so a formula that shares subformulas
costs time linear in its objects, not its tree.
"""

from __future__ import annotations

import collections
import functools
import itertools
from collections.abc import Iterator
from importlib import resources

from .formulas import (
    And,
    Always,
    Atom,
    Bottom,
    Formula,
    Implies,
    Next,
    Or,
    Sometime,
    _HOMOMORPHIC,
    _fold,
    _fold_from,
    atoms_of,
    desugar,
    is_local,
    format_formula,
    temporal_depth,
)
from .kernel import (
    SHAPE_MISMATCH,
    Apply,
    Assume,
    CheckReport,
    GenericFormula,
    Le,
    Lwff,
    Node,
    Succ,
    all_nodes,
    check,
    format_generic,
    labels_of_generic,
    open_assumption_classes,
    subst_label,
)
from .scripts import parse_script

__all__ = [
    "SchemaMismatch",
    "ShapeMismatch",
    "NotLocalFormula",
    "NonParametricLabel",
    "NotATautology",
    "NotPropositional",
    "NonInjectiveRenaming",
    "DERIVED_RULES",
    "expand",
    "check_expanded",
    "max_node_id",
    "labels_of_derivation",
    "rename_labels",
    "mp_compose",
    "nec_g",
    "nec_x",
    "derive_tautology",
]


class SchemaMismatch(ValueError):
    """A derived rule's premises do not fit its schema.  ``expand`` sets
    ``node_id`` to the script node that applies the rule."""

    node_id: int | None = None

    def report(self) -> CheckReport:
        """The verdict on the script: it parses, and its derivation is what
        is wrong, a ``ShapeMismatch`` at the node that applies the rule."""
        return CheckReport(accepted=False, node_id=self.node_id, reason=SHAPE_MISMATCH, message=str(self))


class ShapeMismatch(ValueError):
    pass


class NotLocalFormula(ValueError):
    pass


class NonParametricLabel(ValueError):
    pass


class NotATautology(ValueError):
    pass


class NotPropositional(ValueError):
    pass


class NonInjectiveRenaming(ValueError):
    pass


DERIVED_RULES = frozenset({"andI", "andE1", "andE2", "orIl", "orIr", "orE", "FI", "FE"})

_NOUNS = {Or: "disjunction", And: "conjunction", Sometime: "sometime formula"}


def _schema_text(rule: str) -> str:
    return resources.files("nabla").joinpath(f"rules/{rule}.ndp").read_text(encoding="utf-8")


def _match(t: Formula, g: Formula, env: dict[str, Formula]) -> bool:
    """Bind the metavariables of the schema formula ``t`` in ``env`` so that
    ``t`` is ``g`` up to desugaring: as written under one connective, else
    desugared.  A bound metavariable must equal ``g`` up to desugaring."""
    if type(t) is Atom:
        old = env.setdefault(t.name, g)
        return old is g or desugar(old) == desugar(g)
    if type(t) is type(g):
        fields = t._fields
        return all(_match(x, y, env) for x, y in zip(fields(t), fields(g)))
    dt, dg = desugar(t), desugar(g)
    return (dt is not t or dg is not g) and _match(dt, dg, env)


def _fits(pattern: GenericFormula, found: GenericFormula, singles: frozenset[str], labels: dict, formulas: dict) -> bool:
    """Whether ``found`` is an instance of the schema judgment ``pattern``,
    binding its labels to label tuples and its metavariables to formulas.
    A pattern's sequence label takes what its single labels leave."""
    if type(found) is not type(pattern):
        return False
    if isinstance(pattern, Lwff):
        if not _match(pattern.formula, found.formula, formulas):
            return False
        want, have = pattern.seq, found.seq
    else:
        want, have = (pattern.a, pattern.b), (found.a, found.b)
    sequences = sum(x not in singles for x in want)
    width, i = len(have) - len(want) + sequences, 0
    if width < 0 or (width and not sequences):
        return False
    for x in want:
        n = 1 if x in singles else width
        if labels.setdefault(x, have[i : i + n]) != have[i : i + n]:
            return False
        i += n
    return True


def _misfit(where: str, rule: str, found: GenericFormula) -> SchemaMismatch:
    return SchemaMismatch(f"{where} of {rule} does not fit its schema: found {format_generic(found)}")


class _Schema:
    """One derived rule's schema, read from ``rules/<rule>.ndp`` and checked."""

    def __init__(self, rule: str):
        self.root = root = parse_script(_schema_text(rule))
        if not (report := check(root)).accepted:
            raise ValueError(f"the schema of {rule} does not check: {report.message}")
        nodes = all_nodes(root)
        used = {id(p) for n in nodes if isinstance(n, Apply) for p in n.premises}
        self.premises = sorted(open_assumption_classes(root), key=lambda a: a.id)
        self.slots = sorted((a for n in nodes if isinstance(n, Apply) for a in n.discharges if id(a) not in used), key=lambda a: a.id)
        self.order = sorted((n for n in nodes if n not in self.premises and n not in self.slots), key=lambda n: n.id)
        judgments = [n.conclusion for n in nodes]
        self.singles = frozenset(x for r in judgments if not isinstance(r, Lwff) for x in (r.a, r.b))
        self.labels = frozenset(x for w in judgments for x in labels_of_generic(w))
        self.atoms = frozenset().union(*(atoms_of(w.formula) for w in judgments if isinstance(w, Lwff)))
        # Matched in order: the connective's judgments (by its noun), the conclusion, the premises.
        where = [("conclusion", root.conclusion, None)] + [(f"premise {i + 1}", a.formula, i) for i, a in enumerate(self.premises)]
        where = [(*j, isinstance(j[1], Lwff) and _NOUNS.get(type(j[1].formula))) for j in where]
        self.judgments = sorted(where, key=lambda j: not j[3])

    def instance(self, node: Apply, prems: tuple[Node, ...], disch: tuple[Assume, ...], ids: Iterator[int]) -> Node:
        """The instance that ``node`` applies, over ``prems``, discharging
        ``disch``, its new nodes numbered by ``ids`` in schema-id order."""
        if len(prems) != len(self.premises):
            raise SchemaMismatch(f"rule {node.rule} takes {len(self.premises)} premises, got {len(prems)}")
        labels, formulas = {}, {}  # label -> label tuple, metavariable -> formula
        for where, pattern, i, noun in self.judgments:
            found = node.conclusion if i is None else prems[i].conclusion
            if not _fits(pattern, found, self.singles, labels, formulas):
                if noun and isinstance(found, Lwff) and not _match(pattern.formula, found.formula, {}):
                    raise SchemaMismatch(f"not a {noun}: {format_formula(found.formula)}")
                raise _misfit(where, node.rule, found)
        bound: dict[int, list[Assume]] = {id(a): [] for a in self.slots}
        for x in disch:
            for slot in self.slots:
                trial = dict(labels), dict(formulas)
                if _fits(slot.formula, x.formula, self.singles, *trial):
                    labels, formulas = trial
                    bound[id(slot)].append(x)
                    break
            else:  # andE1 and andE2 report as andE
                raise _misfit(f"discharged assumption {x.id}", node.rule, x.formula) if self.slots else SchemaMismatch(f"{node.rule.rstrip('12')} discharges nothing")
        if not (self.labels <= labels.keys() and self.atoms <= formulas.keys()):
            raise SchemaMismatch(f"{node.rule} discharges no assumption of the form {' or '.join(format_generic(a.formula) for a in self.slots)}")
        bot = Bottom()  # the instance's own: it keeps no object of the schema
        rules = _HOMOMORPHIC | {Atom: lambda x: formulas[x.name], Bottom: lambda x: bot}
        memo: dict[int, Formula] = {}

        def judgment(phi: GenericFormula) -> GenericFormula:
            if isinstance(phi, Lwff):
                return Lwff(tuple(y for x in phi.seq for y in labels[x]), _fold_from(phi.formula, rules, memo))
            return type(phi)(labels[phi.a][0], labels[phi.b][0])

        made: dict[int, Node] = {id(a): p for a, p in zip(self.premises, prems)}
        for n in self.order:
            if isinstance(n, Assume):
                made[id(n)] = Assume(next(ids), judgment(n.formula))
            else:
                conclusion = node.conclusion if n is self.root else judgment(n.conclusion)
                discharges = tuple(x for a in n.discharges for x in (bound[id(a)] if id(a) in bound else (made[id(a)],)))
                made[id(n)] = Apply(next(ids), n.rule, conclusion, tuple(made[id(p)] for p in n.premises), discharges)
        return made[id(self.root)]


_schema = functools.cache(_Schema)


def expand(root: Node) -> Node:
    """Rewrite derived-rule applications into instances of their schemas;
    ``root`` itself if it has none."""
    order = all_nodes(root)
    if not any(isinstance(n, Apply) and n.rule in DERIVED_RULES for n in order):
        return root
    ids = itertools.count(max(n.id for n in order) + 1)
    memo: dict[int, Node] = {}
    for n in order:
        if isinstance(n, Assume):
            memo[id(n)] = n
            continue
        prems = tuple(memo[id(p)] for p in n.premises)
        disch = tuple(memo[id(a)] for a in n.discharges)
        if n.rule not in DERIVED_RULES:
            memo[id(n)] = Apply(n.id, n.rule, n.conclusion, prems, disch)
            continue
        try:
            memo[id(n)] = _schema(n.rule).instance(n, prems, disch, ids)
        except SchemaMismatch as e:
            e.node_id = n.id
            raise
    return memo[id(root)]


def check_expanded(root: Node) -> CheckReport:
    """``check(expand(root))``, with a :class:`SchemaMismatch` reported as its rejection."""
    try:
        return check(expand(root))
    except SchemaMismatch as e:
        return e.report()


# --- Hilbert closure transformers -------------------------------------------


def max_node_id(root: Node) -> int:
    return max((n.id for n in all_nodes(root)), default=0)


def labels_of_derivation(root: Node) -> frozenset[str]:
    labs: set[str] = set()
    for n in all_nodes(root):
        labs |= labels_of_generic(n.conclusion)
    return frozenset(labs)


def rename_labels(root: Node, mapping: dict[str, str]) -> Node:
    """Rebuild the derivation with labels renamed; must be injective on the
    labels occurring in it.  Preserves node ids and sharing."""
    present = labels_of_derivation(root)
    full = {lab: mapping.get(lab, lab) for lab in present}
    if len(set(full.values())) != len(full):
        raise NonInjectiveRenaming(f"renaming is not injective on {sorted(present)}")
    memo: dict[int, Node] = {}
    for n in all_nodes(root):
        if isinstance(n, Assume):
            memo[id(n)] = Assume(n.id, subst_label(n.formula, full))
        else:
            memo[id(n)] = Apply(
                n.id,
                n.rule,
                subst_label(n.conclusion, full),
                tuple(memo[id(p)] for p in n.premises),
                tuple(memo[id(a)] for a in n.discharges),
            )
    return memo[id(root)]


def _closed_single_label(report: CheckReport, what: str) -> tuple[str, Formula]:
    if not report.accepted:
        raise ShapeMismatch(f"{what} requires an accepted derivation: {report.message}")
    if report.open_assumptions:
        raise ShapeMismatch(f"{what} requires a closed proof")
    if len(report.conclusion.seq) != 1:
        raise NonParametricLabel(f"{what} requires a single-label conclusion")
    return report.conclusion.seq[0], report.conclusion.formula


def mp_compose(d1: Node, d2: Node) -> Node:
    """From closed proofs of ``b : A`` and ``b : A -> B`` build ``b : B``."""
    b1, f1 = _closed_single_label(check(d1), "mp_compose")
    b2, f2 = _closed_single_label(check(d2), "mp_compose")
    if b1 != b2:
        raise ShapeMismatch(f"mp_compose labels differ: {b1!r} vs {b2!r}")
    g2 = desugar(f2)
    if not isinstance(g2, Implies) or g2.left != desugar(f1):
        raise ShapeMismatch("mp_compose needs proofs of A and A -> B")
    consequent = f2.right if isinstance(f2, Implies) else g2.right
    return Apply(max_node_id(d1) + max_node_id(d2) + 1, "impE", Lwff((b1,), consequent), (d2, d1))


def _nec(d: Node, op, rel, rule: str, name: str) -> Node:
    report = check(d)
    if report.accepted and not is_local(report.conclusion.formula):
        raise NotLocalFormula(f"{name} requires a local formula, got {format_formula(report.conclusion.formula)}")
    b, f = _closed_single_label(report, name)
    used = labels_of_derivation(d)
    c = next(f"w{i}" for i in itertools.count(1) if f"w{i}" not in used and f"w{i}" != b)
    renamed = rename_labels(d, {b: c})
    ids = itertools.count(max_node_id(d) + 1)
    lifted = Apply(next(ids), "last", Lwff((b, c), f), (renamed,))
    hyp = Assume(next(ids), rel(b, c))
    return Apply(next(ids), rule, Lwff((b,), op(f)), (lifted,), (hyp,))


def nec_g(d: Node) -> Node:
    """From a closed proof of ``b : C`` (C local) build one of ``b : G C``."""
    return _nec(d, Always, Le, "GI", "nec_g")


def nec_x(d: Node) -> Node:
    """From a closed proof of ``b : C`` (C local) build one of ``b : X C``."""
    return _nec(d, Next, Succ, "XI", "nec_x")


# --- tautology proofs --------------------------------------------------------


def _kleene(phi: Formula, fixed: dict[int, bool | None], known: dict[int, bool | None]) -> bool | None:
    """Kleene value of the propositional core formula ``phi``: its value in
    Kleene's strong three-valued logic, where ``None`` is undetermined and
    an implication is true if its antecedent is false or its consequent
    true, false if the one is true and the other false.  The one evaluator
    of :func:`derive_tautology`: its split-variable search and its case
    split, which also refutes, both call it.

    ``fixed`` gives values to objects, which are then leaves, and memoises
    the value of each object visited, by membership, so that undetermined
    is memoised too and a shared object is visited once.  ``known`` holds
    definite values that the values in ``fixed`` cannot change; an atom in
    neither is undetermined.  An implication whose consequent is true is
    true without a visit of its antecedent.
    """
    i = id(phi)
    if i in fixed:
        return fixed[i]
    v = known.get(i)
    if v is None:
        if isinstance(phi, Implies):
            v = _kleene(phi.right, fixed, known)
            if v is not True:
                x = _kleene(phi.left, fixed, known)
                v = True if x is False else v if x is True else None
        elif isinstance(phi, Bottom):
            v = False
        fixed[i] = v
    return v


# At most this many compound candidates are tested.  A test may visit every
# object of g twice, so the search costs at most atoms + _CANDIDATES walks of
# g, however many of its subformulas repeat.
_CANDIDATES = 4


def _split_variable(g: Formula, atoms: list[Atom], objects, known: dict[int, bool | None]) -> Formula | None:
    """The one split variable that decides ``g``: the first candidate ``c``
    such that ``g`` is Kleene-true both with ``c`` true and with ``c``
    false, everything else undetermined; None if there is none, if ``g``
    is not an implication (an atom or bot, which no split decides), or if
    ``g`` is Kleene-true with nothing assigned.

    ``g`` is interned, so equal subformulas are one object, and
    ``objects`` holds each of its subformulas once.  The candidates are
    ``atoms``, in their order, then the first :data:`_CANDIDATES`
    implications that occur more than once in ``g`` read as a tree,
    outermost first: breadth-first from the root, left before right,
    descending only through implications that occur once.  A subformula
    that occurs once never decides ``g``: along its one path to the root,
    each ``->`` whose other side is fixed passes an undetermined value
    upward, and passes a definite value only when both values of the
    occurrence give the same one, and then an undetermined occurrence
    gives it too.  So if a single occurrence decided ``g``, ``g`` would
    already be decided with nothing assigned.

    A definite value is not enough: in ``((bot & bot) -> bot)`` setting
    ``(bot -> bot)`` false makes it false.  Setting an undetermined
    candidate can only turn undetermined values definite, never change a
    definite one, so each test reads the values with nothing assigned,
    ``known``, the memo of ``_kleene(g, known, {})``, and revisits only
    what they leave undetermined.  A candidate that is definite with
    nothing assigned fails the test that gives it that value again.
    """
    if not isinstance(g, Implies) or known[id(g)] is True:
        return None

    def compound() -> Iterator[Formula]:
        # Each object's number of occurrences as a side of an implication
        # of g.  For a side of an implication that occurs once in the tree,
        # this is its number of occurrences in the tree.
        sides = collections.Counter(id(s) for x in objects if isinstance(x, Implies) for s in (x.left, x.right))
        queue, seen = [g], set()
        for x in queue:
            for y in (x.left, x.right):
                if isinstance(y, Implies) and id(y) not in seen:
                    seen.add(id(y))
                    if sides[id(y)] == 1:
                        queue.append(y)
                    else:
                        yield y

    def decides(c: Formula) -> bool:
        return all(_kleene(g, {id(c): holds}, known) is True for holds in (True, False))

    return next(filter(decides, itertools.chain(atoms, itertools.islice(compound(), _CANDIDATES))), None)


def derive_tautology(f: Formula, label: str = "b") -> Node:
    """Closed proof of ``label : f`` for a classical propositional tautology.

    A case-split construction (Kalmár) over split variables.  When one
    subformula decides the formula alone, true either way in Kleene's
    three-valued logic with everything else undetermined, it is the only
    split variable, whatever its size, and the formula is a tautology; an
    instance of Peirce's law, K, excluded middle or double negation thus
    gets the proof of its schema (see :func:`_split_variable` for which
    subformulas are tried, and in what order).  Otherwise the atoms are
    the split variables, in name order.  Each branch assumes a literal for
    a split variable, ``c`` or ``c -> bot``, the false branch first, and
    stops splitting as soon as its partial valuation decides the formula.
    Where it makes the formula true, the formula (or the refuted side of
    each subformula it needs) is derived from the branch's literal
    assumptions, and the literals are eliminated one split variable at a
    time through excluded-middle reasoning built from botE.  Where it
    makes the formula false, ``NotATautology`` names the first falsifying
    valuation in product order over the atoms, false before true.  The
    formula is evaluated, by :func:`_kleene`, once per branch; each
    subformula is derived once per choice of literal assumptions for its
    split variables, and every place and branch that needs it shares that
    subproof.  Output uses only impI, impE and botE.
    """
    if temporal_depth(f) > 0:
        raise NotPropositional(f"temporal operators in {format_formula(f)}")
    ids = itertools.count(1)
    seq = (label,)
    # One object per formula and per judgement for the whole proof, the
    # source's own subformulas included: check and serialize memoise per
    # object, so each is then handled once.  made is keyed on an atom's
    # name or on the ids of an implication's sides.
    bot = Bottom()
    made: dict[str | tuple[int, int], Formula] = {}
    judged: dict[int, Lwff] = {}

    def imp(x: Formula, y: Formula) -> Implies:
        f = made.get((id(x), id(y)))
        if f is None:
            f = made[id(x), id(y)] = Implies(x, y)
        return f

    def lw(f: Formula) -> Lwff:
        w = judged.get(id(f))
        if w is None:
            w = judged[id(f)] = Lwff(seq, f)
        return w

    g = _fold(desugar(f), {Atom: lambda x: made.setdefault(x.name, x), Bottom: lambda x: bot, Implies: lambda x, a, b: imp(a, b)})
    atoms = [made[a] for a in sorted(k for k in made if isinstance(k, str))]

    # The values with nothing assigned: the search's known values, and the
    # root branch's memo.
    root: dict[int, bool | None] = {}
    _kleene(g, root, {})
    split = _split_variable(g, atoms, made.values(), root)
    variables = atoms if split is None else [split]

    # A subformula's value and subproof depend only on the literal
    # assumptions of its split variables.  keys gives each object the ids
    # of the split variables below it, by one fold with them as leaves:
    # what contains a compound split variable is keyed on its literal, and
    # _kleene and prove never look inside it.  The atoms are seeded too,
    # since the fold memoises no atom; bot has no entry.
    keys: dict[int, frozenset[int]] = {id(v): frozenset((id(v),)) for v in (*atoms, *variables)}
    _fold_from(g, {Atom: lambda x: keys[id(x)], Bottom: lambda x: frozenset(), Implies: lambda x, a, b: a | b}, keys)
    proved: dict[tuple, Node] = {}

    # env holds a split variable's literal assumption, under its id, and
    # fixed its value, exactly where the partial valuation defines it;
    # fixed is also the branch's _kleene memo.
    def prove(phi: Formula, env: dict[int, Assume], fixed: dict[int, bool | None]) -> Node:
        # Derives `phi` when the valuation makes it true, `phi -> bot` when
        # it makes it false; it decides every formula this is called on, so
        # each split variable reached has its literal assumption in env.
        # The subproof is built once per literal assumptions of phi's split
        # variables and shared: they are discharged above every use.
        key = (id(phi), *map(env.get, keys.get(id(phi), ())))
        d = proved.get(key)
        if d is None:
            d = proved[key] = derive(phi, env, fixed)
        return d

    def derive(phi: Formula, env: dict[int, Assume], fixed: dict[int, bool | None]) -> Node:
        if isinstance(phi, Bottom):
            hb = Assume(next(ids), lw(bot))
            return Apply(next(ids), "impI", lw(imp(bot, bot)), (hb,), (hb,))
        assert isinstance(phi, Implies)
        x, y = phi.left, phi.right
        if _kleene(y, fixed, {}):  # tried first: one node over y's proof
            return Apply(next(ids), "impI", lw(phi), (prove(y, env, fixed),))
        if _kleene(x, fixed, {}) is False:
            dx = prove(x, env, fixed)  # proves x -> bot
            h = Assume(next(ids), lw(x))
            n1 = Apply(next(ids), "impE", lw(bot), (dx, h))
            n2 = Apply(next(ids), "botE", lw(y), (n1,))
            return Apply(next(ids), "impI", lw(phi), (n2,), (h,))
        dx, dy = prove(x, env, fixed), prove(y, env, fixed)  # x holds, y -> bot
        h = Assume(next(ids), lw(phi))
        n1 = Apply(next(ids), "impE", lw(y), (h, dx))
        n2 = Apply(next(ids), "impE", lw(bot), (dy, n1))
        return Apply(next(ids), "impI", lw(imp(phi, bot)), (n2,), (h,))

    def build(env: dict[int, Assume], assigned: dict[int, bool], remaining: list[Formula], fixed: dict[int, bool | None] | None = None) -> Node:
        # Where the partial valuation makes g false, so does every
        # extension, and the first of them in product order over the sorted
        # atoms, false before true, sets every unassigned atom false; no
        # valuation before it falsifies g, since the branches walked before
        # it are true or hold none that is false.  A compound split
        # variable decides g, so it is never false here.  fixed, if given,
        # is the branch's memo with g already evaluated.
        if fixed is None:
            fixed = dict(assigned)
            _kleene(g, fixed, {})
        v = fixed[id(g)]
        if v:
            return prove(g, env, fixed)
        if v is False:
            valuation = {a.name: assigned.get(id(a), False) for a in atoms}
            raise NotATautology(f"falsified by {valuation}")
        c, rest = remaining[0], remaining[1:]
        not_c = imp(c, bot)
        lit_true = Assume(next(ids), lw(c))
        lit_false = Assume(next(ids), lw(not_c))
        for lit in (lit_true, lit_false):
            proved[id(c), lit] = lit
        d_false = build({**env, id(c): lit_false}, {**assigned, id(c): False}, rest)
        d_true = build({**env, id(c): lit_true}, {**assigned, id(c): True}, rest)
        d1 = Apply(next(ids), "impI", lw(imp(c, g)), (d_true,), (lit_true,))
        d2 = Apply(next(ids), "impI", lw(imp(not_c, g)), (d_false,), (lit_false,))
        hf = Assume(next(ids), lw(imp(g, bot)))
        hc = Assume(next(ids), lw(c))
        m1 = Apply(next(ids), "impE", lw(g), (d1, hc))
        m2 = Apply(next(ids), "impE", lw(bot), (hf, m1))
        m3 = Apply(next(ids), "impI", lw(not_c), (m2,), (hc,))
        m4 = Apply(next(ids), "impE", lw(g), (d2, m3))
        m5 = Apply(next(ids), "impE", lw(bot), (hf, m4))
        return Apply(next(ids), "botE", lw(g), (m5,), (hf,))

    try:
        return build({}, {}, variables, root)
    finally:
        # prove and derive refer to each other and build to itself: clearing
        # them frees the proof's memos now, on a refusal too, and leaves no
        # cycle to the garbage collector.
        prove = derive = build = None
