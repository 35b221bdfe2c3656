"""Derived rules as expansion templates, plus proof transformers.

The kernel trusts only its 18 primitive rules.  Scripts may use the
derived names ``andI andE1 andE2 orIl orIr orE FI FE``; ``expand`` rewrites
those applications into primitive derivations, and every expansion is
re-checked by the kernel downstream.  ``mp_compose``, ``nec_g`` and
``nec_x`` make the Hilbert closure rules executable over closed proofs,
and ``derive_tautology`` builds a closed proof for any classical
propositional tautology by case-splitting.  One evaluator of Kleene's
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
import itertools
from collections.abc import Iterator
from dataclasses import fields

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
    _fold,
    _fold_from,
    _not,
    desugar,
    is_local,
    format_formula,
    temporal_depth,
)
from .kernel import (
    Apply,
    Assume,
    CheckReport,
    Le,
    Lwff,
    Node,
    Succ,
    all_nodes,
    check,
    labels_of_derivation,
    max_node_id,
    normalize_generic,
    rename_labels,
)

__all__ = [
    "SchemaMismatch",
    "ShapeMismatch",
    "NotLocalFormula",
    "NonParametricLabel",
    "NotATautology",
    "NotPropositional",
    "expand",
    "mp_compose",
    "nec_g",
    "nec_x",
    "derive_tautology",
]


class SchemaMismatch(ValueError):
    """A derived rule's premises do not fit its schema.  ``expand`` sets
    ``node_id`` to the script node that applies the rule."""

    node_id: int | None = None


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


_NOUNS = {Or: "disjunction", And: "conjunction", Sometime: "sometime formula"}


def _split(f: Formula, cls: type) -> tuple[Formula, ...]:
    """The operands of ``f`` as an abbreviation ``cls``, written or desugared.

    A desugared ``f`` is matched against ``desugar`` of ``cls`` over fresh
    placeholder atoms; the placeholders, known by identity, bind to the
    operands."""
    if isinstance(f, cls):
        return tuple(getattr(f, x.name) for x in fields(cls))
    holes = tuple(Atom(x.name) for x in fields(cls))
    bound: dict[int, Formula] = {}

    def match(t: Formula, g: Formula) -> bool:
        if any(t is h for h in holes):
            bound[id(t)] = g
            return True
        if type(t) is not type(g):
            return False
        return all(match(getattr(t, x.name), getattr(g, x.name)) for x in fields(t))

    if match(desugar(cls(*holes)), desugar(f)):
        return tuple(bound[id(h)] for h in holes)
    raise SchemaMismatch(f"not a {_NOUNS[cls]}: {format_formula(f)}")


def _concl_of(n: Node) -> Lwff:
    if not isinstance(n.conclusion, Lwff):
        raise SchemaMismatch("expected a labeled premise")
    return n.conclusion


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaMismatch(message)


# --- templates -------------------------------------------------------------


def _expand_andI(node: Apply, prems, ids: Iterator[int]) -> Node:
    d1, d2 = prems
    w1, w2 = _concl_of(d1), _concl_of(d2)
    a, b = _split(node.conclusion.formula, And)
    seq = node.conclusion.seq
    _require(w1.seq == seq and w2.seq == seq, "andI premises must share the conclusion sequence")
    _require(desugar(w1.formula) == desugar(a) and desugar(w2.formula) == desugar(b), "andI premises must prove the conjuncts")
    phi = Implies(_not(_not(a)), _not(b))
    h = Assume(next(ids), Lwff(seq, phi))
    ha = Assume(next(ids), Lwff(seq, _not(a)))
    n1 = Apply(next(ids), "impE", Lwff(seq, Bottom()), (ha, d1))
    n2 = Apply(next(ids), "impI", Lwff(seq, _not(_not(a))), (n1,), (ha,))
    n3 = Apply(next(ids), "impE", Lwff(seq, _not(b)), (h, n2))
    n4 = Apply(next(ids), "impE", Lwff(seq, Bottom()), (n3, d2))
    return Apply(next(ids), "impI", node.conclusion, (n4,), (h,))


def _expand_andE(node: Apply, prems, ids: Iterator[int], first: bool) -> Node:
    (d,) = prems
    w = _concl_of(d)
    a, b = _split(w.formula, And)
    seq = node.conclusion.seq
    _require(w.seq == seq, "andE premise must share the conclusion sequence")
    want = a if first else b
    _require(desugar(node.conclusion.formula) == desugar(want), "andE conclusion must be the selected conjunct")
    if first:
        hx = Assume(next(ids), Lwff(seq, _not(a)))
        h1 = Assume(next(ids), Lwff(seq, _not(_not(a))))
        n1 = Apply(next(ids), "impE", Lwff(seq, Bottom()), (h1, hx))
        n2 = Apply(next(ids), "impI", Lwff(seq, _not(b)), (n1,))
        n3 = Apply(next(ids), "impI", Lwff(seq, Implies(_not(_not(a)), _not(b))), (n2,), (h1,))
    else:
        hx = Assume(next(ids), Lwff(seq, _not(b)))
        n3 = Apply(next(ids), "impI", Lwff(seq, Implies(_not(_not(a)), _not(b))), (hx,))
    n4 = Apply(next(ids), "impE", Lwff(seq, Bottom()), (d, n3))
    return Apply(next(ids), "botE", node.conclusion, (n4,), (hx,))


def _expand_orIl(node: Apply, prems, ids: Iterator[int]) -> Node:
    (d,) = prems
    w = _concl_of(d)
    a, b = _split(node.conclusion.formula, Or)
    seq = node.conclusion.seq
    _require(w.seq == seq, "orIl premise must share the conclusion sequence")
    _require(desugar(w.formula) == desugar(a), "orIl premise must prove the left disjunct")
    h = Assume(next(ids), Lwff(seq, _not(a)))
    n1 = Apply(next(ids), "impE", Lwff(seq, Bottom()), (h, d))
    n2 = Apply(next(ids), "botE", Lwff(seq, b), (n1,))
    return Apply(next(ids), "impI", node.conclusion, (n2,), (h,))


def _expand_orIr(node: Apply, prems, ids: Iterator[int]) -> Node:
    (d,) = prems
    w = _concl_of(d)
    a, b = _split(node.conclusion.formula, Or)
    seq = node.conclusion.seq
    _require(w.seq == seq, "orIr premise must share the conclusion sequence")
    _require(desugar(w.formula) == desugar(b), "orIr premise must prove the right disjunct")
    return Apply(next(ids), "impI", node.conclusion, (d,))


def _expand_orE(node: Apply, prems, ids: Iterator[int]) -> Node:
    d0, da, db = prems
    w0 = _concl_of(d0)
    a, b = _split(w0.formula, Or)
    goal = node.conclusion
    _require(desugar(_concl_of(da).formula) == desugar(goal.formula) and _concl_of(da).seq == goal.seq, "orE first case must prove the conclusion")
    _require(desugar(_concl_of(db).formula) == desugar(goal.formula) and _concl_of(db).seq == goal.seq, "orE second case must prove the conclusion")
    ha = [x for x in node.discharges if normalize_generic(x.formula) == normalize_generic(Lwff(w0.seq, a))]
    hb = [x for x in node.discharges if x not in ha and normalize_generic(x.formula) == normalize_generic(Lwff(w0.seq, b))]
    _require(len(ha) + len(hb) == len(node.discharges), "orE discharges case assumptions only")
    hc = Assume(next(ids), Lwff(goal.seq, _not(goal.formula)))
    n1 = Apply(next(ids), "impE", Lwff(goal.seq, Bottom()), (hc, da))
    n2 = Apply(next(ids), "botE", Lwff(w0.seq, Bottom()), (n1,))
    n3 = Apply(next(ids), "impI", Lwff(w0.seq, _not(a)), (n2,), tuple(ha))
    n4 = Apply(next(ids), "impE", Lwff(w0.seq, b), (d0, n3))
    n5 = Apply(next(ids), "impE", Lwff(goal.seq, Bottom()), (hc, db))
    n6 = Apply(next(ids), "botE", Lwff(w0.seq, Bottom()), (n5,))
    n7 = Apply(next(ids), "impI", Lwff(w0.seq, _not(b)), (n6,), tuple(hb))
    n8 = Apply(next(ids), "impE", Lwff(w0.seq, Bottom()), (n7, n4))
    return Apply(next(ids), "botE", goal, (n8,), (hc,))


def _expand_FI(node: Apply, prems, ids: Iterator[int]) -> Node:
    d1, r = prems
    w = _concl_of(d1)
    (a,) = _split(node.conclusion.formula, Sometime)
    seq = node.conclusion.seq
    _require(len(w.seq) == len(seq) + 1 and w.seq[:-1] == seq, "FI premise must extend the conclusion sequence by one label")
    _require(desugar(w.formula) == desugar(a), "FI premise must prove the operand")
    _require(r.conclusion == Le(seq[-1], w.seq[-1]), "FI needs le(last, new) as its relational premise")
    h = Assume(next(ids), Lwff(seq, Always(_not(a))))
    n1 = Apply(next(ids), "GE", Lwff(w.seq, _not(a)), (h, r))
    n2 = Apply(next(ids), "impE", Lwff(w.seq, Bottom()), (n1, d1))
    n3 = Apply(next(ids), "botE", Lwff(seq, Bottom()), (n2,))
    return Apply(next(ids), "impI", node.conclusion, (n3,), (h,))


def _expand_FE(node: Apply, prems, ids: Iterator[int]) -> Node:
    d0, dh = prems
    w0 = _concl_of(d0)
    (a,) = _split(w0.formula, Sometime)
    goal = node.conclusion
    wh = _concl_of(dh)
    _require(wh.seq == goal.seq and desugar(wh.formula) == desugar(goal.formula), "FE hypothetical premise must prove the conclusion")
    b1 = w0.seq[-1]
    hr = [x for x in node.discharges if isinstance(x.formula, Le) and x.formula.a == b1]
    b2s = {x.formula.b for x in hr}
    hall = [
        x
        for x in node.discharges
        if isinstance(x.formula, Lwff)
        and len(x.formula.seq) == len(w0.seq) + 1
        and x.formula.seq[:-1] == w0.seq
        and desugar(x.formula.formula) == desugar(a)
    ]
    b2s |= {x.formula.seq[-1] for x in hall}
    _require(len(hr) + len(hall) == len(node.discharges), "FE discharges its witness assumptions only")
    _require(len(b2s) == 1, "FE witness assumptions must name one fresh label")
    b2 = b2s.pop()
    hc = Assume(next(ids), Lwff(goal.seq, _not(goal.formula)))
    n1 = Apply(next(ids), "impE", Lwff(goal.seq, Bottom()), (hc, dh))
    n2 = Apply(next(ids), "botE", Lwff(w0.seq + (b2,), Bottom()), (n1,))
    n3 = Apply(next(ids), "impI", Lwff(w0.seq + (b2,), _not(a)), (n2,), tuple(hall))
    n4 = Apply(next(ids), "GI", Lwff(w0.seq, Always(_not(a))), (n3,), tuple(hr))
    n5 = Apply(next(ids), "impE", Lwff(w0.seq, Bottom()), (d0, n4))
    return Apply(next(ids), "botE", goal, (n5,), (hc,))


# Derived rule name -> (premise count, whether it may discharge, template).
_TEMPLATES = {
    "andI": (2, False, _expand_andI),
    "andE1": (1, False, lambda n, p, i: _expand_andE(n, p, i, True)),
    "andE2": (1, False, lambda n, p, i: _expand_andE(n, p, i, False)),
    "orIl": (1, False, _expand_orIl),
    "orIr": (1, False, _expand_orIr),
    "orE": (3, True, _expand_orE),
    "FI": (2, False, _expand_FI),
    "FE": (2, True, _expand_FE),
}


def expand(root: Node) -> Node:
    """Rewrite derived-rule applications into primitive derivations; ``root`` itself if it has none."""
    order = all_nodes(root)
    if not any(isinstance(n, Apply) and n.rule in _TEMPLATES for n in order):
        return root
    ids = itertools.count(max(n.id for n in order) + 1)
    memo: dict[int, Node] = {}
    for n in order:
        if isinstance(n, Assume):
            memo[id(n)] = n
            continue
        prems = tuple(memo[id(p)] for p in n.premises)
        disch = tuple(memo[id(a)] for a in n.discharges)
        if n.rule in _TEMPLATES:
            arity, may_discharge, template = _TEMPLATES[n.rule]
            try:
                if len(prems) != arity:
                    raise SchemaMismatch(f"rule {n.rule} takes {arity} premises, got {len(prems)}")
                staged = Apply(n.id, n.rule, n.conclusion, prems, disch, n.subst)
                memo[id(n)] = template(staged, prems, ids)
                # After the template, so that a premise fault is reported
                # first.  andE1 and andE2 report as andE, as in their other
                # messages.
                if disch and not may_discharge:
                    raise SchemaMismatch(f"{n.rule.rstrip('12')} discharges nothing")
            except SchemaMismatch as e:
                e.node_id = n.id
                raise
        else:
            memo[id(n)] = Apply(n.id, n.rule, n.conclusion, prems, disch, n.subst)
    return memo[id(root)]


# --- Hilbert closure transformers -------------------------------------------


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


def _split_variable(g: Formula, atoms: list[Atom], objects) -> Formula | None:
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
    definite one, so each test reads the values with nothing assigned as
    ``known`` and revisits only what they leave undetermined.  A candidate
    that is definite with nothing assigned fails the test that gives it
    that value again.
    """
    known: dict[int, bool | None] = {}
    if not isinstance(g, Implies) or _kleene(g, known, {}) is True:
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

    split = _split_variable(g, atoms, made.values())
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

    def build(env: dict[int, Assume], assigned: dict[int, bool], remaining: list[Formula]) -> Node:
        # Where the partial valuation makes g false, so does every
        # extension, and the first of them in product order over the sorted
        # atoms, false before true, sets every unassigned atom false; no
        # valuation before it falsifies g, since the branches walked before
        # it are true or hold none that is false.  A compound split
        # variable decides g, so it is never false here.
        fixed = dict(assigned)
        v = _kleene(g, fixed, {})
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

    return build({}, {}, variables)
