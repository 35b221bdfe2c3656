"""Seeded random generators for formulas, observation sequences and
derivations; lasso models come from ``semantics.random_lasso``.

Formula generators draw from one grammar table, picking productions with
equal weight under a complexity budget.  The derivation generator builds
kernel-accepted derivations by forward chaining, with one walk of the
derivation per step: every rule application satisfies the side conditions
by construction (eigenlabels come from a global fresh supply).  It does
not check its result; the soundness lemma asserts that the kernel accepts
each derivation it draws.

Every integer draw, here and in the other seeded samplers, goes through
``semantics._below``, which makes ``random.Random.randrange``'s own
``getrandbits`` calls: a seed gives the stream of ``random.Random``, the
one that ``randint``, ``randrange`` and ``choice`` would give.
"""

from __future__ import annotations

import random
from functools import partialmethod

from .formulas import (
    Always,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    Next,
    Until,
    is_local,
)
from .kernel import (
    Apply,
    Assume,
    GenericFormula,
    Le,
    Lwff,
    Node,
    Succ,
    labels_of_generic,
    normalize_generic,
    open_assumption_classes,
)
from .semantics import _below

__all__ = [
    "random_until_formula",
    "random_history_formula",
    "random_local_formula",
    "random_hist_tier_formula",
    "random_obs_sequence",
    "DerivationSampler",
]

SYMBOLS = ("p", "q", "r")  # DerivationSampler draws over the first two


def _split(rng: random.Random, budget: int) -> tuple[int, int]:
    left = _below(rng, budget + 1)
    return left, budget - left


# Grammar name -> productions.  A production is a constructor with the
# grammar of each operand, or a bare grammar name drawn at the same budget.
_GRAMMARS = {
    "until": ((Atom,), (Bottom,), (Implies, "until", "until"), (Always, "until"), (Next, "until"), (Until, "until", "until")),
    "history": ((Atom,), (Bottom,), (Implies, "history", "history"), (Always, "history"), (Next, "history"), (Hist, "history")),
    # history only under G/X
    "local": ((Atom,), (Bottom,), (Implies, "local", "local"), (Always, "hist-tier"), (Next, "hist-tier")),
    # history also at top or under implication
    "hist-tier": ("local", (Implies, "hist-tier", "hist-tier"), (Hist, "hist-tier")),
}


def _draw(rng: random.Random, grammar: str, budget: int, symbols) -> Formula:
    """A formula of ``grammar`` with complexity at most ``budget``: a leaf
    once the budget is spent, else a production of equal weight, a binary
    one splitting the budget left to its operands."""
    if budget <= 0:
        return Atom(symbols[_below(rng, len(symbols))]) if rng.random() < 0.8 else Bottom()
    productions = _GRAMMARS[grammar]
    prod = productions[_below(rng, len(productions))]
    if type(prod) is str:
        return _draw(rng, prod, budget, symbols)
    cls = prod[0]
    if cls is Atom:
        return Atom(symbols[_below(rng, len(symbols))])
    if cls is Bottom:
        return Bottom()
    if len(prod) == 3:
        lb, rb = _split(rng, budget - 1)
        return cls(_draw(rng, prod[1], lb, symbols), _draw(rng, prod[2], rb, symbols))
    return cls(_draw(rng, prod[1], budget - 1, symbols))


def random_until_formula(rng: random.Random, budget: int) -> Formula:
    return _draw(rng, "until", budget, SYMBOLS)


def random_history_formula(rng: random.Random, budget: int) -> Formula:
    return _draw(rng, "history", budget, SYMBOLS)


def random_local_formula(rng: random.Random, budget: int) -> Formula:
    """Sample from the local tier of the grammar (history only under G/X)."""
    return _draw(rng, "local", budget, SYMBOLS)


def random_hist_tier_formula(rng: random.Random, budget: int) -> Formula:
    """Sample from the wider tier (history also at top or under implication)."""
    return _draw(rng, "hist-tier", budget, SYMBOLS)


def random_obs_sequence(rng: random.Random, max_len: int = 4, max_value: int = 10, min_len: int = 1) -> tuple[int, ...]:
    return tuple([_below(rng, max_value + 1) for _ in range(min_len + _below(rng, max_len - min_len + 1))])


# The moves of DerivationSampler.sample, one per primitive rule, each drawn
# with equal weight; a move ``name`` is the method ``_step_name``.
_STEPS = (
    "impI", "impE", "botE", "GE", "XE", "histE", "GI", "XI", "histI",
    "last", "reflLe", "transLe", "baseLe", "eqLe", "serS", "linS", "splitLe", "ind",
)


class DerivationSampler:
    """Forward-chaining generator of small kernel-accepted derivations.

    ``sample`` reads the derivation ``d`` so far once per step, before it
    draws the move: ``_opens`` holds d's open classes in id order, each with
    its ``normalize_generic`` form, computed once, at the first step the
    class is open, and ``_known`` the labels of d's conclusion and of those
    classes, in name order.  Moves share two shapes:
    ``_mp``, modus ponens, and ``_keep``, a rule that keeps d's judgment."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._ids = 0
        self._labels = 0
        self._opens: list[tuple[Assume, GenericFormula]] = []
        self._known: list[str] = []

    def _id(self) -> int:
        self._ids += 1
        return self._ids

    def _fresh_label(self) -> str:
        self._labels += 1
        return f"u{self._labels}"

    def _some_label(self) -> str:
        labs = self._known
        if labs and self.rng.random() < 0.7:
            return labs[_below(self.rng, len(labs))]
        return self._fresh_label()

    def _assume(self, formula) -> Assume:
        return Assume(self._id(), formula)

    def _matching_opens(self, target) -> tuple[Assume, ...]:
        want = normalize_generic(target)
        return tuple(a for a, norm in self._opens if norm == want)

    def _fresh_ok(self, label: str, disch: tuple[Assume, ...]) -> bool:
        return all(label not in labels_of_generic(a.formula) for a, _ in self._opens if a not in disch)

    def _seed(self) -> Node:
        seq = tuple(self._fresh_label() for _ in range(1 + _below(self.rng, 2)))
        return self._assume(Lwff(seq, self._small_formula()))

    def _small_formula(self) -> Formula:
        return _draw(self.rng, "history", _below(self.rng, 3), SYMBOLS[:2])

    def _mp(self, d: Node, target: Formula) -> Apply:
        """``impE`` from a new assumption ``(formula of d) -> target``."""
        w = d.conclusion
        leaf = self._assume(Lwff(w.seq, Implies(w.formula, target)))
        return Apply(self._id(), "impE", Lwff(w.seq, target), (leaf, d))

    def _keep(self, rule: str, d: Node, rels, target) -> Apply:
        """``rule`` over new assumptions of ``rels``, then ``d``, keeping d's judgment and discharging ``target``."""
        leaves = tuple(self._assume(r) for r in rels)
        return Apply(self._id(), rule, d.conclusion, leaves + (d,), self._matching_opens(target))

    # Each step returns a new node or None when the chosen move does not fit.

    def _step_impI(self, d: Node) -> Node | None:
        w = d.conclusion
        same_seq = [a for a, _ in self._opens if isinstance(a.formula, Lwff) and a.formula.seq == w.seq]
        if same_seq and self.rng.random() < 0.7:
            target = same_seq[_below(self.rng, len(same_seq))].formula
        else:
            target = Lwff(w.seq, self._small_formula())
        return Apply(self._id(), "impI", Lwff(w.seq, Implies(target.formula, w.formula)), (d,), self._matching_opens(target))

    def _step_impE(self, d: Node) -> Node | None:
        return self._mp(d, self._small_formula())

    def _step_botE(self, d: Node) -> Node | None:
        falsum = self._mp(d, Bottom())
        seq = tuple(self._fresh_label() for _ in range(1 + _below(self.rng, 2)))
        return Apply(self._id(), "botE", Lwff(seq, self._small_formula()), (falsum,))

    # GE and XE, and GI and XI, share one body over (Always, Le) resp.
    # (Next, Succ), as the kernel's validators do.
    def _univ_elim(self, rule: str, op, rel, d: Node) -> Node | None:
        w = d.conclusion
        if not isinstance(w.formula, op):
            return None
        b2 = self._some_label()
        leaf = self._assume(rel(w.seq[-1], b2))
        return Apply(self._id(), rule, Lwff(w.seq + (b2,), w.formula.operand), (d, leaf))

    _step_GE = partialmethod(_univ_elim, "GE", Always, Le)
    _step_XE = partialmethod(_univ_elim, "XE", Next, Succ)

    def _step_histE(self, d: Node) -> Node | None:
        w = d.conclusion
        if not isinstance(w.formula, Hist) or len(w.seq) < 2:
            return None
        b1, b3 = w.seq[-2], w.seq[-1]
        b2 = self._some_label()
        l1 = self._assume(Le(b1, b2))
        l2 = self._assume(Le(b2, b3))
        return Apply(self._id(), "histE", Lwff(w.seq[:-1] + (b2,), w.formula.operand), (d, l1, l2))

    def _univ_intro(self, rule: str, op, rel, d: Node) -> Node | None:
        w = d.conclusion
        if len(w.seq) < 2:
            return None
        b1, b2 = w.seq[-2], w.seq[-1]
        disch = self._matching_opens(rel(b1, b2))
        if b2 == b1 or not self._fresh_ok(b2, disch):
            return None
        return Apply(self._id(), rule, Lwff(w.seq[:-1], op(w.formula)), (d,), disch)

    _step_GI = partialmethod(_univ_intro, "GI", Always, Le)
    _step_XI = partialmethod(_univ_intro, "XI", Next, Succ)

    def _step_histI(self, d: Node) -> Node | None:
        w = d.conclusion
        if len(w.seq) < 2:
            return None
        b1, b2 = w.seq[-2], w.seq[-1]
        b3 = self._some_label()
        disch = self._matching_opens(Le(b1, b2)) + self._matching_opens(Le(b2, b3))
        if b2 in (b1, b3) or not self._fresh_ok(b2, disch):
            return None
        return Apply(self._id(), "histI", Lwff(w.seq[:-1] + (b3,), Hist(w.formula)), (d,), disch)

    def _step_last(self, d: Node) -> Node | None:
        w = d.conclusion
        if not is_local(w.formula):
            return None
        prefix = tuple(self._some_label() for _ in range(_below(self.rng, 3)))
        return Apply(self._id(), "last", Lwff(prefix + (w.seq[-1],), w.formula), (d,))

    def _step_reflLe(self, d: Node) -> Node | None:
        x = self._some_label()
        return self._keep("reflLe", d, (), Le(x, x))

    def _step_transLe(self, d: Node) -> Node | None:
        x, y, z = (self._some_label() for _ in range(3))
        return self._keep("transLe", d, (Le(x, y), Le(y, z)), Le(x, z))

    def _step_baseLe(self, d: Node) -> Node | None:
        x, y = self._some_label(), self._some_label()
        return self._keep("baseLe", d, (Succ(x, y),), Le(x, y))

    def _step_eqLe(self, d: Node) -> Node | None:
        w = d.conclusion
        b1 = w.seq[-1]
        b2 = self._some_label()
        l1 = self._assume(Le(b1, b2))
        l2 = self._assume(Le(b2, b1))
        return Apply(self._id(), "eqLe", Lwff(w.seq[:-1] + (b2,), w.formula), (l1, l2, d))

    def _step_serS(self, d: Node) -> Node | None:
        x = self._some_label()
        y = self._fresh_label()
        used = self._keep("baseLe", d, (Succ(x, y),), Le(x, y))
        return Apply(self._id(), "serS", d.conclusion, (used,), used.premises[:1])

    def _step_linS(self, d: Node) -> Node | None:
        w = d.conclusion
        if isinstance(w.formula, Always):
            # uniqueness moves the instantiation point of GE between the
            # two successors of a shared base label
            base = self._some_label()
            y, z = self._fresh_label(), self._fresh_label()
            r1 = self._assume(Succ(base, y))
            r2 = self._assume(Succ(base, z))
            used = self._assume(Le(w.seq[-1], z))
            hyp = Apply(self._id(), "GE", Lwff(w.seq + (z,), w.formula.operand), (d, used))
            phi = self._assume(Le(w.seq[-1], y))
            return Apply(self._id(), "linS", hyp.conclusion, (r1, r2, phi, hyp), (used,))
        x = self._some_label()
        y, z = self._fresh_label(), self._fresh_label()
        r1 = self._assume(Succ(x, y))
        r2 = self._assume(Succ(x, z))
        phi = self._assume(Le(y, x))
        ghost = self._assume(Le(z, x))  # phi with z for y; vacuously discharged
        return Apply(self._id(), "linS", w, (r1, r2, phi, d), (ghost,))

    def _step_splitLe(self, d: Node) -> Node | None:
        x, y = self._some_label(), self._some_label()
        r1 = self._assume(Le(x, y))
        phi = self._assume(Le(x, x))
        eq_ghost = self._assume(Le(y, y))
        fresh = self._fresh_label()
        s_ghost = self._assume(Succ(x, fresh))
        l_ghost = self._assume(Le(fresh, y))
        return Apply(self._id(), "splitLe", d.conclusion, (r1, phi, d, d), (eq_ghost, s_ghost, l_ghost))

    def _step_ind(self, d: Node) -> Node | None:
        w = d.conclusion
        alpha, b0 = w.seq[:-1], w.seq[-1]
        b = self._some_label()
        bj = self._fresh_label()
        if b == b0:
            return None
        rel = self._assume(Le(b0, b))
        hyp = Apply(self._id(), "botE", Lwff(alpha + (bj,), w.formula), (self._mp(d, Bottom()),))
        return Apply(self._id(), "ind", Lwff(alpha + (b,), w.formula), (d, rel, hyp), ())

    def sample(self, steps: int = 6) -> Node:
        d = self._seed()
        norms: dict[Assume, GenericFormula] = {}
        for _ in range(steps):
            opens = sorted(open_assumption_classes(d), key=lambda a: a.id)
            for a in opens:
                if a not in norms:
                    norms[a] = normalize_generic(a.formula)
            self._opens = [(a, norms[a]) for a in opens]
            self._known = sorted(labels_of_generic(d.conclusion).union(*(labels_of_generic(a.formula) for a in opens)))
            out = getattr(self, "_step_" + _STEPS[_below(self.rng, len(_STEPS))])(d)
            if out is not None:
                d = out
        return d
