"""Trusted checker for the labeled natural deduction system.

Judgments are labeled formulas ``alpha : A`` (an lwff: a history-language
formula asserted at a nonempty label sequence) and relational formulas
``le(b,c)`` / ``succ(b,c)`` (rwffs) over the order and immediate-successor
relations.  A derivation is a tree of rule applications over assumption
leaves; assumption classes are leaf objects that may occur at several
premise positions and are closed by the discharging rule application.

``check`` validates every node against the 18 primitive rules, including
sequence shapes, discharge bookkeeping and eigenlabel freshness, and never
grows beyond that rule set: derived rules are expanded elsewhere and
re-checked here.  The rules are one table, ``_VALIDATORS``, that maps each
rule name to its premise count, whether it may discharge assumptions, and
the validator of its side conditions; ``check`` tests the count before the
validator runs, and that a rule which may not discharge discharges
nothing after it.  A validator tests its conditions in a fixed order and
reports the first that fails.  A condition that several rules share is
tested in one helper, which raises from one place: ``_same_judgment``,
``_last_two``, ``_moves_last``, ``_proves``, ``_one_fresh_label`` and
``_one_relation``.  ``linS``, ``eqLe`` and ``splitLe`` substitute one
label for another; the validator reads the pair off the rule's premises,
so a node names no substitution of its own.

A derivation is walked once.  The first reader of a root's nodes
(``all_nodes``, ``check``, ``derived.expand``, ``scripts.serialize``)
computes, in one pass, the postorder of the nodes below the root and how
many premise references each of them gets, and keeps both on the root:
nodes are immutable, so the walk is kept as a formula keeps its hash.  The
kept walk leaves out the root itself, so it makes no reference cycle.

Each node's set of open assumption classes is built once, in the same
postorder pass that validates it: the node takes over the largest premise
set that no other premise reference still needs and unions the others
into it, copying only sets that are still shared.  An ``impE`` chain over
N open assumptions thus adds O(1) elements per node instead of copying
O(N), which keeps ``check`` linear in the number of open assumptions.

An accepted report keeps the root's open judgments, normalised, as a
tuple (see ``CheckReport``).  ``to_dict`` prints them and deduplicates
them on their text: printing is injective, so equal judgments print one
text.  ``check`` and ``to_dict`` therefore hash no formula; the frozenset
``open_assumptions`` is built, and hashes its judgments, only when it is
first read.

Formulas are compared up to desugaring.  ``check`` folds each formula
object once per call, and that one fold both desugars and language-checks
it, in a memo keyed on ``id`` that holds the objects and dies with the
call; nothing is cached between calls.  The memo serves the whole call,
so a subformula object shared by two formulas has one core image, and a
core formula is its own image; the equality tests of the rules therefore
meet identical children and stop there.

The module is the trusted core and imports only ``formulas``: the
LTL-derivation test is ``translate.is_ltl_derivation``, and relabelling a
derivation is ``derived.rename_labels``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from .formulas import (
    Always,
    Bottom,
    Formula,
    Hist,
    Implies,
    Next,
    _HISTORY_CORE,
    _LOCAL,
    _Record,
    _ValueRecord,
    _bind_setattr,
    _fold_from,
    desugar,
    format_formula,
)

__all__ = [
    "Lwff",
    "Le",
    "Succ",
    "GenericFormula",
    "Assume",
    "Apply",
    "Node",
    "CheckReport",
    "SHAPE_MISMATCH",
    "FRESHNESS_VIOLATION",
    "NOT_LOCAL_FORMULA",
    "BAD_DISCHARGE",
    "UNKNOWN_RULE",
    "SEQUENCE_MISMATCH",
    "check",
    "subst_label",
    "normalize_generic",
    "labels_of_generic",
    "format_generic",
    "open_assumption_classes",
    "all_nodes",
]


# The judgments and nodes are records (see ``formulas._Record``).  A
# judgment is a value record: equal to an equal judgment of its own class,
# and hashed as its fields' tuple.  A node is equal only to itself.


class Lwff(_ValueRecord):
    __match_args__ = ("seq", "formula")

    def __init__(self, seq: tuple[str, ...], formula: Formula) -> None:
        if not seq:
            raise ValueError("label sequence must be nonempty")
        set_ = _bind_setattr(self)
        set_("seq", seq)
        set_("formula", formula)


class _Rwff(_ValueRecord):
    """``le(a,b)`` or ``succ(a,b)``: the two relational judgments share
    their fields and their constructor, and differ by class."""

    __match_args__ = ("a", "b")

    def __init__(self, a: str, b: str) -> None:
        set_ = _bind_setattr(self)
        set_("a", a)
        set_("b", b)


class Le(_Rwff):
    pass


class Succ(_Rwff):
    pass


GenericFormula = Lwff | Le | Succ


class Assume(_Record):
    """An assumption class; occurrences are premise references to this object."""

    __match_args__ = ("id", "formula")

    def __init__(self, id: int, formula: GenericFormula) -> None:
        set_ = _bind_setattr(self)
        set_("id", id)
        set_("formula", formula)

    @property
    def conclusion(self) -> GenericFormula:
        """What the node asserts: the assumed formula, as for ``Apply``."""
        return self.formula


class Apply(_Record):
    __match_args__ = ("id", "rule", "conclusion", "premises", "discharges")

    def __init__(
        self,
        id: int,
        rule: str,
        conclusion: Lwff,
        premises: tuple["Node", ...],
        discharges: tuple[Assume, ...] = (),
    ) -> None:
        set_ = _bind_setattr(self)
        set_("id", id)
        set_("rule", rule)
        set_("conclusion", conclusion)
        set_("premises", premises)
        set_("discharges", discharges)


Node = Assume | Apply

SHAPE_MISMATCH = "ShapeMismatch"
FRESHNESS_VIOLATION = "FreshnessViolation"
NOT_LOCAL_FORMULA = "NotLocalFormula"
BAD_DISCHARGE = "BadDischarge"
UNKNOWN_RULE = "UnknownRule"
SEQUENCE_MISMATCH = "SequenceMismatch"


class CheckReport(_ValueRecord):
    """The verdict of ``check``: accepted, with the conclusion and the open
    judgments, or rejected, with the node, the reason and a message.

    The report keeps the open judgments as it is given them, unhashed.
    ``to_dict`` prints them and lists the distinct texts in text order;
    printing is injective, so equal judgments print one text.
    ``open_assumptions`` is their frozenset, built when it is first read
    and then the same object for every reader."""

    __match_args__ = ("accepted", "conclusion", "open_assumptions", "node_id", "reason", "message")

    def __init__(
        self,
        accepted: bool,
        conclusion: Lwff | None = None,
        open_assumptions: Iterable[GenericFormula] = frozenset(),
        node_id: int | None = None,
        reason: str | None = None,
        message: str | None = None,
    ) -> None:
        set_ = _bind_setattr(self)
        set_("accepted", accepted)
        set_("conclusion", conclusion)
        set_("_judgments", tuple(open_assumptions))
        set_("_open", None)
        set_("node_id", node_id)
        set_("reason", reason)
        set_("message", message)

    @property
    def open_assumptions(self) -> frozenset[GenericFormula]:
        if self._open is None:
            _bind_setattr(self)("_open", frozenset(self._judgments))
        return self._open

    def to_dict(self) -> dict:
        if self.accepted:
            return {
                "verdict": "accepted",
                "conclusion": format_generic(self.conclusion),
                "open_assumptions": sorted({format_generic(g) for g in self._judgments}),
            }
        return {
            "verdict": "rejected",
            "node": self.node_id,
            "reason": self.reason,
            "message": self.message,
        }


class _Err(Exception):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


def normalize_generic(phi: GenericFormula) -> GenericFormula:
    if isinstance(phi, Lwff):
        return Lwff(phi.seq, desugar(phi.formula))
    return phi


class _Scope:
    """State of one ``check`` call: the open sets, and the desugared form
    and locality of each formula object, memoised on its ``id``.

    One ``_HISTORY_CORE`` fold per formula object both desugars it and
    language-checks it: ``norm`` is ``None`` outside the proof language,
    the history language.  The fold memo serves the whole call, so a
    subformula object shared by several formulas gets one core object, and
    the rules' equality tests stop at identity there.  The scope holds each
    formula passed in, so no ``id`` in a memo is reused while the memo
    lives; the memos die with the call."""

    def __init__(self) -> None:
        self.opens: dict[int, set[Assume]] = {}
        self.locals: dict[int, bool] = {}
        self._held: list[Formula] = []
        self._norms: dict[int, Formula] = {}

    def norm(self, f: Formula) -> Formula | None:
        hit = self._norms.get(id(f))
        if hit is None:
            self._held.append(f)
            try:
                hit = self._norms[id(f)] = _fold_from(f, _HISTORY_CORE, self._norms)
            except (KeyError, TypeError):
                return None
        return hit

    def generic(self, phi: GenericFormula) -> GenericFormula:
        """``phi`` with its formula desugared; ``phi`` itself if that is core."""
        if isinstance(phi, Lwff):
            f = self.norm(phi.formula)
            return phi if f is phi.formula else Lwff(phi.seq, f)
        return phi


def labels_of_generic(phi: GenericFormula) -> frozenset[str]:
    if isinstance(phi, Lwff):
        return frozenset(phi.seq)
    return frozenset((phi.a, phi.b))


def format_generic(phi: GenericFormula) -> str:
    if isinstance(phi, Lwff):
        return f"{' '.join(phi.seq)} : {format_formula(phi.formula)}"
    if isinstance(phi, Le):
        return f"le({phi.a},{phi.b})"
    return f"succ({phi.a},{phi.b})"


def subst_label(phi: GenericFormula, mapping: dict[str, str]) -> GenericFormula:
    """``phi`` with each label ``x`` replaced by ``mapping.get(x, x)``."""
    if isinstance(phi, Lwff):
        return Lwff(tuple(mapping.get(x, x) for x in phi.seq), phi.formula)
    return type(phi)(mapping.get(phi.a, phi.a), mapping.get(phi.b, phi.b))


def _postorder(root: Node) -> tuple[list[Node], dict[int, int]]:
    """``all_nodes(root)`` without ``root``, and the number of premise
    references each of those nodes gets, keyed on its ``id``, from one
    walk.  A reference is counted per listing, so ``prem d,d`` counts two."""
    out: list[Node] = []
    refs: dict[int, int] = {}
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        n, done = stack.pop()
        if done:
            out.append(n)
            continue
        if id(n) in visited:
            continue
        visited.add(id(n))
        stack.append((n, True))
        if isinstance(n, Apply):
            for m in reversed(n.premises):
                k = id(m)
                refs[k] = refs.get(k, 0) + 1
                stack.append((m, False))
            for a in n.discharges:
                stack.append((a, False))
    out.pop()  # the root, which comes last
    return out, refs


def _walk(root: Node) -> tuple[list[Node], dict[int, int]]:
    """``_postorder(root)``, computed once and kept on ``root``.  It holds
    every node whose ``id`` it names, and not ``root``: no cycle forms."""
    kept = getattr(root, "_walk", None)
    if kept is None:
        kept = _postorder(root)
        _bind_setattr(root)("_walk", kept)
    return kept


def all_nodes(root: Node) -> list[Node]:
    """Every node reachable through premises or discharge references, once,
    in postorder: first a node's discharged assumptions (the last listed
    first), then its premises (in order), then the node; the root last."""
    return [*_walk(root)[0], root]


def _open_sets(root: Node, opens: dict[int, set[Assume]]) -> Iterator[Node]:
    """Yield each node of ``all_nodes(root)`` while ``opens`` holds the
    open classes of its premises, then build the node's own set in ``opens``.

    A premise's set is dropped after its last referencing parent (counted
    per reference, as ``_postorder`` counts them); the parent takes over
    the largest set dropped that way and copies only the rest.  The root's
    set is kept."""
    order, counts = _walk(root)
    refs = dict(counts)
    for n in chain(order, (root,)):
        yield n
        if isinstance(n, Assume):
            acc = {n}
        else:
            acc, rest = None, []
            for p in n.premises:
                k = id(p)
                refs[k] -= 1
                if refs[k]:
                    rest.append(opens[k])
                    continue
                s = opens.pop(k)
                if acc is None or len(s) > len(acc):
                    acc, s = s, acc
                if s is not None:
                    rest.append(s)
            if acc is None:
                acc = set()
            for s in rest:
                if s is not acc:  # ``prem d,d`` may list d's set and then take it over
                    acc |= s
            if n.discharges:
                acc.difference_update(n.discharges)
        if refs.get(id(n)) or n is root:
            opens[id(n)] = acc


def open_assumption_classes(root: Node) -> frozenset[Assume]:
    opens: dict[int, set[Assume]] = {}
    for _ in _open_sets(root, opens):
        pass
    return frozenset(opens[id(root)])


# ---------------------------------------------------------------------------
# Rule validation


def _need_lwff(node: Apply, i: int) -> Lwff:
    w = node.premises[i].conclusion
    if not isinstance(w, Lwff):
        raise _Err(SHAPE_MISMATCH, f"premise {i + 1} of {node.rule} must be a labeled formula")
    return w


def _need_rwff(node: Apply, i: int, kind: type) -> Le | Succ:
    r = node.premises[i].conclusion
    if not isinstance(r, kind):
        name = "le" if kind is Le else "succ"
        raise _Err(SHAPE_MISMATCH, f"premise {i + 1} of {node.rule} must be a {name}(...) assumption")
    return r


def _validate_discharges(
    node: Apply,
    k: _Scope,
    slots: list[tuple[GenericFormula, int]],
) -> None:
    """Each discharged class must match a slot formula and be confined to
    the slot's designated premise subtree (zero occurrences is fine)."""
    assignment: dict[int, int] = {}
    for a in node.discharges:
        g = k.generic(a.formula)
        target = None
        for slot_formula, prem_index in slots:
            if g == k.generic(slot_formula):
                target = prem_index
                break
        if target is None:
            raise _Err(
                BAD_DISCHARGE,
                f"{node.rule} cannot discharge {format_generic(a.formula)} (assumption {a.id})",
            )
        assignment[id(a)] = target
    for a in node.discharges:
        for j, p in enumerate(node.premises):
            if j != assignment[id(a)] and a in k.opens[id(p)]:
                raise _Err(
                    BAD_DISCHARGE,
                    f"assumption {a.id} occurs outside the hypothetical premise of {node.rule}",
                )


def _check_fresh(
    node: Apply,
    label: str | None,
    named: tuple[str, ...],
    hyp: Node,
    k: _Scope,
) -> None:
    if label is None:
        return
    for other in named:
        if label == other:
            raise _Err(
                FRESHNESS_VIOLATION,
                f"eigenlabel {label!r} of {node.rule} must differ from the rule's label {other!r}",
            )
    # The clash reported is the open class, not discharged here, with the lowest id.
    clash: Assume | None = None
    for a in k.opens[id(hyp)]:
        w = a.formula
        if (
            (label in w.seq if isinstance(w, Lwff) else label == w.a or label == w.b)
            and (clash is None or a.id < clash.id)
            and a not in node.discharges
        ):
            clash = a
    if clash is not None:
        raise _Err(
            FRESHNESS_VIOLATION,
            f"label {label!r} of {node.rule} occurs in open assumption {format_generic(clash.formula)}",
        )


def _same_judgment(node: Apply, k: _Scope, w: Lwff, where: str) -> None:
    """The premise judgment ``w`` must state the conclusion."""
    c = node.conclusion
    if w.seq != c.seq:
        raise _Err(SEQUENCE_MISMATCH, f"{where} of {node.rule} has sequence {' '.join(w.seq)}, expected {' '.join(c.seq)}")
    if k.norm(w.formula) != k.norm(c.formula):
        raise _Err(SHAPE_MISMATCH, f"{where} of {node.rule} proves a different formula than the conclusion")


def _last_two(node: Apply) -> tuple[str, str]:
    """The last two labels of the conclusion, which must have two."""
    cs = node.conclusion.seq
    if len(cs) < 2:
        raise _Err(SEQUENCE_MISMATCH, f"conclusion of {node.rule} needs at least two labels")
    return cs[-2], cs[-1]


def _moves_last(node: Apply, i: int, premise: str) -> Lwff:
    """Premise ``i``, a labeled formula whose sequence differs from the
    conclusion's in the last label only; ``premise`` names it in reports."""
    w = _need_lwff(node, i)
    cs = node.conclusion.seq
    if len(w.seq) != len(cs) or w.seq[:-1] != cs[:-1]:
        raise _Err(SEQUENCE_MISMATCH, f"{premise} must differ from the conclusion sequence in the last label only")
    return w


def _proves(k: _Scope, w: Lwff, f: Formula, message: str) -> None:
    """The premise judgment ``w`` must prove the desugared formula ``f``."""
    if k.norm(w.formula) != f:
        raise _Err(SHAPE_MISMATCH, message)


def _one_fresh_label(node: Apply, k: _Scope, label_of, family: str, skip: GenericFormula | None = None) -> str | None:
    """The one label that all discharged classes but ``skip`` name, read off
    each by ``label_of``: None marks a class the rule cannot discharge."""
    fresh: str | None = None
    for a in node.discharges:
        g = k.generic(a.formula)
        if g == skip:
            continue
        cand = label_of(g)
        if cand is None:
            raise _Err(BAD_DISCHARGE, f"{node.rule} cannot discharge {format_generic(a.formula)}")
        if fresh is not None and cand != fresh:
            raise _Err(BAD_DISCHARGE, f"{node.rule} {family} name two different fresh labels")
        fresh = cand
    return fresh


def _one_relation(node: Apply, k: _Scope, fits, kind: str) -> Le | Succ | None:
    """The one class, which ``fits``, that all discharged classes equal: the
    rule's only slot, in its only premise, so none can be misplaced."""
    pair: Le | Succ | None = None
    for a in node.discharges:
        g = k.generic(a.formula)
        if not fits(g) or (pair is not None and g != pair):
            raise _Err(BAD_DISCHARGE, f"{node.rule} discharges one {kind}")
        pair = g
    return pair


def _check_botE(node: Apply, k: _Scope) -> None:
    w = _need_lwff(node, 0)
    if k.norm(w.formula) != Bottom():
        raise _Err(SHAPE_MISMATCH, "premise of botE must prove bot")
    slot = Lwff(node.conclusion.seq, Implies(k.norm(node.conclusion.formula), Bottom()))
    _validate_discharges(node, k, [(slot, 0)])


def _check_impI(node: Apply, k: _Scope) -> None:
    f = k.norm(node.conclusion.formula)
    if not isinstance(f, Implies):
        raise _Err(SHAPE_MISMATCH, "conclusion of impI must be an implication")
    w = _need_lwff(node, 0)
    if w.seq != node.conclusion.seq:
        raise _Err(SEQUENCE_MISMATCH, "impI premise and conclusion must share one sequence")
    if k.norm(w.formula) != f.right:
        raise _Err(SHAPE_MISMATCH, "impI premise must prove the consequent")
    _validate_discharges(node, k, [(Lwff(node.conclusion.seq, f.left), 0)])


def _check_impE(node: Apply, k: _Scope) -> None:
    w1 = _need_lwff(node, 0)
    w2 = _need_lwff(node, 1)
    cs = node.conclusion.seq
    if w1.seq != cs or w2.seq != cs:
        raise _Err(SEQUENCE_MISMATCH, "impE premises and conclusion must share one sequence")
    f1 = k.norm(w1.formula)
    if not isinstance(f1, Implies) or f1.left != k.norm(w2.formula) or f1.right != k.norm(node.conclusion.formula):
        raise _Err(SHAPE_MISMATCH, "impE premises do not fit A -> B and A")


def _check_univ_intro(node: Apply, k: _Scope, op, rel) -> None:
    # GI and XI share one shape over (Always, Le) resp. (Next, Succ).
    f = k.norm(node.conclusion.formula)
    if not isinstance(f, op):
        raise _Err(SHAPE_MISMATCH, f"conclusion of {node.rule} has the wrong outer operator")
    w = _need_lwff(node, 0)
    cs = node.conclusion.seq
    if len(w.seq) != len(cs) + 1 or w.seq[:-1] != cs:
        raise _Err(SEQUENCE_MISMATCH, f"premise of {node.rule} must extend the conclusion sequence by one label")
    _proves(k, w, f.operand, f"premise of {node.rule} must prove the operand")
    b1, b2 = cs[-1], w.seq[-1]
    _validate_discharges(node, k, [(rel(b1, b2), 0)])
    _check_fresh(node, b2, (b1,), node.premises[0], k)


def _check_univ_elim(node: Apply, k: _Scope, op, rel) -> None:
    b1, b2 = _last_two(node)
    w = _need_lwff(node, 0)
    if w.seq != node.conclusion.seq[:-1]:
        raise _Err(SEQUENCE_MISMATCH, f"premise of {node.rule} must carry the conclusion sequence minus its last label")
    f = k.norm(w.formula)
    if not isinstance(f, op) or f.operand != k.norm(node.conclusion.formula):
        raise _Err(SHAPE_MISMATCH, f"premise of {node.rule} has the wrong formula")
    r = _need_rwff(node, 1, rel)
    if r != rel(b1, b2):
        raise _Err(SHAPE_MISMATCH, f"relational premise of {node.rule} must relate the last two labels")


def _check_histI(node: Apply, k: _Scope) -> None:
    f = k.norm(node.conclusion.formula)
    if not isinstance(f, Hist):
        raise _Err(SHAPE_MISMATCH, "conclusion of histI must be a history formula")
    b1, b3 = _last_two(node)
    w = _moves_last(node, 0, "premise of histI")
    _proves(k, w, f.operand, "premise of histI must prove the operand")
    b2 = w.seq[-1]
    _validate_discharges(node, k, [(Le(b1, b2), 0), (Le(b2, b3), 0)])
    _check_fresh(node, b2, (b1, b3), node.premises[0], k)


def _check_histE(node: Apply, k: _Scope) -> None:
    b1, b2 = _last_two(node)
    w = _moves_last(node, 0, "major premise of histE")
    f = k.norm(w.formula)
    if not isinstance(f, Hist) or f.operand != k.norm(node.conclusion.formula):
        raise _Err(SHAPE_MISMATCH, "major premise of histE must prove the history of the conclusion formula")
    b3 = w.seq[-1]
    r1 = _need_rwff(node, 1, Le)
    r2 = _need_rwff(node, 2, Le)
    if r1 != Le(b1, b2) or r2 != Le(b2, b3):
        raise _Err(SHAPE_MISMATCH, "relational premises of histE must place the new label inside the interval")


def _check_last(node: Apply, k: _Scope) -> None:
    w = _need_lwff(node, 0)
    if w.seq[-1] != node.conclusion.seq[-1]:
        raise _Err(SEQUENCE_MISMATCH, "last must keep the final label")
    fc = k.norm(node.conclusion.formula)
    _proves(k, w, fc, "last must keep the formula")
    if not _fold_from(fc, _LOCAL, k.locals):
        raise _Err(NOT_LOCAL_FORMULA, f"last applies to local formulas only, got {format_formula(node.conclusion.formula)}")


def _check_serS(node: Apply, k: _Scope) -> None:
    _same_judgment(node, k, _need_lwff(node, 0), "premise")
    pair = _one_relation(node, k, lambda g: isinstance(g, Succ), "successor assumption")
    if pair is not None:
        _check_fresh(node, pair.b, (pair.a,), node.premises[0], k)


def _check_linS(node: Apply, k: _Scope) -> None:
    r1 = _need_rwff(node, 0, Succ)
    r2 = _need_rwff(node, 1, Succ)
    if r1.a != r2.a:
        raise _Err(SHAPE_MISMATCH, "linS successor premises must start from one label")
    b2, b3 = r1.b, r2.b
    phi = node.premises[2].conclusion
    _same_judgment(node, k, _need_lwff(node, 3), "hypothetical premise")
    slot = subst_label(k.generic(phi), {b2: b3})
    _validate_discharges(node, k, [(slot, 3)])


def _check_reflLe(node: Apply, k: _Scope) -> None:
    _same_judgment(node, k, _need_lwff(node, 0), "premise")
    _one_relation(node, k, lambda g: isinstance(g, Le) and g.a == g.b, "reflexive order assumption")


def _check_transLe(node: Apply, k: _Scope) -> None:
    r1 = _need_rwff(node, 0, Le)
    r2 = _need_rwff(node, 1, Le)
    if r1.b != r2.a:
        raise _Err(SHAPE_MISMATCH, "transLe premises must chain")
    _same_judgment(node, k, _need_lwff(node, 2), "hypothetical premise")
    _validate_discharges(node, k, [(Le(r1.a, r2.b), 2)])


def _check_eqLe(node: Apply, k: _Scope) -> None:
    w = _moves_last(node, 2, "eqLe premise")
    _proves(k, w, k.norm(node.conclusion.formula), "eqLe must keep the formula")
    b1, b2 = w.seq[-1], node.conclusion.seq[-1]
    r1 = _need_rwff(node, 0, Le)
    r2 = _need_rwff(node, 1, Le)
    if r1 != Le(b1, b2) or r2 != Le(b2, b1):
        raise _Err(SHAPE_MISMATCH, "eqLe relational premises must assert equality of the swapped labels")


def _check_splitLe(node: Apply, k: _Scope) -> None:
    r1 = _need_rwff(node, 0, Le)
    b1, b2 = r1.a, r1.b
    phi = node.premises[1].conclusion
    w_eq = _need_lwff(node, 2)
    w_lt = _need_lwff(node, 3)
    _same_judgment(node, k, w_eq, "equality-case premise")
    _same_judgment(node, k, w_lt, "strict-case premise")
    eq_slot = subst_label(k.generic(phi), {b1: b2})
    def strict_label(g: GenericFormula) -> str | None:
        if isinstance(g, Succ) and g.a == b1:
            return g.b
        if isinstance(g, Le) and g.b == b2:
            return g.a
        return None
    bp = _one_fresh_label(node, k, strict_label, "strict-case assumptions", skip=eq_slot)
    slots = [(eq_slot, 2)] if bp is None else [(eq_slot, 2), (Succ(b1, bp), 3), (Le(bp, b2), 3)]
    _validate_discharges(node, k, slots)
    _check_fresh(node, bp, (b1, b2), node.premises[3], k)


def _check_baseLe(node: Apply, k: _Scope) -> None:
    r1 = _need_rwff(node, 0, Succ)
    _same_judgment(node, k, _need_lwff(node, 1), "hypothetical premise")
    _validate_discharges(node, k, [(Le(r1.a, r1.b), 1)])


def _check_ind(node: Apply, k: _Scope) -> None:
    cs = node.conclusion.seq
    alpha, b = cs[:-1], cs[-1]
    fc = k.norm(node.conclusion.formula)
    w0 = _moves_last(node, 0, "base premise of ind")
    _proves(k, w0, fc, "base premise of ind must prove the conclusion formula")
    b0 = w0.seq[-1]
    r = _need_rwff(node, 1, Le)
    if r != Le(b0, b):
        raise _Err(SHAPE_MISMATCH, "relational premise of ind must be le(base, conclusion label)")
    wh = _moves_last(node, 2, "step premise of ind")
    _proves(k, wh, fc, "step premise of ind must prove the conclusion formula")
    bj = wh.seq[-1]
    def inductive_label(g: GenericFormula) -> str | None:
        if isinstance(g, Le) and g.a == b0:
            return g.b
        if isinstance(g, Succ) and g.b == bj:
            return g.a
        if isinstance(g, Lwff) and len(g.seq) == len(cs) and g.seq[:-1] == alpha and g.formula == fc:
            return g.seq[-1]
        return None
    bi = _one_fresh_label(node, k, inductive_label, "inductive assumptions")
    slots = [] if bi is None else [(Le(b0, bi), 2), (Succ(bi, bj), 2), (Lwff(alpha + (bi,), fc), 2)]
    _validate_discharges(node, k, slots)
    _check_fresh(node, bj, (b, b0) if bi is None else (b, b0, bi), node.premises[2], k)
    _check_fresh(node, bi, (b, b0, bj), node.premises[2], k)


# Rule name -> (premise count, may discharge, validator).
_VALIDATORS = {
    "botE": (1, True, _check_botE),
    "impI": (1, True, _check_impI),
    "impE": (2, False, _check_impE),
    "GI": (1, True, lambda n, k: _check_univ_intro(n, k, Always, Le)),
    "GE": (2, False, lambda n, k: _check_univ_elim(n, k, Always, Le)),
    "XI": (1, True, lambda n, k: _check_univ_intro(n, k, Next, Succ)),
    "XE": (2, False, lambda n, k: _check_univ_elim(n, k, Next, Succ)),
    "histI": (1, True, _check_histI),
    "histE": (3, False, _check_histE),
    "last": (1, False, _check_last),
    "serS": (1, True, _check_serS),
    "linS": (4, True, _check_linS),
    "reflLe": (1, True, _check_reflLe),
    "transLe": (3, True, _check_transLe),
    "eqLe": (3, False, _check_eqLe),
    "splitLe": (4, True, _check_splitLe),
    "baseLe": (2, True, _check_baseLe),
    "ind": (3, True, _check_ind),
}


def check(root: Node) -> CheckReport:
    """Validate a derivation; total and deterministic, never raises on bad input.

    One fold per formula object and call, however many nodes state it,
    both desugars and language-checks it (see ``_Scope``), so shared
    formulas, such as those ``parse_script`` returns, cost once.
    """
    k = _Scope()
    discharged_by: dict[int, int] = {}
    for n in _open_sets(root, k.opens):
        try:
            assumed = isinstance(n, Assume)
            c = n.formula if assumed else n.conclusion
            if not isinstance(c, Lwff) and (not assumed or n is root):
                raise _Err(SHAPE_MISMATCH, "a derivation concludes a labeled formula")
            if assumed:
                if isinstance(c, Lwff) and k.norm(c.formula) is None:
                    raise _Err(SHAPE_MISMATCH, "assumption formula is not in the proof language")
                continue
            if k.norm(c.formula) is None:
                raise _Err(SHAPE_MISMATCH, "conclusion formula is not in the proof language")
            rule = _VALIDATORS.get(n.rule)
            if rule is None:
                raise _Err(UNKNOWN_RULE, f"unknown rule {n.rule!r}")
            arity, may_discharge, validator = rule
            for a in n.discharges:
                prev = discharged_by.get(id(a))
                if prev is not None and prev != n.id:
                    raise _Err(BAD_DISCHARGE, f"assumption {a.id} is discharged twice")
                discharged_by[id(a)] = n.id
            if len(n.premises) != arity:
                raise _Err(SHAPE_MISMATCH, f"rule {n.rule} takes {arity} premises, got {len(n.premises)}")
            validator(n, k)
            if n.discharges and not may_discharge:
                raise _Err(BAD_DISCHARGE, f"rule {n.rule} discharges nothing")
        except _Err as e:
            return CheckReport(accepted=False, node_id=n.id, reason=e.reason, message=e.message)
    opens_root = tuple(k.generic(a.formula) for a in k.opens[id(root)])
    return CheckReport(accepted=True, conclusion=root.conclusion, open_assumptions=opens_root)
