"""Bundled derivations of the translated axioms, with mutation fixtures.

Each entry names an until-language axiom instance (over atoms p, q), the
script proving its translation, and the expectation that the script is
Accepted, closed, and an LTL-derivation for that source.  The A7 entries
prove simplified implications first and wrap them into the full
disjunctive statements; the simplified cores are recorded here and
spot-checked semantically on seeded random models.

Tautology instances (axiom family A1) are not stored as scripts: three
canonical instances are rebuilt by ``derive_tautology`` on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from .derived import check_expanded, derive_tautology, expand
from .formulas import (
    And,
    Atom,
    Formula,
    Hist,
    Implies,
    Next,
    Or,
    Sometime,
    Until,
    desugar,
    format_formula,
    parse_ltl,
)
from .kernel import (
    BAD_DISCHARGE,
    FRESHNESS_VIOLATION,
    NOT_LOCAL_FORMULA,
    SEQUENCE_MISMATCH,
    SHAPE_MISMATCH,
    UNKNOWN_RULE,
    Node,
    check,
    is_ltl_derivation,
    normalize_generic,
)
from .scripts import parse_script
from .semantics import eval_h, random_lasso
from .translate import translate

__all__ = [
    "CorpusEntry",
    "MutationFixture",
    "ENTRIES",
    "MUTATIONS",
    "TAUTOLOGY_INSTANCES",
    "load_script",
    "load_entry",
    "entry_by_name",
    "run_corpus",
    "CorpusResult",
]

_P, _Q = Atom("p"), Atom("q")
_UNTIL = Until(_P, _Q)
_UNFOLD = Or(_Q, And(_P, Next(_UNTIL)))
_TAIL = Sometime(And(Next(_Q), Hist(_P)))


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: Formula
    script: str
    note: str = ""
    simplified_core: Formula | None = None


@dataclass(frozen=True)
class MutationFixture:
    name: str
    base: str
    description: str
    expected_reason: str
    script: str


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("A2", parse_ltl("((G (p -> q)) -> ((G p) -> (G q)))"), "A2.ndp"),
    CorpusEntry(
        "A3",
        parse_ltl("(((X (~ p)) -> (~ (X p))) & ((~ (X p)) -> (X (~ p))))"),
        "A3.ndp",
        note="both directions of the biconditional, joined by andI",
    ),
    CorpusEntry(
        "A4",
        parse_ltl("((X (p -> q)) -> ((X p) -> (X q)))"),
        "A4.ndp",
        note="constructed on the plan of A2",
    ),
    CorpusEntry("A5", parse_ltl("((G p) -> (p & (X (G p))))"), "A5.ndp"),
    CorpusEntry("A6", parse_ltl("((G (p -> (X p))) -> (p -> (G p)))"), "A6.ndp"),
    CorpusEntry(
        "A7L",
        Implies(_UNTIL, _UNFOLD),
        "A7L.ndp",
        note="core proves the simplified implication; wrapper restores the disjunction",
        simplified_core=Implies(_TAIL, And(_P, Next(Or(_Q, _TAIL)))),
    ),
    CorpusEntry(
        "A7R",
        Implies(_UNFOLD, _UNTIL),
        "A7R.ndp",
        note="core proves the simplified implication; wrapper restores the disjunction",
        simplified_core=Implies(And(_P, Next(Or(_Q, _TAIL))), _TAIL),
    ),
    CorpusEntry("A8", Implies(_UNTIL, Sometime(_Q)), "A8.ndp"),
)

MUTATIONS: tuple[MutationFixture, ...] = (
    MutationFixture("gi_eigenlabel_reused", "A2", "GI eigenlabel renamed to b", FRESHNESS_VIOLATION, "gi_eigenlabel_reused.ndp"),
    MutationFixture("xi_eigenlabel_reused", "A5", "XI eigenlabel renamed to b", FRESHNESS_VIOLATION, "xi_eigenlabel_reused.ndp"),
    MutationFixture("histI_eigenlabel_reused", "A7R", "histI eigenlabel renamed to b", FRESHNESS_VIOLATION, "histI_eigenlabel_reused.ndp"),
    MutationFixture("ser_eigenlabel_reused", "A3", "serS eigenlabel renamed to b", FRESHNESS_VIOLATION, "ser_eigenlabel_reused.ndp"),
    MutationFixture("split_eigenlabel_reused", "A7L", "splitLe fresh label renamed to the witness", FRESHNESS_VIOLATION, "split_eigenlabel_reused.ndp"),
    MutationFixture("ind_eigenlabel_reused", "A6", "ind eigenlabel bi renamed to b", FRESHNESS_VIOLATION, "ind_eigenlabel_reused.ndp"),
    MutationFixture("last_on_history_formula", "A7L", "last applied to a bare history formula", NOT_LOCAL_FORMULA, "last_on_history_formula.ndp"),
    MutationFixture("histE_sequence_swapped", "A7L", "histE conclusion prefix swapped", SEQUENCE_MISMATCH, "histE_sequence_swapped.ndp"),
    MutationFixture("impI_discharges_wrong_assumption", "A2", "impI discharges the outer assumption", BAD_DISCHARGE, "impI_discharges_wrong_assumption.ndp"),
    MutationFixture("unknown_rule_name", "A2", "rule name misspelled", UNKNOWN_RULE, "unknown_rule_name.ndp"),
    MutationFixture("impE_major_not_implication", "A2", "impE applied to two atomic premises", SHAPE_MISMATCH, "impE_major_not_implication.ndp"),
)

TAUTOLOGY_INSTANCES: tuple[tuple[str, str], ...] = (
    ("A1-peirce", "(((p -> q) -> p) -> p)"),
    ("A1-excluded-middle", "(p | (~ p))"),
    ("A1-double-negation", "((~ (~ p)) -> p)"),
)


def load_script(name: str, mutation: bool = False) -> Node:
    sub = "corpus/mutations" if mutation else "corpus"
    text = resources.files("nabla").joinpath(f"{sub}/{name}").read_text(encoding="utf-8")
    return parse_script(text)


def entry_by_name(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(name)


def load_entry(name: str) -> Node:
    return expand(load_script(entry_by_name(name).script))


@dataclass(frozen=True)
class CorpusResult:
    name: str
    kind: str
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "ok": self.ok, "detail": self.detail}


def _check_entry(entry: CorpusEntry) -> CorpusResult:
    report = check_expanded(load_script(entry.script))
    if not report.accepted:
        return CorpusResult(entry.name, "axiom", False, f"rejected at node {report.node_id}: {report.reason}")
    if report.open_assumptions:
        return CorpusResult(entry.name, "axiom", False, "proof is not closed")
    sources = {normalize_generic(report.conclusion): entry.source}
    if not is_ltl_derivation(report, sources):
        return CorpusResult(entry.name, "axiom", False, "conclusion is not the translation of the source")
    if entry.simplified_core is not None and not _core_agrees(entry):
        return CorpusResult(entry.name, "axiom", False, "simplified core disagrees with the translation semantically")
    return CorpusResult(entry.name, "axiom", True, f"accepted, closed: {format_formula(report.conclusion.formula)}")


def _core_agrees(entry: CorpusEntry) -> bool:
    """Seeded spot check: the simplified core and the full translated axiom
    hold together on 60 random models and positions."""
    rng = random.Random(20240)
    core = desugar(entry.simplified_core)
    full = desugar(translate(entry.source))
    for _ in range(60):
        model = random_lasso(rng, ["p", "q"])
        n = rng.randint(0, 8)
        if not eval_h(model, (n,), core) or not eval_h(model, (n,), full):
            return False
    return True


def _check_tautology(name: str, text: str) -> CorpusResult:
    source = parse_ltl(text)
    root = derive_tautology(source, "b")
    report = check(root)
    if not report.accepted or report.open_assumptions:
        return CorpusResult(name, "tautology", False, "tautology proof rejected or open")
    if not is_ltl_derivation(report, {normalize_generic(report.conclusion): source}):
        return CorpusResult(name, "tautology", False, "tautology proof is not an LTL-derivation")
    return CorpusResult(name, "tautology", True, f"accepted, closed: {text}")


def _check_mutation(fix: MutationFixture) -> CorpusResult:
    report = check_expanded(load_script(fix.script, mutation=True))
    if report.accepted:
        return CorpusResult(fix.name, "mutation", False, "mutation was accepted")
    if report.reason != fix.expected_reason:
        return CorpusResult(fix.name, "mutation", False, f"expected {fix.expected_reason}, got {report.reason}")
    return CorpusResult(fix.name, "mutation", True, f"rejected with {report.reason} as expected")


def _guard(kind: str, name: str, thunk) -> CorpusResult:
    try:
        return thunk()
    except Exception as e:  # a missing or unreadable fixture is a failed expectation
        return CorpusResult(name, kind, False, f"{type(e).__name__}: {e}")


def run_corpus() -> list[CorpusResult]:
    out = [_guard("axiom", e.name, lambda e=e: _check_entry(e)) for e in ENTRIES]
    out += [_guard("tautology", n, lambda n=n, t=t: _check_tautology(n, t)) for n, t in TAUTOLOGY_INSTANCES]
    out += [_guard("mutation", f.name, lambda f=f: _check_mutation(f)) for f in MUTATIONS]
    return out
