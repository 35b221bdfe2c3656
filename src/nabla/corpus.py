"""Bundled derivations of the translated axioms, with mutation fixtures.

Each entry names an until-language axiom instance (over atoms p, q), the
script proving its translation, and the expectation that the script is
Accepted, closed, and an LTL-derivation for that source.  The A7 entries
prove simplified implications first and wrap them into the full
disjunctive statements; the simplified cores are recorded here, and each
must be the conclusion of a closed step of its entry's proof, so the
kernel vouches for it as it does for the axiom.

Tautology instances (axiom family A1) are not stored as scripts: three
canonical instances are rebuilt by ``derive_tautology`` on every run.
"""

from __future__ import annotations

from importlib import resources

from .derived import check_expanded, derive_tautology, expand
from .formulas import Formula, _ValueRecord, _bind_setattr, desugar, format_formula, parse_h, parse_ltl
from .kernel import (
    BAD_DISCHARGE,
    FRESHNESS_VIOLATION,
    NOT_LOCAL_FORMULA,
    SEQUENCE_MISMATCH,
    SHAPE_MISMATCH,
    UNKNOWN_RULE,
    Lwff,
    Node,
    all_nodes,
    check,
    normalize_generic,
    open_assumption_classes,
)
from .scripts import parse_script
from .translate import is_ltl_derivation

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


class CorpusEntry(_ValueRecord):
    __match_args__ = ("name", "source", "script", "simplified_core")

    def __init__(self, name: str, source: Formula, script: str, simplified_core: Formula | None = None) -> None:
        set_ = _bind_setattr(self)
        set_("name", name)
        set_("source", source)
        set_("script", script)
        set_("simplified_core", simplified_core)


class MutationFixture(_ValueRecord):
    __match_args__ = ("name", "expected_reason", "script")

    def __init__(self, name: str, expected_reason: str, script: str) -> None:
        set_ = _bind_setattr(self)
        set_("name", name)
        set_("expected_reason", expected_reason)
        set_("script", script)


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("A2", parse_ltl("((G (p -> q)) -> ((G p) -> (G q)))"), "A2.ndp"),
    CorpusEntry("A3", parse_ltl("(((X (~ p)) -> (~ (X p))) & ((~ (X p)) -> (X (~ p))))"), "A3.ndp"),
    CorpusEntry("A4", parse_ltl("((X (p -> q)) -> ((X p) -> (X q)))"), "A4.ndp"),
    CorpusEntry("A5", parse_ltl("((G p) -> (p & (X (G p))))"), "A5.ndp"),
    CorpusEntry("A6", parse_ltl("((G (p -> (X p))) -> (p -> (G p)))"), "A6.ndp"),
    CorpusEntry(
        "A7L",
        parse_ltl("((p U q) -> (q | (p & (X (p U q)))))"),
        "A7L.ndp",
        parse_h("((F ((X q) & (H p))) -> (p & (X (q | (F ((X q) & (H p)))))))"),
    ),
    CorpusEntry(
        "A7R",
        parse_ltl("((q | (p & (X (p U q)))) -> (p U q))"),
        "A7R.ndp",
        parse_h("((p & (X (q | (F ((X q) & (H p)))))) -> (F ((X q) & (H p))))"),
    ),
    CorpusEntry("A8", parse_ltl("((p U q) -> (F q))"), "A8.ndp"),
)

MUTATIONS: tuple[MutationFixture, ...] = (
    MutationFixture("gi_eigenlabel_reused", FRESHNESS_VIOLATION, "gi_eigenlabel_reused.ndp"),
    MutationFixture("xi_eigenlabel_reused", FRESHNESS_VIOLATION, "xi_eigenlabel_reused.ndp"),
    MutationFixture("histI_eigenlabel_reused", FRESHNESS_VIOLATION, "histI_eigenlabel_reused.ndp"),
    MutationFixture("ser_eigenlabel_reused", FRESHNESS_VIOLATION, "ser_eigenlabel_reused.ndp"),
    MutationFixture("split_eigenlabel_reused", FRESHNESS_VIOLATION, "split_eigenlabel_reused.ndp"),
    MutationFixture("ind_eigenlabel_reused", FRESHNESS_VIOLATION, "ind_eigenlabel_reused.ndp"),
    MutationFixture("last_on_history_formula", NOT_LOCAL_FORMULA, "last_on_history_formula.ndp"),
    MutationFixture("histE_sequence_swapped", SEQUENCE_MISMATCH, "histE_sequence_swapped.ndp"),
    MutationFixture("impI_discharges_wrong_assumption", BAD_DISCHARGE, "impI_discharges_wrong_assumption.ndp"),
    MutationFixture("unknown_rule_name", UNKNOWN_RULE, "unknown_rule_name.ndp"),
    MutationFixture("impE_major_not_implication", SHAPE_MISMATCH, "impE_major_not_implication.ndp"),
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
    """The named entry's script, read and expanded to primitive rules.
    Public API for tests and tools; no code in the package calls it."""
    return expand(load_script(entry_by_name(name).script))


class CorpusResult(_ValueRecord):
    __match_args__ = ("name", "kind", "ok", "detail")

    def __init__(self, name: str, kind: str, ok: bool, detail: str) -> None:
        set_ = _bind_setattr(self)
        set_("name", name)
        set_("kind", kind)
        set_("ok", ok)
        set_("detail", detail)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "ok": self.ok, "detail": self.detail}


def _check_entry(entry: CorpusEntry) -> CorpusResult:
    root = load_script(entry.script)
    report = check_expanded(root)
    if not report.accepted:
        return CorpusResult(entry.name, "axiom", False, f"rejected at node {report.node_id}: {report.reason}")
    if report.open_assumptions:
        return CorpusResult(entry.name, "axiom", False, "proof is not closed")
    sources = {normalize_generic(report.conclusion): entry.source}
    if not is_ltl_derivation(report, sources):
        return CorpusResult(entry.name, "axiom", False, "conclusion is not the translation of the source")
    core = entry.simplified_core
    if core is not None and not _closed_step(root, Lwff(report.conclusion.seq, desugar(core))):
        return CorpusResult(entry.name, "axiom", False, "simplified core is not a closed step of the proof")
    return CorpusResult(entry.name, "axiom", True, f"accepted, closed: {format_formula(report.conclusion.formula)}")


def _closed_step(root: Node, target: Lwff) -> bool:
    """Some step of ``root`` with no open assumption concludes ``target``,
    a desugared judgment, up to desugaring."""
    return any(normalize_generic(n.conclusion) == target and not open_assumption_classes(n) for n in all_nodes(root))


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
