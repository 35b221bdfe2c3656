import pytest

from nabla import corpus
from nabla.corpus import (
    ENTRIES,
    MUTATIONS,
    TAUTOLOGY_INSTANCES,
    CorpusEntry,
    MutationFixture,
    entry_by_name,
    load_entry,
    load_script,
    run_corpus,
)
from nabla.cli import main
from nabla.derived import expand
from nabla.formulas import desugar, parse_h, parse_ltl
from nabla.kernel import FRESHNESS_VIOLATION, SHAPE_MISMATCH, check, normalize_generic
from nabla.scripts import parse_script
from nabla.translate import is_ltl_derivation, matches_translation, translate


def test_every_entry_accepted_closed_and_ltl():
    for entry in ENTRIES:
        root = load_entry(entry.name)
        report = check(root)
        assert report.accepted, f"{entry.name}: {report.message}"
        assert not report.open_assumptions, entry.name
        assert is_ltl_derivation(report, {normalize_generic(report.conclusion): entry.source}), entry.name
        assert matches_translation(entry.source, report.conclusion.formula), entry.name


def test_corpus_names_are_complete():
    assert {e.name for e in ENTRIES} == {"A2", "A3", "A4", "A5", "A6", "A7L", "A7R", "A8"}
    assert len(TAUTOLOGY_INSTANCES) == 3


def test_every_mutation_rejected_with_expected_reason():
    for fix in MUTATIONS:
        root = expand(load_script(fix.script, mutation=True))
        report = check(root)
        assert not report.accepted, fix.name
        assert report.reason == fix.expected_reason, f"{fix.name}: got {report.reason}"


def test_mutation_suite_covers_required_shapes():
    reasons = [m.expected_reason for m in MUTATIONS]
    assert len(MUTATIONS) >= 9
    assert reasons.count("FreshnessViolation") >= 6
    assert "NotLocalFormula" in reasons
    assert "SequenceMismatch" in reasons
    assert "BadDischarge" in reasons


def test_run_corpus_all_green():
    results = run_corpus()
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert len(results) == len(ENTRIES) + len(TAUTOLOGY_INSTANCES) + len(MUTATIONS)


def test_a7_simplified_cores_recorded():
    for name in ("A7L", "A7R"):
        entry = entry_by_name(name)
        assert entry.simplified_core is not None
        # the wrapped conclusion is the exact translation of the source
        root = load_entry(name)
        report = check(root)
        assert desugar(report.conclusion.formula) == desugar(translate(entry.source))


def test_missing_entry_detected():
    with pytest.raises(KeyError):
        entry_by_name("A9")


def test_schema_mismatch_is_a_shape_mismatch_in_the_corpus(monkeypatch):
    # andE1 on an atom, as `nabla check` rejects it: the corpus checks
    # expand and check the same way, so a fixture may expect it.
    text = "assume 1 lwff b : p\nnode 2 andE1 concl b : p prem 1\nroot 2\n"
    monkeypatch.setattr(corpus, "load_script", lambda name, mutation=False: parse_script(text))
    fix = MutationFixture("andE1_on_an_atom", SHAPE_MISMATCH, "and_e1.ndp")
    result = corpus._guard("mutation", fix.name, lambda: corpus._check_mutation(fix))
    assert (result.ok, result.detail) == (True, "rejected with ShapeMismatch as expected")
    entry = CorpusEntry("andE1", desugar(parse_script(text).conclusion.formula), "and_e1.ndp")
    result = corpus._guard("axiom", entry.name, lambda: corpus._check_entry(entry))
    assert (result.ok, result.detail) == (False, "rejected at node 2: ShapeMismatch")


# A closed proof of b : (p -> p), and an open one of b : p.
CLOSED = "assume 1 lwff b : p\nnode 2 impI concl b : (p -> p) prem 1 disch 1\nroot 2\n"
OPEN = "assume 1 lwff b : p\nroot 1\n"


def verdict(monkeypatch, kind, text, fixture):
    """The corpus's result for ``fixture``, an entry or a mutation, whose
    script reads as ``text``."""
    monkeypatch.setattr(corpus, "load_script", lambda name, mutation=False: parse_script(text))
    check_one = corpus._check_entry if kind == "axiom" else corpus._check_mutation
    result = corpus._guard(kind, fixture.name, lambda: check_one(fixture))
    return result.ok, result.detail


def test_every_axiom_verdict_is_reached(monkeypatch):
    assert verdict(monkeypatch, "axiom", OPEN, CorpusEntry("open", parse_ltl("p"), "x.ndp")) == (False, "proof is not closed")
    wrong = CorpusEntry("wrong", parse_ltl("(q -> q)"), "x.ndp")
    assert verdict(monkeypatch, "axiom", CLOSED, wrong) == (False, "conclusion is not the translation of the source")
    # A core passes only as the conclusion of a closed step, here the root:
    # not a formula that holds nowhere, nor a valid one that the proof
    # never concludes, nor the conclusion of the open assumption step.
    detail = "simplified core is not a closed step of the proof"
    for text in ("bot", "(q -> q)", "p"):
        core = CorpusEntry("core", parse_ltl("(p -> p)"), "x.ndp", parse_h(text))
        assert verdict(monkeypatch, "axiom", CLOSED, core) == (False, detail), text
    core = CorpusEntry("core", parse_ltl("(p -> p)"), "x.ndp", parse_h("(p -> p)"))
    assert verdict(monkeypatch, "axiom", CLOSED, core) == (True, "accepted, closed: (p -> p)")


def test_every_mutation_verdict_is_reached(monkeypatch):
    fix = MutationFixture("accepted", SHAPE_MISMATCH, "x.ndp")
    assert verdict(monkeypatch, "mutation", CLOSED, fix) == (False, "mutation was accepted")
    text = "assume 1 lwff b : p\nnode 2 andE1 concl b : p prem 1\nroot 2\n"
    fix = MutationFixture("other_reason", FRESHNESS_VIOLATION, "x.ndp")
    assert verdict(monkeypatch, "mutation", text, fix) == (False, "expected FreshnessViolation, got ShapeMismatch")


def test_every_tautology_verdict_is_reached(monkeypatch):
    name, text = TAUTOLOGY_INSTANCES[1]
    monkeypatch.setattr(corpus, "derive_tautology", lambda source, label: parse_script(OPEN))
    result = corpus._check_tautology(name, text)
    assert (result.ok, result.detail) == (False, "tautology proof rejected or open")
    # A closed proof of b : (p -> p) is no derivation of the instance's translation.
    monkeypatch.setattr(corpus, "derive_tautology", lambda source, label: parse_script(CLOSED))
    result = corpus._check_tautology(name, text)
    assert (result.ok, result.detail) == (False, "tautology proof is not an LTL-derivation")


def test_an_unreadable_fixture_is_a_failed_expectation(monkeypatch, capsys):
    def missing(name, mutation=False):
        raise FileNotFoundError(f"no such fixture: {name}")

    monkeypatch.setattr(corpus, "load_script", missing)
    results = {r.name: r for r in run_corpus()}
    assert (results["A2"].ok, results["A2"].detail) == (False, "FileNotFoundError: no such fixture: A2.ndp")
    assert not any(results[f.name].ok for f in MUTATIONS)
    assert all(results[n].ok for n, _ in TAUTOLOGY_INSTANCES)
    assert main(["corpus"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL [axiom] A2: FileNotFoundError: no such fixture: A2.ndp\n" in out
    assert "Traceback" not in out + err
