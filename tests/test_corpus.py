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
from nabla.derived import expand
from nabla.formulas import desugar
from nabla.kernel import SHAPE_MISMATCH, check, is_ltl_derivation, normalize_generic
from nabla.scripts import parse_script
from nabla.translate import matches_translation, translate


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
    fix = MutationFixture("andE1_on_an_atom", "A2", "andE1 applied to an atom", SHAPE_MISMATCH, "and_e1.ndp")
    result = corpus._guard("mutation", fix.name, lambda: corpus._check_mutation(fix))
    assert (result.ok, result.detail) == (True, "rejected with ShapeMismatch as expected")
    entry = CorpusEntry("andE1", desugar(parse_script(text).conclusion.formula), "and_e1.ndp")
    result = corpus._guard("axiom", entry.name, lambda: corpus._check_entry(entry))
    assert (result.ok, result.detail) == (False, "rejected at node 2: ShapeMismatch")
