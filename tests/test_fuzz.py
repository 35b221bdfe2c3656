import pytest

from nabla import fuzz, semantics
from nabla.fuzz import LEMMAS, report_to_json, run_lemma


@pytest.mark.parametrize("lemma", [l for l in LEMMAS if l != "soundness"])
def test_lemmas_hold_on_modest_samples(lemma):
    report = run_lemma(lemma, samples=150, seed=42)
    assert report.ok, report.counterexample
    assert report.checked == 150


def test_soundness_lemma_small():
    report = run_lemma("soundness", samples=8, seed=42)
    assert report.ok, report.counterexample


def test_reports_are_deterministic():
    a = report_to_json(run_lemma("last", samples=100, seed=3))
    b = report_to_json(run_lemma("last", samples=100, seed=3))
    assert a == b


def test_injected_bug_is_found_and_shrunk():
    report = run_lemma("translation", samples=2000, seed=3, inject_bug="valuation-shift")
    assert not report.ok
    cx = report.counterexample
    assert cx is not None and "formula" in cx and "model" in cx
    # greedy shrinking keeps the witness small
    assert len(cx["formula"]) < 60


def test_last_local_hist_tier_catches_a_last_element_collapse(monkeypatch):
    # An eval_h that keeps only the last element satisfies the local tier
    # but not the wider one; the wider tier's right-hand side comes from
    # the whole-sequence oracle, so the lemma must notice.
    def last_only(m, seq, f):
        return semantics.eval_h(m, tuple(seq)[-1:], f)

    monkeypatch.setattr(fuzz, "eval_h", last_only)
    report = run_lemma("last-local", samples=1000, seed=42)
    assert not report.ok
    assert report.counterexample["clause"] == "hist-tier"


def test_locality_lemmas_catch_an_evaluator_that_ignores_the_sequence(monkeypatch):
    # eval_h enters the two sides of last, corollary and last-local's local
    # clause at one memo entry, so each right-hand side must come from an
    # independent route for the lemma to notice an eval_h that reads the
    # wrong position.
    def next_position(m, seq, f):
        return semantics.eval_h(m, (seq[-1] + 1,), f)

    monkeypatch.setattr(fuzz, "eval_h", next_position)
    assert not run_lemma("last", samples=1000, seed=42).ok
    assert not run_lemma("corollary", samples=1000, seed=42).ok
    report = run_lemma("last-local", samples=1000, seed=42)
    assert not report.ok
    assert report.counterexample["clause"] == "local"


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError):
        run_lemma("nonsense", samples=1, seed=0)
