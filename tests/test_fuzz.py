import gc
import random
from pathlib import Path

import pytest

import nabla
from nabla import fuzz, semantics
from nabla.cli import main
from nabla.corpus import run_corpus
from nabla.derived import NotATautology, derive_tautology, expand
from nabla.formulas import Until, desugar, parse_ltl, temporal_depth
from nabla.fuzz import LEMMAS, report_to_json, run_lemma
from nabla.gen import random_history_formula, random_obs_sequence, random_until_formula
from nabla.kernel import Le, Lwff, check
from nabla.scripts import parse_script
from tests.test_formulas import free_of
from tests.test_semantics import proved_slack

GOLDEN = Path(__file__).parent / "golden"


def next_position(m, seq, f):
    """A buggy eval_h that reads the position after the sequence's last element."""
    return semantics.eval_h(m, (seq[-1] + 1,), f)


def next_position_when_deep(m, seq, f):
    """A buggy eval_h that reads the position after the sequence's last
    element, only on formulas of temporal depth 3 or more."""
    if temporal_depth(f) >= 3:
        return next_position(m, seq, f)
    return semantics.eval_h(m, seq, f)


def last_only(m, seq, f):
    """A buggy eval_h that keeps only the sequence's last element."""
    return semantics.eval_h(m, tuple(seq)[-1:], f)


COMPARISONS = [lemma for lemma in LEMMAS if lemma != "soundness"]


@pytest.mark.parametrize("lemma", COMPARISONS)
def test_lemmas_hold_on_modest_samples(lemma):
    report = run_lemma(lemma, samples=150, seed=42)
    assert report.ok, report.counterexample
    assert report.checked == 150


def test_soundness_lemma_small():
    report = run_lemma("soundness", samples=8, seed=42)
    assert report.ok, report.counterexample


def test_soundness_reports_the_derivation_a_falsifier_breaks(monkeypatch, capsys):
    # A sound kernel gives the falsifier nothing, so a stand-in that
    # "falsifies" the third sampled derivation drives the lemma's exit-3
    # path: the run stops there and reports that derivation.
    cx = semantics.Counterexample(semantics.LassoModel((), (frozenset(),)), {"b": 0}, 5, "goal")

    def third_falsified():
        calls = []

        def falsify(premises, goal, samples, seed):
            calls.append(seed)
            return cx if len(calls) == 3 else None

        return falsify

    monkeypatch.setattr(fuzz, "falsify_consequence", third_falsified())
    report = run_lemma("soundness", 10, seed=1)
    assert (report.ok, report.checked) == (False, 3)
    got = report.counterexample
    assert sorted(got) == ["conclusion", "counterexample", "open_assumptions", "sample"]
    assert (got["sample"], got["counterexample"]) == (2, cx.to_dict())
    monkeypatch.setattr(fuzz, "falsify_consequence", third_falsified())
    code = main(["fuzz", "--lemma", "soundness", "--samples", "10", "--seed", "1", "--json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, report_to_json(report), "")


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
    monkeypatch.setattr(fuzz, "_eval_h", last_only)
    report = run_lemma("last-local", samples=1000, seed=42)
    assert not report.ok
    assert report.counterexample["clause"] == "hist-tier"


def test_locality_lemmas_catch_an_evaluator_that_ignores_the_sequence(monkeypatch):
    # eval_h enters the two sides of last, corollary and last-local's local
    # clause at one memo entry, so each right-hand side must come from an
    # independent route for the lemma to notice an eval_h that reads the
    # wrong position.
    monkeypatch.setattr(fuzz, "_eval_h", next_position)
    assert not run_lemma("last", samples=1000, seed=42).ok
    assert not run_lemma("corollary", samples=1000, seed=42).ok
    report = run_lemma("last-local", samples=1000, seed=42)
    assert not report.ok
    assert report.counterexample["clause"] == "local"
    # The right-hand side is the oracle at every temporal depth, so a fault
    # that only deep formulas reach shows too.
    monkeypatch.setattr(fuzz, "_eval_h", next_position_when_deep)
    for lemma in ("last", "last-local"):
        assert not run_lemma(lemma, samples=1000, seed=42).ok, lemma


# tests/golden/<name>.json holds report_to_json(run_lemma(LEMMA, 1000, 42))
# with fuzz._eval_h replaced by EVALUATOR.  The shrunk counterexample pins
# the order in which the shrinker tries its moves.
SHRINK_GOLDENS = {
    "shrink_last_next-position": ("last", next_position),
    "shrink_corollary_next-position": ("corollary", next_position),
    "shrink_last-local_next-position": ("last-local", next_position),
    "shrink_last-local_last-only": ("last-local", last_only),
}


@pytest.mark.parametrize("name", sorted(SHRINK_GOLDENS))
def test_shrunk_counterexample_matches_golden(monkeypatch, name):
    lemma, evaluator = SHRINK_GOLDENS[name]
    monkeypatch.setattr(fuzz, "_eval_h", evaluator)
    out = report_to_json(run_lemma(lemma, samples=1000, seed=42))
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError):
        run_lemma("nonsense", samples=1, seed=0)
    # An unknown bug, and any bug on soundness, which has no side to shift.
    for lemma, bug in [("last", "nonsense"), ("soundness", "valuation-shift")]:
        with pytest.raises(ValueError):
            run_lemma(lemma, samples=1, seed=0, inject_bug=bug)


@pytest.mark.parametrize("lemma", COMPARISONS)
def test_valuation_shift_falsifies_every_comparison_lemma(lemma):
    for seed in range(5):
        report = run_lemma(lemma, samples=50, seed=seed, inject_bug="valuation-shift")
        assert not report.ok, seed


def test_bad_sizes_rejected():
    for samples, max_size in [(0, 6), (-5, 6), (10, -1)]:
        with pytest.raises(ValueError):
            run_lemma("last", samples=samples, seed=0, max_size=max_size)


@pytest.mark.parametrize(
    "lemma, inject",
    [(lemma, None) for lemma in LEMMAS] + [(lemma, "valuation-shift") for lemma in COMPARISONS],
)
def test_runners_meet_the_bodies_precondition(monkeypatch, lemma, inject):
    # The runners and the falsifier skip the public checks, so every call
    # must hand the bodies a nonempty tuple of naturals and a history
    # formula, and the oracle a desugared one and at least its minimum
    # horizon: max(sigma) plus the slack proved for the formula.
    seen = []

    def guard(body):
        def checked(m, sigma, g, *horizon):
            assert type(sigma) is tuple and sigma and min(sigma) >= 0
            assert free_of(g, Until)
            if horizon:
                assert desugar(g) is g
                assert horizon[0] >= max(sigma) + proved_slack(m, g)
            seen.append(g)
            return body(m, sigma, g, *horizon)

        return checked

    # The falsifier, and _eval_h under every runner, read a fold at a
    # normalised entry pair: a row in 0 .. s+p, a natural column, and a lift
    # that reaches that column and the last G window.
    read = semantics._read_h

    def checked_read(g, memo, vals, s, p, loops, i, n):
        assert 0 <= i <= s + p and n >= 0 and free_of(g, Until)
        assert (loops.bit_length() - 1) // p + 1 >= max(3, (n - s) // p + 1)
        seen.append(g)
        return read(g, memo, vals, s, p, loops, i, n)

    monkeypatch.setattr(fuzz, "_eval_h", guard(semantics._eval_h))
    monkeypatch.setattr(semantics, "_eval_h", guard(semantics._eval_h))
    monkeypatch.setattr(semantics, "_read_h", checked_read)
    monkeypatch.setattr(fuzz, "_eval_h_oracle", guard(semantics._eval_h_oracle))
    run_lemma(lemma, samples=10 if lemma == "soundness" else 200, seed=11, inject_bug=inject)
    assert seen


def collected_garbage(run) -> int:
    """The objects in reference cycles that ``run()`` leaves behind: run
    with the collector off, they are all still there for ``gc.collect``."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "lemma, inject",
    [(lemma, None) for lemma in LEMMAS] + [(lemma, "valuation-shift") for lemma in COMPARISONS],
)
def test_fuzz_samples_leave_no_cyclic_garbage(lemma, inject):
    # A sample's garbage is freed by reference counting alone, with no
    # cycle for the collector; the injected bug covers the shrinker.
    samples = 10 if lemma == "soundness" else 200
    assert collected_garbage(lambda: run_lemma(lemma, samples=samples, seed=3, inject_bug=inject)) == 0


def test_evaluators_leave_no_cyclic_garbage():
    rng = random.Random(3)
    cases = []
    for _ in range(200):
        m = semantics.random_lasso(rng, ["p", "q", "r"])
        cases.append((m, random_until_formula(rng, 5), random_obs_sequence(rng), random_history_formula(rng, 5)))

    def evaluate():
        for m, u, sigma, h in cases:
            semantics.eval_ltl(m, sigma[-1], u)
            semantics.eval_h(m, sigma, h)

    assert collected_garbage(evaluate) == 0
    premises = [Lwff(("b", "c"), cases[0][3]), Le("b", "c")]
    goal = Lwff(("c",), cases[1][3])
    assert collected_garbage(lambda: semantics.falsify_consequence(premises, goal, 200, seed=3)) == 0


def test_proofs_leave_no_cyclic_garbage():
    # Building, reading, expanding and checking a proof, and a tautology's
    # refusal, free their memos by reference counting alone.
    def refuse():
        try:
            derive_tautology(parse_ltl("((p -> q) -> q)"))
        except NotATautology:
            pass

    text = (Path(nabla.__file__).parent / "corpus" / "A7L.ndp").read_text(encoding="utf-8")
    assert collected_garbage(lambda: derive_tautology(parse_ltl("(((p -> q) -> p) -> p)"))) == 0
    assert collected_garbage(refuse) == 0
    assert collected_garbage(lambda: parse_script(text)) == 0
    root = parse_script(text)
    assert collected_garbage(lambda: expand(root)) == 0
    assert collected_garbage(lambda: check(expand(root))) == 0
    assert collected_garbage(run_corpus) == 0
