"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from nabla.corpus import ENTRIES, MUTATIONS, TAUTOLOGY_INSTANCES, load_entry, load_script, run_corpus
from nabla.derived import derive_tautology, expand, mp_compose, nec_g, nec_x
from nabla.formulas import parse_ltl
from nabla.fuzz import report_to_json, run_lemma
from nabla.gen import DerivationSampler
from nabla.kernel import check, normalize_generic
from nabla.translate import is_ltl_derivation
from nabla.semantics import _settle, falsify_consequence


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, text


def test_criterion_1_corpus_reproduction():
    start = time.perf_counter()
    results = run_corpus()
    elapsed = time.perf_counter() - start
    axioms = [r for r in results if r.kind == "axiom"]
    tauts = [r for r in results if r.kind == "tautology"]
    ok = (
        len(axioms) == 8
        and all(r.ok for r in axioms)
        and len(tauts) == 3
        and all(r.ok for r in tauts)
        and elapsed < 2.0
    )
    for entry in ENTRIES:
        root = load_entry(entry.name)
        report = check(root)
        ok = ok and report.accepted and not report.open_assumptions
        ok = ok and is_ltl_derivation(report, {normalize_generic(report.conclusion): entry.source})
    _verdict(1, ok, f"8 axiom derivations + 3 tautology instances accepted, closed, LTL-derivations in {elapsed:.2f}s (< 2s)")


def test_criterion_2_negative_suite():
    outcomes = []
    for fix in MUTATIONS:
        report = check(expand(load_script(fix.script, mutation=True)))
        outcomes.append((fix.name, not report.accepted and report.reason == fix.expected_reason))
    ok = len(MUTATIONS) >= 9 and all(good for _, good in outcomes)
    bad = [name for name, good in outcomes if not good]
    _verdict(2, ok, f"{len(MUTATIONS)} mutation fixtures rejected with expected reasons{'' if not bad else f'; wrong: {bad}'}")


def test_criterion_3_translation_lemma():
    start = time.perf_counter()
    report = run_lemma("translation", samples=1000, seed=2024, max_size=6)
    elapsed = time.perf_counter() - start
    ok = report.ok and report.checked == 1000 and elapsed < 10.0
    _verdict(3, ok, f"position/translation agreement on {report.checked}/1000 samples in {elapsed:.2f}s (< 10s)")


def test_criterion_4_prefix_independence():
    r1 = run_lemma("last", samples=1000, seed=2024, max_size=6)
    r2 = run_lemma("corollary", samples=1000, seed=2025, max_size=6)
    ok = r1.ok and r1.checked == 1000 and r2.ok and r2.checked == 1000
    _verdict(4, ok, f"prefix independence {r1.checked}/1000 and last-element collapse {r2.checked}/1000")


def test_criterion_5_locality_tiers():
    report = run_lemma("last-local", samples=1000, seed=2026, max_size=6)
    ok = report.ok and report.checked == 1000
    _verdict(5, ok, "locality holds on 500 local-tier and 500 history-tier samples")


def test_criterion_6_quantifier_bound():
    report = run_lemma("quantifier-bound", samples=10000, seed=2027, max_size=6)
    ok = report.ok and report.checked == 10000
    _verdict(6, ok, f"eval agrees with the generous-horizon oracle on {report.checked}/10000 samples")


def test_criterion_7_statistical_soundness():
    # Each call is settled before any draw or sampled; _settle is the
    # falsifier's own decision, read here to count the three kinds.
    checked = 0
    clean = True
    kinds = {"inconsistent": 0, "entailed": 0, None: 0}

    def falsify(report, seed):
        kinds[_settle(report.open_assumptions, report.conclusion)[0]] += 1
        return falsify_consequence(report.open_assumptions, report.conclusion, 200, seed=seed)

    for entry in ENTRIES:
        root = load_entry(entry.name)
        report = check(root)
        cx = falsify(report, 9000 + checked)
        clean = clean and report.accepted and cx is None
        checked += 1
    for name, text in TAUTOLOGY_INSTANCES:
        root = derive_tautology(parse_ltl(text), "b")
        report = check(root)
        cx = falsify(report, 9100 + checked)
        clean = clean and cx is None
        checked += 1
    rng = random.Random(777)
    for i in range(50):
        d = DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=rng.randint(3, 8))
        report = check(d)
        cx = falsify(report, rng.randrange(2**32))
        clean = clean and report.accepted and cx is None
        checked += 1
    _verdict(
        7,
        clean,
        f"no counterexample over {checked} accepted derivations: {kinds['inconsistent']} settled as inconsistent, "
        f"{kinds['entailed']} settled as entailed, {kinds[None]} sampled at 200 structures each",
    )


def test_criterion_8_closure_transformers():
    rng = random.Random(31)
    pool = [
        "(p -> p)",
        "(q -> (p -> q))",
        "(((p -> q) -> p) -> p)",
        "(p | (~ p))",
        "((~ (~ q)) -> q)",
        "((p & q) -> p)",
        "((p & q) -> q)",
        "(p -> (p | q))",
    ]
    trials = 0
    good = True
    corpus_conclusions = []
    for entry in ENTRIES:
        root = load_entry(entry.name)
        corpus_conclusions.append(root)
    while trials < 100:
        mode = rng.randrange(3)
        if mode == 0:
            t1_text = rng.choice(pool)
            t2_text = rng.choice(pool)
            d1 = derive_tautology(parse_ltl(t1_text), "b")
            d2 = derive_tautology(parse_ltl(f"({t1_text} -> {t2_text})"), "b")
            out = mp_compose(d1, d2)
        elif mode == 1:
            base = rng.choice(corpus_conclusions + [derive_tautology(parse_ltl(rng.choice(pool)), "b")])
            out = nec_g(base)
        else:
            base = rng.choice(corpus_conclusions + [derive_tautology(parse_ltl(rng.choice(pool)), "b")])
            out = nec_x(base)
        report = check(out)
        good = good and report.accepted and not report.open_assumptions
        trials += 1
    _verdict(8, good, f"mp/nec_G/nec_X produced accepted closed proofs in {trials}/100 trials")


def test_criterion_9_deterministic_reports():
    a = report_to_json(run_lemma("translation", samples=300, seed=555))
    b = report_to_json(run_lemma("translation", samples=300, seed=555))
    c = report_to_json(run_lemma("soundness", samples=5, seed=556))
    d = report_to_json(run_lemma("soundness", samples=5, seed=556))
    ok = a == b and c == d
    _verdict(9, ok, "fuzz reports are byte-identical across runs with equal seeds")
