import random

from nabla import gen, kernel
from nabla.formulas import (
    Always,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    Next,
    Until,
    desugar,
    is_local,
)
from nabla.gen import DerivationSampler, random_hist_tier_formula, random_history_formula, random_local_formula, random_until_formula
from nabla.kernel import Apply, all_nodes, check
from tests.test_formulas import free_of

CORE = {Atom, Bottom, Implies, Always, Next}


def _operators(f: Formula) -> int:
    """Operator nodes of ``f``, counted at each occurrence: what a
    generator's budget bounds."""
    subs = [getattr(f, name) for name in ("left", "right", "operand") if hasattr(f, name)]
    return sum(map(_operators, subs)) + bool(subs)


def test_generators_stay_in_their_tiers():
    roots = {"until": set(), "history": set(), "local": set(), "hist-tier": set()}
    for seed in range(150):
        rng = random.Random(seed)
        for budget in range(7):
            draws = {
                "until": random_until_formula(rng, budget),
                "history": random_history_formula(rng, budget),
                "local": random_local_formula(rng, budget),
                "hist-tier": random_hist_tier_formula(rng, budget),
            }
            assert free_of(draws["until"], Hist)
            assert free_of(draws["history"], Until)
            assert is_local(draws["local"])
            assert free_of(draws["hist-tier"], Until)
            for grammar, f in draws.items():
                assert _operators(f) <= budget, (grammar, budget)
                roots[grammar].add(type(f))
    # Every production of each grammar is drawn at the root.
    assert roots == {
        "until": CORE | {Until},
        "history": CORE | {Hist},
        "local": CORE,
        "hist-tier": CORE | {Hist},
    }


def test_core_grammars_draw_what_desugar_hands_back():
    # The fuzz runners pass these draws to the evaluators' bodies without
    # desugar, which must therefore return the very object.
    for draw in (random_history_formula, random_local_formula, random_hist_tier_formula):
        rng = random.Random(26)
        for budget in range(7):
            for _ in range(2000):
                f = draw(rng, budget)
                assert desugar(f) is f, (draw.__name__, f)


def test_sampled_derivations_are_accepted():
    # The sampler meets every side condition by construction and does not
    # check its result itself.
    rng = random.Random(5)
    for _ in range(200):
        d = DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=rng.randint(1, 9))
        report = check(d)
        assert report.accepted, report.message


def test_sampler_has_a_move_per_rule_and_draws_each():
    assert set(gen._STEPS) == set(kernel._VALIDATORS)
    rng = random.Random(2033)
    used = set()
    for _ in range(300):
        d = DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=rng.randint(1, 9))
        report = check(d)
        assert report.accepted, report.message
        used |= {n.rule for n in all_nodes(d) if isinstance(n, Apply)}
    assert used == set(kernel._VALIDATORS)


def test_sampler_walks_its_derivation_once_per_step(monkeypatch):
    calls = []

    def counted(root):
        calls.append(root)
        return kernel.open_assumption_classes(root)

    monkeypatch.setattr(gen, "open_assumption_classes", counted)
    rng = random.Random(33)
    for _ in range(200):
        steps = rng.randint(0, 9)
        calls.clear()
        DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=steps)
        assert len(calls) == steps


def test_sampler_normalises_each_open_class_once(monkeypatch):
    # A class keeps the normal form it got at the first step it was open:
    # each step's _opens, read at the next step's walk, hands back the
    # very object.
    norms, kept = {}, []
    sampler = None

    def watched(root):
        for a, norm in sampler._opens:
            if a in norms:
                assert norms[a] is norm
                kept.append(isinstance(a.formula, kernel.Lwff))
            norms[a] = norm
        return kernel.open_assumption_classes(root)

    monkeypatch.setattr(gen, "open_assumption_classes", watched)
    rng = random.Random(34)
    for _ in range(200):
        sampler = DerivationSampler(random.Random(rng.randrange(2**32)))
        sampler.sample(steps=rng.randint(1, 9))
    assert sum(kept) > 100
