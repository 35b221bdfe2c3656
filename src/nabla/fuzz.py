"""Differential fuzzing of the semantic lemmas.

Each lemma names an equality (or an absence of counterexamples) that is
sampled over seeded random models, positions, sequences and formulas.  The
fuzzer is a falsifier, never a prover: a clean run raises confidence but
establishes nothing.  Failures are shrunk greedily and reported with the
witnessing model.

``inject_bug="valuation-shift"`` evaluates one side of the translation
and quantifier-bound lemmas against a model whose valuation is shifted by
one position; it exists so tests can confirm the fuzzer actually detects
divergence.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .formulas import Formula, LocalClass, classify_local, desugar, format_formula, temporal_depth
from .gen import (
    DerivationSampler,
    random_hist_tier_formula,
    random_history_formula,
    random_local_formula,
    random_obs_sequence,
    random_until_formula,
)
from .kernel import check, format_generic
from .semantics import LassoModel, _eval_h, _eval_h_oracle, eval_ltl, falsify_consequence, random_lasso
from .translate import translate

__all__ = ["LEMMAS", "FuzzReport", "run_lemma", "report_to_json"]

LEMMAS = ("translation", "last", "corollary", "last-local", "soundness", "quantifier-bound")

# last and last-local read their right-hand side off eval_h_oracle only up
# to this temporal depth.  The oracle's whole-tuple memo grows as its window
# to the power of the G nesting: past depth 2, a sample drawn about once in
# 30000 took 2 s and 185 MiB, so a run's time and peak memory hung on
# whether it drew one.  Deeper samples compare two eval_h calls instead.
_ORACLE_DEPTH = 2


@dataclass
class FuzzReport:
    lemma: str
    samples: int
    seed: int
    max_size: int
    checked: int = 0
    ok: bool = True
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "samples": self.samples,
            "seed": self.seed,
            "max_size": self.max_size,
            "checked": self.checked,
            "status": "ok" if self.ok else "falsified",
            "counterexample": self.counterexample,
        }


def report_to_json(report: FuzzReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _shift_valuation(m: LassoModel) -> LassoModel:
    """Off-by-one model: valuation'(n) = valuation(n + 1)."""
    s, p = m.stem_len, m.period
    stem = tuple(m.valuation(i + 1) for i in range(s))
    loop = tuple(m.loop[(j + 1) % p] for j in range(p))
    return LassoModel(stem, loop)


def _reference(m: LassoModel, seq, f: Formula) -> bool:
    """Truth at ``seq`` by a route independent of ``eval_h``'s pair collapse,
    up to ``_ORACLE_DEPTH``.

    ``eval_h`` enters ``seq`` at its canonical last pair, and a local
    formula at its last element alone, so two ``eval_h`` calls on sequences
    a lemma equates would start from the same memo entry and could not
    disagree.  The oracle gets its documented minimum horizon, whose ``G``
    windows already cover ``s + p`` positions.
    """
    td = temporal_depth(f)
    if td > _ORACLE_DEPTH:
        return _eval_h(m, seq, f)
    return _eval_h_oracle(m, seq, f, max(seq) + (m.stem_len + m.period) * td + 1)


def _subformulas(f: Formula) -> list[Formula]:
    out = []
    for name in ("left", "right", "operand"):
        sub = getattr(f, name, None)
        if sub is not None:
            out.append(sub)
    return out


def _shrink(failing, variants):
    """Greedy shrink: keep applying the first variant that still fails."""
    sample = failing
    for _ in range(200):
        for cand in variants(sample):
            sample = cand
            break
        else:
            return sample
    return sample


class _LemmaRun:
    def __init__(self, lemma: str, samples: int, seed: int, max_size: int, inject_bug: str | None):
        self.lemma = lemma
        self.samples = samples
        self.seed = seed
        self.max_size = max_size
        self.inject_bug = inject_bug
        self.rng = random.Random(seed)

    def run(self) -> FuzzReport:
        report = FuzzReport(self.lemma, self.samples, self.seed, self.max_size)
        step = {
            "translation": self._translation,
            "last": self._prefix,
            "corollary": self._corollary,
            "last-local": self._last_local,
            "soundness": self._soundness,
            "quantifier-bound": self._quantifier_bound,
        }[self.lemma]
        for i in range(self.samples):
            witness = step(i)
            report.checked = i + 1
            if witness is not None:
                report.ok = False
                report.counterexample = witness
                return report
        return report

    # -- translation: position truth equals singleton-sequence truth of the image

    def _translation_fails(self, m: LassoModel, n: int, a: Formula) -> bool:
        model_ltl = _shift_valuation(m) if self.inject_bug == "valuation-shift" else m
        lhs = eval_ltl(model_ltl, n, a)
        rhs = _eval_h(m, (n,), desugar(translate(a)))
        return lhs != rhs

    def _translation(self, i: int) -> dict | None:
        a = random_until_formula(self.rng, self.rng.randint(0, self.max_size))
        m = random_lasso(self.rng, sorted({"p", "q", "r"}))
        n = self.rng.randint(0, 10)
        if not self._translation_fails(m, n, a):
            return None

        def variants(sample):
            m0, n0, a0 = sample
            for sub in _subformulas(a0):
                if self._translation_fails(m0, n0, sub):
                    yield (m0, n0, sub)
            if n0 > 0 and self._translation_fails(m0, n0 - 1, a0):
                yield (m0, n0 - 1, a0)
            if m0.stem_len > 0:
                m1 = LassoModel(m0.stem[:-1], m0.loop)
                if self._translation_fails(m1, n0, a0):
                    yield (m1, n0, a0)
            if m0.period > 1:
                m1 = LassoModel(m0.stem, m0.loop[:-1])
                if self._translation_fails(m1, n0, a0):
                    yield (m1, n0, a0)

        m, n, a = _shrink((m, n, a), variants)
        return {
            "sample": i,
            "formula": format_formula(a),
            "model": m.to_dict(),
            "position": n,
            "eval_ltl": eval_ltl(_shift_valuation(m) if self.inject_bug == "valuation-shift" else m, n, a),
            "eval_h_on_translation": _eval_h(m, (n,), desugar(translate(a))),
        }

    def _model_variants(self, m: LassoModel):
        if m.stem_len > 0:
            yield LassoModel(m.stem[:-1], m.loop)
        if m.period > 1:
            yield LassoModel(m.stem, m.loop[:-1])

    # -- last: prefixes do not matter for translated formulas

    def _prefix_fails(self, m: LassoModel, sigma, prefix, a: Formula) -> bool:
        f = desugar(translate(a))
        return _eval_h(m, sigma, f) != _reference(m, prefix + (sigma[-1],), f)

    def _prefix(self, i: int) -> dict | None:
        a = random_until_formula(self.rng, self.rng.randint(0, self.max_size))
        m = random_lasso(self.rng, sorted({"p", "q", "r"}))
        sigma = random_obs_sequence(self.rng, max_len=4, max_value=8)
        prefix = random_obs_sequence(self.rng, max_len=3, max_value=8, min_len=0)
        if not self._prefix_fails(m, sigma, prefix, a):
            return None

        def variants(sample):
            m0, s0, p0, a0 = sample
            for sub in _subformulas(a0):
                if self._prefix_fails(m0, s0, p0, sub):
                    yield (m0, s0, p0, sub)
            if len(s0) > 1 and self._prefix_fails(m0, s0[1:], p0, a0):
                yield (m0, s0[1:], p0, a0)
            if p0 and self._prefix_fails(m0, s0, p0[1:], a0):
                yield (m0, s0, p0[1:], a0)
            for m1 in self._model_variants(m0):
                if self._prefix_fails(m1, s0, p0, a0):
                    yield (m1, s0, p0, a0)

        m, sigma, prefix, a = _shrink((m, sigma, prefix, a), variants)
        f = desugar(translate(a))
        return {
            "sample": i,
            "formula": format_formula(a),
            "model": m.to_dict(),
            "sequence": list(sigma),
            "prefix": list(prefix),
            "lhs": _eval_h(m, sigma, f),
            "rhs": _reference(m, prefix + (sigma[-1],), f),
        }

    # -- corollary: only the last element matters for translated formulas;
    # the right-hand side takes the translation lemma's route to (sigma[-1],)

    def _corollary_fails(self, m: LassoModel, sigma, a: Formula) -> bool:
        return _eval_h(m, sigma, desugar(translate(a))) != eval_ltl(m, sigma[-1], a)

    def _corollary(self, i: int) -> dict | None:
        a = random_until_formula(self.rng, self.rng.randint(0, self.max_size))
        m = random_lasso(self.rng, sorted({"p", "q", "r"}))
        sigma = random_obs_sequence(self.rng, max_len=4, max_value=8)
        if not self._corollary_fails(m, sigma, a):
            return None

        def variants(sample):
            m0, s0, a0 = sample
            for sub in _subformulas(a0):
                if self._corollary_fails(m0, s0, sub):
                    yield (m0, s0, sub)
            if len(s0) > 1 and self._corollary_fails(m0, s0[1:], a0):
                yield (m0, s0[1:], a0)
            for m1 in self._model_variants(m0):
                if self._corollary_fails(m1, s0, a0):
                    yield (m1, s0, a0)

        m, sigma, a = _shrink((m, sigma, a), variants)
        return {
            "sample": i,
            "formula": format_formula(a),
            "model": m.to_dict(),
            "sequence": list(sigma),
            "lhs": _eval_h(m, sigma, desugar(translate(a))),
            "rhs": eval_ltl(m, sigma[-1], a),
        }

    # -- last-local: clause (i) for the local tier, clause (ii) for the wider tier

    def _last_local(self, i: int) -> dict | None:
        m = random_lasso(self.rng, sorted({"p", "q", "r"}))
        prefix = random_obs_sequence(self.rng, max_len=3, max_value=8, min_len=0)
        local_clause = i % 2 == 0
        if local_clause:
            f = desugar(random_local_formula(self.rng, self.rng.randint(0, self.max_size)))
            sigma = random_obs_sequence(self.rng, max_len=4, max_value=8)
            keep = 1
        else:
            f = desugar(random_hist_tier_formula(self.rng, self.rng.randint(0, self.max_size)))
            sigma = random_obs_sequence(self.rng, max_len=4, max_value=8, min_len=2)
            keep = 2

        def fails(m0, s0, p0, f0):
            return _eval_h(m0, s0, f0) != _reference(m0, p0 + s0[-keep:], f0)

        if not fails(m, sigma, prefix, f):
            return None
        wanted = LocalClass.LOCAL if local_clause else None

        def variants(sample):
            m0, s0, p0, f0 = sample
            for sub in _subformulas(f0):
                if wanted is not None and classify_local(sub) is not wanted:
                    continue
                if fails(m0, s0, p0, sub):
                    yield (m0, s0, p0, sub)
            if len(s0) > keep and fails(m0, s0[1:], p0, f0):
                yield (m0, s0[1:], p0, f0)
            if p0 and fails(m0, s0, p0[1:], f0):
                yield (m0, s0, p0[1:], f0)
            for m1 in self._model_variants(m0):
                if fails(m1, s0, p0, f0):
                    yield (m1, s0, p0, f0)

        m, sigma, prefix, f = _shrink((m, sigma, prefix, f), variants)
        return {
            "sample": i,
            "clause": "local" if local_clause else "hist-tier",
            "formula": format_formula(f),
            "model": m.to_dict(),
            "sequence": list(sigma),
            "prefix": list(prefix),
            "kept": list(sigma[-keep:]),
            "lhs": _eval_h(m, sigma, f),
            "rhs": _reference(m, prefix + sigma[-keep:], f),
        }

    # -- soundness: accepted derivations have no falsifying structure

    def _soundness(self, i: int) -> dict | None:
        sampler = DerivationSampler(random.Random(self.rng.randrange(2**32)))
        d = sampler.sample(steps=self.rng.randint(3, 7))
        report = check(d)
        assert report.accepted
        cx = falsify_consequence(report.open_assumptions, report.conclusion, 200, self.rng.randrange(2**32))
        if cx is None:
            return None
        return {
            "sample": i,
            "conclusion": format_generic(report.conclusion),
            "open_assumptions": sorted(format_generic(a) for a in report.open_assumptions),
            "counterexample": cx.to_dict(),
        }

    # -- quantifier bound: the 2p truncation agrees with a generous horizon

    def _bound_fails(self, m: LassoModel, sigma, f: Formula) -> bool:
        fast_model = _shift_valuation(m) if self.inject_bug == "valuation-shift" else m
        horizon = max(sigma) + 4 * (m.stem_len + m.period)
        return _eval_h(fast_model, sigma, f) != _eval_h_oracle(m, sigma, f, horizon)

    def _quantifier_bound(self, i: int) -> dict | None:
        f = desugar(random_history_formula(self.rng, self.rng.randint(0, min(self.max_size, 6)), max_temporal_depth=3))
        m = random_lasso(self.rng, sorted({"p", "q", "r"}))
        sigma = random_obs_sequence(self.rng, max_len=3, max_value=6)
        if not self._bound_fails(m, sigma, f):
            return None

        def variants(sample):
            m0, s0, f0 = sample
            for sub in _subformulas(f0):
                if self._bound_fails(m0, s0, sub):
                    yield (m0, s0, sub)
            if len(s0) > 1 and self._bound_fails(m0, s0[1:], f0):
                yield (m0, s0[1:], f0)
            for m1 in self._model_variants(m0):
                if self._bound_fails(m1, s0, f0):
                    yield (m1, s0, f0)

        m, sigma, f = _shrink((m, sigma, f), variants)
        fast_model = _shift_valuation(m) if self.inject_bug == "valuation-shift" else m
        horizon = max(sigma) + 4 * (m.stem_len + m.period)
        return {
            "sample": i,
            "formula": format_formula(f),
            "model": m.to_dict(),
            "sequence": list(sigma),
            "horizon": horizon,
            "eval_h": _eval_h(fast_model, sigma, f),
            "oracle": _eval_h_oracle(m, sigma, f, horizon),
        }


def run_lemma(
    lemma: str,
    samples: int = 1000,
    seed: int = 0,
    max_size: int = 6,
    inject_bug: str | None = None,
) -> FuzzReport:
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}; pick one of {', '.join(LEMMAS)}")
    if samples < 1 or max_size < 0:
        raise ValueError(f"need samples >= 1 and max_size >= 0, got {samples} and {max_size}")
    return _LemmaRun(lemma, samples, seed, max_size, inject_bug).run()
