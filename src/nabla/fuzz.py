"""Differential fuzzing of the semantic lemmas.

Each lemma names an equality (or an absence of counterexamples) that is
sampled over seeded random models, positions, sequences and formulas.  The
fuzzer is a falsifier, never a prover: a clean run raises confidence but
establishes nothing.  Failures are shrunk greedily and reported with the
witnessing model.

A comparison lemma (every lemma but soundness) evaluates two sides of a
sampled case.  ``inject_bug="valuation-shift"`` evaluates the left-hand
side against a model whose valuation is shifted by one position; it exists
so tests can confirm the fuzzer actually detects divergence.  Soundness,
whose falsifier draws its own models, refuses it.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple

from .formulas import Formula, _ValueRecord, _bind_setattr, desugar, format_formula, is_local, temporal_depth
from .gen import (
    SYMBOLS,
    DerivationSampler,
    random_hist_tier_formula,
    random_history_formula,
    random_local_formula,
    random_obs_sequence,
    random_until_formula,
)
from .kernel import check, format_generic
from .semantics import LassoModel, _below, _eval_h, _eval_h_oracle, _min_horizon, eval_ltl, falsify_consequence, random_lasso
from .translate import translate

__all__ = ["LEMMAS", "FuzzReport", "run_lemma", "report_to_json"]

# last and last-local read their right-hand side off eval_h_oracle only up
# to this temporal depth.  The oracle's whole-tuple memo grows as its window
# to the power of the G nesting: past depth 2, a sample drawn about once in
# 30000 took 2 s and 185 MiB, so a run's time and peak memory hung on
# whether it drew one.  Deeper samples compare two eval_h calls instead.
_ORACLE_DEPTH = 2


class FuzzReport(_ValueRecord):
    """A lemma run's report, built once the run has stopped."""

    __match_args__ = ("lemma", "samples", "seed", "max_size", "checked", "ok", "counterexample")

    def __init__(
        self,
        lemma: str,
        samples: int,
        seed: int,
        max_size: int,
        checked: int = 0,
        ok: bool = True,
        counterexample: dict | None = None,
    ) -> None:
        set_ = _bind_setattr(self)
        set_("lemma", lemma)
        set_("samples", samples)
        set_("seed", seed)
        set_("max_size", max_size)
        set_("checked", checked)
        set_("ok", ok)
        set_("counterexample", counterexample)

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

    ``eval_h`` reads ``seq`` only at its normalised last pair, and a local
    formula only at its last element's canonical position, so two
    ``eval_h`` calls on sequences a lemma equates would read the same bit of
    the same truth tables and could not disagree.  The oracle gets its
    documented minimum horizon, whose ``G`` windows already cover ``s + p``
    positions.
    """
    depth = temporal_depth(f)
    if depth > _ORACLE_DEPTH:
        return _eval_h(m, seq, f)
    return _eval_h_oracle(m, seq, f, _min_horizon(m, seq, depth))


# The samples and the lemma table are named tuples from ``collections``,
# which, unlike ``typing.NamedTuple``, load no ``typing`` at start-up.


class _Case(namedtuple("_Case", "model at prefix formula clause", defaults=(None,))):
    """One sample of a comparison lemma.

    ``model`` is a ``LassoModel`` and ``formula`` a ``Formula``.  ``at`` is
    a position for translation and an observation sequence for the other
    lemmas; ``prefix`` is None where a lemma draws none.  last-local's
    ``clause`` is "local" or "hist-tier" (None for the other lemmas); its
    right-hand side keeps the sequence's last ``keep`` elements.
    """

    __slots__ = ()

    @property
    def keep(self) -> int:
        return 2 if self.clause == "hist-tier" else 1

    def moves(self):
        """Smaller cases, in the order the shrinker tries them."""
        f = self.formula
        for sub in f._fields(f):
            if isinstance(sub, Formula) and (self.clause != "local" or is_local(sub)):
                yield self._replace(formula=sub)
        if type(self.at) is int:
            if self.at > 0:
                yield self._replace(at=self.at - 1)
        elif len(self.at) > self.keep:
            yield self._replace(at=self.at[1:])
        if self.prefix:
            yield self._replace(prefix=self.prefix[1:])
        m = self.model
        if m.stem_len > 0:
            yield self._replace(model=LassoModel(m.stem[:-1], m.loop))
        if m.period > 1:
            yield self._replace(model=LassoModel(m.stem, m.loop[:-1]))

    def shown(self) -> dict:
        out = {"formula": format_formula(self.formula), "model": self.model.to_dict()}
        if type(self.at) is int:
            out["position"] = self.at
        else:
            out["sequence"] = list(self.at)
        if self.prefix is not None:
            out["prefix"] = list(self.prefix)
        if self.clause is not None:
            out["clause"] = self.clause
            out["kept"] = list(self.at[-self.keep :])
        return out


class _Derivation(namedtuple("_Derivation", "open_assumptions conclusion seed")):
    """One soundness sample: an accepted derivation, given by its open
    assumptions (a frozenset of ``GenericFormula``) and its conclusion, and
    the falsifier's seed."""

    __slots__ = ()
    model = None  # nothing to shift

    def moves(self):
        return ()

    def shown(self) -> dict:
        return {
            "conclusion": format_generic(self.conclusion),
            "open_assumptions": sorted(format_generic(a) for a in self.open_assumptions),
        }


class _Lemma(namedtuple("_Lemma", "draw sides keys")):
    """A lemma's runner parts.  ``draw`` maps (rng, sample index, max_size)
    to a case; each lemma draws in a fixed order.  ``sides`` maps (model for
    the left-hand side, case) to (lhs, rhs, *more); the case falsifies the
    lemma when lhs != rhs.  ``keys`` are the report's names for lhs, rhs
    and more, in order; soundness names only its lhs, as its rhs is always
    None."""

    __slots__ = ()


# The draws and sides read the evaluators and generators as module globals
# when they run, so a test or a tracer can rebind them here.


def _draw_translation(rng: random.Random, i: int, max_size: int) -> _Case:
    a = random_until_formula(rng, _below(rng, max_size + 1))
    m = random_lasso(rng, SYMBOLS)
    return _Case(m, _below(rng, 11), None, a)


def _translation_sides(lm: LassoModel, c: _Case):
    """Position truth equals singleton-sequence truth of the image."""
    return eval_ltl(lm, c.at, c.formula), _eval_h(c.model, (c.at,), translate(c.formula))


def _draw_last(rng: random.Random, i: int, max_size: int) -> _Case:
    a = random_until_formula(rng, _below(rng, max_size + 1))
    m = random_lasso(rng, SYMBOLS)
    sigma = random_obs_sequence(rng, max_len=4, max_value=8)
    return _Case(m, sigma, random_obs_sequence(rng, max_len=3, max_value=8, min_len=0), a)


def _last_sides(lm: LassoModel, c: _Case):
    """Prefixes do not matter for translated formulas: last-local's
    comparison, keeping the last element, on the image, desugared because
    ``_reference`` may hand it to the oracle."""
    return _last_local_sides(lm, c._replace(formula=desugar(translate(c.formula))))


def _draw_corollary(rng: random.Random, i: int, max_size: int) -> _Case:
    a = random_until_formula(rng, _below(rng, max_size + 1))
    m = random_lasso(rng, SYMBOLS)
    return _Case(m, random_obs_sequence(rng, max_len=4, max_value=8), None, a)


def _corollary_sides(lm: LassoModel, c: _Case):
    """Only the last element matters for translated formulas; the right-hand
    side takes the translation lemma's route to ``(sigma[-1],)``."""
    return _eval_h(lm, c.at, translate(c.formula)), eval_ltl(c.model, c.at[-1], c.formula)


def _draw_last_local(rng: random.Random, i: int, max_size: int) -> _Case:
    """Even samples test clause (i) on the local tier, odd ones clause (ii)
    on the wider tier.  Both grammars build core formulas only, which
    ``desugar`` would hand back unchanged."""
    m = random_lasso(rng, SYMBOLS)
    prefix = random_obs_sequence(rng, max_len=3, max_value=8, min_len=0)
    if i % 2 == 0:
        f = random_local_formula(rng, _below(rng, max_size + 1))
        return _Case(m, random_obs_sequence(rng, max_len=4, max_value=8), prefix, f, "local")
    f = random_hist_tier_formula(rng, _below(rng, max_size + 1))
    return _Case(m, random_obs_sequence(rng, max_len=4, max_value=8, min_len=2), prefix, f, "hist-tier")


def _last_local_sides(lm: LassoModel, c: _Case):
    return _eval_h(lm, c.at, c.formula), _reference(c.model, c.prefix + c.at[-c.keep :], c.formula)


def _draw_derivation(rng: random.Random, i: int, max_size: int) -> _Derivation:
    sampler = DerivationSampler(random.Random(_below(rng, 2**32)))
    report = check(sampler.sample(steps=3 + _below(rng, 5)))
    assert report.accepted, f"the sampler built a derivation the kernel rejects: {report.message}"
    return _Derivation(report.open_assumptions, report.conclusion, _below(rng, 2**32))


def _soundness_sides(_, d: _Derivation):
    """Accepted derivations have no falsifying structure: the falsifier's
    counterexample, or None, against None."""
    cx = falsify_consequence(d.open_assumptions, d.conclusion, 200, d.seed)
    return (None if cx is None else cx.to_dict()), None


def _draw_bound(rng: random.Random, i: int, max_size: int) -> _Case:
    """The history grammar builds core formulas only, which the bodies take
    as drawn."""
    budget = _below(rng, min(max_size, 6) + 1)
    f = random_history_formula(rng, budget)
    while temporal_depth(f) > 3:
        f = random_history_formula(rng, budget)
    m = random_lasso(rng, SYMBOLS)
    return _Case(m, random_obs_sequence(rng, max_len=3, max_value=6), None, f)


def _bound_sides(lm: LassoModel, c: _Case):
    """The 2p truncation agrees with the oracle at its minimum horizon."""
    horizon = _min_horizon(c.model, c.at, temporal_depth(c.formula))
    return _eval_h(lm, c.at, c.formula), _eval_h_oracle(c.model, c.at, c.formula, horizon), horizon


_LEMMAS = {
    "translation": _Lemma(_draw_translation, _translation_sides, ("eval_ltl", "eval_h_on_translation")),
    "last": _Lemma(_draw_last, _last_sides, ("lhs", "rhs")),
    "corollary": _Lemma(_draw_corollary, _corollary_sides, ("lhs", "rhs")),
    "last-local": _Lemma(_draw_last_local, _last_local_sides, ("lhs", "rhs")),
    "soundness": _Lemma(_draw_derivation, _soundness_sides, ("counterexample",)),
    "quantifier-bound": _Lemma(_draw_bound, _bound_sides, ("eval_h", "oracle", "horizon")),
}
LEMMAS = tuple(_LEMMAS)


def _shrink(case, found, sides):
    """Greedy shrink: keep the first smaller case that still fails, for at
    most 200 rounds.  Returns the last failing case and its sides."""
    for _ in range(200):
        for smaller in case.moves():
            out = sides(smaller)
            if out[0] != out[1]:
                case, found = smaller, out
                break
        else:
            break
    return case, found


def run_lemma(
    lemma: str,
    samples: int = 1000,
    seed: int = 0,
    max_size: int = 6,
    inject_bug: str | None = None,
) -> FuzzReport:
    """Sample ``lemma`` ``samples`` times from ``seed``; stop at the first
    falsifying case and shrink it.  ``max_size`` bounds the operator budget
    of each drawn formula, at most 6 for quantifier-bound.  Soundness draws
    derivations of 3 to 7 steps, not formulas, and reads ``max_size``
    nowhere: its report echoes the value and is otherwise the same for every
    ``max_size``."""
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}; pick one of {', '.join(LEMMAS)}")
    if samples < 1 or max_size < 0:
        raise ValueError(f"need samples >= 1 and max_size >= 0, got {samples} and {max_size}")
    if inject_bug not in (None, "valuation-shift"):
        raise ValueError(f"unknown bug {inject_bug!r}; the only one is 'valuation-shift'")
    if inject_bug and lemma == "soundness":
        raise ValueError("soundness draws its models inside the falsifier; inject_bug has nothing to shift")
    row = _LEMMAS[lemma]
    rng = random.Random(seed)

    def sides(case):
        return row.sides(_shift_valuation(case.model) if inject_bug else case.model, case)

    for i in range(samples):
        case = row.draw(rng, i, max_size)
        found = sides(case)
        if found[0] != found[1]:
            case, found = _shrink(case, found, sides)
            counterexample = {"sample": i, **case.shown(), **dict(zip(row.keys, found))}
            return FuzzReport(lemma, samples, seed, max_size, i + 1, False, counterexample)
    return FuzzReport(lemma, samples, seed, max_size, samples)
