"""Lasso models and the two truth relations.

Models of the logic live over the natural numbers; here they are presented
finitely as lassos: a stem of ``s`` valuations followed by a loop of period
``p >= 1`` that repeats forever.  ``eval_ltl`` evaluates until-language
formulas at a position; ``eval_h`` evaluates history-language formulas at
an observation sequence (a nonempty list of positions, not necessarily
monotone).

The history-language clause for ``G`` quantifies over all positions beyond
the last sequence element.  For a ``G`` whose operand is not local,
``eval_h`` truncates that quantifier at ``max(n_k, s) + 2p``: past the
stem, valuations repeat with period ``p``, so an interval containing two
full periods decides the quantifier.  The bound is validated empirically
against ``eval_h_oracle``, a literal transcription with a caller-chosen
horizon.  A ``G`` over a local operand needs no window (the fifth rule
below).

``eval_h`` never builds the sequence it recurses on; it evaluates on a
canonical pair, by five rules:

* Last-pair locality.  Every truth clause reads at most the last two
  elements of a sequence and extends or replaces only the last one, so by
  induction on the formula the truth at ``sigma`` is a function of
  ``(sigma[-2], sigma[-1])``.  This is the locality behind the paper's
  ``last`` lemma and its corollary (translated formulas need only the last
  element) and clause (ii) of ``last-local``; ``quantifier-bound`` and
  that clause of ``last-local`` check it against the whole-sequence
  oracle.
* A one-element sequence ``(n)`` is the pair ``(n, n)``.  The ``H`` clause
  at a singleton is the singleton's own truth, and ``H`` at ``(n, n)``
  ranges over ``[n, n]`` alone, so no formula tells them apart.
* Period shift.  A pair with both elements at or past ``s + p`` reads only
  loop positions, and every clause's positions, the ``G`` window included,
  move with the pair; so it shifts back by whole periods until its smaller
  element lies in ``[s, s + p)``.  This is the periodicity that also backs
  the two-period truncation, and ``quantifier-bound`` checks it.
* Local subformulas read the last element alone.  The clauses for atoms,
  ``bot``, ``G`` and ``X`` never read the first element of the pair, and
  ``->`` reads it only through its sides; so a local subformula, one where
  ``H`` occurs only under ``G`` or ``X`` (the grammar of
  ``formulas.is_local``), has the same truth at ``(i, n)`` and at
  ``(n, n)``.  This is the paper's ``last`` lemma.  Such a subformula is
  evaluated at ``(n, n)``, which the period shift folds onto ``canon(n)``,
  so a ``G`` window costs one memo entry per position instead of one per
  pair of outer position and position.  ``last``, ``corollary`` and the
  local clause of ``last-local`` check it against ``eval_ltl`` and the
  oracle.
* ``G`` over a local operand reads canonical positions.  By the last
  rule the operand's truth at ``(n, mm)`` is its truth at ``canon(mm)``,
  so ``G`` at a loop position is the operand over the loop, one memo
  entry for every loop position, and ``G`` at a stem position ``n`` is
  the operand at ``n`` and ``G`` at ``n + 1``.  The stem is walked upward
  from ``n`` to the first position where the operand fails or ``G`` is
  memoised, and the answer is written to every stem position passed.  So
  each such ``G`` evaluates its operand at most once per canonical
  position, ``s + p`` times in all, and the walk is a loop, not a
  recursion.  ``quantifier-bound`` and ``last-local`` check it against
  the oracle.

The memo is keyed on the canonical pair, so the entries per subformula are
bounded by the lasso's size and the entry pair rather than by the path
taken, and the cost is polynomial in the nesting depth of ``G``; a level
of ``G`` over a local operand adds at most ``s + p`` evaluations of it.
``eval_h_oracle`` keeps the literal whole-sequence memo.

The public evaluators check their input: ``ValueError`` on an empty
sequence, a negative position or a formula of the other language, and
``HorizonTooSmall`` below the oracle's minimum horizon.  ``eval_h`` and
``eval_h_oracle`` then pass the desugared formula to the private bodies
``_eval_h`` and ``_eval_h_oracle``, which check nothing and require a
nonempty tuple of naturals, a formula ``g`` that is a ``_HISTORY_CORE``
image, and for the oracle that minimum horizon.
``fuzz``'s lemma runners and ``falsify_consequence``, which check their
formulas once, call the bodies directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formulas import (
    Always,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    Next,
    Until,
    _HISTORY_CORE,
    _LOCAL,
    _abbreviations,
    _fold_checked,
    _fold_from,
    _is_name,
    atoms_of,
    temporal_depth,
)
from .kernel import GenericFormula, Le, Lwff, format_generic, labels_of_generic

__all__ = [
    "LassoModel",
    "Counterexample",
    "HorizonTooSmall",
    "UnboundLabel",
    "ModelFormatError",
    "parse_model",
    "format_model",
    "eval_ltl",
    "eval_h",
    "eval_h_oracle",
    "eval_generic",
    "random_lasso",
    "falsify_consequence",
]


class HorizonTooSmall(ValueError):
    pass


class UnboundLabel(KeyError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class LassoModel:
    """Valuations for positions ``0 .. s+p-1``; position ``n >= s`` reads
    ``loop[(n - s) % p]``."""

    stem: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("loop period must be at least 1")

    @property
    def stem_len(self) -> int:
        return len(self.stem)

    @property
    def period(self) -> int:
        return len(self.loop)

    def valuation(self, n: int) -> frozenset[str]:
        if n < self.stem_len:
            return self.stem[n]
        return self.loop[(n - self.stem_len) % self.period]

    def canon(self, n: int) -> int:
        """Canonical table index for position ``n``."""
        if n < self.stem_len:
            return n
        return self.stem_len + (n - self.stem_len) % self.period

    def to_dict(self) -> dict:
        return {
            "stem": [sorted(v) for v in self.stem],
            "loop": [sorted(v) for v in self.loop],
        }


def parse_model(text: str) -> LassoModel:
    """Line format: ``stem <s>``, ``loop <p>``, then ``at <i>: <ident>*``
    for i in order 0..s+p-1, then ``end``.  Each ``<ident>`` is a name the
    formula parsers read as an atom; ``ModelFormatError`` otherwise."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3 or not lines[0].startswith("stem ") or not lines[1].startswith("loop "):
        raise ModelFormatError("model file must start with 'stem <s>' and 'loop <p>' lines")
    try:
        (s,), (p,) = (map(int, ln.split()[1:]) for ln in lines[:2])
    except ValueError as e:
        raise ModelFormatError(f"bad stem/loop header, each takes one number: {e}")
    if s < 0 or p < 1:
        raise ModelFormatError("need stem >= 0 and loop >= 1")
    if lines[-1] != "end":
        raise ModelFormatError("model file must end with 'end'")
    rows = lines[2:-1]
    if len(rows) != s + p:
        raise ModelFormatError(f"expected {s + p} 'at' lines, found {len(rows)}")
    table: list[frozenset[str]] = []
    for i, row in enumerate(rows):
        head, _, syms = row.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "at" or parts[1] != str(i):
            raise ModelFormatError(f"expected 'at {i}: ...', got {row!r}")
        cell = syms.split()
        for name in cell:
            if not _is_name(name):
                raise ModelFormatError(f"at {i}: {name!r} is not an atom's name")
        table.append(frozenset(cell))
    return LassoModel(tuple(table[:s]), tuple(table[s:]))


def format_model(m: LassoModel) -> str:
    out = [f"stem {m.stem_len}", f"loop {m.period}"]
    for i, v in enumerate(m.stem + m.loop):
        out.append(f"at {i}: {' '.join(sorted(v))}".rstrip())
    out.append("end")
    return "\n".join(out) + "\n"


def eval_ltl(m: LassoModel, n: int, a: Formula) -> bool:
    """Truth of an until-language formula at position ``n``.

    One fold gives each subformula a table of its truth at the ``s + p``
    canonical positions; ``G`` and ``U`` are resolved by fixpoint over the
    window, and the abbreviations by ``_abbreviations`` over the tables.
    """
    if n < 0:
        raise ValueError("positions are natural numbers")
    s, p = m.stem_len, m.period
    size = s + p
    vals = m.stem + m.loop
    succ = [i + 1 if i + 1 < size else s for i in range(size)]
    bot = [False] * size

    def implies(ta: list[bool], tb: list[bool]) -> list[bool]:
        return [(not x) or y for x, y in zip(ta, tb)]

    def always(ta: list[bool]) -> list[bool]:
        loop_all = all(ta[s:])
        return [loop_all if i >= s else (all(ta[i:s]) and loop_all) for i in range(size)]

    def until(ta: list[bool], tb: list[bool]) -> list[bool]:
        t = [False] * size
        changed = True
        while changed:
            changed = False
            for i in reversed(range(size)):
                if not t[i] and (tb[i] or (ta[i] and t[succ[i]])):
                    t[i] = True
                    changed = True
        return t

    tables = {
        Atom: lambda x: [x.name in v for v in vals],
        Bottom: lambda x: bot,
        Implies: lambda x, a, b: implies(a, b),
        Next: lambda x, a: [a[j] for j in succ],
        Always: lambda x, a: always(a),
        Until: lambda x, a, b: until(a, b),
        **_abbreviations(implies, bot, always),
    }
    return _fold_checked(a, tables)[m.canon(n)]


def _check_sequence(seq) -> tuple[int, ...]:
    sigma = tuple(seq)
    if not sigma:
        raise ValueError("observation sequences are nonempty")
    if any(n < 0 for n in sigma):
        raise ValueError("observation sequences contain natural numbers")
    return sigma


def eval_h(m: LassoModel, seq, a: Formula) -> bool:
    """Truth of a history-language formula at an observation sequence.

    Evaluates on the canonical last pair of the sequence (see the module
    docstring): ``X`` moves ``(i, n)`` to ``(n, n+1)``; ``G`` over a
    non-local operand to ``(n, mm)`` for ``mm`` in ``[n, max(n, s) + 2p]``,
    and over a local one to each canonical position from ``n`` on, the
    stem positions in ``[n, s)`` and the loop; ``H`` to ``(i, mm)`` for
    ``mm`` in ``[i, n]``, with ``n`` clamped to ``max(i, s+p) + p(k+1)``
    where ``k`` bounds the operand's ``H`` nesting: past
    ``max(i, s+p) + pk`` the operand is periodic in ``mm``, so one more
    period has shown every value it takes.  Local subformulas are
    evaluated at ``(n, n)``, and pairs past ``s + p`` shift back by whole
    periods.
    """
    return _eval_h(m, _check_sequence(seq), _fold_checked(a, _HISTORY_CORE))


def _eval_h(m: LassoModel, sigma: tuple[int, ...], g: Formula) -> bool:
    s, p = m.stem_len, m.period
    window = s + p
    vals = m.stem + m.loop
    memo: dict[tuple[int, int, int], bool] = {}
    # Per object, filled on first use: whether a node is local (the fold of
    # formulas._LOCAL), and the temporal depth of an H node's operand.
    local: dict[int, bool] = {}
    depth: dict[int, int] = {}

    def ev(i: int, n: int, x: Formula) -> bool:
        if i != n:
            loc = local.get(id(x))
            if loc is None:
                loc = _fold_from(x, _LOCAL, local)
            if loc:
                i = n
        if i >= window and n >= window:
            shift = (min(i, n) - s) // p * p
            i -= shift
            n -= shift
        key = (id(x), i, n)
        cached = memo.get(key)
        if cached is not None:
            return cached
        cls = type(x)
        if cls is Implies:
            v = (not ev(i, n, x.left)) or ev(i, n, x.right)
        elif cls is Atom:
            # An atom is local, so the period shift above put n below s + p.
            v = x.name in vals[n]
        elif cls is Always:
            # G is local, so n is canonical and i == n.
            y = x.operand
            loc = local.get(id(y))
            if loc is None:
                loc = _fold_from(y, _LOCAL, local)
            if loc:
                # y at (n, mm) is y at canon(mm): G at a stem position is y
                # there and G one position up, and G at every loop position
                # is y over the loop, memoised at (s, s).  Walk the stem up
                # to the first position where y fails or G is memoised, then
                # write the answer to every stem position passed.
                j = n
                while j < s and (id(x), j, j) not in memo and ev(j, j, y):
                    j += 1
                if j < s:
                    v = memo.get((id(x), j, j), False)
                else:
                    v = memo.get((id(x), s, s))
                    if v is None:
                        v = True
                        for mm in range(s, window):
                            if not ev(mm, mm, y):
                                v = False
                                break
                        memo[id(x), s, s] = v
                for mm in range(n, min(j + 1, s)):
                    memo[id(x), mm, mm] = v
            else:
                v = True
                for mm in range(n, max(n, s) + 2 * p + 1):
                    if not ev(n, mm, y):
                        v = False
                        break
        elif cls is Next:
            v = ev(n, n + 1, x.operand)
        elif cls is Hist:
            # H A at (i, mm) is H A at (i, mm - 1) and A at (i, mm): start
            # after the nearest memoised prefix and fill the memo upward, so
            # nested H costs linear in the gap and the recursion stays flat.
            # Pairs (i, mm) with i <= mm are canonical: i is below s + p.
            # The clamp is never below max(i, s + p) + p, so the operand's
            # depth is looked up only for walks that reach past it.
            top = n
            if n > max(i, window) + p:
                k = depth.get(id(x))
                if k is None:
                    k = depth[id(x)] = temporal_depth(x.operand)
                top = min(n, max(i, window) + p * (k + 1))
            lo = top
            while lo > i and (id(x), i, lo - 1) not in memo:
                lo -= 1
            v = memo[id(x), i, lo - 1] if lo > i else True
            for mm in range(max(lo, i), top + 1):
                v = v and ev(i, mm, x.operand)
                memo[id(x), i, mm] = v
        elif cls is Bottom:
            v = False
        else:
            raise TypeError(f"not a core formula: {x!r}")
        memo[key] = v
        return v

    return ev(sigma[-2] if len(sigma) > 1 else sigma[0], sigma[-1], g)


def eval_h_oracle(m: LassoModel, seq, a: Formula, horizon: int) -> bool:
    """Literal transcription of the truth clauses with truncated ``G``;
    test-only reference for ``eval_h``'s two-period bound.

    Requires ``horizon >= max(seq) + (s+p) * temporal_depth(a) + 1``.  The
    slack ``horizon - max(seq)`` becomes the window of every ``G``
    quantifier (each ranges over ``[n_k, n_k + slack]``), so a top-level
    ``G`` is truncated at the horizon and nested quantifiers keep the same
    generous headroom instead of sharing one absolute cutoff.
    """
    sigma = _check_sequence(seq)
    g = _fold_checked(a, _HISTORY_CORE)
    need = _min_horizon(m, sigma, g)
    if horizon < need:
        raise HorizonTooSmall(f"horizon {horizon} < required {need}")
    return _eval_h_oracle(m, sigma, g, horizon)


def _min_horizon(m: LassoModel, sigma: tuple[int, ...], g: Formula) -> int:
    """The least horizon ``eval_h_oracle`` accepts for ``g`` at ``sigma``."""
    return max(sigma) + (m.stem_len + m.period) * temporal_depth(g) + 1


def _eval_h_oracle(m: LassoModel, sigma: tuple[int, ...], g: Formula, horizon: int) -> bool:
    slack = horizon - max(sigma)
    s, p = m.stem_len, m.period
    vals = m.stem + m.loop
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def ev(sig: tuple[int, ...], x: Formula) -> bool:
        key = (id(x), sig)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(x, Atom):
            n = sig[-1]
            v = x.name in vals[n if n < s + p else s + (n - s) % p]
        elif isinstance(x, Bottom):
            v = False
        elif isinstance(x, Implies):
            v = (not ev(sig, x.left)) or ev(sig, x.right)
        elif isinstance(x, Next):
            v = ev(sig + (sig[-1] + 1,), x.operand)
        elif isinstance(x, Always):
            v = all(ev(sig + (mm,), x.operand) for mm in range(sig[-1], sig[-1] + slack + 1))
        elif isinstance(x, Hist):
            if len(sig) == 1:
                v = ev(sig, x.operand)
            else:
                prev = sig[:-1]
                v = all(ev(prev + (mm,), x.operand) for mm in range(sig[-2], sig[-1] + 1))
        else:
            raise TypeError(f"not a core formula: {x!r}")
        memo[key] = v
        return v

    return ev(sigma, g)


def eval_generic(m: LassoModel, interp: dict[str, int], phi: GenericFormula) -> bool:
    """Truth of the judgement ``phi`` in ``m`` with its labels read as the
    positions ``interp`` gives them: ``eval_h`` at the label sequence of an
    lwff, the order or successor relation for an rwff.  ``UnboundLabel``
    for a label that ``interp`` lacks."""
    labels = phi.seq if isinstance(phi, Lwff) else (phi.a, phi.b)
    try:
        at = tuple(interp[x] for x in labels)
    except KeyError as e:
        raise UnboundLabel(str(e))
    if isinstance(phi, Lwff):
        return eval_h(m, at, phi.formula)
    return at[0] <= at[1] if isinstance(phi, Le) else at[1] == at[0] + 1


@dataclass(frozen=True)
class Counterexample:
    model: LassoModel
    interpretation: dict[str, int]
    sample_index: int
    failing: str

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "interpretation": dict(sorted(self.interpretation.items())),
            "sample_index": self.sample_index,
            "failing": self.failing,
        }


def _symbols_in(formulas) -> list[str]:
    syms: set[str] = set()
    for phi in formulas:
        if isinstance(phi, Lwff):
            syms |= atoms_of(phi.formula)
    return sorted(syms)


def random_lasso(rng: random.Random, symbols) -> LassoModel:
    """A stem of 0 to 4 cells and a loop of 1 to 3; each valuation cell is
    an independent fair coin per symbol."""
    syms = list(symbols) if symbols else ["p"]
    s = rng.randint(0, 4)
    p = rng.randint(1, 3)
    cells = [frozenset(x for x in syms if rng.random() < 0.5) for _ in range(s + p)]
    return LassoModel(tuple(cells[:s]), tuple(cells[s:]))


# Labels are interpreted as positions in [0, _MAX_LABEL_VALUE].
_MAX_LABEL_VALUE = 12


def falsify_consequence(premises, goal: GenericFormula, samples: int, seed: int) -> Counterexample | None:
    """Search random (model, interpretation) pairs for one satisfying every
    premise but not the goal.  A falsifier, never a prover: finding nothing
    does not establish the consequence.  Deterministic for a fixed seed.
    Premises are checked once per call; the goal is evaluated where every
    premise holds.
    """
    premises = list(premises)
    every = premises + [goal]
    labels, symbols = sorted({x for phi in every for x in labels_of_generic(phi)}), _symbols_in(every)
    rels = [r for r in premises if not isinstance(r, Lwff)]
    hists = [(w.seq, _fold_checked(w.formula, _HISTORY_CORE)) for w in premises if isinstance(w, Lwff)]
    rng = random.Random(seed)
    for i in range(samples):
        model = random_lasso(rng, symbols)
        interp = {lab: rng.randint(0, _MAX_LABEL_VALUE) for lab in labels}
        if (
            all(eval_generic(model, interp, r) for r in rels)
            and all(_eval_h(model, tuple(interp[x] for x in seq), g) for seq, g in hists)
            and not eval_generic(model, interp, goal)
        ):
            return Counterexample(model, interp, i, format_generic(goal))
    return None
