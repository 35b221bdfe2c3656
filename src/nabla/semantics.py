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
horizon of at least its minimum, whose slack past the sequence is proved
per formula (``_min_horizon``) to decide every ``G`` window exactly.  A
``G`` over a local operand needs no window (the local clauses below).

``eval_h`` never builds the sequence it is given.  It enters at the
sequence's last pair and folds the formula bottom-up into truth tables,
each one Python ``int`` whose bit ``c`` is the truth at position ``c``:

* Last-pair locality.  Every truth clause reads at most the last two
  elements of a sequence and extends or replaces only the last one, so by
  induction on the formula the truth at ``sigma`` is a function of
  ``(sigma[-2], sigma[-1])``.  This is the locality behind the paper's
  ``last`` lemma and its corollary (translated formulas need only the last
  element) and clause (ii) of ``last-local``; ``quantifier-bound`` and
  that clause of ``last-local`` check it against the whole-sequence
  oracle.  A one-element sequence ``(n)`` is the pair ``(n, n)``: the
  ``H`` clause at a singleton is the singleton's own truth, and ``H`` at
  ``(n, n)`` ranges over ``[n, n]`` alone.
* The entry pair ``(i, n)`` is normalised once.  With ``i > n`` it is
  ``(n + 1, n)``: ``H`` ranges over the empty ``[i, n]``, so it is true,
  and no other clause reads ``i``.  A pair with both elements at or past
  ``s + p`` reads only loop positions, and every clause's positions, the
  ``G`` window included, move with the pair, so it shifts back by whole
  periods until its smaller element lies in ``[s, s + p)``: the
  periodicity that also backs the two-period truncation, which
  ``quantifier-bound`` checks.  A column ``n`` more than ``_WIDE`` past
  ``max(i, s + p)`` folds back by whole periods to at most
  ``max(i, s + p) + p * (k + 1)``, with ``k`` the formula's temporal
  depth: by induction on the formula its truth at ``(i, mm)`` is
  periodic in ``mm`` past ``max(i, s + p) + pk`` (a local one past
  ``s``; ``H`` of an operand periodic past ``T`` is constant from
  ``T + p``, once its range holds a whole period).  This is the ``H``
  clamp; with it no table grows with the position.
* Local subformulas fold to one mask over the canonical positions
  ``0 .. s+p-1``.  A local subformula, one where ``H`` occurs only under
  ``G``, ``X`` or ``F`` (the grammar of ``formulas.is_local``, where
  ``F`` is ``~G~``), never reads the first element of the pair, so its
  truth at ``(i, n)`` is its truth at ``canon(n)``: the paper's ``last``
  lemma, which ``last``, ``corollary`` and the local clause of
  ``last-local`` check.  An atom's mask is its cells, ``bot``'s is 0, and
  ``a -> b`` is ``~a | b``.
  ``X`` shifts the mask down by one and wraps the top bit to ``s``, the
  successor of ``s + p - 1``.  ``G`` over a local operand is 0 unless
  the operand holds over the whole loop, and then the loop plus the run of
  ones in the stem that ends at ``s - 1``: past the stem the loop repeats,
  so ``G`` reads each canonical position once and needs no window.
* Subformulas that are not local fold to one mask over the columns (the
  last element) per row (the element before it), at every row
  ``0 .. s+p``: the normalised entry row is at most ``s + p``, and a
  ``G``, ``X`` or ``F`` above reads the rows at the canonical positions.
  A local child enters lifted to the columns, its stem and then its loop
  repeated, far enough for the entry column and the last ``G`` window,
  and ``->`` is ``~a | b`` row by row.
  ``H`` at row ``r`` is the run of ones of its operand that starts at bit
  ``r``, with the bits below ``r`` set: ``H`` over ``[r, mm]``, true when
  the range is empty.
* ``X``, ``G`` and ``F`` over an operand that is not local read its rows
  at the canonical positions and fold to a local mask.  ``X`` at ``c`` is
  bit ``c + 1`` of row ``c``; ``G`` at ``c`` tests the bits
  ``[c, max(c, s) + 2p]`` of row ``c``, the two-period truncation above;
  ``F`` is ``~G~``, the same test on the rows negated, then negated.
* ``~``, ``|``, ``&`` and ``F`` are read in place, by the rules of
  ``formulas._abbreviations``: over masks, with the ``->`` and the local
  ``G`` above, for a local object, and over rows, with the row-by-row
  ``->``, for any other.  Each clause is written once, for the core node
  and the abbreviations alike, so no formula is desugared per call.

Each object is folded once, to its mask or to its ``s + p + 1`` rows, so
the cost is linear in the distinct objects times the canonical positions,
however deeply ``G`` nests; a formula that is not local at the top
computes every row, though the entry pair reads one.
``eval_h_oracle`` keeps the literal whole-sequence memo, keyed by an
operator node and the whole sequence; an atom or ``bot`` is answered
before any key is built (``_oracle``).  The memo grows as the slack plus
one to the power of the ``G`` nesting, so the proved slack, a few
positions where the old ``(s + p) * temporal_depth + 1`` was tens, is
what lets the lemmas call the oracle at every depth.

Each walk (``_fold_h``, ``_oracle``) is a module-level
recursive function with its state in arguments: a recursive closure would
refer to itself, and each call would leave that cycle, with its memo, to
the garbage collector.  Each rule table (``_mask_rules``, ``_ltl_rules``)
is built once per lasso shape ``(s, p)`` and shared by every call.

The public evaluators check their input: ``ValueError`` on an empty
sequence, a negative position or a formula of the other language, and
``HorizonTooSmall`` below the oracle's minimum horizon.  ``eval_h`` passes
its formula as it is to the private body ``_eval_h``, which raises the
checked fold's ``ValueError`` at a node outside the history language.
``eval_h_oracle`` passes the desugared formula to ``_eval_h_oracle``,
which keeps the literal core clauses, so that the reference does not share
the in-place reading of the abbreviations.  The bodies check nothing else:
they require a nonempty tuple of naturals, and the oracle a formula that
is a ``_HISTORY_CORE`` image and at least its minimum horizon
(``_min_horizon``).
``fuzz``'s lemma runners, which check their formulas once, call the
bodies directly.

``_eval_h`` normalises its entry pair (``_entry``) and reads the fold there
(``_read_h``).  ``falsify_consequence`` checks its formulas once per call
and reads each judgment through the same two functions, at the indices of
its last two labels.  A sample draws its lasso as words first
(``_lasso_words``): the stem, the period and every coin, one
``getrandbits`` call that reads the generator's words as one
``random() < 0.5`` per coin would.  The relational premises are decided on
the drawn label positions, and only where they hold are the cells decoded
(``_lasso_cells``, shared with ``random_lasso``; equal cells are one shared
frozenset) and the labelled premises and the goal folded, with one memo
and one lift width for the sample.  So a sample where they fail costs the
draws alone, and no object folds twice in a sample.

Before any draw, ``falsify_consequence`` settles a call that no sample
could refute (``_settle``): relational premises that no placement in the
label range satisfies, which a negative cycle in their difference-constraint
network shows (``_placeable``), and, per pair of last labels, labelled
premises that are inconsistent or entail the goal by their propositional
form alone, which one bit-sliced truth table over the group's leaves
shows (``_leaves``, ``_table``).  Both are exact: the draws place every
label in that range, and ``->`` and bot read only the pair their judgment
is read at, so what no assignment of the leaves makes true, no model does.
The call then returns None, the result its draws would give, without them.
"""

from __future__ import annotations

import functools
import operator
import random
from itertools import compress

from .formulas import (
    Always,
    And,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    Next,
    Not,
    Or,
    Sometime,
    Until,
    _HISTORY_CORE,
    _ValueRecord,
    _abbreviations,
    _bind_setattr,
    _fold_checked,
    _is_name,
    _outside,
    atoms_of,
    temporal_depth,
)
from .kernel import GenericFormula, Le, Lwff, Succ, format_generic, labels_of_generic

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


class LassoModel(_ValueRecord):
    """Valuations for positions ``0 .. s+p-1``; position ``n >= s`` reads
    ``loop[(n - s) % p]``.

    A record (see the comment at ``formulas._bind_setattr``) whose
    constructor is written out: every comparison sample and every
    falsifier sample whose relational premises hold builds one."""

    __match_args__ = ("stem", "loop")

    def __init__(self, stem: tuple[frozenset[str], ...], loop: tuple[frozenset[str], ...]) -> None:
        if not loop:
            raise ValueError("loop period must be at least 1")
        set_ = _bind_setattr(self)
        set_("stem", stem)
        set_("loop", loop)

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
    for i in order 0..s+p-1, then ``end``; fields are separated by any run
    of whitespace.  ``s`` and ``p`` are ASCII digits, as script ids are,
    and each ``<ident>`` is a name the formula parsers read as an atom;
    ``ModelFormatError`` otherwise."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    heads = [ln.split() for ln in lines[:2]]
    if len(lines) < 3 or [h[0] for h in heads] != ["stem", "loop"]:
        raise ModelFormatError("model file must start with 'stem <s>' and 'loop <p>' lines")
    counts = []
    for ln, (_, *args) in zip(lines, heads):
        if len(args) != 1 or not (args[0].isdigit() and args[0].isascii()):
            raise ModelFormatError(f"bad stem/loop header {ln!r}, each takes one number in ASCII digits")
        counts.append(int(args[0]))
    s, p = counts
    if p < 1:
        raise ModelFormatError("need loop >= 1")
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
    """``parse_model``'s line format for ``m``.  Public API for tests and
    tools; no code in the package calls it."""
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
    The rules but the atoms' are ``_ltl_rules(s, p)``'s, sharing no clause
    with ``eval_h``: the translation lemma's independent reference.
    """
    if n < 0:
        raise ValueError("positions are natural numbers")
    vals = m.stem + m.loop
    tables = {Atom: lambda x: [x.name in v for v in vals], **_ltl_rules(m.stem_len, m.period)}
    return _fold_checked(a, tables)[m.canon(n)]


@functools.lru_cache(maxsize=64)
def _ltl_rules(s: int, p: int) -> dict:
    """``eval_ltl``'s rules but the atoms', for stem ``s`` and period ``p``;
    the last 64 lasso shapes are kept.  No rule changes a table it is given
    or returns, so every call shares them."""
    size = s + p
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

    return {
        Bottom: lambda x: bot,
        Implies: lambda x, a, b: implies(a, b),
        Next: lambda x, a: [a[j] for j in succ],
        Always: lambda x, a: always(a),
        Until: lambda x, a, b: until(a, b),
        **_abbreviations(implies, bot, always),
    }


def _check_sequence(seq) -> tuple[int, ...]:
    sigma = tuple(seq)
    if not sigma:
        raise ValueError("observation sequences are nonempty")
    if any(n < 0 for n in sigma):
        raise ValueError("observation sequences contain natural numbers")
    return sigma


def eval_h(m: LassoModel, seq, a: Formula) -> bool:
    """Truth of a history-language formula at an observation sequence.

    Folds the formula bottom-up to truth tables at the sequence's last pair
    (see the module docstring): a local subformula to one mask over the
    canonical positions; any other to one mask over the columns per row
    ``0 .. s+p``.  ``G`` over a local operand reads the canonical positions,
    over any other the window ``[n, max(n, s) + 2p]``; ``H`` at row ``i``
    is the run of ones from column ``i``.  ``~``, ``|``, ``&`` and ``F``
    are read in place, by ``formulas._abbreviations`` over these tables;
    ``ValueError`` at a node outside the history language.
    The entry pair shifts back by whole periods, and a far column folds
    back to at most the ``H`` clamp ``max(i, s+p) + p(k+1)``, ``k`` the
    formula's temporal depth.
    """
    return _eval_h(m, _check_sequence(seq), a)


# eval_h folds back a column more than this far past the entry row and the
# canonical positions.  Nearer columns cost less to compute than the
# temporal-depth walk that folding takes: a 15-node formula at (1, 250)
# took 22 us unfolded and 31 us folded, under CPython 3.11 on 2 vCPUs.
_WIDE = 256


def _eval_h(m: LassoModel, sigma: tuple[int, ...], g: Formula) -> bool:
    stem, loop = m.stem, m.loop
    s, p = len(stem), len(loop)
    i, n = _entry(sigma[-2] if len(sigma) > 1 else sigma[0], sigma[-1], s, p, g)
    # Columns up to n, and at least to the end of the last G window, s + 3p - 1.
    loops = _loops(p, max(3, (n - s) // p + 1))
    try:
        return _read_h(g, {}, stem + loop, s, p, loops, i, n)
    except TypeError:
        raise _outside(g, True) from None


def _entry(i: int, n: int, s: int, p: int, g: Formula) -> tuple[int, int]:
    """The entry pair ``(i, n)`` of ``g``, normalised as the module docstring
    says: an empty ``H`` range, whole periods, and a far column past the
    ``H`` clamp.  The row is at most ``s + p``, and no position grows."""
    size = s + p
    if i > n:
        i = n + 1
    if i >= size and n >= size:
        shift = (min(i, n) - s) // p * p
        i -= shift
        n -= shift
    if n > max(i, size) + _WIDE:
        bound = max(i, size) + p * (temporal_depth(g) + 1)
        if n > bound:
            n -= (n - bound + p - 1) // p * p
    return i, n


def _read_h(g: Formula, memo: dict[int, int | list[int]], vals, s: int, p: int, loops: int, i: int, n: int) -> bool:
    """The truth of ``g`` at the normalised entry pair ``(i, n)``: its mask's
    bit at the canonical position of ``n`` if it is local, else bit ``n``
    of its row ``i``.  ``g`` is folded by ``_fold_h`` unless ``memo`` holds
    it; ``loops`` must lift far enough for column ``n`` and the last ``G``
    window."""
    v = memo.get(id(g))
    if v is None:
        v = _fold_h(g, memo, vals, s, p, loops)
    if type(v) is int:
        return bool(v >> (n if n < s else s + (n - s) % p) & 1)
    return bool(v[i] >> n & 1)


def _imp(a: int, b: int, full: int) -> int:
    """``a -> b`` over masks, ``full`` the mask of every canonical position."""
    return full & (~a | b)


def _always(a: int, s: int, p: int) -> int:
    """``G`` over a local mask: 0 unless ``a`` holds over the whole loop,
    and then the loop and the run of ones in the stem that ends at
    ``s - 1``."""
    if a >> s != (1 << p) - 1:
        return 0
    # Clear the stem up to its last position where a fails.
    low = (~a & (1 << s) - 1).bit_length()
    return (1 << s + p) - 1 >> low << low


def _window(a: list[int], s: int, p: int) -> int:
    """``G`` over an operand that is not local, from its rows ``a`` at the
    canonical positions: the bits ``[c, max(c, s) + 2p]`` of row ``c``."""
    v = 0
    for c in range(s + p):
        w = (2 << max(c, s) + 2 * p) - (1 << c)
        if a[c] & w == w:
            v |= 1 << c
    return v


@functools.lru_cache(maxsize=64)
def _mask_rules(s: int, p: int) -> dict:
    """The abbreviations' rules over the masks of a lasso with stem ``s``
    and period ``p``; the last 64 lasso shapes are kept."""
    full = (1 << s + p) - 1
    return _abbreviations(lambda a, b: _imp(a, b, full), 0, lambda a: _always(a, s, p))


def _loops(p: int, copies: int) -> int:
    """The multiplier that repeats a ``p``-bit loop mask ``copies`` times."""
    return ((1 << p * copies) - 1) // ((1 << p) - 1)


def _lift(a: int, s: int, loops: int) -> int:
    """A local mask over the columns: its stem, then its loop repeated."""
    return (a & (1 << s) - 1) | (a >> s) * loops << s


def _imp_rows(a: int | list[int], b: int | list[int]) -> int | list[int]:
    """``->`` over the columns, row by row.  Each side is a list of rows,
    or one int: a local operand's mask lifted to the columns, the same at
    every row."""
    if type(a) is int:
        if type(b) is int:
            return ~a | b
        a = ~a
        return [a | t for t in b]
    if type(b) is int:
        return [~t | b for t in a]
    return [~t | u for t, u in zip(a, b)]


# The rows of an object that is not local, other than H, over its operands'
# rows.  F is ~G~, which is local whatever its operand, so its rule, the
# one that reads the third argument, never runs here.
_ROW_RULES = {Implies: lambda x, a, b: _imp_rows(a, b)} | _abbreviations(_imp_rows, 0, None)


def _fold_h(x: Formula, memo: dict[int, int | list[int]], vals, s: int, p: int, loops: int) -> int | list[int]:
    """``_eval_h``'s fold: the mask of ``x`` over the canonical positions if
    it is local, and if not the list of its masks over the columns at the
    rows ``0 .. s+p``.  ``memo`` holds each object's value; ``loops`` sets
    how far a local operand of an object that is not local is lifted.
    ``TypeError`` at a node outside the history language."""
    cls = type(x)
    if cls is Implies or cls is Or or cls is And:
        a = memo.get(id(x.left))
        if a is None:
            a = _fold_h(x.left, memo, vals, s, p, loops)
        b = memo.get(id(x.right))
        if b is None:
            b = _fold_h(x.right, memo, vals, s, p, loops)
        if type(a) is int and type(b) is int:
            v = _imp(a, b, (1 << s + p) - 1) if cls is Implies else _mask_rules(s, p)[cls](x, a, b)
        else:
            v = _ROW_RULES[cls](x, _lift(a, s, loops) if type(a) is int else a, _lift(b, s, loops) if type(b) is int else b)
    elif cls is Atom:
        v = 0
        for c in range(s + p):
            if x.name in vals[c]:
                v |= 1 << c
    elif cls is Bottom:
        v = 0
    elif cls is Always or cls is Next or cls is Hist or cls is Not or cls is Sometime:
        y = x.operand
        a = memo.get(id(y))
        if a is None:
            a = _fold_h(y, memo, vals, s, p, loops)
        if cls is Hist:
            if type(a) is int:
                a = [_lift(a, s, loops)] * (s + p + 1)
            # With the bits below r set, t + 1 & ~t is the lowest zero bit of t,
            # and one less is the run of ones below it.
            v = [((t := u | (1 << r) - 1) + 1 & ~t) - 1 for r, u in enumerate(a)]
        elif type(a) is int:
            if cls is Next:
                v = a >> 1 | (a >> s & 1) << (s + p - 1)
            elif cls is Always:
                v = _always(a, s, p)
            else:
                v = _mask_rules(s, p)[cls](x, a)
        elif cls is Next:
            v = 0
            for c in range(s + p):
                v |= (a[c] >> c + 1 & 1) << c
        elif cls is Always:
            v = _window(a, s, p)
        elif cls is Not:
            v = _ROW_RULES[Not](x, a)
        else:
            # F y is ~G~y, the inner ~ over the rows of y.
            v = _imp(_window(_imp_rows(a, 0), s, p), 0, (1 << s + p) - 1)
    else:
        raise TypeError(f"not a history-language node: {x!r}")
    memo[id(x)] = v
    return v


def eval_h_oracle(m: LassoModel, seq, a: Formula, horizon: int) -> bool:
    """Literal transcription of the truth clauses with truncated ``G``;
    test-only reference for ``eval_h``'s two-period bound.

    Requires ``horizon >= _min_horizon(m, seq, desugar(a))``, which is
    ``max(seq)`` plus a slack proved for the formula (``HorizonTooSmall``
    below it).  The slack ``horizon - max(seq)`` becomes the window of
    every ``G`` quantifier (each ranges over ``[n_k, n_k + slack]``), so a
    top-level ``G`` is truncated at the horizon and nested quantifiers keep
    the same headroom instead of sharing one absolute cutoff.
    """
    sigma = _check_sequence(seq)
    g = _fold_checked(a, _HISTORY_CORE)
    need = _min_horizon(m, sigma, g)
    if horizon < need:
        raise HorizonTooSmall(f"horizon {horizon} < required {need}")
    return _eval_h_oracle(m, sigma, g, horizon)


def _slack(x: Formula, memo: dict[int, tuple[int, int, int]]) -> tuple[int, int, int]:
    """``(c(x), moves(x), k)`` for the core formula ``x``, with ``c`` and
    ``moves`` as ``_min_horizon`` defines them and ``k`` the largest
    ``c(y) + moves(y)`` over the ``G y`` in ``x``, or -1 where it has none.
    State in arguments, as ``_oracle`` keeps it; an atom or bot is answered
    before the memo is read.  ``TypeError`` at a node outside the core."""
    cls = type(x)
    if cls is Atom:
        return 0, 1, -1
    if cls is Bottom:
        return 0, 0, -1
    v = memo.get(id(x))
    if v is None:
        if cls is Implies:
            c, moves, k = _slack(x.left, memo)
            c2, moves2, k2 = _slack(x.right, memo)
            v = max(c, c2), moves | moves2, max(k, k2)
        elif cls is Hist or cls is Always or cls is Next:
            c, moves, k = _slack(x.operand, memo)
            if cls is Hist:
                v = c + moves, 0, k
            elif cls is Always:
                v = 0, 1, max(k, c + moves)
            else:
                v = 0, 1, k
        else:
            raise TypeError(f"not a core formula: {x!r}")
        memo[id(x)] = v
    return v


def _min_horizon(m: LassoModel, sigma: tuple[int, ...], g: Formula) -> int:
    """The least horizon ``eval_h_oracle`` accepts at ``sigma`` for the
    core formula ``g``: ``max(sigma) + slack``, with ``slack`` 0 if ``g``
    has no ``G`` and otherwise ``s + (p - 1) * k``.  ``k`` is the fold
    ``_slack``: the largest ``c(y) + moves(y)`` over the ``G y`` in ``g``.
    ``c`` counts nested ``H``: 0 at atoms, bot, ``X`` and ``G``, the larger
    side's at ``->``, and ``c(y) + moves(y)`` at ``H y``.  ``moves(y)`` is
    0 when ``y`` is eventually constant, as bot and every ``H y`` are, and
    ``a -> b`` is when both sides are; 1 otherwise.

    At this slack every ``G`` the oracle reaches decides its quantifier,
    so the oracle answers the truth.  Write ``T(a, b)`` for a formula's
    truth at a sequence ending in ``a, b``; by last-pair locality it
    depends on nothing else, and a singleton ``(n)`` is ``(n, n)``.

    1. ``T(a + p, b + p) = T(a, b)`` once ``min(a, b) >= s``, by induction
       on the formula: an atom reads ``b``, whose cell repeats past the
       stem; ``X`` reads ``(b, b + 1)``, ``G`` the pairs ``(b, mm)`` with
       ``mm >= b`` and ``H`` the pairs ``(a, mm)`` with ``a <= mm <= b``,
       and each range moves with the pair.
    2. Fix a sequence ending in ``a`` and read a formula ``y`` at it
       extended by ``mm``, as a function of ``mm``: its point is where it
       turns periodic.  Atoms, ``X y`` and ``G y`` are periodic from ``s``:
       an atom by its cells, ``X`` and ``G`` by step 1 on the pairs
       ``(mm, mm + 1)`` and ``(mm, mm')`` with ``mm' >= mm >= s``.
       ``H y`` is the conjunction of ``y`` over ``[a, mm]``.  If ``y`` is
       periodic from its point ``t``, that range holds a whole period past
       ``max(a, t)`` once ``mm >= max(a, t) + p - 1``, and ``H y`` is
       constant from there; if ``y`` is constant from ``t``, ``H y`` is
       constant from ``max(a, t)``.  ``->`` turns periodic, or constant,
       at the later of its sides' points.  So by induction ``y``'s point
       is at most ``max(a, s) + (p - 1) * c(y)``, and ``y`` is constant
       from it when ``moves(y)`` is 0.
    3. ``G y`` at a sequence ending in ``n`` quantifies over ``mm >= n``
       of ``y`` at that sequence extended by ``mm``, which ends in ``n``.
       With ``t`` that point, every value at ``mm >= max(n, t)`` repeats
       one in ``[max(n, t), max(n, t) + (p - 1) * moves(y)]``, so the
       window ``[n, n + slack]`` decides ``for all mm >= n`` once it
       reaches there: at most ``n + s + (p - 1) * (c(y) + moves(y))``.
       ``X`` and ``H`` read their positions in full, so by induction on
       the formula every value the oracle computes is the truth.

    The slack is sharp on ``(G (H (q -> (p -> (H q)))))`` over the loop
    ``{q} {q,p} {}`` at ``(0,)``: 4, where slack 3 answers true and the
    formula is false (``tests/test_semantics.py``).
    """
    k = _slack(g, {})[2]
    return max(sigma) + (len(m.stem) + (len(m.loop) - 1) * k if k >= 0 else 0)


def _eval_h_oracle(m: LassoModel, sigma: tuple[int, ...], g: Formula, horizon: int) -> bool:
    return _oracle(sigma, g, m.stem + m.loop, len(m.stem), len(m.loop), horizon - max(sigma), {})


def _oracle(sig: tuple[int, ...], x: Formula, vals, s: int, p: int, slack: int, memo: dict) -> bool:
    # State in arguments, as in formulas._fold_from: a recursive closure
    # would leave a reference cycle per call (the module docstring).  A leaf
    # is answered before the memo key is built, as _fold_from does.
    cls = type(x)
    if cls is Atom:
        n = sig[-1]
        return x.name in vals[n if n < s + p else s + (n - s) % p]
    if cls is Bottom:
        return False
    key = (id(x), sig)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if cls is Implies:
        v = (not _oracle(sig, x.left, vals, s, p, slack, memo)) or _oracle(sig, x.right, vals, s, p, slack, memo)
    elif cls is Next:
        v = _oracle(sig + (sig[-1] + 1,), x.operand, vals, s, p, slack, memo)
    elif cls is Always:
        y = x.operand
        v = True
        for mm in range(sig[-1], sig[-1] + slack + 1):
            if not _oracle(sig + (mm,), y, vals, s, p, slack, memo):
                v = False
                break
    elif cls is Hist:
        y = x.operand
        if len(sig) == 1:
            v = _oracle(sig, y, vals, s, p, slack, memo)
        else:
            prev = sig[:-1]
            v = True
            for mm in range(sig[-2], sig[-1] + 1):
                if not _oracle(prev + (mm,), y, vals, s, p, slack, memo):
                    v = False
                    break
    else:
        raise TypeError(f"not a core formula: {x!r}")
    memo[key] = v
    return v


# The order and successor relations between two positions.
_RELATIONS = {Le: operator.le, Succ: lambda a, b: b == a + 1}


def eval_generic(m: LassoModel, interp: dict[str, int], phi: GenericFormula) -> bool:
    """Truth of the judgement ``phi`` in ``m`` with its labels read as the
    positions ``interp`` gives them: ``eval_h`` at the label sequence of an
    lwff, the order or successor relation for an rwff.  ``UnboundLabel``
    for a label that ``interp`` lacks.  Public API for tests and tools; no
    code in the package calls it (``falsify_consequence`` compiles its
    judgements instead)."""
    labels = phi.seq if isinstance(phi, Lwff) else (phi.a, phi.b)
    try:
        at = tuple(interp[x] for x in labels)
    except KeyError as e:
        raise UnboundLabel(str(e))
    if isinstance(phi, Lwff):
        return eval_h(m, at, phi.formula)
    return _RELATIONS[type(phi)](*at)


class Counterexample(_ValueRecord):
    __match_args__ = ("model", "interpretation", "sample_index", "failing")

    def __init__(self, model: LassoModel, interpretation: dict[str, int], sample_index: int, failing: str) -> None:
        set_ = _bind_setattr(self)
        set_("model", model)
        set_("interpretation", interpretation)
        set_("sample_index", sample_index)
        set_("failing", failing)

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
    an independent fair coin per symbol, drawn as ``rng.random() < 0.5``
    would draw it (see ``_lasso_words``).  Cells with the same symbols in
    them are one shared frozenset."""
    syms = tuple(symbols) or ("p",)
    return LassoModel(*_lasso_cells(syms, *_lasso_words(rng, len(syms))))


def _lasso_words(rng: random.Random, k: int) -> tuple[int, int, int]:
    """``random_lasso``'s draws over ``k`` symbols: the stem ``s``, the
    period ``p`` and the coins, not yet decoded into cells.

    The stem and the period are ``_below`` draws; the ``n`` coins, one per
    symbol per cell, are one ``getrandbits(64 * n)``.  CPython's
    ``random()`` reads two 32-bit words ``w1, w2`` of the Mersenne Twister
    and returns ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53``, so
    ``random() < 0.5`` holds exactly when bit 31 of ``w1`` is clear.
    ``getrandbits(64 * n)`` reads the same ``2n`` words, the first one
    least significant, so coin ``j`` is bit ``64j + 31``.  The values and
    the generator's state after the call are those of ``n`` calls to
    ``random()``."""
    s = _below(rng, 5)
    p = 1 + _below(rng, 3)
    return s, p, rng.getrandbits(64 * (s + p) * k)


def _lasso_cells(syms: tuple[str, ...], s: int, p: int, words: int) -> tuple[tuple[frozenset[str], ...], tuple[frozenset[str], ...]]:
    """The stem and the loop that ``_lasso_words`` drew over ``syms``.  Coin
    ``j`` is byte ``8j + 3`` of the words' little-endian bytes, heads below
    128.  A cell is looked up by its coins in ``_cells(syms)``, so equal
    cells are one frozenset."""
    k = len(syms)
    n = (s + p) * k
    coins = words.to_bytes(8 * n, "little")[3::8].translate(_HEADS)
    memo = _cells(syms)
    cells = []
    for c in range(0, n, k):
        key = coins[c : c + k]
        cell = memo.get(key)
        if cell is None:
            cell = frozenset(compress(syms, key))
            if len(memo) < _CELLS_KEPT:
                memo[key] = cell
        cells.append(cell)
    return tuple(cells[:s]), tuple(cells[s:])


# A coin's byte maps to 1, the symbol is in the cell, when its top bit,
# bit 31 of the word, is clear.
_HEADS = bytes([1] * 128 + [0] * 128)

# Each symbol tuple's cells are kept as they are first drawn, up to this
# many; a tuple of 12 symbols or fewer keeps all its 2**k cells.
_CELLS_KEPT = 4096


@functools.lru_cache(maxsize=64)
def _cells(syms: tuple[str, ...]) -> dict[bytes, frozenset[str]]:
    """The cells drawn so far over ``syms``, by their coins; the last 64
    symbol tuples drawn over are kept.  Every caller shares them: a cell is
    a function of its symbols and coins alone."""
    return {}


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``'s exact draw, for ``n >= 1``: the same
    ``getrandbits`` calls as CPython's ``_randbelow_with_getrandbits``, so
    the same value and the same generator state after it, without the
    argument checks and the two or three frames of ``randint``,
    ``randrange`` and ``choice``.  ``randint(a, b)`` is
    ``a + _below(rng, b - a + 1)`` and ``choice(seq)`` is
    ``seq[_below(rng, len(seq))]``.  ``ValueError`` for ``n < 1``, which
    has nothing to draw (and would never leave the loop)."""
    if n < 1:
        raise ValueError(f"nothing to draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# Labels are interpreted as positions in [0, _MAX_LABEL_VALUE].
_MAX_LABEL_VALUE = 12


def falsify_consequence(premises, goal: GenericFormula, samples: int, seed: int) -> Counterexample | None:
    """Search random (model, interpretation) pairs for one satisfying every
    premise but not the goal.  A falsifier, never a prover: finding nothing
    in the draws does not establish the consequence.  Deterministic for a
    fixed seed; ``ValueError`` for ``samples < 1``, which would test
    nothing, and then for a premise or goal outside the history language.

    Before its first draw the call is settled where no sample could be a
    counterexample (``_settle``), and returns None at once.  Two decisions
    do this, each exact, so the result is the one the draws would give:
    the relational premises with the label range ``[0,
    _MAX_LABEL_VALUE]`` as a difference-constraint network
    (``_placeable``), whose negative cycle means no placement the draws
    make satisfies them; and per pair of last labels, the labelled premises
    as one truth table over their leaves, the maximal subformulas that are
    neither ``->`` nor bot, with the negated goal if it is an lwff read at
    that pair.  ``->`` and bot read only the pair their judgment is read
    at, so a table that is 0 means that no model and no placement makes
    those judgments hold together: the premises are inconsistent, or with
    the negated goal, entail it.  A settled verdict is exact; only the
    draws are skipped.

    Each sample draws a lasso's words as ``random_lasso`` does, then one
    position per label in name order; the draws do not depend on what the
    premises say, only on their symbols and labels.  The premises and the
    goal are compiled once per call (``_compile``): their formulas checked
    and desugared, and their labels to the indices of the last two, the
    only ones a truth clause reads.  The relational premises are decided
    first, on the positions alone.  Only where every one holds are the
    cells decoded, and the labelled premises and then the goal read at
    their entry pairs (``_entry``, ``_read_h``), as ``_eval_h`` reads them,
    through one memo per sample, so each formula object the sample reaches
    folds once.

    That memo holds one lift width for every object, wide enough for
    column ``_MAX_LABEL_VALUE``, which no normalised entry column passes:
    normalising never moves a position up, and the far-column fold is
    ``_WIDE`` away.  The bits at columns up to ``n`` do not depend on a
    wider lift: a lift is exact up to its width, ``->`` is bitwise, ``H``'s
    bit at column ``c`` reads its operand's bits at columns ``c`` and below,
    and ``X``, ``G`` and ``F`` over rows read columns below ``s + 3p``, which
    three loop copies cover.  So each read is the one ``_eval_h`` makes.

    The premises are taken in the order of their printed form, so that the
    work, not only the result, is the same in every process, whatever order
    the caller's set iterates in.  The model is built for the
    counterexample alone.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    premises = sorted(premises, key=format_generic)
    settled, labels, rels, hists, (goal_g, goal_a, goal_b) = _settle(premises, goal)
    if settled is not None:
        return None
    syms = tuple(_symbols_in(premises + [goal])) or ("p",)
    rng = random.Random(seed)
    for i in range(samples):
        s, p, words = _lasso_words(rng, len(syms))
        at = [_below(rng, _MAX_LABEL_VALUE + 1) for _ in labels]
        for holds, a, b in rels:
            if not holds(at[a], at[b]):
                break
        else:
            stem, loop = _lasso_cells(syms, s, p, words)
            vals, memo = stem + loop, {}
            loops = _loops(p, max(3, (_MAX_LABEL_VALUE - s) // p + 1))
            for g, a, b in hists:
                if not _read_h(g, memo, vals, s, p, loops, *_entry(at[a], at[b], s, p, g)):
                    break
            else:
                if isinstance(goal, Lwff):
                    refuted = not _read_h(goal_g, memo, vals, s, p, loops, *_entry(at[goal_a], at[goal_b], s, p, goal_g))
                else:
                    refuted = not goal_g(at[goal_a], at[goal_b])
                if refuted:
                    return Counterexample(LassoModel(stem, loop), dict(zip(labels, at)), i, format_generic(goal))
    return None


def _settle(premises: list, goal: GenericFormula) -> tuple:
    """``falsify_consequence``'s call compiled, and settled where that is
    exact (see there): ``(settled, labels, rels, hists, goal)``, with the
    labels in name order, the relational and the labelled premises and the
    goal as ``_compile`` gives them, and ``settled`` ``"inconsistent"`` (no
    sample satisfies every premise), ``"entailed"`` (every sample that does
    satisfies the goal) or None (the call must be sampled).  The labelled
    premises, and an lwff goal, are grouped by the two labels they are read
    at; a group of more than ``_MAX_LEAVES`` leaves is left to the draws."""
    labels = sorted({x for phi in [*premises, goal] for x in labels_of_generic(phi)})
    index = {lab: k for k, lab in enumerate(labels)}
    rels = [_compile(r, index) for r in premises if not isinstance(r, Lwff)]
    hists = [_compile(w, index) for w in premises if isinstance(w, Lwff)]
    compiled = _compile(goal, index)
    call = labels, rels, hists, compiled
    if rels and not _placeable(len(labels), rels):
        return "inconsistent", *call
    groups: dict[tuple[int, int], list[Formula]] = {}
    for g, a, b in hists:
        groups.setdefault((a, b), []).append(g)
    goal_g, a, b = compiled
    pair = (a, b) if isinstance(goal, Lwff) else None
    if pair is not None:
        groups.setdefault(pair, [])
    entailed = False
    for key, gs in groups.items():
        leaves: dict[Formula, int] = {}
        seen: set[int] = set()
        for g in (*gs, goal_g) if key == pair else gs:
            _leaves(g, leaves, seen)
        k = len(leaves)
        if k > _MAX_LEAVES:
            continue
        # Leaf j's table holds at the assignments t with bit j of t set.
        full = (1 << (1 << k)) - 1
        masks = {x: _loops(2 << j, 1 << k - j - 1) * ((1 << (1 << j)) - 1 << (1 << j)) for x, j in leaves.items()}
        memo: dict[int, int] = {}
        holds = full
        for g in gs:
            holds &= _table(g, masks, full, memo)
        if not holds:
            return "inconsistent", *call
        if key == pair and not holds & ~_table(goal_g, masks, full, memo):
            entailed = True
    return ("entailed" if entailed else None), *call


# A group of labelled judgments with more leaves than this is sampled: a
# table over k leaves is 2**k bits, 8 KiB at this bound.
_MAX_LEAVES = 16


def _placeable(n: int, rels: list) -> bool:
    """Whether some placement of ``n`` labels in ``[0, _MAX_LABEL_VALUE]``
    satisfies every compiled relation in ``rels``.  Each relation is a
    difference constraint: ``a <= b`` is ``x_a - x_b <= 0``, and ``b`` the
    successor of ``a`` is ``x_b - x_a <= 1`` and ``x_a - x_b <= -1``; the
    range is ``x - z <= _MAX_LABEL_VALUE`` and ``z - x <= 0`` for a zero
    node ``z``.  An integer solution exists exactly when the graph with an
    edge ``u -> v`` of weight ``w`` per ``x_v - x_u <= w`` has no negative
    cycle, which Bellman-Ford from every node at once finds: without one
    a shortest path has at most ``n`` edges, so the distances settle
    within ``n`` passes, and pass ``n + 1`` changes none."""
    edges = [(n, v, _MAX_LABEL_VALUE) for v in range(n)] + [(v, n, 0) for v in range(n)]
    for holds, a, b in rels:
        if holds is operator.le:
            edges.append((b, a, 0))
        else:
            edges += [(a, b, 1), (b, a, -1)]
    dist = [0] * (n + 1)
    for _ in range(n + 1):
        settled = True
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                settled = False
        if settled:
            return True
    return False


def _leaves(x: Formula, leaves: dict[Formula, int], seen: set[int]) -> None:
    """Number in ``leaves``, in order of first occurrence, the maximal
    subformulas of the core formula ``x`` that are neither ``->`` nor bot:
    atoms, ``G``, ``X`` and ``H``, equal ones once.  ``seen`` holds the ids
    of the ``->`` objects walked, so a shared one is walked once."""
    cls = type(x)
    if cls is Implies:
        if id(x) not in seen:
            seen.add(id(x))
            _leaves(x.left, leaves, seen)
            _leaves(x.right, leaves, seen)
    elif cls is not Bottom:
        leaves.setdefault(x, len(leaves))


def _table(x: Formula, masks: dict[Formula, int], full: int, memo: dict[int, int]) -> int:
    """The truth table of the core formula ``x`` over its leaves' tables
    ``masks``, ``full`` the table of every assignment; ``memo`` holds each
    ``->`` object's table by id."""
    cls = type(x)
    if cls is Bottom:
        return 0
    if cls is not Implies:
        return masks[x]
    v = memo.get(id(x))
    if v is None:
        v = memo[id(x)] = _imp(_table(x.left, masks, full, memo), _table(x.right, masks, full, memo), full)
    return v


def _compile(phi: GenericFormula, index: dict[str, int]) -> tuple:
    """``falsify_consequence``'s form of ``phi``: ``(g, a, b)`` with ``a`` and
    ``b`` the indices of its two labels, for an rwff ``g`` its relation and
    for an lwff the checked core of its formula, ``a`` and ``b`` its last
    two labels (its one label twice)."""
    if not isinstance(phi, Lwff):
        return _RELATIONS[type(phi)], index[phi.a], index[phi.b]
    seq = phi.seq
    return _fold_checked(phi.formula, _HISTORY_CORE), index[seq[-2] if len(seq) > 1 else seq[0]], index[seq[-1]]
