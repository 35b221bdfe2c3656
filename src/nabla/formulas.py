"""Formula ASTs for the two object languages, with parsing and printing.

Two closely related languages share one node hierarchy:

* the "until" language: atoms, bot, ``->``, ``G``, ``X``, ``U``;
* the "history" language: atoms, bot, ``->``, ``G``, ``X``, ``H``.

``~``, ``|``, ``&`` and ``F`` are definitional abbreviations available in
both languages, defined once, by ``_abbreviations``, as fold rules over
``->``, bot and ``G``.  The history language is defined by ``_HISTORY_CORE``
and the until language by the fold tables that lack ``H``; ``_fold_checked``
folds a formula with such a table and raises ``ValueError`` outside its
language, so one walk both checks and desugars (or translates, or
evaluates).  The two parsers reject the foreign operator.

The parsers read the token strings of one compiled pattern, ``_TOKEN``,
and recover each token's offset only for an error or for where a partial
parse stops (see ``_Parser``).  They intern the nodes of one text, so equal
subformulas of a parsed formula are one object.  Formulas built by
constructors share only what their builder shares.  The walks here
(printing, desugaring, the measures, the language checks and locality)
each fold one table of per-class rules over the formula and visit each
distinct object once, so they are linear in distinct objects however much
the formula shares.  Within one call, :func:`desugar` and ``translate`` map
each input object to one output object, so a result keeps the sharing of
its input.

The parsers reject a formula whose parentheses nest deeper than
:data:`MAX_NESTING`.  Every operator application is one parenthesized
level; ``translate`` and :func:`desugar` deepen a formula (one level of
``U`` becomes about 9 core levels, ``&`` about 4), and the recursive
evaluators, comparisons and hashes downstream must stay within Python's
recursion limit on the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula",
    "Atom",
    "Bottom",
    "Implies",
    "Always",
    "Next",
    "Until",
    "Hist",
    "Not",
    "Or",
    "And",
    "Sometime",
    "ParseError",
    "MAX_NESTING",
    "parse_ltl",
    "parse_h",
    "format_formula",
    "format_length",
    "format_nesting",
    "desugar",
    "complexity",
    "temporal_depth",
    "is_local",
    "atoms_of",
]


class Formula:
    """Base class; all nodes are immutable and hashable.

    ``==`` is structural and true at identity.  A node computes its hash
    once, from its children's stored hashes, into the ``_hash`` slot,
    outside the instance ``__dict__``.
    """

    __slots__ = ("_hash",)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self), *self.__dict__.values()))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Always(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Hist(Formula):
    """The history operator (written ``H`` in concrete syntax)."""

    operand: Formula


# Abbreviations.  desugar() removes them; printers keep them for readability.


@dataclass(frozen=True, eq=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Sometime(Formula):
    operand: Formula


class ParseError(ValueError):
    """Raised on malformed concrete syntax.

    ``offset`` is the index of the offending token in the text, counted
    in characters, not bytes; ``expected`` is the set of token descriptions
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset} (expected one of: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected


MAX_NESTING = 32

RESERVED = frozenset({"bot", "G", "X", "F", "H", "U"})

_UNARY = {"G": Always, "X": Next, "F": Sometime, "H": Hist, "~": Not}
_BINARY = {"->": Implies, "|": Or, "&": And, "U": Until}


# The lexer: each match is one token, ``->``, a one-character operator or
# parenthesis, a word, or any other non-space character; ``findall`` skips
# the whitespace between matches.  ``\s`` is ``str.isspace`` and ``\w`` is
# ``str.isalnum`` or ``_``.  A name starts with a letter (``str.isalpha``):
# a word that does not (``_x``, ``1``, ``²x``, ``Ⅷ``) and any other lone
# character are no tokens of the grammar, and a parse fails where they start.
_TOKEN = re.compile(r"->|[()~|&]|\w+|\S")
_SYMBOLS = frozenset({"->", "(", ")", "~", "|", "&"})
_FORMULA_START = frozenset({"identifier", "bot", "("})


def _is_name(word: str) -> bool:
    """Whether the parsers read ``word`` alone as an atom's name: one token
    that starts with a letter, is an identifier and is not reserved."""
    return _TOKEN.fullmatch(word) is not None and word[0].isalpha() and word.isidentifier() and word not in RESERVED


def _positions(text: str, partial: bool) -> list[tuple[str, int]]:
    """Every token of ``text`` with its offset, then ``("<end>", offset)``.

    At the first character that starts no token, a partial scan ends the
    list (so one formula can be parsed out of a longer line) and a whole
    scan raises ``ParseError``."""
    tokens: list[tuple[str, int]] = []
    for m in _TOKEN.finditer(text):
        tok, off = m.group(), m.start()
        if tok[0].isalpha() or tok in _SYMBOLS:
            tokens.append((tok, off))
        elif partial:
            tokens.append(("<end>", off))
            return tokens
        elif tok == "-":
            raise ParseError("stray '-'", off, frozenset({"->"}))
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", off, frozenset({"identifier", "("}))
    tokens.append(("<end>", len(text)))
    return tokens


class _Stop(Exception):
    """A failed parse, found without offsets: its arguments are those of
    ``_Parser.error`` after ``partial``."""


class _Parser:
    """Recursive-descent parser over one text.

    The parser reads the token strings of one ``_TOKEN.findall``; the
    offset of each token is recovered by :func:`_positions` only when a
    parse fails (``run`` and ``prefix`` raise ``ParseError``) or when
    ``prefix`` reports where its formula stops.  A failure is found at a
    token index and reported at that token's offset; in a whole parse a
    character that starts no token is reported first, wherever it is, as
    if the text were tokenized before parsing.

    Nodes are interned in ``shared``, keyed on the atom name or on the
    operator and the ``id`` of each child, so structurally equal
    subformulas come back as one object.  A caller may pass one table to
    several parsers to share across texts; the table holds every node its
    keys name, so no ``id`` in it can be reused while it lives.
    """

    def __init__(self, text: str, foreign: str, shared=None):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("<end>")
        self.pos = 0
        self.depth = 0
        self.foreign = foreign  # the other language's operator, "U" or "H"
        self.shared: dict[tuple, Formula] = {} if shared is None else shared

    def error(self, partial: bool, k: int, expected, message: str | None = None) -> ParseError:
        tok, off = _positions(self.text, partial)[k]
        return ParseError(message or f"unexpected token {tok!r}", off, frozenset(expected))

    def formula(self) -> Formula:
        tokens, k = self.tokens, self.pos
        tok = tokens[k]
        self.pos = k + 1
        if tok != "(":
            f = self.shared.get((tok,))
            if f is None:
                # The first sight of bot or of an atom's name; any other token fails.
                if tok == "bot":
                    f = Bottom()
                elif _is_name(tok):
                    f = Atom(tok)
                else:
                    raise _Stop(k, _FORMULA_START)
                self.shared[(tok,)] = f
            return f
        if self.depth == MAX_NESTING:
            raise _Stop(k, {"identifier", "bot"}, f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        op = tokens[k + 1]
        cls = _UNARY.get(op)
        if cls is not None:
            if op == self.foreign:
                raise _Stop(k + 1, _FORMULA_START, f"operator {op!r} not in this language")
            self.pos = k + 2
            operand = self.formula()
            key, args = (op, id(operand)), (operand,)
        else:
            left = self.formula()
            j = self.pos
            op = tokens[j]
            cls = _BINARY.get(op)
            if cls is None or op == self.foreign:
                ops = _BINARY.keys() - {self.foreign}
                raise _Stop(j, ops, None if cls is None else f"operator {op!r} not in this language")
            self.pos = j + 1
            right = self.formula()
            key, args = (op, id(left), id(right)), (left, right)
        j = self.pos
        if tokens[j] != ")":
            raise _Stop(j, {")"})
        self.pos = j + 1
        self.depth -= 1
        f = self.shared.get(key)
        if f is None:
            f = self.shared[key] = cls(*args)
        return f

    def run(self) -> Formula:
        """The formula that is the whole text."""
        try:
            f = self.formula()
        except _Stop as stop:
            raise self.error(False, *stop.args) from None
        if self.tokens[self.pos] != "<end>":
            raise self.error(False, self.pos, {"<end>"})
        return f

    def prefix(self) -> tuple[Formula, int]:
        """The formula at the start of the text, and the offset of the
        first token after it (``len(text)`` at the end of the text)."""
        try:
            f = self.formula()
        except _Stop as stop:
            raise self.error(True, *stop.args) from None
        return f, _positions(self.text, True)[self.pos][1]


def parse_ltl(text: str) -> Formula:
    """Parse a formula of the until language (``U`` allowed, ``H`` rejected)."""
    return _Parser(text, "H").run()


def parse_h(text: str) -> Formula:
    """Parse a formula of the history language (``H`` allowed, ``U`` rejected)."""
    return _Parser(text, "U").run()


# Structural walks: one table of per-class rules each, folded by _fold.

_SYMBOL = {cls: sym for sym, cls in (_UNARY | _BINARY).items()}
_UNARY_NODES = frozenset(_UNARY.values())
_BINARY_NODES = frozenset(_BINARY.values())


def _fold(f: Formula, rules: dict):
    """Fold ``f`` children first: ``rules[type(x)]`` maps a node ``x`` and
    the folded values of its ``left`` and ``right``, or of its ``operand``,
    to the value of ``x``.

    Each object is folded once.  The memo is keyed on ``id``, which is safe
    because the caller holds ``f`` and every key is reachable from it.
    Atoms and bot are not memoised: their rules are cheap, and they are
    half the nodes of the small formulas the fuzzers walk most.
    """
    return _fold_from(f, rules, {})


def _fold_from(x: Formula, rules: dict, memo: dict[int, object]):
    # One module-level function with its state in arguments: a closure per
    # call made the fuzzers' many walks of small formulas markedly slower.
    cls = type(x)
    if cls is Atom or cls is Bottom:
        return rules[cls](x)
    v = memo.get(id(x))
    if v is None:
        if cls in _BINARY_NODES:
            v = rules[cls](x, _fold_from(x.left, rules, memo), _fold_from(x.right, rules, memo))
        elif cls in _UNARY_NODES:
            v = rules[cls](x, _fold_from(x.operand, rules, memo))
        else:
            raise TypeError(f"not a formula: {x!r}")
        memo[id(x)] = v
    return v


def _table(leaf, unary, binary, special=None) -> dict:
    """Rules for :func:`_fold`: ``leaf`` for atoms and bot, ``unary`` and
    ``binary`` for every operator of that arity, then ``special`` over them."""
    rules = {Atom: leaf, Bottom: leaf, **dict.fromkeys(_UNARY_NODES, unary), **dict.fromkeys(_BINARY_NODES, binary)}
    return rules | (special or {})


# Each node over its mapped children, and the very node when they map to
# themselves.  desugar and translate override the nodes they rewrite.
_HOMOMORPHIC = _table(
    lambda x: x,
    lambda x, a: x if a is x.operand else type(x)(a),
    lambda x, a, b: x if a is x.left and b is x.right else type(x)(a, b),
)

_BOT = Bottom()


def _not(a: Formula) -> Implies:
    return Implies(a, _BOT)


def _abbreviations(imp, bot, always) -> dict:
    """The abbreviations as fold rules over the values ``imp(a, b)`` of
    ``a -> b``, ``bot`` of bot and ``always(a)`` of ``G a``."""

    def neg(a):
        return imp(a, bot)

    return {
        Not: lambda x, a: neg(a),
        Or: lambda x, a, b: imp(neg(a), b),
        And: lambda x, a, b: neg(imp(neg(neg(a)), neg(b))),
        Sometime: lambda x, a: neg(always(neg(a))),
    }


_DESUGAR = _HOMOMORPHIC | _abbreviations(Implies, _BOT, Always)
# An abbreviation counts the nodes, and the temporal depth, of its expansion.
_COMPLEXITY = _table(
    lambda x: 0,
    lambda x, a: a + 1,
    lambda x, a, b: a + b + 1,
    _abbreviations(lambda a, b: a + b + 1, 0, lambda a: a + 1),
)
_DEPTH = _table(
    lambda x: 0,
    lambda x, a: a + 1,
    lambda x, a, b: max(a, b),
    {Until: lambda x, a, b: max(a, b) + 1} | _abbreviations(max, 0, lambda a: a + 1),
)
_FORMAT = _table(
    lambda x: x.name,
    lambda x, a: f"({_SYMBOL[type(x)]} {a})",
    lambda x, a, b: f"({a} {_SYMBOL[type(x)]} {b})",
    {Bottom: lambda x: "bot"},
)
_LENGTH = _table(
    lambda x: len(x.name),
    lambda x, a: a + len(_SYMBOL[type(x)]) + 3,
    lambda x, a, b: a + b + len(_SYMBOL[type(x)]) + 4,
    {Bottom: lambda x: 3},
)
_NESTING = _table(lambda x: 0, lambda x, a: a + 1, lambda x, a, b: max(a, b) + 1)
_ATOMS = _table(lambda x: frozenset((x.name,)), lambda x, a: a, lambda x, a, b: a | b, {Bottom: lambda x: frozenset()})


def format_formula(f: Formula) -> str:
    """Concrete syntax; inverse of the parsers on every AST."""
    return _fold(f, _FORMAT)


def format_length(f: Formula) -> int:
    """``len(format_formula(f))``, without building the text."""
    return _fold(f, _LENGTH)


def format_nesting(*fs: Formula) -> int:
    """How deep the parentheses of the printed ``fs`` nest, at the deepest:
    the depth the parsers bound by :data:`MAX_NESTING`.  One walk over the
    objects of all ``fs``, however many of them they share."""
    memo: dict[int, object] = {}
    return max((_fold_from(f, _NESTING, memo) for f in fs), default=0)


def desugar(f: Formula) -> Formula:
    """Expand ``~``, ``|``, ``&`` and ``F`` into the core connectives.

    Uses exactly: ``~a = a -> bot``, ``a | b = (~a) -> b``,
    ``a & b = ~(~a | ~b)`` and ``F a = ~(G (~a))``.

    Sharing: within one call each input object maps to one output object,
    so shared subformulas stay shared and the walk is linear in distinct
    objects.  A subformula with no abbreviation below it comes back as the
    very object passed in, so a core formula keeps its identity.  No
    result is kept across calls.
    """
    return _fold(f, _DESUGAR)


def complexity(f: Formula) -> int:
    """Number of connective/temporal-operator nodes of ``desugar(f)``,
    counting a shared subformula at each of its occurrences."""
    return _fold(f, _COMPLEXITY)


def temporal_depth(f: Formula) -> int:
    """Maximum nesting depth of temporal operators.

    ``G``, ``X``, ``H``, ``U`` and ``F`` add one level each; ``->``, ``~``,
    ``|`` and ``&`` add none.  This is the depth of ``desugar(f)`` too.
    """
    return _fold(f, _DEPTH)


# The history language's core table: _DESUGAR without Until.
_HISTORY_CORE = {cls: rule for cls, rule in _DESUGAR.items() if cls is not Until}


def _fold_checked(f: Formula, rules: dict):
    """``_fold(f, rules)`` for a table that lacks ``Hist`` (the until
    language) or ``Until`` (the history language); ``ValueError`` when
    ``f`` is not a formula of that language.  A rule's ``KeyError`` or
    ``TypeError`` would read as that, so no rule may raise either."""
    try:
        return _fold(f, rules)
    except (KeyError, TypeError):
        language = "an until-language" if Hist not in rules else "a history-language"
        raise ValueError(f"not {language} formula: {format_formula(f)}") from None


# Local grammar, for desugared history formulas: H may only occur under G or
# X, whose bodies are unconstrained.  Callers may fold it with their own memo.
_LOCAL = _table(lambda x: True, lambda x, a: True, lambda x, a, b: a and b, {Hist: lambda x, a: False})


def is_local(f: Formula) -> bool:
    """True iff ``H`` occurs in ``desugar(f)`` only under ``G`` or ``X``.

    A local formula keeps its truth value under replacement of every
    observation-sequence element but the last; any other history-language
    formula may need the last two.  ``ValueError`` outside that language.
    """
    return _fold(_fold_checked(f, _HISTORY_CORE), _LOCAL)


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of the atoms that occur in ``f``."""
    return _fold(f, _ATOMS)
