"""Formula ASTs for the two object languages, with parsing and printing.

Two closely related languages share one node hierarchy:

* the "until" language: atoms, bot, ``->``, ``G``, ``X``, ``U``;
* the "history" language: atoms, bot, ``->``, ``G``, ``X``, ``H``.

``~``, ``|``, ``&`` and ``F`` are definitional abbreviations available in
both languages; :func:`desugar` expands them.  Each language is defined
once, by its core table: ``_UNTIL_CORE`` and ``_HISTORY_CORE`` are the
desugaring rules without the foreign operator (``H`` resp. ``U``), and
``_fold_checked`` folds a formula with such a table and raises
``ValueError`` outside its language, so one walk both checks and
desugars (or translates).  The two parsers reject the foreign operator.

The parsers intern the nodes of one text (see ``_Parser``), so equal
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

    ``offset`` is the byte offset of the offending token; ``expected`` is
    the set of token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset} (expected one of: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected


MAX_NESTING = 32

RESERVED = frozenset({"bot", "G", "X", "F", "H", "U"})

_UNARY = {"G": Always, "X": Next, "F": Sometime, "H": Hist, "~": Not}
_BINARY = {"->": Implies, "|": Or, "&": And, "U": Until}


def _tokenize(text: str, partial: bool = False) -> list[tuple[str, int]]:
    # partial: stop at the first non-formula character instead of raising,
    # so one formula can be parsed out of a longer line.
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()~|&":
            tokens.append((ch, i))
            i += 1
        elif ch == "-":
            if text.startswith("->", i):
                tokens.append(("->", i))
                i += 2
            elif partial:
                break
            else:
                raise ParseError(f"stray {ch!r}", i, frozenset({"->"}))
        elif ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
        elif partial:
            break
        else:
            raise ParseError(f"unexpected character {ch!r}", i, frozenset({"identifier", "("}))
    tokens.append(("<end>", i if partial else n))
    return tokens


class _Parser:
    """Recursive-descent parser over one text.

    Nodes are interned in ``shared``, keyed on the atom name or on the
    operator and the ``id`` of each child, so structurally equal
    subformulas come back as one object.  A caller may pass one table to
    several parsers to share across texts; the table holds every node its
    keys name, so no ``id`` in it can be reused while it lives.
    """

    def __init__(self, text: str, foreign: str, partial: bool = False, shared=None):
        self.tokens = _tokenize(text, partial)
        self.pos = 0
        self.depth = 0
        self.foreign = foreign  # the other language's operator, "U" or "H"
        self.shared: dict[tuple, Formula] = {} if shared is None else shared

    def make(self, key: tuple, cls: type, *args) -> Formula:
        f = self.shared.get(key)
        if f is None:
            f = self.shared[key] = cls(*args)
        return f

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: set[str]) -> ParseError:
        tok, off = self.peek()
        return ParseError(f"unexpected token {tok!r}", off, frozenset(expected))

    def formula(self) -> Formula:
        tok, off = self.next()
        if tok == "bot":
            return self.make(("bot",), Bottom)
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", off, frozenset({"identifier", "bot"}))
            self.depth += 1
            f = self.parenthesized()
            self.depth -= 1
            return f
        if tok.isidentifier() and tok not in RESERVED:
            return self.make((tok,), Atom, tok)
        self.pos -= 1
        raise self.fail({"identifier", "bot", "("})

    def parenthesized(self) -> Formula:
        tok, off = self.peek()
        if tok in _UNARY:
            if tok == self.foreign:
                raise ParseError(f"operator {tok!r} not in this language", off, frozenset({"identifier", "bot", "("}))
            self.next()
            operand = self.formula()
            self.expect(")")
            return self.make((tok, id(operand)), _UNARY[tok], operand)
        left = self.formula()
        op, op_off = self.next()
        if op not in _BINARY or op == self.foreign:
            ops = _BINARY.keys() - {self.foreign}
            if op in _BINARY:
                raise ParseError(f"operator {op!r} not in this language", op_off, frozenset(ops))
            self.pos -= 1
            raise self.fail(ops)
        right = self.formula()
        self.expect(")")
        return self.make((op, id(left), id(right)), _BINARY[op], left, right)

    def expect(self, tok: str) -> None:
        got, off = self.next()
        if got != tok:
            self.pos -= 1
            raise self.fail({tok})

    def run(self) -> Formula:
        f = self.formula()
        if self.peek()[0] != "<end>":
            raise self.fail({"<end>"})
        return f


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


_DESUGAR = {
    **_HOMOMORPHIC,
    Not: lambda x, a: _not(a),
    Or: lambda x, a, b: Implies(_not(a), b),
    And: lambda x, a, b: _not(Implies(_not(_not(a)), _not(b))),
    Sometime: lambda x, a: _not(Always(_not(a))),
}
# An abbreviation counts the nodes of its expansion in _DESUGAR.
_COMPLEXITY = _table(
    lambda x: 0,
    lambda x, a: a + 1,
    lambda x, a, b: a + b + 1,
    {Or: lambda x, a, b: a + b + 2, And: lambda x, a, b: a + b + 5, Sometime: lambda x, a: a + 3},
)
_DEPTH = _table(
    lambda x: 0,
    lambda x, a: a + 1,
    lambda x, a, b: max(a, b),
    {Not: lambda x, a: a, Until: lambda x, a, b: max(a, b) + 1},
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
_ATOMS = _table(lambda x: frozenset((x.name,)), lambda x, a: a, lambda x, a, b: a | b, {Bottom: lambda x: frozenset()})


def format_formula(f: Formula) -> str:
    """Concrete syntax; inverse of the parsers on every AST."""
    return _fold(f, _FORMAT)


def format_length(f: Formula) -> int:
    """``len(format_formula(f))``, without building the text."""
    return _fold(f, _LENGTH)


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


# A language's core table: _DESUGAR without the other language's operator.
# A fold over one fails with KeyError on a foreign node and with TypeError
# on a non-formula.
_UNTIL_CORE = {cls: rule for cls, rule in _DESUGAR.items() if cls is not Hist}
_HISTORY_CORE = {cls: rule for cls, rule in _DESUGAR.items() if cls is not Until}


def _fold_checked(f: Formula, rules: dict):
    """``_fold(f, rules)`` for a table that lacks ``Hist`` (the until
    language) or ``Until`` (the history language); ``ValueError`` when
    ``f`` is not a formula of that language."""
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
