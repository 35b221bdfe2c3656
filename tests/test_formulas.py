import pytest
from hypothesis import example, given, settings, strategies as st

from nabla import formulas
from nabla.formulas import (
    Always,
    And,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    MAX_NESTING,
    Next,
    Not,
    Or,
    ParseError,
    Sometime,
    Until,
    atoms_of,
    complexity,
    desugar,
    format_formula,
    format_length,
    format_nesting,
    is_local,
    parse_h,
    parse_ltl,
    temporal_depth,
)
from nabla.kernel import Lwff
from nabla.scripts import ScriptError, parse_script
from nabla.semantics import HorizonTooSmall, LassoModel, eval_h, eval_h_oracle, eval_ltl, falsify_consequence
from nabla.translate import translate

P, Q = Atom("p"), Atom("q")
NODE_CLASSES = {Atom, Bottom, Implies, Always, Next, Until, Hist, Not, Or, And, Sometime}


def is_desugared(f: Formula) -> bool:
    """Reference for desugar's output: only the core connectives remain."""
    match f:
        case Atom() | Bottom():
            return True
        case Implies(a, b) | Until(a, b):
            return is_desugared(a) and is_desugared(b)
        case Always(a) | Next(a) | Hist(a):
            return is_desugared(a)
    return False


def free_of(f: Formula, cls: type) -> bool:
    """Reference for the language checks: no node of class ``cls`` in ``f``.

    Visits each object once, so it stays linear on formulas of few objects
    and a huge tree, such as those of ``_check_shared_walks``."""
    seen, todo = set(), [f]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, cls):
            return False
        todo.extend(getattr(x, name) for name in ("left", "right", "operand") if hasattr(x, name))
    return True


def atoms():
    return st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Atom("x_1"), Bottom()])


def until_formulas(max_leaves=50):
    return st.recursive(
        atoms(),
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub),
            st.builds(Always, sub),
            st.builds(Next, sub),
            st.builds(Until, sub, sub),
            st.builds(Not, sub),
            st.builds(Or, sub, sub),
            st.builds(And, sub, sub),
            st.builds(Sometime, sub),
        ),
        max_leaves=max_leaves,
    )


def history_formulas(max_leaves=50):
    return st.recursive(
        atoms(),
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub),
            st.builds(Always, sub),
            st.builds(Next, sub),
            st.builds(Hist, sub),
            st.builds(Not, sub),
            st.builds(Or, sub, sub),
            st.builds(And, sub, sub),
            st.builds(Sometime, sub),
        ),
        max_leaves=max_leaves,
    )


def test_parse_until_examples():
    assert parse_ltl("(p U q)") == Until(P, Q)
    assert parse_ltl("bot") == Bottom()
    assert parse_ltl("(G (p -> (X p)))") == Always(Implies(P, Next(P)))


def test_parse_history_examples():
    assert parse_h("(H p)") == Hist(P)
    assert parse_h("(p | q)") == Or(P, Q)
    with pytest.raises(ParseError):
        parse_h("(p U q)")


def test_parsers_reject_foreign_operator():
    with pytest.raises(ParseError):
        parse_ltl("(H p)")
    with pytest.raises(ParseError):
        parse_h("(p U q)")


def test_parse_error_carries_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse_ltl("(p ->")
    assert err.value.offset == 5
    assert err.value.expected
    with pytest.raises(ParseError) as err:
        parse_h("(p U q)")
    assert err.value.offset == 3
    # The foreign operator of each language, and a binary H, which is no
    # operator of either language.
    formula, binary = {"(", "bot", "identifier"}, {"&", "->", "|"}
    for parse, text, message, offset, expected in [
        (parse_ltl, "(G (H p))", "operator 'H' not in this language", 4, formula),
        (parse_ltl, "(p H q)", "unexpected token 'H'", 3, binary | {"U"}),
        (parse_h, "((p & q) U r)", "operator 'U' not in this language", 9, binary),
        (parse_h, "(U p)", "unexpected token 'U'", 1, formula),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        listed = ", ".join(sorted(expected))
        assert (str(err.value), err.value.offset, err.value.expected) == (f"{message} at offset {offset} (expected one of: {listed})", offset, expected), text
    with pytest.raises(ScriptError) as err:
        parse_script("assume 1 lwff b : (p U q)\nroot 1\n")
    cause = err.value.__context__
    assert str(err.value) == "line 1: bad formula: operator 'U' not in this language at offset 4 (expected one of: &, ->, |)"
    assert (cause.offset, cause.expected) == (4, binary)


def test_whitespace_insensitive():
    assert parse_ltl("( p ->   ( X q ) )") == Implies(P, Next(Q))


# --- the parser against a reference -----------------------------------------
#
# The parser before its tokens came from one compiled pattern, kept as the
# reference: a scan of the text one character at a time, then recursive
# descent over (token, offset) pairs.


def _ref_tokenize(text, partial=False):
    tokens = []
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


class ReferenceParser:
    def __init__(self, text, foreign, partial=False, shared=None):
        self.tokens = _ref_tokenize(text, partial)
        self.pos = 0
        self.depth = 0
        self.foreign = foreign
        self.shared = {} if shared is None else shared

    def make(self, key, cls, *args):
        f = self.shared.get(key)
        if f is None:
            f = self.shared[key] = cls(*args)
        return f

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok, off = self.peek()
        return ParseError(f"unexpected token {tok!r}", off, frozenset(expected))

    def formula(self):
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
        if tok.isidentifier() and tok not in formulas.RESERVED:
            return self.make((tok,), Atom, tok)
        self.pos -= 1
        raise self.fail({"identifier", "bot", "("})

    def parenthesized(self):
        tok, off = self.peek()
        if tok in formulas._UNARY:
            if tok == self.foreign:
                raise ParseError(f"operator {tok!r} not in this language", off, frozenset({"identifier", "bot", "("}))
            self.next()
            operand = self.formula()
            self.expect(")")
            return self.make((tok, id(operand)), formulas._UNARY[tok], operand)
        left = self.formula()
        op, op_off = self.next()
        if op not in formulas._BINARY or op == self.foreign:
            ops = formulas._BINARY.keys() - {self.foreign}
            if op in formulas._BINARY:
                raise ParseError(f"operator {op!r} not in this language", op_off, frozenset(ops))
            self.pos -= 1
            raise self.fail(ops)
        right = self.formula()
        self.expect(")")
        return self.make((op, id(left), id(right)), formulas._BINARY[op], left, right)

    def expect(self, tok):
        got, off = self.next()
        if got != tok:
            self.pos -= 1
            raise self.fail({tok})

    def run(self):
        f = self.formula()
        if self.peek()[0] != "<end>":
            raise self.fail({"<end>"})
        return f


def reference_prefix(text, foreign):
    """The reference's partial parse: the formula and the offset where it stops."""
    parser = ReferenceParser(text, foreign, partial=True)
    f = parser.formula()
    return f, parser.peek()[1]


def _distinct_objects(f):
    seen, stack = set(), [f]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            stack.extend(y for y in vars(x).values() if isinstance(y, Formula))
    return len(seen)


def _parse_outcome(parse, text):
    try:
        f = parse(text)
    except ParseError as e:
        return ("error", str(e), e.offset, e.expected)
    if isinstance(f, tuple):  # a partial parse: the formula and where it stops
        f, stop = f
        return ("ok", f, _distinct_objects(f), stop)
    return ("ok", f, _distinct_objects(f))


# Characters where a regular-expression class and a scan by str methods could
# part: "_" and the digits are word characters but no letters, "²" is a digit
# but no decimal, "Ⅷ" is numeric and an identifier but no letter, "é" is a
# letter beyond ASCII; "-" and ">" alone are no tokens.
_PARSE_ALPHABET = "()~|&->pqboxtGXFHU01_$é²Ⅷ \t\n"
_PARSE_PIECES = ["(", ")", "~ ", " | ", " & ", " -> ", " U ", "H ", "G ", "X ", "F ", "p", "q", "bot", " ", "²", "Ⅷ", "_", "é", "$", "-", ">", "1", "prem"]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(_PARSE_ALPHABET, max_size=30), st.lists(st.sampled_from(_PARSE_PIECES), max_size=24).map("".join)))
@example("²x")
@example("Ⅷ")
@example("_")
@example("p²")
@example("(p²x -> é) Ⅷ")
@example("(p -> (H q)) prem 1,2")
def test_parser_agrees_with_the_reference(text):
    assert_parses_as_the_reference(text)


def assert_parses_as_the_reference(text):
    for foreign, parse in (("H", parse_ltl), ("U", parse_h)):
        assert _parse_outcome(parse, text) == _parse_outcome(lambda t: ReferenceParser(t, foreign).run(), text)
        assert _parse_outcome(lambda t: formulas._Parser(t, foreign).prefix(), text) == _parse_outcome(
            lambda t: reference_prefix(t, foreign), text
        )


def test_parser_agrees_with_the_reference_at_the_nesting_limit():
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        for text in ("(G " * depth + "p" + ")" * depth, "(X " * depth + "p" + ")" * depth + " $", "(~ " * depth + "p"):
            assert_parses_as_the_reference(text)


def test_desugar_paper_abbreviations():
    assert desugar(Not(P)) == Implies(P, Bottom())
    assert desugar(Sometime(P)) == Implies(Always(Implies(P, Bottom())), Bottom())
    assert desugar(Or(P, Q)) == Implies(Implies(P, Bottom()), Q)
    assert desugar(P) == P


def _size(f: Formula) -> int:
    return 1 + sum(_size(getattr(f, name)) for name in ("left", "right", "operand") if hasattr(f, name))


@settings(max_examples=300)
@given(st.one_of(until_formulas(), history_formulas()))
def test_roundtrip_print_parse(f):
    text = format_formula(f)
    parser = parse_ltl if free_of(f, Hist) else parse_h
    assert parser(text) == f
    assert format_length(f) == len(text)
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    assert format_nesting(f) == deepest


@settings(max_examples=300)
@given(st.one_of(until_formulas(), history_formulas()))
def test_desugar_idempotent_and_monotone(f):
    g = desugar(f)
    assert is_desugared(g)
    assert desugar(g) is g  # a core formula keeps its identity
    assert _size(g) >= _size(f)
    # Both measures read abbreviations without desugaring them.
    assert (complexity(f), temporal_depth(f)) == (complexity(g), temporal_depth(g))


def test_complexity_examples():
    assert complexity(P) == 0
    assert complexity(Implies(Always(P), Next(Until(P, Bottom())))) == 4
    assert complexity(Hist(P)) == 1


def test_temporal_depth_counts_every_temporal_operator():
    for text, depth in [("(p U q)", 1), ("(F p)", 1), ("((p U (X q)) & r)", 2), ("(~ ((F (G p)) | q))", 2), ("((p -> q) & (~ r))", 0)]:
        assert temporal_depth(parse_ltl(text)) == depth, text
    assert temporal_depth(parse_h("(H (p | (X q)))")) == 2


def test_every_walk_folds_a_table_of_all_node_classes(monkeypatch):
    # A language entry's table lacks exactly the other language's operator.
    fold, tables = formulas._fold, []

    def recording(f, rules):
        tables.append(rules)
        return fold(f, rules)

    monkeypatch.setattr(formulas, "_fold", recording)
    f = parse_ltl("((p U (~ q)) & (F (G (X (p | bot)))))")
    h = parse_h("((H (~ q)) & (F (G (X (p | bot)))))")
    m = LassoModel((), (frozenset({"p"}),))
    until_entries = {"translate": translate, "eval_ltl": lambda g: eval_ltl(m, 0, g)}
    history_entries = {
        "is_local": is_local,
        "eval_h": lambda g: eval_h(m, (0, 1), g),
        "eval_h_oracle": lambda g: eval_h_oracle(m, (0,), g, 50),
        "falsify_consequence": lambda g: falsify_consequence([Lwff(("b",), g)], Lwff(("b",), Bottom()), 3, 1),
    }
    walks = [(walk.__name__, walk, f, None) for walk in (format_formula, format_length, desugar, complexity, temporal_depth, atoms_of)]
    walks += [(name, walk, f, Hist) for name, walk in until_entries.items()]
    walks += [(name, walk, h, Until) for name, walk in history_entries.items()]
    for name, walk, g, foreign in walks:
        tables.clear()
        walk(g)
        kinds, language = [set(rules) for rules in tables], NODE_CLASSES - {foreign}
        assert language in kinds and all(k in (NODE_CLASSES, language) for k in kinds), name


@pytest.mark.parametrize("junk", ["p", 3, None, Implies(P, "q"), Always(Or(P, 3))])
def test_walks_reject_a_non_formula(junk):
    m = LassoModel((), (frozenset({"p"}),))
    for walk in (desugar, format_formula, format_length, format_nesting, atoms_of, is_local, translate, lambda g: eval_ltl(m, 0, g)):
        with pytest.raises(TypeError):
            walk(junk)


def _check_shared_walks():
    """Walk two formulas of about 2^40 and 2^30 tree nodes but few objects,
    and compare with recurrences over their levels."""
    # x(k+1) = (x(k) & (F x(k))), one object per level.
    x, length, size = Hist(P), 5, 1
    for _ in range(40):
        x = And(x, Sometime(x))
        length, size = 2 * length + 9, 2 * size + 8
    g = desugar(x)
    assert desugar(g) is g
    assert format_length(x) == length
    # A level adds two to x's nesting and six to g's, desugared (F x) & x.
    assert (format_nesting(x), format_nesting(x, g)) == (2 * 40 + 1, 6 * 40 + 1)
    for f in (x, g):
        assert (complexity(f), temporal_depth(f)) == (size, 41)
        assert atoms_of(f) == {"p"} and free_of(f, Until)
    assert not is_local(x)
    # y(k+1) = (q U y(k)); its image is t(k+1) = (t | (F ((X t) & (H q)))),
    # with t = t(k) one object.
    y, length, size = P, 1, 0
    for _ in range(30):
        y = Until(Q, y)
        length, size = 2 * length + 23, 2 * size + 12
    t = translate(y)
    g = desugar(t)
    assert desugar(g) is g
    assert temporal_depth(y) == 30 and not free_of(y, Until)
    assert (format_length(t), complexity(t), temporal_depth(t), complexity(g), temporal_depth(g)) == (length, size, 60, size, 60)
    assert atoms_of(t) == {"p", "q"} and free_of(t, Until)
    assert is_local(t)


def test_walks_are_linear_in_shared_objects(run_in_child):
    run_in_child("test_formulas", "_check_shared_walks")


def test_is_local_examples():
    assert is_local(Always(Hist(P))) is True
    assert is_local(Hist(P)) is False
    assert is_local(Implies(P, Hist(Q))) is False
    assert is_local(Next(And(P, Hist(Q)))) is True
    assert is_local(Or(P, Hist(Q))) is False  # desugared first: H under ->
    with pytest.raises(ValueError):
        is_local(Until(P, Q))


def hist_only_under_g_or_x(f: Formula) -> bool:
    """Reference for is_local on a desugared history formula."""
    match f:
        case Hist():
            return False
        case Implies(a, b):
            return hist_only_under_g_or_x(a) and hist_only_under_g_or_x(b)
    return True


@settings(max_examples=300)
@given(history_formulas())
def test_classify_never_neither(f):
    # Every history formula is classified, local or not, as the grammar says.
    assert is_local(f) is hist_only_under_g_or_x(desugar(f))


@settings(max_examples=200)
@given(until_formulas())
def test_language_membership(f):
    assert free_of(f, Hist)
    assert free_of(desugar(f), Hist)


def mixed_formulas(max_leaves=30):
    return st.recursive(
        atoms(),
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub),
            st.builds(Always, sub),
            st.builds(Next, sub),
            st.builds(Until, sub, sub),
            st.builds(Hist, sub),
            st.builds(Not, sub),
            st.builds(Or, sub, sub),
            st.builds(And, sub, sub),
            st.builds(Sometime, sub),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=300, deadline=None)
@given(mixed_formulas())
def test_entries_reject_exactly_the_foreign_operator(f):
    m = LassoModel((frozenset({"p"}),), (frozenset({"q"}), frozenset()))

    def oracle(g):
        # The language is checked before the horizon, and a horizon of 0
        # stops the oracle there, whose cost grows as the horizon to the
        # nesting of G.
        with pytest.raises(HorizonTooSmall):
            eval_h_oracle(m, (0, 1), g, 0)

    until = {"translate": translate, "eval_ltl": lambda g: eval_ltl(m, 1, g)}
    history = {
        "is_local": is_local,
        "eval_h": lambda g: eval_h(m, (0, 1), g),
        "eval_h_oracle": oracle,
        "falsify_consequence": lambda g: falsify_consequence([Lwff(("b", "c"), g)], Lwff(("b",), Bottom()), 3, 1),
    }
    for entries, foreign, language in ((until, Hist, "an until-language"), (history, Until, "a history-language")):
        for name, entry in entries.items():
            if free_of(f, foreign):
                entry(f)
            else:
                with pytest.raises(ValueError) as err:
                    entry(f)
                assert str(err.value) == f"not {language} formula: {format_formula(f)}", name


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError):
        parse_ltl("G")
    assert parse_ltl("gp") == Atom("gp")
