import pytest
from hypothesis import given, settings, strategies as st

from nabla.formulas import (
    Always,
    And,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    LocalClass,
    Next,
    Not,
    Or,
    ParseError,
    Sometime,
    Until,
    classify_local,
    complexity,
    desugar,
    format_formula,
    format_length,
    in_until_language,
    parse_h,
    parse_ltl,
)

P, Q = Atom("p"), Atom("q")


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


def test_whitespace_insensitive():
    assert parse_ltl("( p ->   ( X q ) )") == Implies(P, Next(Q))


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
    parser = parse_ltl if in_until_language(f) else parse_h
    assert parser(text) == f
    assert format_length(f) == len(text)


@settings(max_examples=300)
@given(st.one_of(until_formulas(), history_formulas()))
def test_desugar_idempotent_and_monotone(f):
    g = desugar(f)
    assert is_desugared(g)
    assert desugar(g) is g  # a core formula keeps its identity
    assert _size(g) >= _size(f)


def test_complexity_examples():
    assert complexity(P) == 0
    assert complexity(Implies(Always(P), Next(Until(P, Bottom())))) == 4
    assert complexity(Hist(P)) == 1


def test_classify_local_examples():
    assert classify_local(Always(Hist(P))) is LocalClass.LOCAL
    assert classify_local(Hist(P)) is LocalClass.HIST_ONLY
    assert classify_local(Implies(P, Hist(Q))) is LocalClass.HIST_ONLY


@settings(max_examples=300)
@given(history_formulas())
def test_classify_never_neither(f):
    assert classify_local(f) in (LocalClass.LOCAL, LocalClass.HIST_ONLY)


@settings(max_examples=200)
@given(until_formulas())
def test_language_membership(f):
    assert in_until_language(f)
    assert in_until_language(desugar(f))


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError):
        parse_ltl("G")
    assert parse_ltl("gp") == Atom("gp")
