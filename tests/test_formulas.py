import pytest
from hypothesis import given, settings, strategies as st

from nabla import formulas, translate as translate_module
from nabla.formulas import (
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
    ParseError,
    Sometime,
    Until,
    atoms_of,
    complexity,
    desugar,
    format_formula,
    format_length,
    in_history_language,
    in_until_language,
    is_local,
    parse_h,
    parse_ltl,
    temporal_depth,
)
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
    fold, tables = formulas._fold, []

    def recording(f, rules):
        tables.append(rules)
        return fold(f, rules)

    monkeypatch.setattr(formulas, "_fold", recording)
    monkeypatch.setattr(translate_module, "_fold", recording)
    f = parse_ltl("((p U (~ q)) & (F (G (X (p | bot)))))")
    for walk in (format_formula, format_length, desugar, complexity, temporal_depth, in_until_language, in_history_language, atoms_of, translate):
        tables.clear()
        walk(f)
        assert tables and all(set(rules) == NODE_CLASSES for rules in tables), walk.__name__


@pytest.mark.parametrize("junk", ["p", 3, None, Implies(P, "q"), Always(Or(P, 3))])
def test_walks_reject_a_non_formula(junk):
    for walk in (desugar, format_formula, format_length, atoms_of):
        with pytest.raises(TypeError):
            walk(junk)
    assert not in_until_language(junk) and not in_history_language(junk)


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
    for f in (x, g):
        assert (complexity(f), temporal_depth(f)) == (size, 41)
        assert atoms_of(f) == {"p"} and in_history_language(f)
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
    assert temporal_depth(y) == 30 and not in_history_language(y)
    assert (format_length(t), complexity(t), temporal_depth(t), complexity(g), temporal_depth(g)) == (length, size, 60, size, 60)
    assert atoms_of(t) == {"p", "q"} and in_history_language(t)
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
    assert in_until_language(f)
    assert in_until_language(desugar(f))


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError):
        parse_ltl("G")
    assert parse_ltl("gp") == Atom("gp")
