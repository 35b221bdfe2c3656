import itertools
import random

import pytest

from nabla.derived import (
    NonParametricLabel,
    NotATautology,
    NotLocalFormula,
    NotPropositional,
    SchemaMismatch,
    ShapeMismatch,
    derive_tautology,
    expand,
    mp_compose,
    nec_g,
    nec_x,
)
from nabla.formulas import (
    And,
    Atom,
    Bottom,
    Hist,
    Implies,
    Next,
    Or,
    Sometime,
    Always,
    desugar,
    parse_h,
    parse_ltl,
)
from nabla.kernel import Apply, Assume, Le, Lwff, check, normalize_generic

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def _expanded_report(node):
    out = expand(node)
    report = check(out)
    return out, report


def test_andI_expansion():
    d1 = Assume(1, Lwff(("b",), P))
    d2 = Assume(2, Lwff(("b",), Q))
    node = Apply(3, "andI", Lwff(("b",), And(P, Q)), (d1, d2))
    _, report = _expanded_report(node)
    assert report.accepted
    assert normalize_generic(node.conclusion) == normalize_generic(report.conclusion)
    assert report.open_assumptions == {normalize_generic(d1.formula), normalize_generic(d2.formula)}


def test_andE_expansions():
    d = Assume(1, Lwff(("b",), And(P, Q)))
    for rule, want in (("andE1", P), ("andE2", Q)):
        node = Apply(2, rule, Lwff(("b",), want), (d,))
        _, report = _expanded_report(node)
        assert report.accepted
        assert report.open_assumptions == {normalize_generic(d.formula)}


def test_orI_expansions():
    d = Assume(1, Lwff(("b",), P))
    left = Apply(2, "orIl", Lwff(("b",), Or(P, Q)), (d,))
    _, report = _expanded_report(left)
    assert report.accepted and report.open_assumptions == {normalize_generic(d.formula)}
    d2 = Assume(3, Lwff(("b",), Q))
    right = Apply(4, "orIr", Lwff(("b",), Or(P, Q)), (d2,))
    _, report = _expanded_report(right)
    assert report.accepted and report.open_assumptions == {normalize_generic(d2.formula)}


def test_orE_expansion_discharges_cases():
    d0 = Assume(1, Lwff(("b",), Or(P, Q)))
    ha = Assume(2, Lwff(("b",), P))
    hb = Assume(3, Lwff(("b",), Q))
    use_a = Apply(4, "orIl", Lwff(("b",), Or(P, Q)), (ha,))
    use_b = Apply(5, "orIr", Lwff(("b",), Or(P, Q)), (hb,))
    node = Apply(6, "orE", Lwff(("b",), Or(P, Q)), (d0, use_a, use_b), (ha, hb))
    _, report = _expanded_report(node)
    assert report.accepted
    assert report.open_assumptions == {normalize_generic(d0.formula)}


def test_FI_FE_expansions():
    d1 = Assume(1, Lwff(("b", "c"), P))
    r = Assume(2, Le("b", "c"))
    fi = Apply(3, "FI", Lwff(("b",), Sometime(P)), (d1, r))
    _, report = _expanded_report(fi)
    assert report.accepted
    assert report.open_assumptions == {normalize_generic(d1.formula), Le("b", "c")}
    # FE: from b : F p and a hypothetical use of the witness, conclude b : F p
    d0 = Assume(4, Lwff(("b",), Sometime(P)))
    hr = Assume(5, Le("b", "w"))
    ha = Assume(6, Lwff(("b", "w"), P))
    inner = Apply(7, "FI", Lwff(("b",), Sometime(P)), (ha, hr))
    fe = Apply(8, "FE", Lwff(("b",), Sometime(P)), (d0, inner), (hr, ha))
    _, report = _expanded_report(fe)
    assert report.accepted
    assert report.open_assumptions == {normalize_generic(d0.formula)}


def test_FE_witness_freshness_is_rechecked():
    # the witness label also names an undischarged open assumption: the GI
    # inside the expansion must reject it
    d0 = Assume(1, Lwff(("b",), Sometime(P)))
    hr = Assume(2, Le("b", "w"))
    ha = Assume(3, Lwff(("b", "w"), P))
    stray = Assume(4, Lwff(("w", "b"), Q))
    imp = Assume(5, Lwff(("w", "b"), Implies(Q, Sometime(P))))
    use = Apply(6, "impE", Lwff(("w", "b"), Sometime(P)), (imp, stray))
    back = Apply(7, "last", Lwff(("b",), Sometime(P)), (use,))
    fe = Apply(8, "FE", Lwff(("b",), Sometime(P)), (d0, back), (hr, ha))
    out = expand(fe)
    report = check(out)
    assert not report.accepted
    assert report.reason == "FreshnessViolation"


def test_expansion_schema_mismatch():
    d = Assume(1, Lwff(("b",), P))
    node = Apply(2, "andE1", Lwff(("b",), P), (d,))
    with pytest.raises(SchemaMismatch):
        expand(node)


def test_desugared_connective_patterns_accepted():
    # the elimination templates also fire on spelled-out abbreviations
    spelled = desugar(And(P, Q))
    d = Assume(1, Lwff(("b",), spelled))
    node = Apply(2, "andE2", Lwff(("b",), Q), (d,))
    _, report = _expanded_report(node)
    assert report.accepted


def test_mp_compose_examples():
    t1 = derive_tautology(parse_ltl("(p -> p)"), "b")
    t2 = derive_tautology(parse_ltl("((p -> p) -> (q -> q))"), "b")
    out = mp_compose(t1, t2)
    report = check(out)
    assert report.accepted and not report.open_assumptions
    assert desugar(report.conclusion.formula) == desugar(parse_ltl("(q -> q)"))
    with pytest.raises(ShapeMismatch):
        mp_compose(derive_tautology(parse_ltl("(p -> p)"), "c"), t2)
    with pytest.raises(ShapeMismatch):
        mp_compose(derive_tautology(parse_ltl("(q -> q)"), "b"), nec_g(t1))


def test_nec_g_and_nec_x():
    t = derive_tautology(parse_ltl("(p -> p)"), "b")
    for nec, op in ((nec_g, Always), (nec_x, Next)):
        out = nec(t)
        report = check(out)
        assert report.accepted and not report.open_assumptions
        assert report.conclusion.seq == ("b",)
        assert desugar(report.conclusion.formula) == desugar(op(Implies(P, P)))


def test_nec_rejects_open_or_history_input():
    open_leaf = Assume(1, Lwff(("b",), P))
    with pytest.raises(ShapeMismatch):
        nec_g(open_leaf)
    hist_leaf = Assume(2, Lwff(("b",), Hist(P)))
    with pytest.raises(NotLocalFormula):
        nec_g(hist_leaf)
    # closed proof whose conclusion carries a sequence, not a single label
    t = derive_tautology(parse_ltl("(p -> p)"), "b")
    from nabla.kernel import max_node_id

    lifted = Apply(max_node_id(t) + 1, "last", Lwff(("c", "b"), Implies(P, P)), (t,))
    with pytest.raises(NonParametricLabel):
        nec_x(lifted)


def test_derive_tautology_examples():
    for text in ("(((p -> q) -> p) -> p)", "(p | (~ p))", "((~ (~ p)) -> p)"):
        f = parse_ltl(text)
        d = derive_tautology(f, "b")
        report = check(d)
        assert report.accepted and not report.open_assumptions
        assert desugar(report.conclusion.formula) == desugar(f)
    with pytest.raises(NotATautology):
        derive_tautology(parse_ltl("(p -> q)"), "b")
    # Each temporal operator is refused, also around a tautology and under
    # a propositional connective.
    refused = [parse_ltl(text) for text in ("((X p) -> (X p))", "((G p) -> (G p))", "((p U q) -> (p U q))", "(p | (~ (F p)))")]
    for f in refused + [parse_h("((H p) -> (H p))")]:
        with pytest.raises(NotPropositional):
            derive_tautology(f, "b")


def test_derive_tautology_builds_each_formula_once():
    # check and serialize work once per formula object, so the proof holds
    # one object per formula and one judgement per object.
    from nabla.kernel import all_nodes

    root = derive_tautology(parse_ltl("((((p & q) -> r) -> (p & q)) -> (p & q))"), "b")
    judgements = [n.conclusion for n in all_nodes(root)]
    objects: dict = {}
    for w in judgements:
        objects.setdefault(w.formula, set()).add(id(w.formula))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len({id(w) for w in judgements}) == len({id(w.formula) for w in judgements})


def test_derive_tautology_enumerated_small_tautologies():
    from nabla.gen import random_until_formula
    from nabla.formulas import atoms_of

    rng = random.Random(12)
    found = 0
    while found < 25:
        from nabla.formulas import Until

        f = random_until_formula(rng, rng.randint(1, 5))
        g = desugar(f)
        if any(isinstance(x, (Always, Next, Until)) for x in _walk(g)):
            continue
        names = sorted(atoms_of(g))
        if len(names) > 3:
            continue
        if not all(_eval(g, dict(zip(names, bits))) for bits in itertools.product([False, True], repeat=len(names))):
            continue
        d = derive_tautology(f, "w")
        report = check(d)
        assert report.accepted and not report.open_assumptions
        assert desugar(report.conclusion.formula) == g
        found += 1


def _walk(f):
    yield f
    for name in ("left", "right", "operand"):
        sub = getattr(f, name, None)
        if sub is not None:
            yield from _walk(sub)


def _eval(f, v):
    if isinstance(f, Atom):
        return v[f.name]
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Implies):
        return (not _eval(f.left, v)) or _eval(f.right, v)
    raise TypeError(f)
