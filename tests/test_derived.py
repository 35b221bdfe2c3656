import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nabla import derived
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
    Not,
    Or,
    Sometime,
    Always,
    atoms_of,
    desugar,
    format_length,
    parse_h,
    parse_ltl,
)
from nabla.kernel import Apply, Assume, Le, Lwff, all_nodes, check, normalize_generic
from nabla.scripts import serialize

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
    root = derive_tautology(parse_ltl("((((p & q) -> r) -> (p & q)) -> (p & q))"), "b")
    judgements = [n.conclusion for n in all_nodes(root)]
    objects: dict = {}
    for w in judgements:
        objects.setdefault(w.formula, set()).add(id(w.formula))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len({id(w) for w in judgements}) == len({id(w.formula) for w in judgements})


def test_derive_tautology_enumerated_small_tautologies():
    from nabla.gen import random_until_formula

    rng = random.Random(12)
    found = 0
    while found < 25:
        from nabla.formulas import Until

        f = random_until_formula(rng, rng.randint(1, 5))
        g = desugar(f)
        if any(isinstance(x, (Always, Next, Until)) for x in _walk(g)):
            continue
        if len(atoms_of(g)) > 3 or not _is_tautology(g):
            continue
        d = derive_tautology(f, "w")
        report = check(d)
        assert report.accepted and not report.open_assumptions
        assert desugar(report.conclusion.formula) == g
        found += 1


def _props(atoms="pqrs"):
    """Propositional formulas over ``atoms`` with every connective."""
    leaves = st.sampled_from([Atom(a) for a in atoms] + [Bottom()])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(lambda x: Implies(x, Bottom()), sub),
        ),
        max_leaves=6,
    )


def _is_tautology(g):
    names = sorted(atoms_of(g))
    return all(_eval(g, dict(zip(names, bits))) for bits in itertools.product([False, True], repeat=len(names)))


@settings(max_examples=60, deadline=None)
@given(_props(), _props(), _props())
def test_derive_tautology_proves_tautologies_over_four_atoms(a, b, c):
    # a itself, then instances of tautology schemata, which are tautologies
    # whatever a, b and c are.
    candidates = [
        a,
        Implies(a, Implies(b, a)),
        Implies(Implies(Implies(a, b), a), a),
        Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c))),
        Implies(Implies(a, b), Implies(Implies(b, c), Or(Implies(a, Bottom()), c))),
        Or(And(a, b), Or(Implies(a, Bottom()), Implies(b, Bottom()))),
    ]
    for f in candidates:
        g = desugar(f)
        if not _is_tautology(g):
            with pytest.raises(NotATautology):
                derive_tautology(f, "b")
            continue
        report = check(derive_tautology(f, "b"))
        assert report.accepted and not report.open_assumptions, report.message
        assert report.conclusion == Lwff(("b",), g)


# A 5-atom instance of Peirce's law.  Its proof had 2098 nodes when every
# branch split every atom and re-derived every subformula, and 688 when the
# atoms were the only split variables; split on _A alone, it has the 25
# nodes of the proof of (((p -> q) -> p) -> p).  The bound keeps it from
# growing back.
_A = "(((p & q) | r) -> (s & t))"
PEIRCE5 = f"((({_A} -> p) -> {_A}) -> {_A})"
PEIRCE5_NODES = 25


def _nodes(text):
    root = derive_tautology(parse_ltl(text), "b")
    report = check(root)
    assert report.accepted and not report.open_assumptions, report.message
    assert report.conclusion == Lwff(("b",), desugar(parse_ltl(text)))
    return len(all_nodes(root))


def test_derive_tautology_splits_on_the_subformula_that_decides_it():
    # Instances of one-variable schemata get the proof of their schema,
    # whatever is substituted; with the atoms as split variables they had
    # 634, 706, 692 and 699 nodes.
    a, b = _A, "(q | (~ t))"
    instances = {
        f"({a} -> ({b} -> {a}))": "(p -> (q -> p))",
        f"((~ (~ {a})) -> {a})": "((~ (~ p)) -> p)",
        f"((({a} -> {b}) -> {a}) -> {a})": "(((p -> q) -> p) -> p)",
    }
    for instance, schema in instances.items():
        assert _nodes(instance) == _nodes(schema), instance
    assert [_nodes(text) for text in instances] == [18, 27, 25]
    # The split variable of excluded middle is (A -> bot), which occurs
    # twice; the schema's own proof splits on p.
    assert _nodes(f"({a} | (~ {a}))") == 17
    # No one subformula decides syllogism or S: the atoms stay the split
    # variables, as before.
    assert _nodes(f"(({a} -> {b}) -> (({b} -> p) -> ({a} -> p)))") == 295
    assert _nodes(f"(({a} -> ({b} -> p)) -> (({a} -> {b}) -> ({a} -> p)))") == 462


def test_derive_tautology_needs_a_true_value_either_way():
    # Decided with nothing assigned: no split.  Setting (bot -> bot), which
    # occurs twice, false would make ((bot & bot) -> bot) false: a definite
    # value either way is not enough to split on it.
    assert _nodes("(bot -> (p -> p))") == 6
    assert _nodes("((bot & bot) -> bot)") == 15
    # c occurs three times and no atom decides this formula; c false makes
    # it false, so its proof splits on the atoms.
    c = "((p -> q) -> (p -> q))"
    assert _nodes(f"(({c} -> {c}) -> {c})") == 42


def test_split_variable_search_is_linear_in_objects(monkeypatch):
    # A conjunction of m distinct (d -> d) over three atoms: each d occurs
    # twice and none decides the formula.  The count covers every _kleene
    # call: the case split walks the formula once per partial valuation of
    # the three atoms, and the search tests at most derived._CANDIDATES of
    # the d, so the evaluations grow with m; testing every one would make
    # them grow with m squared.
    p, q, r = Atom("p"), Atom("q"), Atom("r")

    def d_of(i):
        # Distinct for distinct i: one level per bit of i + 1.
        d = p
        for bit in bin(i + 1)[3:]:
            d = Implies(d, q) if bit == "1" else Implies(r, d)
        return d

    def conj(xs):
        return xs[0] if len(xs) == 1 else And(conj(xs[: len(xs) // 2]), conj(xs[len(xs) // 2 :]))

    kleene, calls = derived._kleene, []
    monkeypatch.setattr(derived, "_kleene", lambda *a: calls.append(None) or kleene(*a))

    def evaluations(m):
        calls.clear()
        derive_tautology(conj([Implies(d, d) for d in map(d_of, range(m))]), "b")
        return len(calls)

    assert evaluations(128) < 2.5 * evaluations(64)


def test_derive_tautology_evaluates_the_root_once_per_partial_valuation(monkeypatch):
    # Outside the split-variable search, the one walk that decides, refutes
    # and builds evaluates the root once per partial valuation it splits
    # on: 2k + 1 of them for a proof of k case splits, each ending in a
    # botE that discharges the root's negation.  PEIRCE5 splits on a
    # compound subformula, so no atom ever gets a value.
    kleene, search = derived._kleene, derived._split_variable
    calls, searching = [], []

    def counted(phi, fixed, known):
        if not searching:
            calls.append((phi, dict(fixed)))
        return kleene(phi, fixed, known)

    def uncounted(*args):
        searching.append(None)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(derived, "_kleene", counted)
    monkeypatch.setattr(derived, "_split_variable", uncounted)
    for text in ("((p -> (q -> r)) -> ((p -> q) -> (p -> r)))", "((p & q) -> (q & p))", "(p | (~ p))", PEIRCE5):
        calls.clear()
        proof = derive_tautology(parse_ltl(text), "b")
        root = proof.conclusion.formula
        splits = sum(1 for n in all_nodes(proof) if isinstance(n, Apply) and n.rule == "botE" and n.discharges)
        valuations = [frozenset(fixed.items()) for phi, fixed in calls if phi is root]
        assert len(valuations) == len(set(valuations)) == 2 * splits + 1, text
    # calls holds PEIRCE5's evaluations, the last of the loop.
    atoms = {id(phi) for phi, _ in calls if isinstance(phi, Atom)}
    assert atoms and not any(fixed.get(i) is not None for _, fixed in calls for i in atoms)


def test_derive_tautology_walks_the_root_once_with_nothing_assigned(monkeypatch):
    # The split-variable search reads the root's values with nothing
    # assigned, and the root branch of the case split starts from them:
    # one walk serves both.  A walk is a call on the root that finds no
    # memoised value for it, and nothing assigned means no definite value
    # in its memo.
    kleene = derived._kleene
    walks = []

    def counted(phi, fixed, known):
        if id(phi) not in fixed and all(v is None for v in fixed.values()):
            walks.append(phi)
        return kleene(phi, fixed, known)

    monkeypatch.setattr(derived, "_kleene", counted)
    for text in ("((p -> (q -> r)) -> ((p -> q) -> (p -> r)))", "((p & q) -> (q & p))", "(p | (~ p))", PEIRCE5):
        walks.clear()
        root = derive_tautology(parse_ltl(text), "b").conclusion.formula
        assert sum(1 for phi in walks if phi is root) == 1, text


def test_derive_tautology_stays_small():
    root = derive_tautology(parse_ltl(PEIRCE5), "b")
    report = check(root)
    assert report.accepted and not report.open_assumptions
    assert len(all_nodes(root)) <= PEIRCE5_NODES


def test_derive_tautology_is_deterministic():
    # PEIRCE5's proof splits on one compound subformula, found by a search
    # over sets and counters keyed on ids and names.
    text = serialize(derive_tautology(parse_ltl(PEIRCE5), "b"))
    assert serialize(derive_tautology(parse_ltl(PEIRCE5), "b")) == text
    # Also under another string hash, which would reorder any set walked.
    code = f"from nabla.derived import derive_tautology; from nabla.formulas import parse_ltl; from nabla.scripts import serialize; print(serialize(derive_tautology(parse_ltl({PEIRCE5!r}), 'b')), end='')"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout == text


def _check_shared_tautologies(k=40):
    """Prove four tautologies of about 2^k tree nodes but few objects: k
    nested ``(x -> x)`` over one atom, Peirce's law whose operand is k
    nested ``(x | x)`` over one atom, one object per level, S over the
    first with q and r, and Peirce's law with r whose operand is k nested
    ``(x -> x)`` over ``(p -> q)``.  S's repeated operand does not decide
    it, so its proof splits on the atoms.  No atom decides the last one
    and its operand does, so its proof splits on that operand alone and is
    the proof of ``(((p -> r) -> p) -> p)``."""
    x = a = P
    c = Implies(P, Q)
    for _ in range(k):
        x, a, c = Implies(x, x), Or(a, a), Implies(c, c)
    s = Implies(Implies(x, Implies(Q, R)), Implies(Implies(x, Q), Implies(x, R)))
    peirce = Implies(Implies(Implies(c, R), c), c)
    sizes = {id(s): 191, id(peirce): 25}
    for f in (x, Implies(Implies(Implies(a, Q), a), a), s, peirce):
        root = derive_tautology(f, "b")
        report = check(root)
        assert report.accepted and not report.open_assumptions, report.message
        if id(f) in sizes:
            assert len(all_nodes(root)) == sizes[id(f)]
        # == would compare the proof's copy of desugar(f) node by node; the
        # stored hash and the printed length are folds over objects.
        got, want = report.conclusion.formula, desugar(f)
        assert report.conclusion.seq == ("b",)
        assert (hash(got), format_length(got)) == (hash(want), format_length(want))


def test_derive_tautology_is_linear_in_shared_objects(run_in_child):
    run_in_child("test_derived", "_check_shared_tautologies")


def _check_decided_by_few_atoms(n=30):
    """Prove ``((p00 & ... & p29) -> (p15 | z))`` and refute
    ``((p00 & ... & p29) -> z)``.  A few atoms decide each under most
    partial valuations, but a walk of all 2^31 valuations cannot finish,
    and the first falsifying one in product order is the 2^30th."""
    ps = [Atom(f"p{i:02}") for i in range(n)]

    def conj(xs):
        return xs[0] if len(xs) == 1 else And(conj(xs[: len(xs) // 2]), conj(xs[len(xs) // 2 :]))

    f = Implies(conj(ps), Or(ps[n // 2], Atom("z")))
    report = check(derive_tautology(f, "b"))
    assert report.accepted and not report.open_assumptions, report.message
    assert report.conclusion == Lwff(("b",), desugar(f))
    with pytest.raises(NotATautology) as e:
        derive_tautology(Implies(conj(ps), Atom("z")), "b")
    assert str(e.value) == f"falsified by {dict.fromkeys((p.name for p in ps), True) | {'z': False}}"


def test_derive_tautology_walks_only_undecided_valuations(run_in_child):
    run_in_child("test_derived", "_check_decided_by_few_atoms")


def _check_refused_before_a_large_true_branch(n=20):
    """Refuse ``(a & B)``, where ``B`` is the iff of a left- and a
    right-associated xor chain over ``b00..b19``: a tautology that no single
    subformula decides.  a=F falsifies it at once; a walk that took the true
    branch first would prove B over all 2^20 valuations before reaching
    that refusal."""
    bs = [Atom(f"b{i:02}") for i in range(n)]

    def iff(x, y):
        return And(Implies(x, y), Implies(y, x))

    def xor(x, y):
        return Not(iff(x, y))

    left = bs[0]
    for b in bs[1:]:
        left = xor(left, b)
    right = bs[-1]
    for b in reversed(bs[:-1]):
        right = xor(b, right)
    with pytest.raises(NotATautology) as e:
        derive_tautology(And(Atom("a"), iff(left, right)), "b")
    assert str(e.value) == f"falsified by {dict.fromkeys(['a', *(b.name for b in bs)], False)}"


def test_refusal_comes_before_a_large_true_branch(run_in_child):
    run_in_child("test_derived", "_check_refused_before_a_large_true_branch")


def test_not_a_tautology_names_the_first_falsifying_valuation():
    # The first valuation in product order over the sorted atoms, False
    # before True; (q -> (p & r)) fails first at p=F, q=T, r=F.  Where a
    # partial valuation already falsifies the formula, the atoms it leaves
    # unassigned are named False: p=F falsifies (p & (q -> q)), and a=F,
    # z=T falsifies (z -> (a & bot)).  The walk that refuses also builds:
    # it proves ((p -> q) & (q -> p)) at p=F, q=F before it refuses it.
    cases = {
        "(p -> q)": "{'p': True, 'q': False}",
        "(q -> (p & r))": "{'p': False, 'q': True, 'r': False}",
        "bot": "{}",
        "p": "{'p': False}",
        "(p & (q -> q))": "{'p': False, 'q': False}",
        "(z -> (a & bot))": "{'a': False, 'z': True}",
        "((p -> q) & (q -> p))": "{'p': False, 'q': True}",
    }
    for text, valuation in cases.items():
        with pytest.raises(NotATautology) as e:
            derive_tautology(parse_ltl(text), "b")
        assert str(e.value) == f"falsified by {valuation}"


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
