import gc
import random
import weakref

import pytest

from nabla.corpus import ENTRIES, MUTATIONS, TAUTOLOGY_INSTANCES, entry_by_name, load_entry, load_script
from nabla.derived import NonInjectiveRenaming, derive_tautology, expand, labels_of_derivation, rename_labels
from nabla import formulas, kernel
from nabla.formulas import Always, And, Atom, Bottom, Formula, Hist, Implies, Next, Or, Until, desugar, parse_ltl
from nabla.gen import DerivationSampler
from nabla.kernel import (
    BAD_DISCHARGE,
    FRESHNESS_VIOLATION,
    NOT_LOCAL_FORMULA,
    SEQUENCE_MISMATCH,
    SHAPE_MISMATCH,
    UNKNOWN_RULE,
    Apply,
    Assume,
    CheckReport,
    Le,
    Lwff,
    Succ,
    _open_sets,
    all_nodes,
    check,
    normalize_generic,
    open_assumption_classes,
    subst_label,
)
from nabla.scripts import parse_script, serialize
from nabla.translate import MissingAnnotation, is_ltl_derivation, translate

P, Q = Atom("p"), Atom("q")


def test_subst_label_examples():
    assert subst_label(Lwff(("b", "c"), P), {"c": "d"}) == Lwff(("b", "d"), P)
    assert subst_label(Le("b", "c"), {"b": "d"}) == Le("d", "c")
    assert subst_label(Succ("b", "c"), {"c": "d"}) == Succ("b", "d")
    assert subst_label(Lwff(("b", "b"), P), {"b": "d"}) == Lwff(("d", "d"), P)
    assert subst_label(Lwff(("b", "c"), P), {"b": "c", "c": "b"}) == Lwff(("c", "b"), P)


def test_open_assumptions_basics():
    leaf = Assume(1, Lwff(("b",), P))
    assert check(leaf).open_assumptions == frozenset({Lwff(("b",), P)})
    # impI discharging the leaf
    closed = Apply(2, "impI", Lwff(("b",), Implies(P, P)), (leaf,), (leaf,))
    assert check(closed).open_assumptions == frozenset()
    # vacuous discharge keeps an unrelated leaf open
    other = Assume(3, Lwff(("b",), Q))
    vac = Assume(4, Lwff(("b",), P))
    node = Apply(5, "impI", Lwff(("b",), Implies(P, Q)), (other,), (vac,))
    assert check(node).open_assumptions == frozenset({Lwff(("b",), Q)})
    assert check(node).accepted


def test_check_accepts_and_reports_conclusion():
    report = check(load_entry("A6"))
    assert report.accepted
    assert report.open_assumptions == frozenset()
    assert report.conclusion.seq == ("b",)


def test_check_is_deterministic():
    root = load_entry("A7L")
    r1, r2 = check(root), check(root)
    assert r1 == r2


def test_single_assumption_is_a_derivation():
    leaf = Assume(1, Lwff(("b", "c"), Hist(P)))
    report = check(leaf)
    assert report.accepted and report.conclusion == leaf.formula
    bad = Assume(1, Le("b", "c"))
    assert not check(bad).accepted


def test_rule_concluding_a_relational_formula_is_rejected():
    leaf = Assume(2, Lwff(("a",), P))
    report = check(Apply(1, "botE", Le("a", "b"), (leaf,)))
    assert (report.accepted, report.reason, report.node_id) == (False, SHAPE_MISMATCH, 1)


def test_last_on_formulas_written_with_abbreviations():
    local = Always(And(P, Hist(Q)))
    d = Assume(1, Lwff(("b",), local))
    assert check(Apply(2, "last", Lwff(("c", "b"), local), (d,))).accepted
    hist = Or(P, Hist(Q))  # desugars to (~p) -> (H q): H not under G or X
    d = Assume(1, Lwff(("b",), hist))
    assert check(Apply(2, "last", Lwff(("c", "b"), hist), (d,))).reason == NOT_LOCAL_FORMULA


def test_kernel_rejects_until_in_judgments():
    # Each case: a derivation, the node that states a formula outside the
    # proof language, and what that node states it as.  check rejects it
    # there and never raises.
    u = Until(P, Q)
    leaf = Assume(1, Lwff(("b",), P))
    uses = (Assume(1, Lwff(("b",), Implies(Next(u), P))), Assume(2, Lwff(("b",), Next(u))))
    cases = [
        (Assume(1, Lwff(("b",), u)), 1, "assumption"),
        (Assume(4, Lwff(("b",), Hist(u))), 4, "assumption"),
        (Apply(2, "impI", Lwff(("b",), Implies(Always(u), P)), (leaf,)), 2, "conclusion"),
        # One until object in two judgements: the first in postorder is rejected.
        (Apply(3, "impE", Lwff(("b",), P), uses), 1, "assumption"),
        # Children that are not formulas.
        (Assume(4, Lwff(("b",), Implies(P, "q"))), 4, "assumption"),
        (Apply(2, "impI", Lwff(("b",), Always(Or(P, 3))), (leaf,)), 2, "conclusion"),
    ]
    for root, node_id, what in cases:
        report = check(root)
        assert (report.accepted, report.node_id, report.reason) == (False, node_id, SHAPE_MISMATCH)
        assert report.message == f"{what} formula is not in the proof language"


def test_gi_freshness_constructed():
    # conclusion label reused as eigenlabel
    a = Assume(1, Lwff(("b", "b"), P))
    gi = Apply(2, "GI", Lwff(("b",), Always(P)), (a,))
    assert check(gi).reason == FRESHNESS_VIOLATION
    # eigenlabel occurring in a remaining open assumption
    imp = Assume(3, Lwff(("b", "c"), Implies(Q, P)))
    minor = Assume(4, Lwff(("b", "c"), Q))
    use = Apply(5, "impE", Lwff(("b", "c"), P), (imp, minor))
    gi2 = Apply(6, "GI", Lwff(("b",), Always(P)), (use,))
    assert check(gi2).reason == FRESHNESS_VIOLATION
    # with those assumptions discharged, the same introduction is fine
    closed = Apply(7, "impI", Lwff(("b", "c"), Implies(Q, P)), (use,), (minor, imp))
    assert check(closed).reason == BAD_DISCHARGE  # imp does not match the antecedent slot
    shed = Apply(8, "impI", Lwff(("b", "c"), Implies(Q, P)), (use,), (minor,))
    assert check(shed).accepted


def test_freshness_names_the_open_class_with_the_lowest_id():
    # Classes 7 and 9 both name the eigenlabel c; class 2 does too, but GI
    # discharges it.  The scan reports class 7 however the set is ordered.
    g, r = Assume(1, Lwff(("b",), Always(P))), Assume(2, Le("b", "c"))
    ge = Apply(3, "GE", Lwff(("b", "c"), P), (g, r))
    assert check(Apply(4, "GI", Lwff(("b",), Always(P)), (ge,), (r,))).accepted
    pp = Implies(P, P)
    outer, inner = Assume(7, Lwff(("b", "c"), Implies(pp, pp))), Assume(9, Lwff(("b", "c"), pp))
    same = Apply(5, "impE", Lwff(("b", "c"), pp), (outer, inner))
    hyp = Apply(6, "impE", Lwff(("b", "c"), P), (same, ge))
    report = check(Apply(8, "GI", Lwff(("b",), Always(P)), (hyp,), (r,)))
    assert (report.reason, report.node_id) == (FRESHNESS_VIOLATION, 8)
    assert report.message == "label 'c' of GI occurs in open assumption b c : ((p -> p) -> (p -> p))"


def test_ge_shape_and_sequence():
    a = Assume(1, Lwff(("b",), Always(P)))
    r = Assume(2, Le("b", "c"))
    good = Apply(3, "GE", Lwff(("b", "c"), P), (a, r))
    assert check(good).accepted
    bad_seq = Apply(4, "GE", Lwff(("c", "b"), P), (a, r))
    assert check(bad_seq).reason == SEQUENCE_MISMATCH
    bad_rel = Apply(5, "GE", Lwff(("b", "c"), P), (a, Assume(6, Succ("b", "c"))))
    assert check(bad_rel).reason == SHAPE_MISMATCH


def assert_rejects(root, node_id, reason, message):
    report = check(root)
    assert (report.accepted, report.node_id, report.reason, report.message) == (False, node_id, reason, message)


def test_intro_rules_check_the_premise_formula_and_labels():
    # The premise b c : p comes from an assumption at another label, so c
    # is fresh and only the checks under test can reject.
    falsum = Assume(1, Lwff(("x",), Bottom()))
    for rule, op in (("GI", Always), ("XI", Next)):
        prem = Apply(2, "botE", Lwff(("b", "c"), P), (falsum,))
        assert check(Apply(3, rule, Lwff(("b",), op(P)), (prem,))).accepted
        assert_rejects(Apply(3, rule, Lwff(("b",), op(Q)), (prem,)), 3, SHAPE_MISMATCH, f"premise of {rule} must prove the operand")
    prem = Apply(2, "botE", Lwff(("b", "d"), P), (falsum,))
    assert check(Apply(3, "histI", Lwff(("b", "c"), Hist(P)), (prem,))).accepted
    assert_rejects(Apply(3, "histI", Lwff(("b", "c"), Hist(Q)), (prem,)), 3, SHAPE_MISMATCH, "premise of histI must prove the operand")
    # With one label there is no interval to place the new label in.
    assert_rejects(Apply(3, "histI", Lwff(("c",), Hist(P)), (prem,)), 3, SEQUENCE_MISMATCH, "conclusion of histI needs at least two labels")


def test_histE_needs_interval_relations():
    a = Assume(1, Lwff(("b", "c"), Hist(P)))
    r1 = Assume(2, Le("b", "d"))
    r2 = Assume(3, Le("d", "c"))
    good = Apply(4, "histE", Lwff(("b", "d"), P), (a, r1, r2))
    assert check(good).accepted
    swapped = Apply(5, "histE", Lwff(("b", "d"), P), (a, r2, r1))
    assert check(swapped).reason == SHAPE_MISMATCH
    message = "major premise of histE must prove the history of the conclusion formula"
    assert_rejects(Apply(6, "histE", Lwff(("b", "d"), Q), (a, r1, r2)), 6, SHAPE_MISMATCH, message)
    always = Assume(7, Lwff(("b", "c"), Always(P)))
    assert_rejects(Apply(8, "histE", Lwff(("b", "d"), P), (always, r1, r2)), 8, SHAPE_MISMATCH, message)


def test_trans_chain_mismatch():
    d = Assume(1, Lwff(("b",), P))
    r1 = Assume(2, Le("x", "y"))
    r2 = Assume(3, Le("z", "w"))
    node = Apply(4, "transLe", Lwff(("b",), P), (r1, r2, d))
    assert check(node).reason == SHAPE_MISMATCH


def test_unknown_rule_and_double_discharge():
    leaf = Assume(1, Lwff(("b",), P))
    assert check(Apply(2, "mystery", Lwff(("b",), P), (leaf,))).reason == UNKNOWN_RULE
    h = Assume(3, Lwff(("b",), Q))
    inner = Apply(4, "impI", Lwff(("b",), Implies(Q, P)), (leaf,), (h,))
    outer = Apply(5, "impI", Lwff(("b",), Implies(Q, Implies(Q, P))), (inner,), (h,))
    assert check(outer).reason == BAD_DISCHARGE


def test_discharge_must_stay_in_hypothetical_premise():
    # the discharged class matches the slot formula but occurs as a
    # relational premise of the same node: not confined to the hypothetical
    d = Assume(1, Lwff(("b",), P))
    rxz = Assume(2, Le("x", "z"))
    rzz = Assume(3, Le("z", "z"))
    node = Apply(4, "transLe", Lwff(("b",), P), (rxz, rzz, d), (rxz,))
    assert check(node).reason == BAD_DISCHARGE


def test_rename_labels_properties():
    root = load_entry("A6")
    assert rename_labels(root, {}) is not None
    renamed = rename_labels(root, {"b": "b2"})
    report = check(renamed)
    assert report.accepted and report.conclusion.seq == ("b2",)
    with pytest.raises(NonInjectiveRenaming):
        rename_labels(root, {"b": "c"})


def test_rename_bijection_preserves_verdict_on_random_derivations():
    rng = random.Random(17)
    for i in range(25):
        d = DerivationSampler(random.Random(i)).sample(steps=5)
        labs = sorted(labels_of_derivation(d))
        shuffled = labs[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(labs, (f"z{k}_{v}" for k, v in enumerate(shuffled))))
        renamed = rename_labels(d, mapping)
        assert check(renamed).accepted


def test_is_ltl_derivation_paper_example():
    entry = entry_by_name("A6")
    root = load_entry("A6")
    report = check(root)
    assert is_ltl_derivation(report, {normalize_generic(report.conclusion): entry.source})


def test_is_ltl_derivation_accepts_shared_label_with_annotations():
    imp = Assume(1, Lwff(("b",), Implies(P, P)))
    minor = Assume(2, Lwff(("b",), P))
    node = Apply(3, "impE", Lwff(("b",), P), (imp, minor))
    report = check(node)
    assert report.accepted
    sources = {
        normalize_generic(Lwff(("b",), P)): P,
        normalize_generic(Lwff(("b",), Implies(P, P))): Implies(P, P),
    }
    assert is_ltl_derivation(report, sources)


def test_is_ltl_derivation_rejects_mixed_labels():
    leaf = Assume(1, Lwff(("c",), Bottom()))
    two_labels = Apply(2, "botE", Lwff(("b",), P), (leaf,))
    # open assumption c : bot, conclusion b : p
    report = check(two_labels)
    assert report.accepted
    sources = {
        normalize_generic(Lwff(("c",), Bottom())): Bottom(),
        normalize_generic(Lwff(("b",), P)): P,
    }
    assert not is_ltl_derivation(report, sources)


def test_is_ltl_derivation_rejects_open_rwff():
    a = Assume(1, Lwff(("b",), Always(P)))
    r = Assume(2, Le("b", "b"))
    ge = Apply(3, "GE", Lwff(("b", "b"), P), (a, r))
    last = Apply(4, "last", Lwff(("b",), P), (ge,))
    report = check(last)
    assert report.accepted
    sources = {
        normalize_generic(Lwff(("b",), P)): P,
        normalize_generic(Lwff(("b",), Always(P))): Always(P),
    }
    assert not is_ltl_derivation(report, sources)


def test_is_ltl_derivation_refuses_and_rejects():
    rejected = check(Apply(2, "mystery", Lwff(("b",), P), (Assume(1, Lwff(("b",), P)),)))
    with pytest.raises(ValueError, match="requires an accepted derivation"):
        is_ltl_derivation(rejected, {})
    # A judgment over two labels, annotated, is still no LTL-derivation.
    two = Lwff(("b", "c"), P)
    assert not is_ltl_derivation(check(Assume(1, two)), {normalize_generic(two): P})
    # Nor is a conclusion that is not its source's image.
    one = Lwff(("b",), P)
    assert not is_ltl_derivation(check(Assume(1, one)), {normalize_generic(one): Q})


def test_is_ltl_derivation_missing_annotation():
    leaf = Assume(1, Lwff(("b",), P))
    with pytest.raises(MissingAnnotation):
        is_ltl_derivation(check(leaf), {})


def test_structural_audit_on_corpus():
    # every discharged class of every accepted corpus proof sits inside the
    # discharging node's own premise subtree (check() enforces this; here we
    # just re-run it over all entries)
    for name in ("A2", "A3", "A4", "A5", "A6", "A7L", "A7R", "A8"):
        assert check(load_entry(name)).accepted


def test_vacuous_and_multiple_discharge():
    h1 = Assume(1, Lwff(("b",), P))
    h2 = Assume(2, Lwff(("b",), P))
    imp = Assume(3, Lwff(("b",), Implies(P, Implies(P, Q))))
    n1 = Apply(4, "impE", Lwff(("b",), Implies(P, Q)), (imp, h1))
    n2 = Apply(5, "impE", Lwff(("b",), Q), (n1, h2))
    both = Apply(6, "impI", Lwff(("b",), Implies(P, Q)), (n2,), (h1, h2))
    report = check(both)
    assert report.accepted
    assert normalize_generic(Lwff(("b",), P)) not in report.open_assumptions


def test_botE_crosses_sequences_and_discharges_negation():
    neg = Assume(1, Lwff(("b",), Implies(P, Bottom())))
    pos = Assume(2, Lwff(("b",), P))
    falsum = Apply(3, "impE", Lwff(("b",), Bottom()), (neg, pos))
    out = Apply(4, "botE", Lwff(("c", "d"), Q), (falsum,))
    assert check(out).accepted  # vacuous reductio, arbitrary target sequence
    # discharging the matching negated-conclusion class
    neg2 = Assume(5, Lwff(("c", "d"), Implies(Q, Bottom())))
    use = Apply(6, "impE", Lwff(("c", "d"), Bottom()), (Assume(7, Lwff(("c", "d"), Implies(Q, Bottom()))), Assume(8, Lwff(("c", "d"), Q))))
    closed = Apply(9, "botE", Lwff(("c", "d"), Q), (use,), (neg2,))
    assert check(closed).accepted  # vacuous for neg2 (it has no occurrence)
    bad = Apply(10, "botE", Lwff(("c",), Q), (pos,))
    assert check(bad).reason == SHAPE_MISMATCH  # premise must prove bot


def test_serS_accepts_and_requires_one_pair():
    d = Assume(1, Lwff(("b",), P))
    s1 = Assume(2, Succ("x", "y"))
    s2 = Assume(3, Succ("x", "z"))
    base1 = Apply(4, "baseLe", Lwff(("b",), P), (s1, d), ())
    node = Apply(5, "serS", Lwff(("b",), P), (base1,), (s1,))
    assert check(node).accepted
    mixed_base = Apply(6, "baseLe", Lwff(("b",), P), (s2, base1), ())
    mixed = Apply(7, "serS", Lwff(("b",), P), (mixed_base,), (s1, s2))
    assert check(mixed).reason == BAD_DISCHARGE


def test_linS_reads_its_substitution_off_the_premises():
    r1 = Assume(1, Succ("b", "c"))
    r2 = Assume(2, Succ("b", "d"))
    phi = Assume(3, Lwff(("b", "c"), P))
    hyp = Assume(4, Lwff(("b", "d"), P))
    good = Apply(5, "linS", Lwff(("b", "d"), P), (r1, r2, phi, hyp), (hyp,))
    assert check(good).accepted
    # c renamed to z in the first and third premises: the pair is z -> d.
    renamed = (Assume(1, Succ("b", "z")), r2, Assume(3, Lwff(("b", "z"), P)), hyp)
    assert check(Apply(5, "linS", Lwff(("b", "d"), P), renamed, (hyp,))).accepted
    # Swapped successor premises name the pair d -> c, so the slot is b c : p.
    swapped = Apply(6, "linS", Lwff(("b", "d"), P), (r2, r1, phi, hyp), (hyp,))
    assert_rejects(swapped, 6, BAD_DISCHARGE, "linS cannot discharge b d : p (assumption 4)")


def test_linS_rwff_phi_premise():
    r1 = Assume(1, Succ("b", "c"))
    r2 = Assume(2, Succ("b", "d"))
    phi = Assume(3, Le("c", "e"))
    hyp_leaf = Assume(4, Le("d", "e"))
    d = Assume(5, Lwff(("b",), Always(P)))
    use = Apply(6, "GE", Lwff(("b", "e"), P), (d, Assume(7, Le("b", "e"))))
    node = Apply(8, "linS", Lwff(("b", "e"), P), (r1, r2, phi, use), (hyp_leaf,))
    # discharged class le(d,e) = phi[d/c]; it has no occurrence (vacuous)
    assert check(node).accepted


def test_reflLe_rejects_mixed_or_irreflexive():
    d = Assume(1, Lwff(("b",), P))
    r = Assume(2, Le("x", "y"))
    node = Apply(3, "reflLe", Lwff(("b",), P), (d,), (r,))
    assert check(node).reason == BAD_DISCHARGE


def test_eqLe_moves_the_last_label():
    base = Assume(1, Lwff(("a", "b"), P))
    r1 = Assume(2, Le("b", "c"))
    r2 = Assume(3, Le("c", "b"))
    node = Apply(4, "eqLe", Lwff(("a", "c"), P), (r1, r2, base))
    assert check(node).accepted
    swapped = Apply(5, "eqLe", Lwff(("a", "c"), P), (r2, r1, base))
    assert check(swapped).reason == SHAPE_MISMATCH
    moved_prefix = Apply(6, "eqLe", Lwff(("c", "b"), P), (r1, r2, base))
    assert check(moved_prefix).reason == SEQUENCE_MISMATCH


def test_splitLe_small_instance():
    # from le(x,y) and the trivial case analyses conclude b : p
    r1 = Assume(1, Le("x", "y"))
    phi = Assume(2, Lwff(("b",), P))
    eq_case = Assume(3, Lwff(("b",), P))
    lt1 = Assume(4, Succ("x", "w"))
    lt2 = Assume(5, Le("w", "y"))
    lt_case = Assume(6, Lwff(("b",), P))
    node = Apply(
        7,
        "splitLe",
        Lwff(("b",), P),
        (r1, phi, eq_case, lt_case),
        (lt1, lt2),
    )
    # discharged strict-case relations are vacuous; w is fresh
    assert check(node).accepted
    clash = Apply(
        8,
        "splitLe",
        Lwff(("b",), P),
        (r1, phi, eq_case, lt_case),
        (Assume(9, Succ("x", "x")),),
    )
    assert check(clash).reason == FRESHNESS_VIOLATION


def test_ind_fresh_step_label_cannot_leak():
    base = Assume(1, Lwff(("a", "b0"), P))
    rel = Assume(2, Le("b0", "b"))
    leaky = Assume(3, Lwff(("a", "bj"), P))
    node = Apply(4, "ind", Lwff(("a", "b"), P), (base, rel, leaky), ())
    assert check(node).reason == FRESHNESS_VIOLATION


def _bj_step():
    # derives a bj : p without open assumptions naming bj
    neg = Assume(11, Lwff(("x",), Implies(P, Bottom())))
    pos = Assume(12, Lwff(("x",), P))
    falsum = Apply(13, "impE", Lwff(("x",), Bottom()), (neg, pos))
    return Apply(14, "botE", Lwff(("a", "bj"), P), (falsum,))


def test_ind_shape_rejections():
    base = Assume(1, Lwff(("a", "b0"), P))
    rel = Assume(2, Le("b0", "b"))
    hyp = _bj_step()
    good = Apply(4, "ind", Lwff(("a", "b"), P), (base, rel, hyp), ())
    assert check(good).accepted  # vacuous induction: step ignores the IH
    wrong_rel = Apply(5, "ind", Lwff(("a", "b"), P), (base, Assume(6, Le("b", "b0")), hyp), ())
    assert check(wrong_rel).reason == SHAPE_MISMATCH
    wrong_base = Apply(7, "ind", Lwff(("c", "b0"), P), (base, rel, hyp), ())
    assert check(wrong_base).reason == SEQUENCE_MISMATCH
    mixed_bi = Apply(
        8,
        "ind",
        Lwff(("a", "b"), P),
        (base, rel, hyp),
        (Assume(9, Le("b0", "u1")), Assume(10, Succ("u2", "bj"))),
    )
    assert_rejects(mixed_bi, 8, BAD_DISCHARGE, "ind inductive assumptions name two different fresh labels")
    moved_step = Apply(14, "botE", Lwff(("c", "bj"), P), hyp.premises)
    message = "step premise of ind must differ from the conclusion sequence in the last label only"
    assert_rejects(Apply(15, "ind", Lwff(("a", "b"), P), (base, rel, moved_step), ()), 15, SEQUENCE_MISMATCH, message)


# ---------------------------------------------------------------------------
# Open-assumption bookkeeping against the plain per-node computation


def reference_opens(order):
    """Every node's open classes as a fresh frozenset, copied from its premises."""
    opens = {}
    for n in order:
        if isinstance(n, Assume):
            opens[id(n)] = frozenset((n,))
        else:
            acc = set()
            for p in n.premises:
                acc |= opens[id(p)]
            acc -= set(n.discharges)
            opens[id(n)] = frozenset(acc)
    return opens


def assert_opens_agree(root):
    order = all_nodes(root)
    ref = reference_opens(order)
    opens = {}
    for n in _open_sets(root, opens):
        # What a validator sees of each premise is the reference set.
        for p in getattr(n, "premises", ()):
            assert opens[id(p)] == ref[id(p)], (n.id, p.id)
    assert set(opens) == {id(root)}  # every other set is dropped after its last parent
    assert opens[id(root)] == ref[id(root)]
    assert open_assumption_classes(root) == ref[id(root)]
    report = check(root)
    if report.accepted:
        assert report.open_assumptions == frozenset(normalize_generic(a.formula) for a in ref[id(root)])


def test_open_sets_agree_on_corpus_and_mutations():
    for entry in ENTRIES:
        assert_opens_agree(expand(load_script(entry.script)))
    for fix in MUTATIONS:
        assert_opens_agree(expand(load_script(fix.script, mutation=True)))
    for _, text in TAUTOLOGY_INSTANCES:
        assert_opens_agree(derive_tautology(parse_ltl(text), "b"))


def test_open_sets_agree_on_sampled_derivations():
    rng = random.Random(2024)
    for _ in range(300):
        root = DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=rng.randint(2, 9))
        report = check(root)
        assert report.accepted, report.message
        assert_opens_agree(root)


def test_premise_referenced_twice_by_one_node():
    # splitLe's (r1, phi, d, d) shape; d is used once more afterwards, so
    # its set must outlive the node that names it twice.
    m = Assume(1, Lwff(("c",), Implies(P, Implies(Q, Q))))
    n = Assume(2, Lwff(("c",), P))
    d = Apply(3, "impE", Lwff(("c",), Implies(Q, Q)), (m, n))
    r1, phi = Assume(4, Le("b", "c")), Assume(5, Lwff(("b",), P))
    twice = Apply(6, "splitLe", Lwff(("c",), Implies(Q, Q)), (r1, phi, d, d))
    minor = Assume(7, Lwff(("c",), Q))
    again = Apply(8, "impE", Lwff(("c",), Q), (d, minor))
    root = Apply(9, "impE", Lwff(("c",), Q), (twice, again))
    assert_opens_agree(root)
    report = check(root)
    assert report.accepted
    assert report.open_assumptions == {normalize_generic(a.formula) for a in (m, n, r1, phi, minor)}


def test_subderivation_shared_by_two_discharging_parents():
    imp, a = Assume(1, Lwff(("b",), Implies(P, Q))), Assume(2, Lwff(("b",), P))
    shared = Apply(3, "impE", Lwff(("b",), Q), (imp, a))
    drop_a = Apply(4, "impI", Lwff(("b",), Implies(P, Q)), (shared,), (a,))
    drop_imp = Apply(5, "impI", Lwff(("b",), Implies(Implies(P, Q), Q)), (shared,), (imp,))
    root = Apply(6, "impE", Lwff(("b",), Q), (drop_imp, drop_a))
    assert_opens_agree(root)
    report = check(root)
    assert report.accepted
    assert report.open_assumptions == {normalize_generic(imp.formula), normalize_generic(a.formula)}


def test_discharge_outside_the_hypothetical_premise_in_a_shared_subtree():
    # The equality-case class e sits in ``shared``, which is both inside the
    # hypothetical premise and, again, the strict-case premise.
    m, e = Assume(1, Lwff(("c",), Implies(P, Q))), Assume(2, Lwff(("c",), P))
    shared = Apply(3, "impE", Lwff(("c",), Q), (m, e))
    mq = Assume(4, Lwff(("c",), Implies(Q, Q)))
    hyp = Apply(5, "impE", Lwff(("c",), Q), (mq, shared))
    r1, phi = Assume(6, Le("b", "c")), Assume(7, Lwff(("b",), P))
    root = Apply(8, "splitLe", Lwff(("c",), Q), (r1, phi, hyp, shared), (e,))
    assert_opens_agree(root)
    report = check(root)
    assert (report.reason, report.node_id) == (BAD_DISCHARGE, 8)
    assert report.message == "assumption 2 occurs outside the hypothetical premise of splitLe"
    # Confined to the hypothetical premise, the same discharge is accepted.
    ok = Apply(8, "splitLe", Lwff(("c",), Q), (r1, phi, hyp, Assume(9, Lwff(("c",), Q))), (e,))
    assert_opens_agree(ok)
    assert check(ok).accepted


# --- formulas shared within a derivation -------------------------------------


def fresh_formula(f):
    """A copy of ``f`` that shares no object with it or with itself."""
    return type(f)(*(fresh_formula(x) if isinstance(x, Formula) else x for x in vars(f).values()))


def map_formulas(root, fn):
    """The derivation rebuilt with ``fn`` applied to every formula occurrence."""
    def generic(phi):
        return Lwff(phi.seq, fn(phi.formula)) if isinstance(phi, Lwff) else phi

    memo = {}
    for n in all_nodes(root):
        if isinstance(n, Assume):
            memo[id(n)] = Assume(n.id, generic(n.formula))
        else:
            memo[id(n)] = Apply(
                n.id,
                n.rule,
                generic(n.conclusion),
                tuple(memo[id(p)] for p in n.premises),
                tuple(memo[id(a)] for a in n.discharges),
            )
    return memo[id(root)]


def _derivations():
    yield from (expand(load_script(e.script)) for e in ENTRIES)
    yield from (expand(load_script(m.script, mutation=True)) for m in MUTATIONS)
    for _, text in TAUTOLOGY_INSTANCES + (("", "((((p & q) -> r) -> (p & q)) -> (p & q))"),):
        yield parse_script(serialize(derive_tautology(parse_ltl(text), "b")))
    rng = random.Random(77)
    for _ in range(200):
        root = DerivationSampler(random.Random(rng.randrange(2**32))).sample(steps=rng.randint(2, 9))
        report = check(root)
        assert report.accepted, report.message
        yield root


def test_check_agrees_on_shared_and_unshared_formulas():
    verdicts = set()
    for root in _derivations():
        shared, copied = check(root), check(map_formulas(root, fresh_formula))
        assert shared == copied
        assert shared.to_dict() == copied.to_dict()
        verdicts.add(shared.reason)
    assert len(verdicts) > 3


def test_check_works_per_formula_object(monkeypatch):
    # The kernel desugars and language-checks in one fold through
    # formulas._fold_from, which recurses inside its own module, so the
    # patched name sees one call per top-level formula.
    calls = []
    real = kernel._fold_from
    monkeypatch.setattr(kernel, "_fold_from", lambda f, *rest: calls.append(f) or real(f, *rest))
    # 200 rounds of impI and impE over two formulas; the parser makes one
    # object per formula, so each object occurs in 200 judgements or more.
    lines = ["assume 1 lwff b : p"]
    for i in range(200):
        h, d, e = 3 * i + 2, 3 * i + 3, 3 * i + 4
        lines += [f"assume {h} lwff b : p", f"node {d} impI concl b : (p -> p) prem {h} disch {h}", f"node {e} impE concl b : p prem {d},{e - 3}"]
    root = parse_script("\n".join(lines + [f"root {e}"]) + "\n")
    assert check(root).accepted
    occurrences = [n.conclusion.formula for n in all_nodes(root)]
    objects = {id(f) for f in occurrences}
    assert len(objects) == 2 and len(occurrences) == 601
    assert len({id(f) for f in calls}) == len(calls)  # once per object
    assert 0 < len(calls) <= len(objects)  # not once per occurrence


def test_check_keeps_no_formula_after_it_returns(monkeypatch):
    made = []
    real = kernel._fold_from
    monkeypatch.setattr(kernel, "_fold_from", lambda f, *rest: made.append(weakref.ref(g := real(f, *rest))) or g)
    root = load_entry("A3")  # abbreviations: desugaring builds new objects
    assert check(root).accepted and not check(root).open_assumptions
    del root
    gc.collect()
    assert made and all(r() is None for r in made)


def _check_substituted_a7l(k=20):
    """Check A7L with ``p := tr(r U (r U ... s))``, ``k`` levels of ``U``.
    The image doubles its subformula per level, about 2^k tree nodes over
    a few objects per level, and every judgement names it."""
    y = Atom("s")
    for _ in range(k):
        y = Until(Atom("r"), y)
    t = translate(y)
    rules = {**formulas._HOMOMORPHIC, Atom: lambda x: t if x.name == "p" else x}
    report = check(map_formulas(load_entry("A7L"), lambda f: formulas._fold(f, rules)))
    assert report.accepted and not report.open_assumptions, report.message


def test_check_is_linear_in_shared_formula_objects(run_in_child):
    # Equal desugared copies of the substituted formula would be compared
    # node by node.
    run_in_child("test_kernel", "_check_substituted_a7l")


def _check_open_deep_assumption(k=20):
    """Check one open assumption over ``tr(r U (r U ... s))``, ``k`` levels
    of ``U``: about 4^k tree nodes over a few objects per level.  Reading
    the report's open set hashes it."""
    y = Atom("s")
    for _ in range(k):
        y = Until(Atom("r"), y)
    w = Lwff(("b",), desugar(translate(y)))
    report = check(Assume(1, w))
    assert report.accepted and report.open_assumptions == {w}


def test_formula_hash_is_linear_in_shared_objects(run_in_child):
    run_in_child("test_kernel", "_check_open_deep_assumption")


def test_check_hashes_a_900_level_formula():
    # Reading the report's open set hashes the formula.  A hash computed
    # recursively over the children raised RecursionError from about 500
    # levels on.
    f = Atom("p")
    for i in range(900):
        f = Implies(Atom(f"q{i % 3}"), f) if i % 2 else Always(f)
    w = Lwff(("b",), f)
    report = check(Assume(1, w))
    assert report.accepted and report.open_assumptions == {w}


def test_check_and_its_report_hash_no_formula(monkeypatch):
    # The report keeps the open judgments unhashed and to_dict prints them;
    # only reading open_assumptions builds, and hashes, the frozenset.
    lines = ["assume 1 lwff b : p0"]
    for i in range(1, 301):
        lines += [f"assume {2 * i} lwff b : (p{i - 1} -> p{i})", f"node {2 * i + 1} impE concl b : p{i} prem {2 * i},{2 * i - 1}"]
    root = parse_script("\n".join(lines + ["root 601"]) + "\n")
    hashed = []
    real = Formula.__hash__
    monkeypatch.setattr(Formula, "__hash__", lambda f: hashed.append(f) or real(f))
    report = check(root)
    verdict = report.to_dict()
    assert report.accepted and len(verdict["open_assumptions"]) == 301 and not hashed
    assert verdict["open_assumptions"] == sorted(verdict["open_assumptions"])
    opens = report.open_assumptions
    assert len(opens) == 301 and hashed and report.open_assumptions is opens


def test_equal_open_judgments_print_once():
    # b : (~ p) and b : (p -> bot) are two classes whose judgments are equal
    # after desugaring: one text, one element.
    root = parse_script(
        "assume 1 lwff b : (~ p)\n"
        "assume 2 lwff b : (p -> bot)\n"
        "node 3 impI concl b : ((p -> bot) -> (p -> bot)) prem 2\n"
        "node 4 impE concl b : (p -> bot) prem 3,1\n"
        "root 4\n"
    )
    report = check(root)
    assert report.to_dict() == {"verdict": "accepted", "conclusion": "b : (p -> bot)", "open_assumptions": ["b : (p -> bot)"]}
    assert report.open_assumptions == {Lwff(("b",), Implies(P, Bottom()))}
    assert len(open_assumption_classes(root)) == 2


def test_a_report_built_from_judgments_prints_as_checks_does():
    w = Lwff(("b",), Implies(P, Q))
    report = CheckReport(True, Lwff(("b",), Q), [w, Le("b", "c"), Lwff(("b",), Implies(P, Q))])
    assert report.to_dict()["open_assumptions"] == ["b : (p -> q)", "le(b,c)"]
    assert report.open_assumptions == {w, Le("b", "c")}
    assert report == CheckReport(True, Lwff(("b",), Q), frozenset({w, Le("b", "c")}))


def test_kernel_has_eighteen_rules():
    assert set(kernel._VALIDATORS) == {
        "botE", "impI", "impE", "GI", "GE", "XI", "XE", "histI", "histE",
        "last", "serS", "linS", "reflLe", "transLe", "eqLe", "splitLe", "baseLe", "ind",
    }
