import random
import re
import sys
import tracemalloc

import pytest

from nabla.corpus import ENTRIES
from nabla import semantics
from nabla.formulas import And, Always, Atom, Bottom, Formula, Hist, Implies, Next, Not, Or, Sometime, Until, atoms_of, desugar, format_formula, is_local, parse_h, temporal_depth
from nabla.gen import random_history_formula, random_obs_sequence, random_until_formula
from nabla.translate import translate
from nabla.fuzz import _draw_derivation
from nabla.kernel import Le, Lwff, Succ, format_generic, labels_of_generic
from nabla.semantics import (
    HorizonTooSmall,
    LassoModel,
    ModelFormatError,
    UnboundLabel,
    eval_generic,
    eval_h,
    eval_h_oracle,
    eval_ltl,
    falsify_consequence,
    format_model,
    parse_model,
    random_lasso,
)

P, Q = Atom("p"), Atom("q")

STEM_P_LOOP_Q = LassoModel((frozenset({"p"}),), (frozenset({"q"}),))
LOOP_P = LassoModel((), (frozenset({"p"}),))


def bounded_lasso(rng, symbols, max_stem, max_period):
    """random_lasso's draws, with other bounds on the stem and the loop."""
    s, p = rng.randint(0, max_stem), rng.randint(1, max_period)
    cells = [frozenset(x for x in symbols if rng.random() < 0.5) for _ in range(s + p)]
    return LassoModel(tuple(cells[:s]), tuple(cells[s:]))


def history_formula_within(rng, budget, depth):
    """A history formula of temporal depth at most ``depth``, redrawn at
    the same budget until one is."""
    f = random_history_formula(rng, budget)
    while temporal_depth(f) > depth:
        f = random_history_formula(rng, budget)
    return f


def until_by_unrolling(m, n, a, b, horizon=10):
    # Independent oracle: the truth clause for until, unrolled literally.
    for n2 in range(n, n + horizon + 1):
        if eval_ltl(m, n2, b) and all(eval_ltl(m, k, a) for k in range(n, n2)):
            return True
    return False


def test_eval_ltl_until_frozen_by_unrolling():
    assert until_by_unrolling(STEM_P_LOOP_Q, 0, P, Q) is True
    assert eval_ltl(STEM_P_LOOP_Q, 0, Until(P, Q)) is True


def test_eval_ltl_bottom_false_everywhere():
    rng = random.Random(0)
    for _ in range(50):
        m = random_lasso(rng, ["p", "q"])
        assert eval_ltl(m, rng.randint(0, 9), Bottom()) is False


def test_eval_ltl_always_frozen_by_window():
    # Brute force over a window far past the loop closure.
    assert all("p" in LOOP_P.valuation(k) for k in range(3, 60))
    assert eval_ltl(LOOP_P, 3, Always(P)) is True
    assert eval_ltl(STEM_P_LOOP_Q, 0, Always(P)) is False


def test_eval_ltl_periodicity():
    rng = random.Random(1)
    for _ in range(200):
        m = random_lasso(rng, ["p", "q"])
        a = random_until_formula(rng, rng.randint(0, 5))
        for n in range(m.stem_len, m.stem_len + 4):
            assert eval_ltl(m, n, a) == eval_ltl(m, n + m.period, a)


_UNTIL_CLASSES = (Atom, Bottom, Implies, Always, Next, Until, Not, Or, And, Sometime)
_ABBREVIATIONS = (Not, Or, And, Sometime)


def until_formula_with_abbreviations(rng, budget, root):
    """An until-language formula over p and q with at most ``budget``
    operators: class ``root`` at the root when ``budget`` allows an
    operator there, and any class of the language below it."""
    cls = root if budget else rng.choice((Atom, Bottom))
    if cls is Atom:
        return rng.choice((P, Q))
    if cls is Bottom:
        return Bottom()
    if cls in (Implies, Until, Or, And):
        k = rng.randint(0, budget - 1)
        return cls(*(until_formula_with_abbreviations(rng, b, rng.choice(_UNTIL_CLASSES)) for b in (k, budget - 1 - k)))
    return cls(until_formula_with_abbreviations(rng, budget - 1, rng.choice(_UNTIL_CLASSES)))


def test_eval_ltl_abbreviations_agree_with_desugaring_and_their_clauses():
    # Each formula has an abbreviation at its root.  Its truth must match
    # the desugared formula's, and the truth clause of the root, read off
    # the operands' truth: a wrong shared definition of an abbreviation
    # would be repeated on both sides of the first comparison, not the
    # second.  F a holds at n iff a holds somewhere in [n, max(n, s) + p).
    rng = random.Random(17)
    roots = dict.fromkeys(_ABBREVIATIONS, 0)
    for _ in range(1200):
        root = rng.choice(_ABBREVIATIONS)
        f = until_formula_with_abbreviations(rng, rng.randint(1, 6), root)
        m = random_lasso(rng, ["p", "q"])
        n = rng.randint(0, 12)
        got = eval_ltl(m, n, f)
        assert got == eval_ltl(m, n, desugar(f)), (m, n, f)
        if root is Sometime:
            clause = any(eval_ltl(m, k, f.operand) for k in range(n, max(n, m.stem_len) + m.period))
        elif root is Not:
            clause = not eval_ltl(m, n, f.operand)
        else:
            a, b = eval_ltl(m, n, f.left), eval_ltl(m, n, f.right)
            clause = (a or b) if root is Or else (a and b)
        assert got == clause, (m, n, f)
        roots[root] += 1
    assert min(roots.values()) >= 250


def test_eval_h_hist_frozen_by_direct_recursion():
    # p holds on [0,m] iff p in V(m); fails at m=1 where only q holds.
    values = ["p" in STEM_P_LOOP_Q.valuation(mm) for mm in range(0, 3)]
    assert values == [True, False, False]
    assert eval_h(STEM_P_LOOP_Q, (0, 2), Hist(P)) is False


def test_eval_h_singleton_hist_law():
    rng = random.Random(2)
    for _ in range(200):
        m = random_lasso(rng, ["p", "q"])
        a = random_history_formula(rng, rng.randint(0, 4))
        n = rng.randint(0, 8)
        assert eval_h(m, (n,), Hist(a)) == eval_h(m, (n,), a)


def test_eval_h_bottom_false():
    rng = random.Random(3)
    for _ in range(50):
        m = random_lasso(rng, ["p"])
        assert eval_h(m, random_obs_sequence(rng), Bottom()) is False


def test_eval_h_nonmonotone_sequences_allowed():
    m = STEM_P_LOOP_Q
    assert eval_h(m, (5, 0), Atom("p")) is True  # truth looks at the last element
    assert eval_h(m, (5, 0), Hist(P)) is True  # empty interval: vacuous


def test_eval_generic_relational_examples():
    i = {"b": 2, "c": 3}
    m = LOOP_P
    assert eval_generic(m, i, Le("b", "c")) is True
    assert eval_generic(m, i, Le("c", "b")) is False
    assert eval_generic(m, i, Succ("b", "c")) is True
    assert eval_generic(m, {"b": 2, "c": 2}, Succ("b", "c")) is False
    with pytest.raises(UnboundLabel):
        eval_generic(m, i, Le("b", "z"))


def test_eval_generic_labelled_examples():
    assert eval_generic(LOOP_P, {"b": 0}, Lwff(("b",), P)) is True
    rng = random.Random(4)
    for _ in range(30):
        m = random_lasso(rng, ["p"])
        i = {"a": rng.randint(0, 9)}
        assert eval_generic(m, i, Lwff(("a",), Bottom())) is False
    assert eval_generic(STEM_P_LOOP_Q, {"b": 0, "c": 2}, Lwff(("b", "c"), Hist(P))) is False
    with pytest.raises(UnboundLabel):
        eval_generic(LOOP_P, {}, Lwff(("b",), P))


def test_model_level_consequence_agrees_with_translation():
    # Validity on one model transfers across the translation in both
    # directions: holding at every canonical position equals holding at
    # every sampled observation sequence of the image.
    rng = random.Random(5)
    for _ in range(300):
        m = random_lasso(rng, ["p", "q"])
        a = random_until_formula(rng, rng.randint(0, 5))
        image = desugar(translate(a))
        window = m.stem_len + m.period
        lhs = all(eval_ltl(m, n, a) for n in range(window))
        sigmas = [(n,) for n in range(window)]
        sigmas += [random_obs_sequence(rng, max_len=3, max_value=window + 2) for _ in range(5)]
        rhs = all(eval_h(m, sigma, image) for sigma in sigmas)
        assert lhs == rhs


def test_oracle_agrees_on_random_grid():
    rng = random.Random(6)
    for _ in range(2000):
        m = random_lasso(rng, ["p", "q", "r"])
        f = history_formula_within(rng, rng.randint(0, 6), 3)
        sigma = random_obs_sequence(rng, max_len=3, max_value=6)
        horizon = max(sigma) + 4 * (m.stem_len + m.period)
        assert eval_h(m, sigma, f) == eval_h_oracle(m, sigma, f, horizon)


def test_oracle_agrees_past_the_loop():
    # Long sequences whose last pair sits at or past s + p, where eval_h
    # shifts the pair back by whole periods before looking up its memo.
    rng = random.Random(7)
    shifted = 0
    for _ in range(600):
        m = bounded_lasso(rng, ["p", "q"], 3, 3)
        window = m.stem_len + m.period
        f = history_formula_within(rng, rng.randint(0, 6), 2)
        sigma = random_obs_sequence(rng, max_len=5, max_value=window + 8)
        shifted += min(sigma[-2:]) >= window
        horizon = max(sigma) + 3 * window
        assert eval_h(m, sigma, f) == eval_h_oracle(m, sigma, f, horizon)
    assert shifted >= 150


def test_nested_hist_walks_its_range_once():
    # H (H p) at (i, n) holds iff p holds at every position in [i, n].  A
    # range walked once per outer step made this quadratic in the gap and
    # recursed once per position.
    hh, hhh = parse_h("(H (H p))"), parse_h("(H (H (H p)))")
    cells = [frozenset({"p"})] * 5
    for m in (LOOP_P, LassoModel(tuple(cells), (frozenset(),)), LassoModel(tuple(cells), (frozenset({"p"}),))):
        for seq in [(0, 3000), (4, 3000), (0, 4), (2, 3), (3000,), (7, 0, 3000)]:
            want = all("p" in m.valuation(k) for k in range(seq[-2] if len(seq) > 1 else seq[0], seq[-1] + 1))
            assert eval_h(m, seq, hh) is want, (m, seq)
            assert eval_h(m, seq, hhh) is want, (m, seq)


def test_oracle_agrees_on_wide_hist_gaps():
    # The last pair lies 20 or more positions apart, so every H walks a
    # long range, often one a nested H has partly walked already.  Gaps of
    # up to 150 lie well past the point where eval_h clamps the walk.
    rng = random.Random(8)
    for _ in range(300):
        m = bounded_lasso(rng, ["p", "q"], 3, 3)
        f = history_formula_within(rng, rng.randint(1, 6), 2)
        shape = rng.randrange(3)
        if shape == 1:
            f = Hist(Hist(f) if rng.random() < 0.5 else f)
        elif shape == 2:
            # One H object read twice: the second read starts from the
            # memo entries the first walk left, at ends short of its own.
            h = Hist(history_formula_within(rng, rng.randint(0, 3), 1))
            f = Implies(Implies(h, Bottom()), Hist(Implies(h, f)))
        i = rng.randint(0, 8)
        gap = rng.randint(20, 30) if rng.random() < 0.5 else rng.randint(31, 150)
        sigma = random_obs_sequence(rng, max_len=2, max_value=8) + (i, i + gap)
        horizon = max(sigma) + 3 * (m.stem_len + m.period) * 2
        assert eval_h(m, sigma, f) == eval_h_oracle(m, sigma, f, horizon), (m, sigma, f)


def test_oracle_agrees_on_hist_staircases():
    # H (q -> H (p -> H (q -> ... p))): the first position where a level
    # fails can lie up to a period past the first failure of the level
    # below, so how far eval_h must walk an H range grows with the nesting.
    # A walk clamped at a fixed number of periods answers true too often.
    rng = random.Random(9)
    for _ in range(600):
        m = bounded_lasso(rng, ["p", "q"], 2, 4)
        f = P
        for level in range(rng.randint(3, 8)):
            f = Hist(Implies(Q if level % 2 == 0 else P, f))
        i = rng.randint(0, 4)
        sigma = (i, i + rng.randint(12, 60))
        horizon = max(sigma) + (m.stem_len + m.period) * 9
        assert eval_h(m, sigma, f) == eval_h_oracle(m, sigma, f, horizon), (m, sigma, f)


def negate_first(f, name):
    """``f`` with the first occurrence of the atom ``name`` negated, and
    whether there was one."""
    if isinstance(f, Atom):
        return (Not(f), True) if f.name == name else (f, False)
    if isinstance(f, Bottom):
        return f, False
    if not hasattr(f, "left"):
        operand, found = negate_first(f.operand, name)
        return type(f)(operand), found
    left, found = negate_first(f.left, name)
    if found:
        return type(f)(left, f.right), True
    right, found = negate_first(f.right, name)
    return type(f)(left, right), found


def test_eval_h_nested_always_on_axioms():
    # G^5 of every translated corpus axiom: valid, so no short-circuit cuts
    # the nested G windows short.
    cells = [frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})]
    m = LassoModel(tuple(cells), (cells[2], cells[1], cells[3], cells[0]))
    for entry in ENTRIES:
        f = entry.source
        for _ in range(5):
            f = Always(f)
        image = translate(f)
        for sigma in [(0,), (3, 6), (9, 2, 13)]:
            assert eval_h(m, sigma, image) is True, (entry.name, sigma)
    # The invalid half: each axiom with its first p (q for A8) negated,
    # under G^k, where the first failing position decides every G.
    rng = random.Random(18)
    seen = set()
    for entry in ENTRIES:
        source, found = negate_first(entry.source, "q" if entry.name == "A8" else "p")
        assert found, entry.name
        for k in (1, 2, 3):
            source = Always(source)
            image = translate(source)
            for _ in range(300):
                m = bounded_lasso(rng, ["p", "q"], 5, 4)
                sigma = random_obs_sequence(rng, max_len=3, max_value=10)
                want = eval_ltl(m, sigma[-1], source)
                assert eval_h(m, sigma, image) is want, (entry.name, k, m, sigma)
                seen.add(want)
    assert seen == {True, False}


# The constructor of every formula node class.
NODE_INITS = frozenset(cls.__init__.__code__ for cls in (Atom, Bottom, Implies, Always, Next, Until, Hist, Not, Or, And, Sometime))


def count_work(m, sigma, f):
    """The work ``eval_h`` does on ``f`` at ``sigma``: ``folded``, the
    subformula objects folded, ``rows``, the rows computed for the objects
    that are not local, and ``built``, the formula objects constructed.
    Callers look an object up before they fold it, so each call of
    ``semantics._fold_h`` is one object, and one that returns a list of
    rows computed that many rows."""
    work = dict.fromkeys(("folded", "rows", "built"), 0)
    fold = semantics._fold_h.__code__

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is fold:
                work["folded"] += 1
            elif frame.f_code in NODE_INITS:
                work["built"] += 1
        elif event == "return" and frame.f_code is fold and type(arg) is list:
            work["rows"] += len(arg)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        eval_h(m, sigma, f)
    finally:
        sys.setprofile(previous)
    return work


def objects_of(f):
    """The distinct objects ``f`` is made of."""
    seen, todo = {}, [f]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            todo += [c for c in x.__dict__.values() if isinstance(c, Formula)]
    return list(seen.values())


def distinct_objects(f):
    """How many distinct objects ``f`` is made of."""
    return len(objects_of(f))


def test_eval_h_reads_the_abbreviations_of_an_image_in_place():
    # An image of translate carries the |, &, F and ~ of tr(p U q) =
    # q | F((X q) & (H p)).  eval_h reads them where they stand: it builds
    # no formula, as desugaring them would, and folds each distinct object
    # of the image once.
    cells = [frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})]
    m = LassoModel(tuple(cells), (cells[2], cells[1], cells[3], cells[0]))
    abbreviated = 0
    for entry in ENTRIES:
        f = entry.source
        for _ in range(3):
            f = Always(f)
            image = translate(f)
            abbreviated += desugar(image) is not image
            for sigma in [(0,), (3, 6), (9, 2, 13)]:
                work = count_work(m, sigma, image)
                assert (work["built"], work["folded"]) == (0, distinct_objects(image)), (entry.name, sigma, work)
    # A3, A5, A7L, A7R and A8 carry abbreviations.
    assert abbreviated == 3 * 5


def test_eval_h_nested_always_costs_one_pass_per_level():
    # Each level adds a G over an operand that reads the level below twice.
    # Over a local operand, a level folds two objects (G and ->).  Over
    # (H X -> H X), which is not local, it folds three (G, -> and H) and
    # computes the rows 0 .. s+p of two (-> and H), 17 each at s+p = 16:
    # an evaluator that recomputed the rows of H X each time -> asked for
    # them would compute three sets.  A G that walked its two-period window
    # at each position cost 215 calls per level here.
    cells = [frozenset({"p"}) if k % 2 else frozenset() for k in range(16)]
    m = LassoModel(tuple(cells[:8]), tuple(cells[8:]))
    rows = 8 + 8 + 1

    def always_twice(f):
        return Always(Implies(f, f))

    def always_hist_twice(f):
        h = Hist(f)
        return Always(Implies(h, h))

    def hist_twice(f):
        return Hist(Implies(f, f))

    # H levels are not local, so every level folds two objects and computes
    # the rows of both, where recomputing a row each time it is asked for
    # would double the count per level.
    for level, cost in [(always_twice, 2), (always_hist_twice, 3 + 2 * rows), (hist_twice, 2 + 2 * rows)]:
        f = Hist(P)
        counts = []
        for _ in range(8):
            f = level(f)
            work = count_work(m, (2, 5), f)
            counts.append(work["folded"] + work["rows"])
        steps = [b - a for a, b in zip(counts, counts[1:])]
        assert counts[0] > 0 and steps == [cost] * 7, (level.__name__, counts)


def compound_occurrences(f):
    """How many operator nodes ``f`` has, a shared one at each occurrence."""
    children = [c for c in f.__dict__.values() if isinstance(c, Formula)]
    return (1 if children else 0) + sum(compound_occurrences(c) for c in children)


def test_eval_h_folds_each_object_once_to_its_mask_or_its_rows():
    # One walk: each distinct object is folded once, a local one to its mask
    # and any other to its rows 0 .. s+p, so the rows number s+p+1 per
    # distinct object that is not local, whatever row the entry pair asks
    # for, however far its column lies, and however often an object is
    # shared.  Every top here is not local.
    rng = random.Random(3201)
    shared = 0
    for _ in range(400):
        f = history_formula_with_abbreviations(rng, rng.randint(2, 12), [])
        while is_local(f):
            f = history_formula_with_abbreviations(rng, rng.randint(2, 12), [])
        m = bounded_lasso(rng, ["p", "q"], 5, 5)
        seq = list(random_obs_sequence(rng, max_len=3, max_value=14))
        if rng.random() < 0.25:
            seq[-1] += semantics._WIDE + rng.randint(1, 40)
        objects = objects_of(f)
        work = count_work(m, tuple(seq), f)
        not_local = sum(not is_local(x) for x in objects)
        assert work["folded"] == len(objects), (format_formula(f), work)
        assert work["rows"] == (m.stem_len + m.period + 1) * not_local, (format_formula(f), m, seq, work)
        compound = [x for x in objects if type(x) not in (Atom, Bottom)]
        shared += compound_occurrences(f) > len(compound)
    assert shared >= 100, shared



def test_eval_h_agrees_with_the_oracle_past_the_fuzzers_depth():
    # fuzz compares eval_h with the oracle only up to temporal depth 2
    # (fuzz._ORACLE_DEPTH).  Here: formulas of depth exactly 3 and 4 on
    # lassos small enough for the oracle's whole-tuple memo, at its minimum
    # horizon.
    rng = random.Random(21)
    for depth, window, cases in [(3, 4, 300), (4, 3, 300)]:
        seen = {True: 0, False: 0}
        for _ in range(cases):
            f = random_history_formula(rng, rng.randint(depth, 9))
            while temporal_depth(f) != depth:
                f = random_history_formula(rng, rng.randint(depth, 9))
            m = bounded_lasso(rng, ["p", "q"], window - 1, window)
            while m.stem_len + m.period > window:
                m = bounded_lasso(rng, ["p", "q"], window - 1, window)
            sigma = random_obs_sequence(rng, max_len=3, max_value=2 * window)
            horizon = max(sigma) + (m.stem_len + m.period) * depth + 1
            want = eval_h_oracle(m, sigma, f, horizon)
            assert eval_h(m, sigma, f) == want, (m, sigma, f)
            seen[want] += 1
        assert min(seen.values()) >= 50, (depth, seen)


def folded_pair(m, i, n, f):
    """The pair ``eval_h`` answers ``(i, n)`` from: ``(n + 1, n)`` when
    ``i > n``, both shifted back by whole periods while both lie at or past
    ``s + p``, then the column folded back by periods to at most
    ``max(i, s + p) + p * (temporal_depth(f) + 1)``."""
    s, p = m.stem_len, m.period
    if i > n:
        i = n + 1
    if min(i, n) >= s + p:
        periods = (min(i, n) - s) // p
        i, n = i - periods * p, n - periods * p
    bound = max(i, s + p) + p * (temporal_depth(f) + 1)
    if n > bound:
        n -= (n - bound + p - 1) // p * p
    return i, n


def test_eval_h_far_positions_fold_back_in_constant_memory():
    # One column mask per position up to 10**7 would take 1.2 MiB.
    rng = random.Random(22)
    far = [(0, 10**7), (3, 10**7), (10**7, 2), (10**7 + 1, 10**7 + 40)]
    for _ in range(60):
        m = bounded_lasso(rng, ["p", "q"], 2, 4)
        f = Hist(history_formula_within(rng, rng.randint(0, 5), 1))
        shape = rng.randrange(3)
        if shape == 1:
            f = Implies(Hist(Implies(Q, f)), f)
        elif shape == 2:
            # A staircase (see test_oracle_agrees_on_hist_staircases): the
            # column where it settles moves out a period per level.
            for level in range(rng.randint(3, 8)):
                f = Hist(Implies(Q if level % 2 == 0 else P, f))
        for i, n in far:
            small = folded_pair(m, i, n, f)
            want = eval_h_oracle(m, small, f, max(small) + (m.stem_len + m.period) * temporal_depth(f) + 1)
            tracemalloc.start()
            try:
                got = eval_h(m, (i, n), f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want, (m, (i, n), small, f)
            assert peak < 64 * 1024, (m, (i, n), f, peak)


def test_eval_h_deep_chains_evaluate_without_recursion_error():
    # 900 levels, built by constructors: the evaluator takes one frame per
    # level, as the fold that desugars the formula does.
    cells = [frozenset({"p", "q"}), frozenset({"p"}), frozenset({"q"})]
    m = LassoModel(tuple(cells[:1]), tuple(cells[1:]))
    rng = random.Random(23)
    wraps = {"H": Hist, "X": Next, "G": Always, "q->": lambda f: Implies(Q, f)}
    chains = [[name] * 900 for name in wraps] + [[rng.choice(list(wraps)) for _ in range(900)] for _ in range(3)]
    for chain in chains:
        f = P
        for name in chain:
            f = wraps[name](f)
        for sigma in [(0,), (2, 5), (6, 1)]:
            assert eval_h(m, sigma, f) in (True, False)
    # Where the answer is plain: H^900 p at (0, n) is p on [0, n], and
    # (q -> ...)^900 p at n is q -> p at n.  p fails first at 2, where q
    # holds.
    hist, imp = P, P
    for _ in range(900):
        hist, imp = Hist(hist), Implies(Q, imp)
    assert [eval_h(m, (0, n), hist) for n in range(4)] == [True, True, False, False]
    assert [eval_h(m, (n,), imp) for n in range(4)] == [True, True, False, True]


def test_always_read_again_at_a_lower_stem_position():
    # Parsed formulas share their G objects, so one G is evaluated at a
    # stem position and then at lower ones, whose walk stops at the
    # memoised entry above and reads it.
    a5 = next(e.source for e in ENTRIES if e.name == "A5")
    formulas = [parse_h("((X (X (G p))) | (X (G p)))"), parse_h("((X (X (X (G p)))) | (G p))"), translate(a5)]
    cases = 0
    for size in range(1, 5):
        for s in range(size):
            for bits in range(2**size):
                cells = [frozenset({"p"}) if bits >> k & 1 else frozenset() for k in range(size)]
                m = LassoModel(tuple(cells[:s]), tuple(cells[s:]))
                for sigma in [(0,), (1,), (2,), (0, 2), (3, 1)]:
                    for f in formulas:
                        horizon = max(sigma) + size * temporal_depth(f) + 1
                        assert eval_h(m, sigma, f) == eval_h_oracle(m, sigma, f, horizon), (m, sigma, f)
                        cases += 1
    assert cases == 98 * 5 * 3


def test_oracle_horizon_precondition():
    f = parse_h("(G (G (G p)))")
    with pytest.raises(HorizonTooSmall):
        eval_h_oracle(LOOP_P, (5,), f, 7)
    # The minimum is max(seq) + (s + p) * depth + 1.
    f = parse_h("(G (X (H p)))")
    with pytest.raises(HorizonTooSmall):
        eval_h_oracle(STEM_P_LOOP_Q, (4, 1), f, 10)
    assert eval_h_oracle(STEM_P_LOOP_Q, (4, 1), f, 11) == eval_h(STEM_P_LOOP_Q, (4, 1), f)
    # Above the minimum, G still ranges over [n, n + horizon - max(seq)],
    # and H over [seq[-2], seq[-1]], each up to the first position where
    # the operand fails.  No truth value shows this on a lasso, where any
    # window the minimum allows decides G, so the cells read are recorded.
    read = []

    class Cell(frozenset):
        def __contains__(self, name):
            read.append(self.at)
            return frozenset.__contains__(self, name)

    cells = [Cell({"p"}) for _ in range(7)]
    for k, cell in enumerate(cells):
        cell.at = k
    m = LassoModel(tuple(cells[:4]), tuple(cells[4:]))
    for seq, f, horizon, want in [
        ((2,), Always(P), 20, range(2, 21)),
        ((0, 2), Always(Q), 12, [2]),
        ((3, 9), Hist(P), 17, range(3, 10)),
        ((9, 3), Hist(P), 17, []),
    ]:
        read.clear()
        eval_h_oracle(m, seq, f, horizon)
        assert read == [m.canon(n) for n in want], (seq, f)


def test_oracle_refuses_a_formula_outside_the_core():
    # The oracle reads only the core connectives; eval_h_oracle desugars first.
    f = Or(P, Q)
    with pytest.raises(TypeError, match="^not a core formula: "):
        semantics._eval_h_oracle(LOOP_P, (0,), f, 1)
    assert eval_h_oracle(LOOP_P, (0,), f, 1) is True


def test_falsify_examples():
    goal = Lwff(("b",), P)
    assert falsify_consequence([Lwff(("b",), P)], goal, 200, seed=9) is None
    cx = falsify_consequence([], goal, 100, seed=9)
    assert cx is not None
    assert "p" not in cx.model.valuation(cx.interpretation["b"])
    anything = Lwff(("b",), Q)
    assert falsify_consequence([Lwff(("b",), Bottom())], anything, 200, seed=9) is None


def test_falsify_work_does_not_depend_on_the_premise_order(monkeypatch):
    # The premises are evaluated in one fixed order, so the evaluations
    # stop at the same false premise whichever order a caller's set
    # iterates in.  Here p is false in some samples and (p -> p) in none.
    real, calls = semantics._read_h, []
    monkeypatch.setattr(semantics, "_read_h", lambda *a: calls.append(None) or real(*a))
    a, b = Lwff(("b",), P), Lwff(("b",), Implies(P, P))
    counts = []
    for premises in ([a, b], [b, a]):
        calls.clear()
        assert falsify_consequence(premises, Lwff(("b",), Implies(Q, Q)), 50, seed=3) is None
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_falsify_deterministic():
    goal = Lwff(("b",), P)
    a = falsify_consequence([], goal, 100, seed=13)
    b = falsify_consequence([], goal, 100, seed=13)
    assert a.to_dict() == b.to_dict()


def test_falsify_replays_the_literal_draws_and_clauses():
    # Seeded derivations against their own conclusion, another one's and a
    # relational goal: each result, counterexample or None, is the one a
    # literal replay finds, which draws a lasso, then a position per label
    # in name order, and evaluates every premise and then the goal.
    rng = random.Random(24)
    derivations = [_draw_derivation(rng, i, 6) for i in range(100)]
    cases = []
    for k, d in enumerate(derivations):
        premises = sorted(d.open_assumptions, key=format_generic)
        other = derivations[(k + 1) % len(derivations)].conclusion
        cases += [(premises, d.conclusion, d.seed), (premises, other, d.seed + 1)]
        if k % 10 == 0:
            b, c = sorted(labels_of_generic(d.conclusion) | {"b", "c"})[:2]
            cases += [(premises, Le(c, b), d.seed + 2), (premises, Succ(b, c), d.seed + 3)]

    def replay(premises, goal, samples, seed):
        every = premises + [goal]
        labels = sorted({x for phi in every for x in labels_of_generic(phi)})
        symbols = sorted({a for phi in every if isinstance(phi, Lwff) for a in atoms_of(phi.formula)})
        rng = random.Random(seed)
        for i in range(samples):
            m = bounded_lasso(rng, symbols or ["p"], 4, 3)
            interp = {lab: rng.randint(0, 12) for lab in labels}
            if all(eval_generic(m, interp, phi) for phi in premises) and not eval_generic(m, interp, goal):
                return {"model": m.to_dict(), "interpretation": interp, "sample_index": i, "failing": format_generic(goal)}
        return None

    found = {"lwff": 0, "rwff": 0}
    for premises, goal, seed in cases:
        cx = falsify_consequence(premises, goal, 40, seed)
        got = None if cx is None else cx.to_dict()
        assert got == replay(premises, goal, 40, seed), (premises, goal, seed)
        if got is not None:
            found["lwff" if isinstance(goal, Lwff) else "rwff"] += 1
    assert found["lwff"] >= 10 and found["rwff"] >= 2, found


def test_lasso_model_keeps_its_dataclass_behaviour():
    # LassoModel's constructor is hand-written; it still refuses an empty
    # loop, and equality, hashing, repr and immutability are the dataclass's.
    with pytest.raises(ValueError):
        LassoModel((frozenset({"p"}),), ())
    m = LassoModel(stem=(frozenset({"p"}),), loop=(frozenset({"q"}),))
    assert m == STEM_P_LOOP_Q and hash(m) == hash(STEM_P_LOOP_Q) and m != LOOP_P
    assert repr(LOOP_P) == "LassoModel(stem=(), loop=(frozenset({'p'}),))"
    with pytest.raises(AttributeError):
        m.stem = ()


def test_below_is_randranges_draw():
    # _below makes randrange(n)'s own getrandbits calls: the same values and
    # the same generator state after them, so every seeded stream stays
    # random.Random's.  A Python whose randrange draws otherwise fails here
    # before any golden moves.
    for n in [*range(1, 71), 2**32]:
        for seed in range(21):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [semantics._below(ours, n) for _ in range(500)] == [theirs.randrange(n) for _ in range(500)], (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)


def test_below_refuses_an_empty_range():
    # As randrange does; an empty range would otherwise never leave the loop.
    rng = random.Random(3)
    state = rng.getstate()
    for n in (0, -1, -8):
        with pytest.raises(ValueError):
            semantics._below(rng, n)
    with pytest.raises(ValueError):
        random_obs_sequence(rng, max_len=1, min_len=2)
    assert rng.getstate() == state


def test_model_file_roundtrip():
    text = format_model(STEM_P_LOOP_Q)
    assert parse_model(text) == STEM_P_LOOP_Q
    rng = random.Random(8)
    for _ in range(20):
        m = random_lasso(rng, ["p", "q", "r"])
        assert parse_model(format_model(m)) == m


def test_model_file_errors():
    with pytest.raises(ModelFormatError):
        parse_model("stem 1\nloop 1\nat 0: p\nend")  # missing a row
    with pytest.raises(ModelFormatError):
        parse_model("loop 1\nstem 0\nat 0:\nend")
    with pytest.raises(ModelFormatError):
        parse_model("stem 0\nloop 1\nat 0: p\n")
    # A header takes one value, as an 'at' row takes its one index.
    for header in ["stem 1 7\nloop 1", "stem 1\nloop 1 junk"]:
        with pytest.raises(ModelFormatError, match="^bad stem/loop header"):
            parse_model(f"{header}\nat 0: p\nat 1: q\nend")
    # A cell holds only names that the formula parsers read as atoms.
    for cell in ["p,q", "p bot", "G", "X p", "_p", "1p", "p²", "e\u0301"]:
        with pytest.raises(ModelFormatError, match="^at 1: "):
            parse_model(f"stem 1\nloop 1\nat 0: p\nat 1: {cell}\nend")
    assert parse_model("stem 0\nloop 1\nat 0: p_1 Q x2 é\nend").loop == (frozenset({"p_1", "Q", "x2", "é"}),)


def test_model_file_header_fields_are_whitespace_separated():
    # As in an 'at' row, any run of whitespace separates a header's fields.
    for stem, loop in [("stem\t1", "loop 1"), ("stem 1", "loop\t 1"), ("stem \u00a01", "loop\u20031")]:
        assert parse_model(f"{stem}\n{loop}\nat\t0:\tp\nat 1: q\nend") == STEM_P_LOOP_Q, (stem, loop)
    # A keyword that only begins the field is still no header, and a
    # keyword alone has no number.
    for header in ["stems 1\nloop 1", "stem 1\nloop1"]:
        with pytest.raises(ModelFormatError, match="^model file must start with 'stem <s>' and 'loop <p>' lines$"):
            parse_model(f"{header}\nat 0: p\nat 1: q\nend")
    with pytest.raises(ModelFormatError, match="^bad stem/loop header 'stem'"):
        parse_model("stem\nloop 1\nat 0: p\nend")


def test_model_file_refuses_an_empty_loop():
    with pytest.raises(ModelFormatError, match="^need loop >= 1$"):
        parse_model("stem 0\nloop 0\nend")


def test_eval_generic_dispatch():
    m = LOOP_P
    i = {"b": 1, "c": 2}
    assert eval_generic(m, i, Le("b", "c")) is True
    assert eval_generic(m, i, Lwff(("b",), P)) is True


def test_eval_rejects_wrong_language():
    with pytest.raises(ValueError, match="not an until-language formula"):
        eval_ltl(LOOP_P, 0, Or(P, Hist(P)))
    with pytest.raises(ValueError, match="positions are natural numbers"):
        eval_ltl(LOOP_P, -1, P)
    for seq, f in [((0,), Until(P, Q)), ((), P), ((3, -1), P), ((-2,), Hist(P))]:
        with pytest.raises(ValueError):
            eval_h(LOOP_P, seq, f)
        with pytest.raises(ValueError):
            eval_h_oracle(LOOP_P, seq, f, 100)
    # eval_h's fold checks the language, under an abbreviation too, with
    # the message of the checked fold.
    for f in [Sometime(Until(P, Q)), Not(Until(P, Q)), And(Until(P, Q), Q)]:
        message = f"^not a history-language formula: {re.escape(format_formula(f))}$"
        with pytest.raises(ValueError, match=message):
            eval_h(LOOP_P, (0, 1), f)
        with pytest.raises(ValueError, match=message):
            eval_h_oracle(LOOP_P, (0, 1), f, 100)


def test_public_evaluators_desugar_abbreviations():
    g = parse_h("((H q) | (F p))")
    for seq in [(0,), (2, 5), (1, 0, 3)]:
        want = eval_h(STEM_P_LOOP_Q, seq, desugar(g))
        assert eval_h(STEM_P_LOOP_Q, seq, g) == want
        assert eval_h_oracle(STEM_P_LOOP_Q, seq, g, max(seq) + 10) == want


def history_formula_with_abbreviations(rng, budget, drawn):
    """A history formula of ``budget`` operators over every node class but
    ``U``.  Every fifth unary node is an ``H``, so operands that are not
    local fall under each operator, and at times a formula already in
    ``drawn`` comes back, so that objects are shared."""
    if budget == 0:
        return rng.choice([P, Q, Bottom()])
    if drawn and rng.random() < 0.15:
        return rng.choice(drawn)
    if rng.random() < 0.5:
        f = rng.choice([Not, Sometime, Always, Next, Hist])(history_formula_with_abbreviations(rng, budget - 1, drawn))
    else:
        k = rng.randint(0, budget - 1)
        left = history_formula_with_abbreviations(rng, k, drawn)
        f = rng.choice([Implies, Or, And])(left, history_formula_with_abbreviations(rng, budget - 1 - k, drawn))
    drawn.append(f)
    return f


def test_eval_h_reads_abbreviations_as_their_desugaring():
    # eval_h reads ~, |, & and F in place; the body on the desugared
    # formula reads the core clauses alone.  Some sequences end past
    # _WIDE, where the column folds back.
    rng = random.Random(2029)
    over_nonlocal = set()
    for _ in range(20000):
        f = history_formula_with_abbreviations(rng, rng.randint(1, 9), [])
        m = bounded_lasso(rng, ["p", "q"], 4, 4)
        seq = [rng.randint(0, 12) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            seq[-1] += semantics._WIDE + rng.randint(1, 40)
        seq = tuple(seq)
        assert eval_h(m, seq, f) == semantics._eval_h(m, seq, desugar(f)), (format_formula(f), m, seq)
        if type(f) is not Hist and not all(is_local(y) for y in f.__dict__.values() if isinstance(y, Formula)):
            over_nonlocal.add(type(f))
    assert over_nonlocal == {Not, Or, And, Sometime, Always, Next, Implies}


def test_falsify_rejects_a_premise_outside_the_history_language():
    with pytest.raises(ValueError):
        falsify_consequence([Le("b", "c"), Lwff(("b",), Until(P, Q))], Lwff(("b",), P), 10, seed=1)


def test_falsify_evaluates_the_goal_once_per_sample_where_the_premises_hold(monkeypatch):
    # The goal is desugared once per call, like the premises, and read
    # exactly on the samples where every premise holds, at the canonical
    # position of its label; the premises must agree with the public route
    # on each sample.  Replaying the draws gives those samples.
    premises = [Lwff(("b",), P), Le("b", "c"), Lwff(("b", "c"), Or(Hist(Q), P))]
    goal = Lwff(("b",), Or(Q, P))
    goal_text = format_formula(desugar(goal.formula))
    real = semantics._read_h
    calls, cores = [], []

    def counting(g, memo, vals, s, p, loops, i, n):
        if format_formula(g) == goal_text:
            m = LassoModel(vals[:s], vals[s:])
            calls.append((m, m.canon(n)))
            cores.append(g)
        return real(g, memo, vals, s, p, loops, i, n)

    monkeypatch.setattr(semantics, "_read_h", counting)
    assert falsify_consequence(premises, goal, 300, seed=5) is None
    rng = random.Random(5)
    useful = []
    for _ in range(300):
        m = random_lasso(rng, ["p", "q"])
        interp = {lab: rng.randint(0, 12) for lab in ["b", "c"]}
        if all(eval_generic(m, interp, phi) for phi in premises):
            useful.append((m, m.canon(interp["b"])))
    assert 0 < len(useful) < 300
    assert calls == useful
    assert all(g is cores[0] for g in cores)


def test_falsify_decodes_and_folds_only_what_a_sample_reads(monkeypatch):
    # A sample whose relational premises fail decodes no cell; a sample
    # that builds a model folds through one memo, each formula object at
    # most once, though the premises and the goal share X and (X -> Y).
    X, Y = Hist(P), Next(Q)
    XY = Implies(X, Y)
    premises = [Le("b", "c"), Le("c", "d"), Lwff(("b", "c"), X), Lwff(("c",), XY), Lwff(("b", "d"), Implies(XY, X))]
    goal = Lwff(("b", "d"), Implies(X, XY))
    rng = random.Random(8)
    related = 0
    for _ in range(400):
        random_lasso(rng, ["p", "q"])
        b, c, d = (rng.randint(0, 12) for _ in range(3))
        related += b <= c <= d
    decodes, folds = [], {}
    cells, fold = semantics._lasso_cells, semantics._fold_h

    def decode(*args):
        decodes.append(None)
        return cells(*args)

    def counting(x, memo, *rest):
        seen = folds.setdefault(id(memo), (memo, []))[1]
        seen.append(id(x))
        return fold(x, memo, *rest)

    monkeypatch.setattr(semantics, "_lasso_cells", decode)
    monkeypatch.setattr(semantics, "_fold_h", counting)
    assert falsify_consequence(premises, goal, 400, seed=8) is None
    assert 0 < related < 400
    assert len(decodes) == len(folds) == related
    assert all(len(ids) == len(set(ids)) for _, ids in folds.values())
    # Where the goal is read, all seven objects fold: P, Q, X, Y, X -> Y,
    # and the tops of the last premise and of the goal.
    assert max(len(ids) for _, ids in folds.values()) == 7


def test_falsify_reads_each_judgment_at_its_last_two_labels():
    # With bot as the goal, the counterexample is the first sample where
    # every premise holds; H reads the range between the last two labels
    # of a three-label sequence, which the public route reads in full.
    premises = [Lwff(("b", "c", "d"), Hist(P)), Lwff(("d", "b", "c"), Hist(Implies(Q, P)))]
    goal = Lwff(("b",), Bottom())
    found = 0
    for seed in range(60):
        cx = falsify_consequence(premises, goal, 8, seed)
        rng, first = random.Random(seed), None
        for i in range(8):
            m = random_lasso(rng, ["p", "q"])
            interp = {lab: rng.randint(0, 12) for lab in ["b", "c", "d"]}
            if first is None and all(eval_generic(m, interp, phi) for phi in premises):
                first = (m, interp, i)
        assert (None if cx is None else (cx.model, cx.interpretation, cx.sample_index)) == first, seed
        found += first is not None
    assert 0 < found < 60


def test_falsify_refuses_fewer_than_one_sample():
    for samples in (0, -3):
        with pytest.raises(ValueError):
            falsify_consequence([], Lwff(("b",), P), samples, seed=1)


def test_draw_lasso_is_the_coin_per_symbol_draw():
    # One getrandbits for all the coins reads the words random() would:
    # the same cells, and the generator left in the same state.  The
    # falsifier's words decode to random_lasso's cells.
    for k in range(7):
        syms = [f"a{j}" for j in range(k)]
        for seed in range(200):
            drawn, literal, words = random.Random(seed), random.Random(seed), random.Random(seed)
            for _ in range(20):
                m = bounded_lasso(literal, syms or ["p"], 4, 3)
                assert random_lasso(drawn, syms) == m
                assert semantics._lasso_cells(tuple(syms or ["p"]), *semantics._lasso_words(words, max(k, 1))) == (m.stem, m.loop)
            assert drawn.getstate() == literal.getstate() == words.getstate()


def test_draw_lasso_keeps_only_the_cells_it_drew():
    syms = tuple(f"a{j}" for j in range(40))
    m = random_lasso(random.Random(1), syms)
    assert len(semantics._cells(syms)) <= len(m.stem) + len(m.loop)
    assert all(cell <= set(syms) for cell in m.stem + m.loop)
