"""The value classes keep the behaviour their ``dataclass`` definitions had:
constructor defaults, positional ``match``, the ``repr`` text, immutability,
and value or identity equality and hashing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nabla
from nabla.corpus import CorpusEntry, CorpusResult, MutationFixture
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
    Sometime,
    Until,
)
from nabla.fuzz import FuzzReport
from nabla.kernel import Apply, Assume, CheckReport, Le, Lwff, Succ
from nabla.semantics import Counterexample, LassoModel

P, Q = Atom("p"), Atom("q")
BINARY = (Implies, Until, Or, And)
UNARY = (Always, Next, Hist, Not, Sometime)
LWFF = Lwff(("a", "b"), Implies(P, Bottom()))
MODEL = LassoModel((frozenset({"p"}),), (frozenset(),))


def _values():
    """One instance of every value class, built anew on each call, with the
    ``repr`` the dataclass definitions printed."""
    a = Assume(1, Lwff(("a", "b"), Implies(P, Bottom())))
    conclusion = Lwff(("a", "b"), Implies(Implies(P, Bottom()), Implies(P, Bottom())))
    pp = "Atom(name='p')"
    lw = f"Lwff(seq=('a', 'b'), formula=Implies(left={pp}, right=Bottom()))"
    model = "LassoModel(stem=(frozenset({'p'}),), loop=(frozenset(),))"
    return [
        *((c(P, Q), f"{c.__name__}(left={pp}, right=Atom(name='q'))") for c in BINARY),
        *((c(P), f"{c.__name__}(operand={pp})") for c in UNARY),
        (Atom("p"), pp),
        (Bottom(), "Bottom()"),
        (Lwff(("a", "b"), Implies(P, Bottom())), lw),
        (Le("a", "b"), "Le(a='a', b='b')"),
        (Succ("a", "b"), "Succ(a='a', b='b')"),
        (a, f"Assume(id=1, formula={lw})"),
        (
            Apply(2, "impI", conclusion, (a,), (a,)),
            f"Apply(id=2, rule='impI', conclusion=Lwff(seq=('a', 'b'), formula=Implies(left=Implies(left={pp}, "
            f"right=Bottom()), right=Implies(left={pp}, right=Bottom()))), premises=(Assume(id=1, formula={lw}),), "
            f"discharges=(Assume(id=1, formula={lw}),))",
        ),
        (
            CheckReport(False, node_id=3, reason="R", message="m"),
            "CheckReport(accepted=False, conclusion=None, open_assumptions=frozenset(), node_id=3, reason='R', message='m')",
        ),
        (LassoModel((frozenset({"p"}),), (frozenset(),)), model),
        (
            Counterexample(MODEL, {"a": 1}, 4, "goal"),
            f"Counterexample(model={model}, interpretation={{'a': 1}}, sample_index=4, failing='goal')",
        ),
        (CorpusEntry("A2", P, "A2.ndp"), f"CorpusEntry(name='A2', source={pp}, script='A2.ndp', simplified_core=None)"),
        (MutationFixture("x", "R", "x.ndp"), "MutationFixture(name='x', expected_reason='R', script='x.ndp')"),
        (CorpusResult("A2", "entry", True, "ok"), "CorpusResult(name='A2', kind='entry', ok=True, detail='ok')"),
        (
            FuzzReport("last", 10, 1, 6),
            "FuzzReport(lemma='last', samples=10, seed=1, max_size=6, checked=0, ok=True, counterexample=None)",
        ),
    ]


def _fields(x):
    return type(x).__match_args__


def test_repr_is_the_dataclass_text():
    for x, text in _values():
        assert repr(x) == text


def test_positional_match_reads_the_fields_in_order():
    for x, _ in _values():
        fields = _fields(x)
        got = None
        match x:
            case Bottom():
                got = ()
            case Atom(name):
                got = (name,)
            case Implies(a, b) | Until(a, b) | Or(a, b) | And(a, b) | Le(a, b) | Succ(a, b):
                got = (a, b)
            case Always(a) | Next(a) | Hist(a) | Not(a) | Sometime(a):
                got = (a,)
            case Lwff(a, b) | Assume(a, b) | LassoModel(a, b):
                got = (a, b)
            case Apply(a, b, c, d, e):
                got = (a, b, c, d, e)
            case CheckReport(a, b, c, d, e, f):
                got = (a, b, c, d, e, f)
            case Counterexample(a, b, c, d) | CorpusEntry(a, b, c, d) | CorpusResult(a, b, c, d):
                got = (a, b, c, d)
            case MutationFixture(a, b, c):
                got = (a, b, c)
            case FuzzReport(a, b, c, d, e, f, g):
                got = (a, b, c, d, e, f, g)
        assert got == tuple(getattr(x, f) for f in fields), type(x)


def test_frozen_fields_refuse_assignment_and_deletion():
    for x, _ in _values():
        for f in _fields(x) or ("anything",):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1


def test_value_classes_compare_by_value_and_class():
    twins = list(zip(_values(), _values()))
    for (x, _), (y, _) in twins:
        if isinstance(x, (Assume, Apply)):
            # Identity: an assumption class is one object, however its formula reads.
            assert x != y and x == x and hash(x) == object.__hash__(x)
        elif isinstance(x, Counterexample):
            assert x == y
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert x == y and hash(x) == hash(y)
    assert Le("a", "b") != Succ("a", "b") and Le("a", "b") != ("a", "b")
    assert Le("a", "b") != Le("a", "c") and Lwff(("a",), P) != Lwff(("a",), Q)
    assert LassoModel((), (frozenset(),)) != LassoModel((), (frozenset({"p"}),))
    assert CheckReport(True) != CheckReport(False)
    # A falsified report holds its counterexample in a dict, as a
    # Counterexample holds its interpretation.
    with pytest.raises(TypeError):
        hash(FuzzReport("last", 10, 1, 6, 3, False, {"sample": 2}))
    assert Implies(P, Q) != Until(P, Q) and Implies(P, Q) != Implies(Q, P)
    # The generated hashes were the hash of the field tuple, without the class.
    assert hash(Le("a", "b")) == hash(("a", "b")) == hash(Succ("a", "b"))
    assert hash(LWFF) == hash((LWFF.seq, LWFF.formula)) and hash(MODEL) == hash((MODEL.stem, MODEL.loop))


def test_one_reader_reads_the_fields_and_keeps_the_hashes():
    # Each record class reads its fields through one reader, in
    # ``__match_args__`` order.  Hashes stay the tuple hashes they were: a
    # formula node's with its class first, another value record's without.
    for v, _ in _values():
        fields = tuple(getattr(v, f) for f in v.__match_args__)
        assert v._fields(v) == fields, type(v)
        if isinstance(v, Formula):
            assert hash(v) == hash((type(v), *fields)), type(v)
        elif not isinstance(v, (Assume, Apply, Counterexample)):
            assert hash(v) == hash(fields), type(v)


def test_records_refuse_an_empty_sequence_and_differ_from_their_field_tuple():
    with pytest.raises(ValueError):
        Lwff((), P)
    with pytest.raises(ValueError):
        LassoModel((frozenset({"p"}),), ())
    for x in (MODEL, CheckReport(False, reason="R"), FuzzReport("last", 10, 1, 6)):
        assert x != tuple(getattr(x, f) for f in _fields(x)), type(x)


def test_formula_nodes_keep_formulas_own_equality():
    for c in (Atom, Bottom, *BINARY, *UNARY):
        assert c.__eq__ is Formula.__eq__ and c.__hash__ is Formula.__hash__, c


def test_constructor_defaults():
    assert CheckReport(True) == CheckReport(True, None, frozenset(), None, None, None)
    assert CheckReport(accepted=False, reason="R").reason == "R"
    assert CorpusEntry("A2", P, "A2.ndp").simplified_core is None
    assert CorpusEntry(name="A2", source=P, script="A2.ndp", simplified_core=Q).simplified_core is Q
    r = FuzzReport("last", 10, 1, 6)
    assert (r.checked, r.ok, r.counterexample) == (0, True, None)
    assert Apply(1, "impI", LWFF, ()).discharges == ()
    for make in (lambda: Atom(), lambda: Le("a"), lambda: CheckReport(), lambda: FuzzReport("last", 10, 1)):
        with pytest.raises(TypeError):
            make()


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # Every nabla process pays for its imports before its first rule check;
    # ``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and ``tokenize``.
    # These are the modules the benchmark's measuring process imports.
    code = (
        "import sys\n"
        "import nabla.cli, nabla.fuzz, nabla.semantics, nabla.translate\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    paths = [str(Path(nabla.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout.strip() == "[]"
