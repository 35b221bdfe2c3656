import random

import pytest
from hypothesis import given, settings

from nabla.formulas import (
    And,
    Atom,
    Bottom,
    Hist,
    Next,
    Or,
    Sometime,
    Always,
    Until,
    desugar,
    format_formula,
    format_length,
    is_local,
)
from nabla.gen import random_until_formula
from nabla.translate import matches_translation, translate
from tests.test_formulas import free_of, until_formulas

P, Q = Atom("p"), Atom("q")
UNTIL_IMAGE = Or(Q, Sometime(And(Next(Q), Hist(P))))


def test_until_clause_exact():
    assert translate(Until(P, Q)) == UNTIL_IMAGE
    assert translate(P) == P
    assert translate(Always(Until(P, Q))) == Always(UNTIL_IMAGE)


def test_until_image_shares_the_right_operand():
    # tr(b) is built once: the image stays linear in the source however
    # deep U nests on the right, though its text doubles per level.
    f = P
    for _ in range(10):
        f = Until(Q, f)
    image = translate(f)
    assert image.left is image.right.operand.left.operand
    assert format_length(image) == len(format_formula(image)) > 2**10


def test_translate_rejects_history_input():
    with pytest.raises(ValueError):
        translate(Hist(P))


def test_matches_translation_examples():
    assert matches_translation(Until(P, Q), UNTIL_IMAGE)
    assert not matches_translation(P, Q)
    # the two image occurrences of the right-hand side must coincide
    wrong = Or(Q, Sometime(And(Next(P), Hist(P))))
    assert not matches_translation(Until(P, Q), wrong)


@settings(max_examples=300)
@given(until_formulas())
def test_image_is_local_and_history_language(f):
    image = translate(f)
    assert free_of(image, Until)
    assert is_local(image)


@settings(max_examples=300)
@given(until_formulas())
def test_translate_commutes_with_desugar(f):
    assert desugar(translate(f)) == desugar(translate(desugar(f)))


def test_translate_injective_on_random_pairs():
    rng = random.Random(5)
    seen = {}
    for _ in range(3000):
        f = desugar(random_until_formula(rng, rng.randint(0, 6)))
        image = desugar(translate(f))
        if image in seen:
            assert seen[image] == f
        seen[image] = f


def test_translation_of_bottom_and_implication():
    assert translate(Bottom()) == Bottom()
    f = Until(P, Bottom())
    assert translate(f) == Or(Bottom(), Sometime(And(Next(Bottom()), Hist(P))))
