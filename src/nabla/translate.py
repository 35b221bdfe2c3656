"""Translation from the until language into the history language.

Atoms, bot, ``->``, ``G`` and ``X`` map homomorphically; the until clause is

    tr(a U b)  =  tr(b) | (F ((X tr(b)) & (H tr(a))))

Abbreviation nodes also map homomorphically, which commutes with
desugaring because both languages define the abbreviations identically.

Each source object has one image object, so the image of an until clause
holds one object for both occurrences of ``tr(b)``: the image is a DAG
whose node count grows linearly with the source; printed as text, it
doubles with each ``U`` nested on the right.
"""

from __future__ import annotations

from .formulas import (
    _HOMOMORPHIC,
    And,
    Formula,
    Hist,
    Next,
    Or,
    Sometime,
    Until,
    _fold_checked,
    desugar,
)

__all__ = ["translate", "matches_translation"]

# The until clause above; every other node maps to itself over its images.
# Without a Hist rule, the fold rejects the history language.
_TR = {**_HOMOMORPHIC, Until: lambda x, a, b: Or(b, Sometime(And(Next(b), Hist(a))))}
del _TR[Hist]


def translate(a: Formula) -> Formula:
    """Image of an until-language formula, with abbreviations preserved;
    ``ValueError`` outside that language."""
    return _fold_checked(a, _TR)


def matches_translation(source: Formula, candidate: Formula) -> bool:
    """True iff ``candidate`` is structurally the image of ``source``.

    Both sides are compared desugared; abbreviation spelling is irrelevant.
    """
    return desugar(translate(source)) == desugar(candidate)
