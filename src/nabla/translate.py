"""Translation from the until language into the history language.

Atoms, bot, ``->``, ``G`` and ``X`` map homomorphically; the until clause is

    tr(a U b)  =  tr(b) | (F ((X tr(b)) & (H tr(a))))

Abbreviation nodes also map homomorphically, which commutes with
desugaring because both languages define the abbreviations identically.

The image of an until clause holds one object for both occurrences of
``tr(b)``, so the image is a DAG whose node count grows linearly with the
source; printed as text, it doubles with each ``U`` nested on the right.
"""

from __future__ import annotations

from .formulas import (
    And,
    Atom,
    Bottom,
    Formula,
    Hist,
    Implies,
    Next,
    Not,
    Or,
    Always,
    Sometime,
    Until,
    desugar,
    in_until_language,
)

__all__ = ["translate", "matches_translation"]


def translate(a: Formula) -> Formula:
    """Image of an until-language formula, with abbreviations preserved."""
    if not in_until_language(a):
        raise ValueError(f"not an until-language formula: {a}")
    return _tr(a)


def _tr(a: Formula) -> Formula:
    match a:
        case Atom() | Bottom():
            return a
        case Implies(x, y):
            return Implies(_tr(x), _tr(y))
        case Always(x):
            return Always(_tr(x))
        case Next(x):
            return Next(_tr(x))
        case Until(x, y):
            b = _tr(y)
            return Or(b, Sometime(And(Next(b), Hist(_tr(x)))))
        case Not(x):
            return Not(_tr(x))
        case Or(x, y):
            return Or(_tr(x), _tr(y))
        case And(x, y):
            return And(_tr(x), _tr(y))
        case Sometime(x):
            return Sometime(_tr(x))
    raise TypeError(f"not a formula: {a!r}")


def matches_translation(source: Formula, candidate: Formula) -> bool:
    """True iff ``candidate`` is structurally the image of ``source``.

    Both sides are compared desugared; abbreviation spelling is irrelevant.
    """
    return desugar(translate(source)) == desugar(candidate)
