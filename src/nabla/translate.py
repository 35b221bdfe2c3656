"""Translation from the until language into the history language.

Atoms, bot, ``->``, ``G`` and ``X`` map homomorphically; the until clause is

    tr(a U b)  =  tr(b) | (F ((X tr(b)) & (H tr(a))))

Abbreviation nodes also map homomorphically, which commutes with
desugaring because both languages define the abbreviations identically.

Each source object has one image object, so the image of an until clause
holds one object for both occurrences of ``tr(b)``: the image is a DAG
whose node count grows linearly with the source; printed as text, it
doubles with each ``U`` nested on the right.

``is_ltl_derivation`` decides, through ``matches_translation``, whether
an accepted derivation is an LTL-derivation; the kernel knows nothing of
the translation.
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
from .kernel import CheckReport, Lwff, format_generic, normalize_generic

__all__ = ["translate", "matches_translation", "MissingAnnotation", "is_ltl_derivation"]

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


class MissingAnnotation(KeyError):
    pass


def is_ltl_derivation(report: CheckReport, sources: dict[Lwff, Formula]) -> bool:
    """True iff the accepted derivation that ``report`` describes has a
    conclusion and open assumptions that are all ``b : tr(source)`` for one
    shared label ``b`` and the annotated until-language sources."""
    if not report.accepted:
        raise ValueError("is_ltl_derivation requires an accepted derivation")
    normalized_sources = {normalize_generic(k): v for k, v in sources.items()}
    judgments = [normalize_generic(report.conclusion)] + sorted(
        (a for a in report.open_assumptions), key=format_generic
    )
    label: str | None = None
    for phi in judgments:
        if not isinstance(phi, Lwff):
            return False
        if len(phi.seq) != 1:
            return False
        if label is None:
            label = phi.seq[0]
        elif phi.seq[0] != label:
            return False
        src = normalized_sources.get(phi)
        if src is None:
            raise MissingAnnotation(format_generic(phi))
        if not matches_translation(src, phi.formula):
            return False
    return True
