"""The ``nabla`` command line.

Subcommands: ``check``, ``corpus``, ``translate``, ``taut``, ``eval`` and
``fuzz``.  A verdict goes to stdout with its exit code: ``check`` exits 0
on an accepted script and 1 on a rejected one, ``corpus`` 0 iff every
bundled expectation holds, and ``fuzz`` 3 with a counterexample on a
falsified lemma.  A ``cmd_*`` function that refuses its input raises
instead of printing, and ``main`` is the one place that turns the
exception into ``error: <message>`` on stderr and an exit code, by its
``except`` clauses: ``ScriptError``, ``ParseError`` and
``ModelFormatError`` exit 2, ``NotATautology`` and ``NotPropositional``
exit 1, and :class:`Refused`, the command line's own refusals (an
unreadable file, a limit, a bad option value), exits with its own code.
Any other exception is an internal error: ``internal error: <type>:
<message>`` and exit 4, never 1, which means rejected.

Each command loads only the modules it runs, since a one-shot process
compiles every module it imports.  The module-level imports are the ones
that every command or ``build_parser`` needs.  A ``cmd_*`` function imports
the modules that only it runs: ``check`` and ``taut`` import ``derived``
and ``scripts``, and ``corpus`` imports ``corpus``.  ``main`` maps their
exceptions without importing them, because a class whose module was never
loaded cannot have been raised.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from .formulas import MAX_NESTING, ParseError, format_formula, format_length, format_nesting, parse_h, parse_ltl
from .fuzz import LEMMAS, report_to_json, run_lemma
from .kernel import Lwff, all_nodes, check
from .semantics import ModelFormatError, eval_h, eval_ltl, parse_model
from .translate import translate

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_PARSE = 2
EXIT_FALSIFIED = 3
EXIT_INTERNAL = 4

# Longest image ``translate`` prints.  The image shares ``tr(b)`` between
# the two places an until clause uses it, so its text doubles with each
# ``U`` nested on the right: 15 levels print about 786 KB, 16 would exceed
# this limit and 32, the parser's nesting limit, about 10^11 bytes.
MAX_IMAGE_LENGTH = 1 << 20


class Refused(Exception):
    """An input the command line refuses: ``main`` prints ``error: <message>``
    and exits with ``code``, or prints ``internal error: <message>`` if
    that is ``EXIT_INTERNAL``."""

    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise Refused(str(e)) from None


def _printable(root) -> None:
    """Refuse a proof whose script would print a formula that ``check``
    cannot read.  A proof's formulas nest deeper than the ones typed: a
    derived rule's expansion and a tautology proof assume ``(g -> bot)``,
    one level above ``g``."""
    depth = format_nesting(*(n.conclusion.formula for n in all_nodes(root) if isinstance(n.conclusion, Lwff)))
    if depth > MAX_NESTING:
        raise Refused(f"the proof would print a formula nested {depth} levels deep, more than the limit of {MAX_NESTING}")


def cmd_check(args) -> int:
    from .derived import SchemaMismatch, expand
    from .scripts import parse_script, serialize

    root = parse_script(_read(args.file))
    try:
        root = expand(root)
    except SchemaMismatch as e:
        report = e.report()
    else:
        if args.emit_primitive:
            _printable(root)
            print(serialize(root), end="")
            return EXIT_OK
        report = check(root)
    verdict = report.to_dict()
    if args.json:
        print(json.dumps(verdict, sort_keys=True, indent=2))
    elif report.accepted:
        opens = verdict["open_assumptions"]
        status = "closed" if not opens else f"open assumptions: {'; '.join(opens)}"
        print(f"Accepted, {status}")
        print(f"conclusion: {verdict['conclusion']}")
    else:
        print(f"Rejected at node {report.node_id}: {report.reason}")
        print(f"  {report.message}")
    return EXIT_OK if report.accepted else EXIT_REJECTED


def cmd_corpus(args) -> int:
    from .corpus import run_corpus

    results = run_corpus()
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({"ok": ok, "results": [r.to_dict() for r in results]}, sort_keys=True, indent=2))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            print(f"{mark} [{r.kind}] {r.name}: {r.detail}")
        good = sum(1 for r in results if r.ok)
        print(f"{good}/{len(results)} expectations hold")
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_translate(args) -> int:
    f = parse_ltl(args.formula)
    image = translate(f)
    length = format_length(image)
    if length > MAX_IMAGE_LENGTH:
        raise Refused(f"the image would print {length} characters, more than the limit of {MAX_IMAGE_LENGTH}")
    if args.json:
        print(json.dumps({"source": format_formula(f), "image": format_formula(image)}, sort_keys=True))
    else:
        print(format_formula(image))
    return EXIT_OK


def cmd_taut(args) -> int:
    from .derived import derive_tautology
    from .scripts import _LABEL_RE, serialize

    if not _LABEL_RE.fullmatch(args.label):
        raise Refused(f"--label {args.label!r} is not a script label: a letter, then letters, digits or _")
    d = derive_tautology(parse_ltl(args.formula), args.label)
    _printable(d)
    report = check(d)
    if not report.accepted or report.open_assumptions:
        why = report.message if not report.accepted else "it has open assumptions"
        raise Refused(f"the tautology proof does not check: {why}", EXIT_INTERNAL)
    print(serialize(d), end="")
    return EXIT_OK


# A number in ASCII digits, as script ids and model headers are read, with
# blanks around it as int() allows them; a minus sign before the digits
# gets the evaluators' own refusal of a negative position.
_NUMBER = re.compile(r"\s*(-?)([0-9]+)\s*")


def _naturals(texts: list[str], malformed: str, negative: str) -> list[int]:
    """``texts`` read as natural numbers; ``Refused`` with ``malformed`` if
    one is not a number in ASCII digits, else with ``negative`` if one has
    a minus sign."""
    numbers = [_NUMBER.fullmatch(x) for x in texts]
    if None in numbers:
        raise Refused(malformed)
    if any(x[1] for x in numbers):
        raise Refused(negative)
    return [int(x[2]) for x in numbers]


def cmd_eval(args) -> int:
    model = parse_model(_read(args.model))
    if args.pos is not None:
        f, evaluate = parse_ltl(args.formula), eval_ltl
        [at] = _naturals([args.pos], f"--pos must be a natural number, got {args.pos!r}", "positions are natural numbers")
    else:
        f, evaluate = parse_h(args.formula), eval_h
        malformed = f"--seq must be comma-separated natural numbers, got {args.seq!r}"
        at = tuple(_naturals(args.seq.split(","), malformed, "observation sequences contain natural numbers"))
    value = evaluate(model, at, f)
    if args.json:
        print(json.dumps({"formula": format_formula(f), "value": value}, sort_keys=True))
    else:
        print("true" if value else "false")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("NABLA_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise Refused(f"NABLA_SEED must be an integer, got {env!r}") from None
    for flag, value, least in (("--samples", args.samples, 1), ("--max-size", args.max_size, 0)):
        if value < least:
            raise Refused(f"{flag} must be at least {least}, got {value}")
    if args.inject_bug and args.lemma == "soundness":
        raise Refused("--inject-bug breaks the left-hand side of a comparison lemma, not soundness")
    report = run_lemma(args.lemma, args.samples, seed, args.max_size, args.inject_bug)
    if args.json:
        print(report_to_json(report), end="")
    elif report.ok:
        print(f"{args.lemma}: {report.checked}/{report.samples} samples agree (seed {report.seed})")
    else:
        print(f"{args.lemma}: FALSIFIED after {report.checked} samples (seed {report.seed})")
        print(json.dumps(report.counterexample, sort_keys=True, indent=2))
    return EXIT_OK if report.ok else EXIT_FALSIFIED


# Built once, on first use: a process calls main once, but in-process callers
# (tests, the benchmark) call it per item.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nabla",
        description="Proof checker and lasso-model workbench for linear temporal logic with a history operator.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a derivation script")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit-primitive", action="store_true", help="print the expanded primitive script and exit")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corpus", help="check the bundled axiom corpus and mutation fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("translate", help="translate an until-language formula")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("taut", help="emit a checked proof of a propositional tautology")
    p.add_argument("formula")
    p.add_argument("--label", default="b")
    p.set_defaults(func=cmd_taut)

    p = sub.add_parser("eval", help="evaluate a formula on a lasso model")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pos", help="position for until-language evaluation")
    group.add_argument("--seq", help="comma-separated observation sequence for history-language evaluation")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuzz", help="sample a semantic lemma on random models (falsifier, not a prover)")
    p.add_argument("--lemma", required=True, choices=LEMMAS)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, help="default: NABLA_SEED, else 0")
    p.add_argument(
        "--max-size",
        type=int,
        default=6,
        help="operator budget of each drawn formula; soundness draws derivations, not formulas, and ignores it",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--inject-bug",
        choices=["valuation-shift"],
        help="testing only: make the left-hand side of a comparison lemma wrong; refused for soundness",
    )
    p.set_defaults(func=cmd_fuzz)

    return ap


def _loaded(module: str, *names: str) -> tuple[type[Exception], ...]:
    """The exception classes ``names`` of ``nabla.<module>``, or none if that
    module was never loaded: then none of them can have been raised."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return tuple(getattr(loaded, name) for name in names) if loaded else ()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # An except clause's classes are looked up only when an exception reaches it.
    except (ParseError, ModelFormatError, *_loaded("scripts", "ScriptError")) as e:
        code, message = EXIT_PARSE, str(e)
    except _loaded("derived", "NotATautology", "NotPropositional") as e:
        code, message = EXIT_REJECTED, str(e)
    except Refused as e:
        code, message = e.code, str(e)
    except Exception as e:  # SystemExit and KeyboardInterrupt pass through
        code, message = EXIT_INTERNAL, f"{type(e).__name__}: {e}"
    print(f"{'internal error' if code == EXIT_INTERNAL else 'error'}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
