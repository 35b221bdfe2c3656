"""The ``nabla`` command line.

Subcommands: ``check`` (exit 0 accepted, 1 rejected, 2 parse error),
``corpus`` (exit 0 iff every bundled expectation holds), ``translate``,
``taut``, ``eval`` and ``fuzz`` (exit 3 with a counterexample on a
falsified lemma).  ``NABLA_SEED`` overrides the default fuzz seed and must
be an integer; an explicit ``--seed`` wins over both.  Formulas nested
deeper than ``formulas.MAX_NESTING`` are parse errors (exit 2), and so is
a formula whose image ``translate`` would print longer than
``MAX_IMAGE_LENGTH`` characters (1 MiB), and so is a tautology whose
proof ``taut`` would print with a formula nested deeper than
``MAX_NESTING``, and so is a script or model file that cannot be read or
is not UTF-8; ``fuzz`` refuses ``--samples`` below 1, ``--max-size``
below 0 and ``--inject-bug`` with ``--lemma soundness`` with exit 2, and
``taut`` a ``--label`` that scripts cannot read as one label.  ``taut``
checks its proof before printing it and exits 4 with nothing on stdout if
the kernel rejects it or finds it open.  Any other exception that
escapes a subcommand is an internal error: ``main`` prints
``internal error: <type>: <message>`` to stderr and exits 4, never 1,
which means rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .derived import NotATautology, NotPropositional, SchemaMismatch, derive_tautology, expand
from .formulas import MAX_NESTING, ParseError, format_formula, format_length, format_nesting, parse_h, parse_ltl
from .fuzz import LEMMAS, report_to_json, run_lemma
from .kernel import SHAPE_MISMATCH, CheckReport, all_nodes, check, format_generic
from .scripts import _LABEL_RE, ScriptError, parse_script, serialize
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


def cmd_check(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
        root = parse_script(text)
    except (OSError, UnicodeDecodeError, ScriptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        root = expand(root)
    except SchemaMismatch as e:
        # A derived rule applied to premises of the wrong shape: the script
        # parses, its derivation is what is wrong.
        report = CheckReport(accepted=False, node_id=e.node_id, reason=SHAPE_MISMATCH, message=str(e))
    else:
        if args.emit_primitive:
            print(serialize(root), end="")
            return EXIT_OK
        report = check(root)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    elif report.accepted:
        opens = sorted(format_generic(a) for a in report.open_assumptions)
        status = "closed" if not opens else f"open assumptions: {'; '.join(opens)}"
        print(f"Accepted, {status}")
        print(f"conclusion: {format_generic(report.conclusion)}")
    else:
        print(f"Rejected at node {report.node_id}: {report.reason}")
        print(f"  {report.message}")
    return EXIT_OK if report.accepted else EXIT_REJECTED


def cmd_corpus(args) -> int:
    results = corpus_mod.run_corpus()
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
    try:
        f = parse_ltl(args.formula)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    image = translate(f)
    length = format_length(image)
    if length > MAX_IMAGE_LENGTH:
        limit = f"more than the limit of {MAX_IMAGE_LENGTH}"
        print(f"error: the image would print {length} characters, {limit}", file=sys.stderr)
        return EXIT_PARSE
    if args.json:
        print(json.dumps({"source": format_formula(f), "image": format_formula(image)}, sort_keys=True))
    else:
        print(format_formula(image))
    return EXIT_OK


def cmd_taut(args) -> int:
    if not _LABEL_RE.fullmatch(args.label):
        print(f"error: --label {args.label!r} is not a script label: a letter, then letters, digits or _", file=sys.stderr)
        return EXIT_PARSE
    try:
        f = parse_ltl(args.formula)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        d = derive_tautology(f, args.label)
    except (NotATautology, NotPropositional) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_REJECTED
    # The proof's formulas nest deeper than the formula typed: (g -> bot) is
    # one level above its desugared form.  Print none that check cannot read.
    depth = format_nesting(*(n.conclusion.formula for n in all_nodes(d)))
    if depth > MAX_NESTING:
        limit = f"more than the limit of {MAX_NESTING}"
        print(f"error: the proof would print a formula nested {depth} levels deep, {limit}", file=sys.stderr)
        return EXIT_PARSE
    report = check(d)
    if not report.accepted or report.open_assumptions:
        why = report.message if not report.accepted else "it has open assumptions"
        print(f"internal error: the tautology proof does not check: {why}", file=sys.stderr)
        return EXIT_INTERNAL
    print(serialize(d), end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        model = parse_model(Path(args.model).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.pos is not None:
            f = parse_ltl(args.formula)
            value = eval_ltl(model, args.pos, f)
        else:
            f = parse_h(args.formula)
            try:
                seq = tuple(int(x) for x in args.seq.split(","))
            except ValueError:
                raise ValueError(f"--seq must be comma-separated natural numbers, got {args.seq!r}") from None
            value = eval_h(model, seq, f)
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
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
            print(f"error: NABLA_SEED must be an integer, got {env!r}", file=sys.stderr)
            return EXIT_PARSE
    for flag, value, least in (("--samples", args.samples, 1), ("--max-size", args.max_size, 0)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return EXIT_PARSE
    if args.inject_bug and args.lemma == "soundness":
        print("error: --inject-bug breaks the left-hand side of a comparison lemma, not soundness", file=sys.stderr)
        return EXIT_PARSE
    report = run_lemma(args.lemma, args.samples, seed, args.max_size, args.inject_bug)
    if args.json:
        print(report_to_json(report), end="")
    elif report.ok:
        print(f"{args.lemma}: {report.checked}/{report.samples} samples agree (seed {report.seed})")
    else:
        print(f"{args.lemma}: FALSIFIED after {report.checked} samples (seed {report.seed})")
        print(json.dumps(report.counterexample, sort_keys=True, indent=2))
    return EXIT_OK if report.ok else EXIT_FALSIFIED


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
    group.add_argument("--pos", type=int, help="position for until-language evaluation")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # SystemExit and KeyboardInterrupt pass through
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
