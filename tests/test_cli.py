import argparse
import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nabla
from nabla import kernel
from nabla.cli import MAX_IMAGE_LENGTH, main
from nabla.formulas import MAX_NESTING, Implies, desugar, parse_ltl
from nabla.kernel import Apply, Assume, Lwff, check
from nabla.scripts import parse_script
from nabla.semantics import format_model, LassoModel, ModelFormatError, eval_h, eval_ltl, parse_model
from nabla.translate import translate
from tests.test_fuzz import SHRINK_GOLDENS
from tests.test_proof_goldens import PROOF_GOLDENS


@pytest.fixture
def model_file(tmp_path):
    m = LassoModel((frozenset({"p"}),), (frozenset({"q"}),))
    path = tmp_path / "m.lasso"
    path.write_text(format_model(m), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_corpus_file(capsys, tmp_path):
    from importlib import resources

    text = resources.files("nabla").joinpath("corpus/A6.ndp").read_text(encoding="utf-8")
    path = tmp_path / "A6.ndp"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "check", str(path))
    assert code == 0
    assert "Accepted, closed" in out


def test_check_rejected_and_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.ndp"
    bad.write_text("assume 1 lwff b : p\nnode 2 GE concl b c : p prem 1,1\nroot 2\n", encoding="utf-8")
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    assert "Rejected" in out
    garbled = tmp_path / "garbled.ndp"
    garbled.write_text("assume 1 lwff b ; p\n", encoding="utf-8")
    assert main(["check", str(garbled)]) == 2


def test_check_rejects_gi_whose_premise_proves_another_formula(capsys, tmp_path):
    # Without the operand check this closed derivation would conclude
    # b : (G q) from a proof of b c : (p -> p).
    script = tmp_path / "gi.ndp"
    script.write_text(
        "assume 1 lwff b c : p\n"
        "node 2 impI concl b c : (p -> p) prem 1 disch 1\n"
        "node 3 GI concl b : (G q) prem 2\n"
        "root 3\n",
        encoding="utf-8",
    )
    code, out = run(capsys, "check", str(script), "--json")
    assert code == 1
    assert json.loads(out) == {
        "verdict": "rejected",
        "node": 3,
        "reason": "ShapeMismatch",
        "message": "premise of GI must prove the operand",
    }


def test_check_emit_primitive(capsys, tmp_path):
    from importlib import resources

    text = resources.files("nabla").joinpath("corpus/A8.ndp").read_text(encoding="utf-8")
    path = tmp_path / "A8.ndp"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "check", str(path), "--emit-primitive")
    assert code == 0
    root = parse_script(out)
    assert check(root).accepted
    assert "FE" not in out and "orE" not in out


def test_check_walks_a_derivation_once(capsys, tmp_path, monkeypatch):
    # The postorder and the premise counts are one walk, kept on the root:
    # expand, check, the printability test and serialize all read it.
    walks = []
    real = kernel._postorder
    monkeypatch.setattr(kernel, "_postorder", lambda root: walks.append(root) or real(root))
    path = tmp_path / "chain.ndp"
    path.write_text(
        "assume 1 lwff b : p\n"
        "assume 2 lwff b : (p -> q)\n"
        "node 3 impE concl b : q prem 2,1\n"
        "node 4 impI concl b : (p -> q) prem 3 disch 1\n"
        "root 4\n",
        encoding="utf-8",
    )
    code, out = run(capsys, "check", str(path), "--json")
    assert code == 0 and json.loads(out)["open_assumptions"] == ["b : (p -> q)"]
    assert len(walks) == 1
    code, out = run(capsys, "check", str(path), "--emit-primitive")
    assert code == 0 and out == path.read_text(encoding="utf-8")
    assert len(walks) == 2
    # A derived rule is expanded into a new derivation, which is walked again.
    path.write_text("assume 1 lwff b : p\nassume 2 lwff b : q\nnode 3 andI concl b : (p & q) prem 1,2\nroot 3\n", encoding="utf-8")
    code, out = run(capsys, "check", str(path), "--json")
    assert code == 0 and json.loads(out)["open_assumptions"] == ["b : p", "b : q"]
    assert len(walks) == 4


def test_corpus_exit_code(capsys):
    code, out = run(capsys, "corpus")
    assert code == 0
    assert "expectations hold" in out


def test_translate_paper_example(capsys):
    code, out = run(capsys, "translate", "(p U q)")
    assert code == 0
    assert out.strip() == "(q | (F ((X q) & (H p))))"
    assert main(["translate", "(H p)"]) == 2


def test_translate_limits_the_printed_image(capsys):
    def right_nested(levels):
        text = "p"
        for _ in range(levels):
            text = f"(q U {text})"
        return text

    code, out = run(capsys, "translate", right_nested(15))
    assert code == 0 and len(out) == 786410 <= MAX_IMAGE_LENGTH
    for levels in (16, MAX_NESTING):
        for argv in (["translate", right_nested(levels)], ["translate", right_nested(levels), "--json"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: the image would print ")


def test_taut_emits_checkable_script(capsys):
    code, out = run(capsys, "taut", "(((p -> q) -> p) -> p)", "--label", "b")
    assert code == 0
    root = parse_script(out)
    report = check(root)
    assert report.accepted and not report.open_assumptions
    assert desugar(report.conclusion.formula) == desugar(parse_ltl("(((p -> q) -> p) -> p)"))
    assert main(["taut", "(p -> q)"]) == 1


@pytest.mark.parametrize("label", ["", "1x", "b:", "le(b,c)", "a b", "b\n"])
def test_taut_refuses_a_label_scripts_cannot_read(capsys, label):
    assert main(["taut", "(p -> p)", "--label", label]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_taut_refuses_a_proof_check_cannot_read(capsys, tmp_path):
    # Each & desugars four levels deep, and the proof's (g -> bot) is one
    # level above g: 34 levels for eight & p, 30 for seven.
    def ladder(k):
        text = "p"
        for _ in range(k):
            text = f"({text} & p)"
        return f"({text} -> p)"

    assert main(["taut", ladder(8)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the proof would print a formula nested 34 levels deep, more than the limit of {MAX_NESTING}\n"
    code, out = run(capsys, "taut", ladder(7))
    assert code == 0
    script = tmp_path / "taut.ndp"
    script.write_text(out, encoding="utf-8")
    code, out = run(capsys, "check", str(script))
    assert code == 0 and out.startswith("Accepted, closed\n")


def test_emit_primitive_refuses_a_script_check_cannot_read(capsys, tmp_path):
    # andI's expansion assumes (((A -> bot) -> bot) -> (q -> bot)), three
    # levels above A: 33 levels for A of 30 nested X, 32 for 29.
    def script(k):
        a = "p"
        for _ in range(k):
            a = f"(X {a})"
        path = tmp_path / f"x{k}.ndp"
        path.write_text(f"assume 1 lwff b : {a}\nassume 2 lwff b : q\nnode 3 andI concl b : ({a} & q) prem 1,2\nroot 3\n", encoding="utf-8")
        return str(path)

    assert main(["check", script(30)]) == 0
    capsys.readouterr()
    assert main(["check", script(30), "--emit-primitive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the proof would print a formula nested 33 levels deep, more than the limit of {MAX_NESTING}\n"
    code, out = run(capsys, "check", script(29), "--emit-primitive")
    assert code == 0
    emitted = tmp_path / "emitted.ndp"
    emitted.write_text(out, encoding="utf-8")
    code, out = run(capsys, "check", str(emitted))
    assert code == 0 and out.startswith("Accepted, open assumptions: ")


def test_eval_positions_and_sequences(capsys, model_file):
    code, out = run(capsys, "eval", "--model", str(model_file), "--pos", "0", "(p U q)")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "eval", "--model", str(model_file), "--seq", "0,2", "(H p)")
    assert code == 0 and out.strip() == "false"
    assert main(["eval", "--model", str(model_file), "--pos", "0", "(H p)"]) == 2


@pytest.mark.parametrize("cell", ["p,q", "p bot G"])
def test_eval_rejects_a_model_cell_no_formula_can_name(capsys, tmp_path, cell):
    path = tmp_path / "m.lasso"
    path.write_text(f"stem 0\nloop 1\nat 0: {cell}\nend\n", encoding="utf-8")
    assert main(["eval", "--model", str(path), "--pos", "0", "p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: at 0: "), captured.err


@pytest.mark.parametrize(
    "header, rows",
    [("stem 1_0\nloop 1", 11), ("stem \u0660\nloop 1", 1), ("stem 0\nloop +1", 1), ("stem -1\nloop 2", 1), ("stem 0\nloop \u00b9", 1)],
    ids=["underscore", "arabic-indic", "plus", "minus", "superscript"],
)
def test_eval_reads_stem_and_loop_as_ascii_digits(capsys, tmp_path, header, rows):
    # ``rows`` is the row count int() would read off the header.
    text = header + "\n" + "".join(f"at {i}: p\n" for i in range(rows)) + "end\n"
    with pytest.raises(ModelFormatError, match="^bad stem/loop header "):
        parse_model(text)
    path = tmp_path / "m.lasso"
    path.write_text(text, encoding="utf-8")
    assert main(["eval", "--model", str(path), "--pos", "0", "p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad stem/loop header "), captured.err


@pytest.mark.parametrize("seq", ["1,,2", ",", "", "0,x", "1.5"])
def test_eval_names_a_malformed_sequence(capsys, model_file, seq):
    assert main(["eval", "--model", str(model_file), "--seq", seq, "(H p)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --seq must be comma-separated natural numbers, got {seq!r}\n"


def test_eval_sequence_elements_keep_their_other_answers(capsys, model_file):
    # int() reads surrounding blanks, and a negative element is a natural
    # number error of the evaluator.
    code, out = run(capsys, "eval", "--model", str(model_file), "--seq", " 0, 2", "(H p)")
    assert code == 0 and out.strip() == "false"
    assert main(["eval", "--model", str(model_file), "--seq", "0,-1", "(H p)"]) == 2
    assert capsys.readouterr().err == "error: observation sequences contain natural numbers\n"


@pytest.mark.parametrize(
    "option, value",
    [("--pos", "1_0"), ("--pos", "\u0660"), ("--pos", "+1"), ("--seq", "0,1_0"), ("--seq", "\u0660,1"), ("--seq", "+0,1")],
    ids=["pos-underscore", "pos-arabic-indic", "pos-plus", "seq-underscore", "seq-arabic-indic", "seq-plus"],
)
def test_eval_reads_positions_as_ascii_digits(capsys, model_file, option, value):
    # int() reads each of these; the command line reads numbers as script
    # ids and model headers are read.
    formula = "p" if option == "--pos" else "(H p)"
    assert main(["eval", "--model", str(model_file), option, value, formula]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be "), captured.err


def test_eval_hist_across_a_gap_of_a_billion(tmp_path):
    # Each formula holds at (0, n) iff p holds on [0, n] (or [0, n + 1]).
    # Past a few periods the operand of H repeats, so the walk over [0, n]
    # stops there instead of visiting 10^9 positions.  Each query runs in a
    # child limited to 1 GiB of address space and 30 s, so a walk over
    # every position fails the test instead of exhausting the machine.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(nabla.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    path = tmp_path / "m.lasso"
    for loop, want in [((frozenset({"p"}),), "true"), ((frozenset({"p"}), frozenset({"q"})), "false")]:
        path.write_text(format_model(LassoModel((frozenset({"p"}),), loop)), encoding="utf-8")
        for text in ("(H (H p))", "(H (X (H p)))"):
            argv = [sys.executable, "-m", "nabla.cli", "eval", "--model", str(path), "--seq", "0,1000000000", text]
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30, preexec_fn=limit_memory)
            assert (done.returncode, done.stdout.strip()) == (0, want), (loop, text, done.stderr[-300:])


def test_fuzz_exit_codes_and_determinism(capsys):
    code, out1 = run(capsys, "fuzz", "--lemma", "translation", "--samples", "120", "--seed", "7", "--json")
    assert code == 0
    code, out2 = run(capsys, "fuzz", "--lemma", "translation", "--samples", "120", "--seed", "7", "--json")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "ok" and payload["checked"] == 120


def test_fuzz_canary_detects_injected_bug(capsys):
    code, out = run(
        capsys, "fuzz", "--lemma", "translation", "--samples", "500", "--seed", "7", "--json", "--inject-bug", "valuation-shift"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "falsified"
    assert payload["counterexample"] is not None


def test_fuzz_refuses_inject_bug_on_soundness(capsys):
    code = main(["fuzz", "--lemma", "soundness", "--samples", "1", "--inject-bug", "valuation-shift"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--inject-bug" in captured.err and "internal error" not in captured.err


GOLDEN = Path(__file__).parent / "golden"

# tests/golden/<name>.json holds the stdout of `nabla fuzz ARGS --json --seed 1`.
# A change that moves any random draw or any verdict shows here.
FUZZ_GOLDENS = {
    "fuzz_translation": ("--lemma", "translation"),
    "fuzz_last": ("--lemma", "last"),
    "fuzz_corollary": ("--lemma", "corollary"),
    "fuzz_last-local": ("--lemma", "last-local"),
    "fuzz_soundness": ("--lemma", "soundness", "--samples", "100"),
    "fuzz_quantifier-bound": ("--lemma", "quantifier-bound"),
    "fuzz_translation_valuation-shift": ("--lemma", "translation", "--inject-bug", "valuation-shift"),
    "fuzz_quantifier-bound_valuation-shift": ("--lemma", "quantifier-bound", "--inject-bug", "valuation-shift"),
}


@pytest.mark.parametrize("name", sorted(FUZZ_GOLDENS))
def test_seeded_fuzz_report_matches_golden(capsys, name):
    code, out = run(capsys, "fuzz", *FUZZ_GOLDENS[name], "--json", "--seed", "1")
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert code == (3 if "--inject-bug" in FUZZ_GOLDENS[name] else 0)


def test_every_golden_file_is_checked():
    named = {f"{name}.json" for name in [*FUZZ_GOLDENS, *SHRINK_GOLDENS, *PROOF_GOLDENS]}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(named)


@pytest.mark.parametrize(
    "flag, values",
    [("--samples", ["0", "-5"]), ("--max-size", ["-1", "-3"])],
)
def test_fuzz_rejects_bad_sizes(capsys, flag, values):
    for value in values:
        code = main(["fuzz", "--lemma", "last", flag, value])
        captured = capsys.readouterr()
        assert code == 2, (flag, value)
        assert captured.out == ""
        assert flag in captured.err and "internal error" not in captured.err
    # The smallest accepted values still run.
    assert main(["fuzz", "--lemma", "last", "--samples", "1", "--max-size", "0"]) == 0


def test_nabla_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("NABLA_SEED", "123")
    code, out = run(capsys, "fuzz", "--lemma", "translation", "--samples", "5", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 123
    code, out = run(capsys, "fuzz", "--lemma", "translation", "--samples", "5", "--seed", "4", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 4


def test_nabla_seed_env_rejects_non_integer(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("NABLA_SEED", "abc")
    code = main(["fuzz", "--lemma", "translation", "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "NABLA_SEED" in captured.err and "'abc'" in captured.err
    # An explicit seed never reads the variable, and check ignores it.
    assert main(["fuzz", "--lemma", "translation", "--samples", "5", "--seed", "1"]) == 0
    script = tmp_path / "id.ndp"
    script.write_text("assume 1 lwff b : p\nnode 2 impI concl b : (p -> p) prem 1 disch 1\nroot 2\n", encoding="utf-8")
    assert main(["check", str(script)]) == 0


def test_check_schema_mismatch_is_rejection(capsys, tmp_path):
    # andE1 on an atom: the derived-rule expansion finds no conjunction.
    bad = tmp_path / "and_e1.ndp"
    bad.write_text("assume 1 lwff b : p\nnode 2 andE1 concl b : p prem 1\nroot 2\n", encoding="utf-8")
    code, out = run(capsys, "check", str(bad), "--json")
    assert code == 1
    assert json.loads(out) == {
        "verdict": "rejected",
        "node": 2,
        "reason": "ShapeMismatch",
        "message": "not a conjunction: p",
    }
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    assert out.startswith("Rejected at node 2: ShapeMismatch")
    assert main(["check", str(bad), "--emit-primitive"]) == 1


_NO_DISCHARGE = {
    "andI": ("assume 1 lwff b : p\nassume 2 lwff b : q\n", "b : (p & q) prem 1,2", "andI"),
    "andE1": ("assume 1 lwff b : (p & q)\n", "b : p prem 1", "andE"),
    "andE2": ("assume 1 lwff b : (p & q)\n", "b : q prem 1", "andE"),
    "orIl": ("assume 1 lwff b : p\n", "b : (p | q) prem 1", "orIl"),
    "orIr": ("assume 1 lwff b : q\n", "b : (p | q) prem 1", "orIr"),
    "FI": ("assume 1 lwff b c : p\nassume 2 rwff le(b,c)\n", "b : (F p) prem 1,2", "FI"),
}


@pytest.mark.parametrize("rule", sorted(_NO_DISCHARGE))
def test_derived_rule_that_discharges_nothing_rejects_a_disch_clause(capsys, tmp_path, rule):
    assumptions, conclusion, name = _NO_DISCHARGE[rule]
    path = tmp_path / "disch.ndp"
    path.write_text(f"{assumptions}node 9 {rule} concl {conclusion} disch 1\nroot 9\n", encoding="utf-8")
    code, out = run(capsys, "check", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"verdict": "rejected", "node": 9, "reason": "ShapeMismatch", "message": f"{name} discharges nothing"}
    # Without the clause the same script is accepted.
    path.write_text(f"{assumptions}node 9 {rule} concl {conclusion}\nroot 9\n", encoding="utf-8")
    assert run(capsys, "check", str(path))[0] == 0


@pytest.mark.parametrize("command", ["check", "eval"])
def test_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"assume 1 lwff b : p\xff\nroot 1\n")
    argv = ["check", str(bad)] if command == "check" else ["eval", "--model", str(bad), "--pos", "0", "p"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff"), captured.err


def test_internal_error_exits_4(capsys, tmp_path, monkeypatch):
    def boom(root):
        raise RuntimeError("boom")

    monkeypatch.setattr("nabla.cli.check", boom)
    script = tmp_path / "id.ndp"
    script.write_text("assume 1 lwff b : p\nroot 1\n", encoding="utf-8")
    assert main(["check", str(script)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("kind", ["rejected", "open"])
def test_taut_refuses_a_proof_the_kernel_does_not_accept(capsys, monkeypatch, kind):
    # An explicit test, not an assert, so that it also holds under python -O.
    def broken(f, label):
        leaf = Assume(1, Lwff((label,), f))
        return leaf if kind == "open" else Apply(2, "impI", Lwff((label,), f), (leaf,))

    monkeypatch.setattr("nabla.derived.derive_tautology", broken)
    assert main(["taut", "(p -> p)"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the tautology proof does not check: ")


def nested(op, depth):
    # Binary operators nest on the left, the side that desugaring and
    # translation deepen most.
    text = "p"
    for _ in range(depth):
        text = f"({op} {text})" if op in "~GXHF" else f"({text} {op} q)"
    return text


@pytest.mark.parametrize("op", ["~", "G", "X", "H", "F", "&", "|", "->", "U"])
def test_formula_at_the_nesting_limit(capsys, tmp_path, model_file, op):
    text = nested(op, MAX_NESTING)
    m = LassoModel((frozenset({"p"}),), (frozenset({"q"}),))
    script = tmp_path / "deep.ndp"
    if op != "U":
        script.write_text(f"assume 1 lwff b : {text}\nnode 2 reflLe concl b : {text} prem 1\nroot 2\n", encoding="utf-8")
        code, out = run(capsys, "check", str(script), "--json")
        assert code == 0 and json.loads(out)["verdict"] == "accepted"
        assert main(["eval", "--model", str(model_file), "--seq", "0,1", text]) == 0
    if op != "H":
        assert main(["translate", text]) == 0
        assert main(["eval", "--model", str(model_file), "--pos", "0", text]) == 0
        # The image is about 9 levels deep per U: it must still check and evaluate.
        source = parse_ltl(text)
        image = translate(source)
        leaf = Assume(1, Lwff(("b",), image))
        assert check(Apply(2, "impI", Lwff(("b",), Implies(image, image)), (leaf,), (leaf,))).accepted
        assert eval_h(m, (0, 1), image) == eval_ltl(m, 1, source)
    capsys.readouterr()

    past = nested(op, MAX_NESTING + 1)
    script.write_text(f"assume 1 lwff b : {past}\nroot 1\n", encoding="utf-8")
    code, out = run(capsys, "check", str(script), "--json")
    assert (code, out) == (2, "")
    assert main(["translate", past]) == 2
    assert main(["eval", "--model", str(model_file), "--pos", "0", past]) == 2
    assert main(["eval", "--model", str(model_file), "--seq", "0,1", past]) == 2


_SCRIPTS = sorted(
    f.read_text(encoding="utf-8")
    for d in ("corpus", "corpus/mutations")
    for f in resources.files("nabla").joinpath(d).iterdir()
    if f.name.endswith(".ndp")
)
_MODELS = [
    format_model(LassoModel((frozenset({"p"}),), (frozenset({"q"}),))),
    format_model(LassoModel((), (frozenset({"p", "q"}), frozenset()))),
]
_EDITS = st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "truncate"]), st.integers(0, 10**6)), max_size=4)


def mutate(text, edits):
    lines = text.splitlines()
    for kind, k in edits:
        if not lines:
            break
        i = k % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][: k % (len(lines[i]) + 1)]
    return "\n".join(lines) + "\n"


def assert_total(capsys, argv, codes):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in codes, err
    assert "Traceback" not in out + err and "internal error" not in err


_TOTALITY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_TOTALITY
@given(
    st.one_of(
        st.tuples(st.sampled_from(_SCRIPTS), _EDITS).map(lambda t: mutate(*t)),
        st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n"), max_size=200),
        st.sampled_from(["~", "G", "&", "U"]).map(lambda op: f"assume 1 lwff b : {nested(op, MAX_NESTING + 1)}\nroot 1\n"),
    )
)
def test_check_total_on_damaged_input(capsys, tmp_path, text):
    path = tmp_path / "damaged.ndp"
    path.write_text(text, encoding="utf-8")
    assert_total(capsys, ["check", str(path), "--json"], {0, 1, 2})


@_TOTALITY
@given(st.sampled_from(_MODELS), _EDITS, st.sampled_from([("--pos", "0", "(p U q)"), ("--seq", "0,2", "(H (G p))")]))
def test_eval_total_on_damaged_model(capsys, tmp_path, model, edits, query):
    path = tmp_path / "damaged.lasso"
    path.write_text(mutate(model, edits), encoding="utf-8")
    assert_total(capsys, ["eval", "--model", str(path), *query], {0, 2})


# One row per way a command refuses its input: the argv (with {model},
# a readable lasso model, and {dir}, a scratch directory), NABLA_SEED, and
# the exit code.
_REFUSALS = {
    "check-missing-file": (["check", "{dir}/missing.ndp"], None, 2),
    "check-script-error": (["check", "{dir}/garbled.ndp"], None, 2),
    "translate-parse-error": (["translate", "(p U"], None, 2),
    "translate-json-parse-error": (["translate", "(H p)", "--json"], None, 2),
    "taut-label": (["taut", "(p -> p)", "--label", "1x"], None, 2),
    "taut-parse-error": (["taut", "(p ->"], None, 2),
    "taut-not-a-tautology": (["taut", "(p -> q)"], None, 1),
    "taut-not-propositional": (["taut", "(G p)"], None, 1),
    "taut-too-deep": (["taut", "((((((((((p & p) & p) & p) & p) & p) & p) & p) & p) -> p)"], None, 2),
    "eval-missing-model": (["eval", "--model", "{dir}/missing.lasso", "--pos", "0", "p"], None, 2),
    "eval-model-format": (["eval", "--model", "{dir}/garbled.ndp", "--pos", "0", "p"], None, 2),
    "eval-parse-error": (["eval", "--model", "{model}", "--seq", "0", "(p U q)"], None, 2),
    "eval-negative-position": (["eval", "--model", "{model}", "--pos", "-1", "p"], None, 2),
    "eval-malformed-sequence": (["eval", "--model", "{model}", "--seq", "0,x", "(H p)", "--json"], None, 2),
    "eval-negative-sequence": (["eval", "--model", "{model}", "--seq", "0,-1", "(H p)"], None, 2),
    "fuzz-nabla-seed": (["fuzz", "--lemma", "last", "--samples", "1"], "abc", 2),
    "fuzz-samples": (["fuzz", "--lemma", "last", "--samples", "0"], None, 2),
    "fuzz-max-size": (["fuzz", "--lemma", "last", "--max-size", "-1"], None, 2),
    "fuzz-inject-bug-soundness": (["fuzz", "--lemma", "soundness", "--inject-bug", "valuation-shift"], None, 2),
}


@pytest.mark.parametrize("kind", sorted(_REFUSALS))
def test_every_refusal_is_one_error_line_and_its_exit_code(capsys, monkeypatch, tmp_path, model_file, kind):
    argv, seed, want = _REFUSALS[kind]
    (tmp_path / "garbled.ndp").write_text("assume 1 lwff b ; p\n", encoding="utf-8")
    if seed is None:
        monkeypatch.delenv("NABLA_SEED", raising=False)
    else:
        monkeypatch.setenv("NABLA_SEED", seed)
    code = main([a.format(model=model_file, dir=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (want, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err


def test_a_stray_value_error_is_an_internal_error(capsys, monkeypatch):
    def boom(f):
        raise ValueError("boom")

    monkeypatch.setattr("nabla.cli.translate", boom)
    assert main(["translate", "p"]) == 4
    assert capsys.readouterr() == ("", "internal error: ValueError: boom\n")


def test_json_and_falsified_text_output(capsys, model_file):
    code, out = run(capsys, "translate", "(p U q)", "--json")
    assert (code, json.loads(out)) == (0, {"source": "(p U q)", "image": "(q | (F ((X q) & (H p))))"})
    code, out = run(capsys, "eval", "--model", str(model_file), "--pos", "0", "(p U q)", "--json")
    assert (code, json.loads(out)) == (0, {"formula": "(p U q)", "value": True})
    argv = ["fuzz", "--lemma", "translation", "--samples", "200", "--seed", "1", "--inject-bug", "valuation-shift"]
    code, out = run(capsys, *argv)
    assert code == 3
    head, _, rest = out.partition("\n")
    report = json.loads(run(capsys, *argv, "--json")[1])
    assert head == f"translation: FALSIFIED after {report['checked']} samples (seed 1)"
    assert json.loads(rest) == report["counterexample"]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert main(["translate", "p"]) == 0
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["translate", "p"]) == 0
    assert made == []


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this nabla."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(nabla.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def one_shot(argv) -> subprocess.Popen:
    """`python -m nabla.cli ARGV`, started and not waited for."""
    return subprocess.Popen(
        [sys.executable, "-m", "nabla.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env()
    )


def test_module_entry_point_matches_main(capsys, tmp_path):
    # `python -m nabla.cli`, one process per command line as a user runs it,
    # gives the same stdout, stderr and exit code as main in process.
    corpus = Path(nabla.__file__).parent / "corpus"
    argvs = [
        ["check", str(corpus / "A6.ndp")],
        ["check", str(corpus / "mutations" / "unknown_rule_name.ndp")],
        ["check", str(tmp_path / "missing.ndp")],
        ["fuzz", "--lemma", "translation", "--samples", "200", "--seed", "1", "--inject-bug", "valuation-shift"],
    ]
    children = [one_shot(argv) for argv in argvs]
    for argv, child, want in zip(argvs, children, [0, 1, 2, 3]):
        out, err = child.communicate(timeout=30)
        code = main(argv)
        assert (child.returncode, out, err) == (want, *capsys.readouterr()), argv
        assert code == want


def test_one_shot_fuzz_reports_match_goldens():
    # Record comparisons follow type addresses, which change with the set of
    # modules a process has loaded; a one-shot `nabla fuzz` loads fewer than
    # the test process, and its seeded report must not move.
    children = {name: one_shot(["fuzz", *argv, "--json", "--seed", "1"]) for name, argv in FUZZ_GOLDENS.items()}
    for name, child in children.items():
        out, err = child.communicate(timeout=60)
        assert (out, err) == ((GOLDEN / f"{name}.json").read_text(encoding="utf-8"), ""), name
        assert child.returncode == (3 if "--inject-bug" in FUZZ_GOLDENS[name] else 0), name


# Each command line, run by main in a fresh interpreter after the given
# statements, with its exit code and the modules, of those that only some
# commands run, that it loads.  Every branch of main's exit-code mapping is
# here, so each still holds when the module that raises was loaded by the
# command itself.  None runs no command: the import of nabla.cli alone.
_CHECKER = ["nabla.derived", "nabla.scripts"]
_BOOM = "def boom(*args):\n    raise ValueError('boom')\n"
_LOADS = {
    "import": ("", None, None, []),
    "eval": ("", ["eval", "--model", "{model}", "--pos", "0", "(p U q)"], 0, []),
    "eval-parse-error": ("", ["eval", "--model", "{model}", "--pos", "0", "(p U"], 2, []),
    "eval-model-format": ("", ["eval", "--model", "{dir}/garbled.ndp", "--pos", "0", "p"], 2, []),
    "translate": ("", ["translate", "(p U q)"], 0, []),
    "translate-internal": (_BOOM + "nabla.cli.translate = boom\n", ["translate", "p"], 4, []),
    "fuzz": ("", ["fuzz", "--lemma", "translation", "--samples", "1", "--seed", "1"], 0, []),
    "check": ("", ["check", "{corpus}/A6.ndp"], 0, _CHECKER),
    "check-script-error": ("", ["check", "{dir}/garbled.ndp"], 2, _CHECKER),
    "check-internal": (_BOOM + "nabla.cli.check = boom\n", ["check", "{corpus}/A6.ndp"], 4, _CHECKER),
    "taut": ("", ["taut", "(p -> p)"], 0, _CHECKER),
    "taut-not-a-tautology": ("", ["taut", "(p -> q)"], 1, _CHECKER),
    "taut-not-propositional": ("", ["taut", "(G p)"], 1, _CHECKER),
    "corpus": ("", ["corpus"], 0, ["nabla.corpus", *_CHECKER]),
}


@pytest.mark.parametrize("kind", sorted(_LOADS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, model_file, kind):
    before, argv, want_code, want_loaded = _LOADS[kind]
    (tmp_path / "garbled.ndp").write_text("assume 1 lwff b ; p\n", encoding="utf-8")
    corpus = Path(nabla.__file__).parent / "corpus"
    if argv is not None:
        argv = [a.format(model=model_file, dir=tmp_path, corpus=corpus) for a in argv]
    call = "None" if argv is None else f"nabla.cli.main({argv!r})"
    code = (
        "import contextlib, io, json, sys\n"
        "import nabla.cli\n"
        f"{before}"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    code = {call}\n"
        "lazy = ('nabla.corpus', 'nabla.derived', 'nabla.scripts')\n"
        "print(json.dumps([code, [m for m in lazy if m in sys.modules], err.getvalue()]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    got_code, got_loaded, err = json.loads(done.stdout)
    assert (got_code, got_loaded) == (want_code, want_loaded)
    if want_code == 4:
        assert err == "internal error: ValueError: boom\n"
    elif want_code:
        assert err.startswith("error: ") and "internal error" not in err, err
