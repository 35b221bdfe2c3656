import json

import pytest

from nabla.cli import main
from nabla.formulas import desugar, parse_ltl
from nabla.kernel import check
from nabla.scripts import parse_script
from nabla.semantics import format_model, LassoModel


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


def test_corpus_exit_code(capsys):
    code, out = run(capsys, "corpus")
    assert code == 0
    assert "expectations hold" in out


def test_translate_paper_example(capsys):
    code, out = run(capsys, "translate", "(p U q)")
    assert code == 0
    assert out.strip() == "(q | (F ((X q) & (H p))))"
    assert main(["translate", "(H p)"]) == 2


def test_taut_emits_checkable_script(capsys):
    code, out = run(capsys, "taut", "(((p -> q) -> p) -> p)", "--label", "b")
    assert code == 0
    root = parse_script(out)
    report = check(root)
    assert report.accepted and not report.open_assumptions
    assert desugar(report.conclusion.formula) == desugar(parse_ltl("(((p -> q) -> p) -> p)"))
    assert main(["taut", "(p -> q)"]) == 1


def test_eval_positions_and_sequences(capsys, model_file):
    code, out = run(capsys, "eval", "--model", str(model_file), "--pos", "0", "(p U q)")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "eval", "--model", str(model_file), "--seq", "0,2", "(H p)")
    assert code == 0 and out.strip() == "false"
    assert main(["eval", "--model", str(model_file), "--pos", "0", "(H p)"]) == 2


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
