import gc
import os
import random
import re
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nabla.cli import main
from nabla.corpus import ENTRIES, MUTATIONS, load_script
from nabla.derived import derive_tautology, expand
from nabla import formulas
from nabla.formulas import Atom, Formula, Implies, ParseError, format_formula, parse_ltl
from nabla.gen import DerivationSampler
from nabla.kernel import Apply, Assume, Le, Lwff, Succ, all_nodes, check
from nabla.scripts import ScriptError, parse_script, serialize
from tests.test_formulas import ReferenceParser, _ref_tokenize


def test_serialize_roundtrip_on_corpus():
    for entry in ENTRIES:
        root = load_script(entry.script)
        text = serialize(root)
        # Ids run 1, 2, ... in definition order (parse_script rejects a
        # duplicate), and the renumbered script keeps the verdict.
        ids = [int(line.split()[1]) for line in text.splitlines()[:-1]]
        assert ids == list(range(1, len(ids) + 1))
        again = parse_script(text)
        r1 = check(expand(root))
        r2 = check(expand(again))
        assert r1.accepted and r2.accepted
        assert r1.conclusion == r2.conclusion
        assert r1.open_assumptions == r2.open_assumptions


def test_serialize_emits_primitive_scripts():
    root = expand(load_script("A8.ndp"))
    text = serialize(root)
    again = parse_script(text)
    assert check(again).accepted
    assert "orE" not in text and "FI" not in text and "FE" not in text


def test_serialize_prints_each_formula_object_once(monkeypatch):
    # One fold memo serves the whole script: a subformula that many lines
    # share is printed once, not once per line that restates it.
    root = derive_tautology(parse_ltl("(((p -> q) -> p) -> p)"), "b")
    objects, stack = set(), [n.conclusion.formula for n in all_nodes(root) if isinstance(n.conclusion, Lwff)]
    while stack:
        f = stack.pop()
        if type(f) is Implies and id(f) not in objects:
            objects.add(id(f))
            stack += [f.left, f.right]
    printed = []
    rule = formulas._FORMAT[Implies]
    monkeypatch.setitem(formulas._FORMAT, Implies, lambda x, a, b: printed.append(x) or rule(x, a, b))
    text = serialize(root)
    assert len(printed) == len(objects) and {id(f) for f in printed} == objects
    assert text.count("->") > 4 * len(printed)  # 38 arrows, 8 printed


def test_parse_error_line_numbers():
    with pytest.raises(ScriptError) as err:
        parse_script("assume 1 lwff b : (p ->\nroot 1\n")
    assert err.value.line == 1
    with pytest.raises(ScriptError) as err:
        parse_script("assume 1 lwff b : p\nnode 2 impI concl b : (q -> p) prem 9\nroot 2\n")
    assert err.value.line == 2
    with pytest.raises(ScriptError) as err:
        parse_script("assume 1 lwff b : p\nassume 1 rwff le(b,c)\nroot 1\n")
    assert err.value.line == 2
    with pytest.raises(ScriptError) as err:
        parse_script("assume 1 lwff b : p\n")
    with pytest.raises(ScriptError) as err:
        parse_script("assume 1 lwff b : (p U q)\nroot 1\n")
    assert err.value.line == 1


def test_comments_and_blank_lines():
    root = parse_script("# a comment\n\nassume 1 lwff b : p  # trailing\nroot 1\n")
    assert check(root).accepted


_LINS = (
    "assume 1 rwff succ(b,c)\n"
    "assume 2 rwff succ(b,d)\n"
    "assume 3 lwff b c : p\n"
    "assume 4 lwff b d : p\n"
    "node 5 linS concl b d : p prem 1,2,3,4 disch 4\n"
    "root 5\n"
)


def test_linS_script_names_no_substitution():
    root = parse_script(_LINS)
    assert check(root).accepted
    assert check(root).open_assumptions == {Succ("b", "c"), Succ("b", "d"), Lwff(("b", "c"), Atom("p"))}
    assert check(parse_script(serialize(root))).accepted


@pytest.mark.parametrize(
    "text, line",
    [
        (_LINS.replace("disch 4", "disch 4 subst c d"), 5),
        ("assume 1 lwff b : (p -> q)\nassume 2 lwff b : p\nnode 3 impE concl b : q prem 1,2 subst x y\nroot 3\n", 3),
        ("assume 1 lwff b : p\nassume 2 lwff b : q\nnode 3 andI concl b : (p & q) prem 1,2 subst x y\nroot 3\n", 3),
    ],
    ids=["linS", "impE", "andI"],
)
def test_a_subst_clause_is_trailing_input(tmp_path, capsys, text, line):
    # A node line ends after its discharges; a substitution clause on any
    # rule, primitive or derived, is a parse error.
    tail = text.splitlines()[line - 1].partition(" subst ")[2]
    with pytest.raises(ScriptError, match=rf"^line {line}: unexpected trailing input 'subst {tail}'$"):
        parse_script(text)
    assert outcome(parse_script, text) == outcome(reference_parse_script, text)
    path = tmp_path / "subst.ndp"
    path.write_text(text, encoding="utf-8")
    for extra in ([], ["--emit-primitive"]):
        assert main(["check", str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unexpected trailing input" in err


def test_labels_follow_one_grammar(tmp_path):
    # An ASCII letter, then ASCII letters, digits and '_': in a label
    # sequence and a relational formula alike.
    bad = [
        "assume 1 lwff 1 : p\nroot 1\n",
        "assume 1 rwff le(1,_x)\nroot 1\n",
        "assume 1 rwff le(_x,é)\nroot 1\n",
        "assume 1 rwff succ(b,c²)\nroot 1\n",
    ]
    for i, text in enumerate(bad):
        with pytest.raises(ScriptError):
            parse_script(text)
        assert outcome(parse_script, text) == outcome(reference_parse_script, text)
        path = tmp_path / f"bad{i}.ndp"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2


def test_any_run_of_spaces_or_tabs_separates_fields(monkeypatch):
    plain = (
        "assume 1 lwff b : p\n"
        "assume 2 lwff b : (p -> q)\n"
        "node 3 impE concl b : q prem 2,1\n"
        "root 3\n"
    )
    spaced = [
        plain.replace("assume 1 lwff", "assume 1\tlwff"),
        plain.replace("impE concl", "impE  concl"),
        plain.replace("b : q prem", "b : q\tprem"),
        plain.replace("assume 1 lwff", "assume  1 lwff"),
        plain.replace("impE concl b", "impE\tconcl\tb"),
        plain.replace("(p -> q)\n", "(p -> q)\t\n").replace(" prem 2,1", "\tprem\t2,1"),
    ]
    want = outcome(parse_script, plain)
    assert want[0] != "error"
    for text in spaced:
        assert outcome(parse_script, text) == outcome(reference_parse_script, text) == want
    # A tab before 'prem' ends the formula as a space does: no offset scan.
    scans = []
    positions = formulas._positions
    monkeypatch.setattr(formulas, "_positions", lambda text, *mode: scans.append(text) or positions(text, *mode))
    for text in spaced:
        parse_script(text)
    assert scans == []
    # A keyword is a whole field.
    for glued in ("impE conclb : q", "impE concl: q", "impEconcl b : q"):
        text = plain.replace("impE concl b : q", glued)
        assert outcome(parse_script, text) == outcome(reference_parse_script, text)
        assert outcome(parse_script, text)[0] == "error"


def test_ids_are_ascii_digits():
    base = "assume 10 lwff b : p\n"
    for word in ("1_0", "-1", "+1", "\u0661", "\u00b2", "1.0", "0x1"):
        for text, line in [
            (base + f"assume {word} lwff b : q\nroot 10\n", 2),
            (base + f"node 2 reflLe concl b : p prem 10,{word}\nroot 2\n", 2),
            (base + f"node 2 impI concl b : (p -> p) prem 10 disch {word}\nroot 2\n", 2),
            (base + f"root {word}\n", 2),
        ]:
            want = ("error", line, f"line {line}: bad id {word!r}")
            assert outcome(parse_script, text) == outcome(reference_parse_script, text) == want
    # Leading zeros still read as the number.
    text = base + "node 2 reflLe concl b : p prem 010\nroot 02\n"
    assert outcome(parse_script, text) == outcome(reference_parse_script, text)
    assert parse_script(text).premises[0].id == 10


# --- formula sharing ---------------------------------------------------------
#
# The parser before sharing, kept as the reference: each line's formula is
# parsed on its own, so equal formulas of a script are separate objects.
# Its fields are separated by any run of whitespace, and its ids are ASCII
# digits, as in parse_script.  It reads a name `$x` as one token, found by
# its own scan, and as the formula of the `let` line that defined it, which
# nests as deep where it is used as its printed text does.

_LABEL = r"[A-Za-z][A-Za-z0-9_]*"
_RWFF_RE = re.compile(rf"^(le|succ)\(\s*({_LABEL})\s*,\s*({_LABEL})\s*\)$")
_LABEL_RE = re.compile(rf"^{_LABEL}$")
_REF_USE = re.compile(r"\$\w+")


def _ref_named_tokens(text, partial):
    """The reference's tokens of ``text``, with each `$` and the word after
    it as one more token: the scan runs with the names blanked out, and a
    name counts if it starts before the scan ends."""
    uses = [(m.group(), m.start()) for m in _REF_USE.finditer(text)]
    tokens = _ref_tokenize(_REF_USE.sub(lambda m: " " * len(m.group()), text), partial)
    end = tokens.pop()
    return sorted(tokens + [t for t in uses if t[1] < end[1]], key=lambda t: t[1]) + [end]


def _ref_printed_nesting(f):
    depth = deepest = 0
    for ch in format_formula(f):
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


class NamedReferenceParser(ReferenceParser):
    def __init__(self, text, names):
        super().__init__("", "U", partial=True)
        self.tokens = _ref_named_tokens(text, partial=True)
        self.names = names

    def formula(self):
        tok, off = self.peek()
        if not tok.startswith("$"):
            return super().formula()
        self.next()
        if tok not in self.names:
            raise ParseError(f"name {tok!r} is not defined yet", off, frozenset({"identifier", "bot", "("}))
        f = self.names[tok]
        if self.depth + _ref_printed_nesting(f) > formulas.MAX_NESTING:
            raise ParseError(f"formula nested deeper than {formulas.MAX_NESTING} levels", off, frozenset({"identifier", "bot"}))
        return f


def _ref_formula_prefix(text, line, names):
    try:
        parser = NamedReferenceParser(text, names)
        f, stop = parser.formula(), parser.peek()[1]
    except ParseError as e:
        raise ScriptError(f"bad formula: {e}", line)
    return f, text[stop:]


def _ref_whole_formula(text, line, names):
    f, tail = _ref_formula_prefix(text, line, names)
    if tail.strip():
        raise ScriptError(f"trailing input after formula: {tail.strip()!r}", line)
    return f


def _ref_labelled(text, line, names):
    head, colon, rest = text.partition(":")
    if not colon:
        raise ScriptError("expected '<label>+ : <formula>'", line)
    labels = tuple(head.split())
    if not labels or not all(_LABEL_RE.match(x) for x in labels):
        raise ScriptError(f"bad label sequence {head.strip()!r}", line)
    return Lwff(labels, _ref_whole_formula(rest, line, names))


def _ref_id(word, line):
    # ASCII digits only: int() would also take '-1', '+1', '1_0' and '١'.
    if not re.fullmatch(r"[0-9]+", word):
        raise ScriptError(f"bad id {word!r}", line)
    return int(word)


def _ref_ids(text, line):
    return [_ref_id(part.strip(), line) for part in text.split(",") if part.strip()]


def _ref_word(text):
    """The first field of ``text`` and the rest: fields are separated by
    any run of whitespace."""
    first, rest = (text.split(None, 1) + ["", ""])[:2]
    return first, rest


def reference_parse_script(text):
    nodes = {}
    names = {}
    root_id = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split(None, 2)
        if words[0] == "assume":
            if len(words) < 3:
                raise ScriptError("assume needs '<id> lwff|rwff ...'", lineno)
            nid = _ref_id(words[1], lineno)
            if nid in nodes:
                raise ScriptError(f"duplicate id {nid}", lineno)
            kind, rest = _ref_word(words[2])
            if kind == "lwff":
                nodes[nid] = Assume(nid, _ref_labelled(rest, lineno, names))
            elif kind == "rwff":
                m = _RWFF_RE.match(rest.strip())
                if not m:
                    raise ScriptError(f"bad relational formula {rest.strip()!r}", lineno)
                ctor = Le if m.group(1) == "le" else Succ
                nodes[nid] = Assume(nid, ctor(m.group(2), m.group(3)))
            else:
                raise ScriptError(f"expected 'lwff' or 'rwff', got {kind!r}", lineno)
        elif words[0] == "node":
            if len(words) < 3:
                raise ScriptError("node needs '<id> <rule> concl ...'", lineno)
            nid = _ref_id(words[1], lineno)
            if nid in nodes:
                raise ScriptError(f"duplicate id {nid}", lineno)
            rule, rest = _ref_word(words[2])
            concl, rest = _ref_word(rest)
            if concl != "concl":
                raise ScriptError("expected 'concl' after the rule name", lineno)
            head, colon, tail = rest.partition(":")
            if not colon:
                raise ScriptError("expected '<label>+ : <formula>'", lineno)
            labels = tuple(head.split())
            if not labels or not all(_LABEL_RE.match(x) for x in labels):
                raise ScriptError(f"bad label sequence {head.strip()!r}", lineno)
            formula, tail = _ref_formula_prefix(tail, lineno, names)
            conclusion = Lwff(labels, formula)
            fields = tail.split()
            prem_ids, disch_ids = [], []
            i = 0
            if i < len(fields) and fields[i] == "prem":
                if i + 1 >= len(fields):
                    raise ScriptError("prem needs a comma-separated id list", lineno)
                prem_ids = _ref_ids(fields[i + 1], lineno)
                i += 2
            else:
                raise ScriptError("node needs a 'prem' clause", lineno)
            if i < len(fields) and fields[i] == "disch":
                if i + 1 >= len(fields):
                    raise ScriptError("disch needs a comma-separated id list", lineno)
                disch_ids = _ref_ids(fields[i + 1], lineno)
                i += 2
            if i != len(fields):
                raise ScriptError(f"unexpected trailing input {' '.join(fields[i:])!r}", lineno)
            premises = []
            for pid in prem_ids:
                if pid not in nodes:
                    raise ScriptError(f"premise {pid} is not defined yet", lineno)
                premises.append(nodes[pid])
            discharges = []
            for did in disch_ids:
                if did not in nodes:
                    raise ScriptError(f"discharged assumption {did} is not defined yet", lineno)
                if not isinstance(nodes[did], Assume):
                    raise ScriptError(f"discharged id {did} is not an assumption", lineno)
                discharges.append(nodes[did])
            nodes[nid] = Apply(nid, rule, conclusion, tuple(premises), tuple(discharges))
        elif words[0] == "let":
            fields = line.split(None, 3)
            if len(fields) != 4 or fields[2] != "=":
                raise ScriptError("let needs '$<name> = <formula>'", lineno)
            name = fields[1]
            if not re.fullmatch(r"\$[0-9A-Za-z_]+", name):
                raise ScriptError(f"bad name {name!r}", lineno)
            if name in names:
                raise ScriptError(f"duplicate name {name}", lineno)
            names[name] = _ref_whole_formula(fields[3], lineno, names)
        elif words[0] == "root":
            if root_id is not None:
                raise ScriptError("duplicate root line", lineno)
            if len(words) != 2:
                raise ScriptError("root needs exactly one id", lineno)
            root_id = _ref_id(words[1], lineno)
            if root_id not in nodes:
                raise ScriptError(f"root {root_id} is not defined", lineno)
        else:
            raise ScriptError(f"unknown directive {words[0]!r}", lineno)
    if root_id is None:
        raise ScriptError("missing root line", len(text.splitlines()) + 1)
    return nodes[root_id]


def derivation_shape(root):
    """Every node with its formula, compared structurally, and its references."""
    out = []
    for n in all_nodes(root):
        if isinstance(n, Assume):
            out.append(("assume", n.id, n.formula))
        else:
            refs = (tuple(p.id for p in n.premises), tuple(a.id for a in n.discharges))
            out.append(("node", n.id, n.rule, n.conclusion, refs))
    return out


def outcome(parse, text):
    try:
        return derivation_shape(parse(text))
    except ScriptError as e:
        return ("error", e.line, str(e))


# One malformed script per raise site of parse_script, with the line and
# the message it must report; the reference must report the same.
_P = "assume 1 lwff b : p\n"
_N = _P + "node 2 impI concl b : (p -> p) "
_ERROR_SITES = [
    ("assume 1\nroot 1\n", 1, "assume needs '<id> lwff|rwff ...'"),
    (_P + "node 2\nroot 2\n", 2, "node needs '<id> <rule> concl ...'"),
    ("assume x lwff b : p\nroot 1\n", 1, "bad id 'x'"),
    (_P + "node 2x impI concl b : (p -> p) prem 1\nroot 2\n", 2, "bad id '2x'"),
    (_P + "assume 1 rwff le(b,c)\nroot 1\n", 2, "duplicate id 1"),
    (_N + "prem 1\nnode 2 impI concl b : (p -> p) prem 1\nroot 2\n", 3, "duplicate id 2"),
    ("assume 1 lwff b p\nroot 1\n", 1, "expected '<label>+ : <formula>'"),
    ("assume 1 lwff b 1c : p\nroot 1\n", 1, "bad label sequence 'b 1c'"),
    ("assume 1 lwff b : (p ->\nroot 1\n", 1,
     "bad formula: unexpected token '<end>' at offset 6 (expected one of: (, bot, identifier)"),
    ("assume 1 lwff b : p q\nroot 1\n", 1, "trailing input after formula: 'q'"),
    ("assume 1 rwff le(b)\nroot 1\n", 1, "bad relational formula 'le(b)'"),
    ("assume 1 xwff b : p\nroot 1\n", 1, "expected 'lwff' or 'rwff', got 'xwff'"),
    (_P + "node 2 impI conc b : (p -> p) prem 1\nroot 2\n", 2, "expected 'concl' after the rule name"),
    (_P + "node 2 impI concl b (p -> p) prem 1\nroot 2\n", 2, "expected '<label>+ : <formula>'"),
    (_P + "node 2 impI concl : (p -> p) prem 1\nroot 2\n", 2, "bad label sequence ''"),
    (_P + "node 2 impI concl b : (p -> $) prem 1\nroot 2\n", 2,
     "bad formula: unexpected token '<end>' at offset 7 (expected one of: (, bot, identifier)"),
    (_N + "prem\nroot 2\n", 2, "prem needs a comma-separated id list"),
    (_N + "disch 1\nroot 2\n", 2, "node needs a 'prem' clause"),
    (_N + "prem 1,x disch 1\nroot 2\n", 2, "bad id 'x'"),
    (_N + "prem 1 disch\nroot 2\n", 2, "disch needs a comma-separated id list"),
    (_N + "prem 1 disch 1,y subst c\nroot 2\n", 2, "bad id 'y'"),
    (_N + "prem 1 disch 1 subst c d\nroot 2\n", 2, "unexpected trailing input 'subst c d'"),
    (_N + "prem 1 disch 1 e\nroot 2\n", 2, "unexpected trailing input 'e'"),
    (_N + "prem 1,9 disch 8\nroot 2\n", 2, "premise 9 is not defined yet"),
    (_N + "prem 1 disch 8\nroot 2\n", 2, "discharged assumption 8 is not defined yet"),
    (_N + "prem 1\nnode 3 impI concl b : (p -> p) prem 2 disch 2\nroot 3\n", 3, "discharged id 2 is not an assumption"),
    (_P + "root 1\nroot 1\n", 3, "duplicate root line"),
    (_P + "root\n", 2, "root needs exactly one id"),
    (_P + "root 1 1\n", 2, "root needs exactly one id"),
    (_P + "root one\n", 2, "bad id 'one'"),
    (_P + "root 5\n", 2, "root 5 is not defined"),
    (_P + "asume 2 lwff b : p\nroot 1\n", 2, "unknown directive 'asume'"),
    (_P + "# root 1\n", 3, "missing root line"),
]
# The error sites of names: a let line's own, then a name's use.
_G20 = "(G " * 20 + "p" + ")" * 20
_LET_ERROR_SITES = [
    ("let: no '='", "let $1 (p -> p)\n" + _P + "root 1\n", 1, "let needs '$<name> = <formula>'"),
    ("let: no formula", "let $1 =\n" + _P + "root 1\n", 1, "let needs '$<name> = <formula>'"),
    ("let: bad name", "let x = (p -> p)\n" + _P + "root 1\n", 1, "bad name 'x'"),
    ("let: non-ASCII name", "let $é = (p -> p)\n" + _P + "root 1\n", 1, "bad name '$é'"),
    ("let: name defined twice", "let $1 = p\nlet $1 = q\n" + _P + "root 1\n", 2, "duplicate name $1"),
    ("let: bad formula", "let $1 = (p ->\n" + _P + "root 1\n", 1,
     "bad formula: unexpected token '<end>' at offset 5 (expected one of: (, bot, identifier)"),
    ("let: trailing input", "let $1 = p q\n" + _P + "root 1\n", 1, "trailing input after formula: 'q'"),
    ("undefined name", "assume 1 lwff b : ($1 -> p)\nroot 1\n", 1,
     "bad formula: name '$1' is not defined yet at offset 2 (expected one of: (, bot, identifier)"),
    ("let: name used before its let line", "let $1 = ($2 -> p)\nlet $2 = (p -> p)\n" + _P + "root 1\n", 1,
     "bad formula: name '$2' is not defined yet at offset 1 (expected one of: (, bot, identifier)"),
    ("node: name used before its let line", _P + "node 2 impI concl b : $2 prem 1 disch 1\nlet $2 = (p -> p)\nroot 2\n", 2,
     "bad formula: name '$2' is not defined yet at offset 1 (expected one of: (, bot, identifier)"),
    ("let: nested past the limit through a name", f"let $1 = {_G20}\nlet $2 = {'(X ' * 13}$1{')' * 13}\n" + _P + "root 1\n", 2,
     "bad formula: formula nested deeper than 32 levels at offset 39 (expected one of: bot, identifier)"),
    ("assume: nested past the limit through a name", f"let $1 = {_G20}\nlet $2 = {'(X ' * 12}$1{')' * 12}\nassume 1 lwff b : (~ $2)\nroot 1\n", 3,
     "bad formula: formula nested deeper than 32 levels at offset 4 (expected one of: bot, identifier)"),
    ("a name as an operator", "let $1 = (p -> p)\nassume 1 lwff b : ($1 $1 p)\nroot 1\n", 2,
     "bad formula: unexpected token '$1' at offset 5 (expected one of: &, ->, |)"),
]
_ERROR_IDS = [m for _, _, m in _ERROR_SITES] + [name for name, *_ in _LET_ERROR_SITES]
_ERROR_SITES += [site for _, *site in _LET_ERROR_SITES]


@pytest.mark.parametrize("text, line, message", _ERROR_SITES, ids=_ERROR_IDS)
def test_every_script_error_site(text, line, message):
    expected = ("error", line, f"line {line}: {message}")
    assert outcome(parse_script, text) == expected
    assert outcome(reference_parse_script, text) == expected


@pytest.mark.parametrize("text, line, message", [site for _, *site in _LET_ERROR_SITES], ids=[name for name, *_ in _LET_ERROR_SITES])
def test_a_bad_name_exits_2_through_check(tmp_path, capsys, text, line, message):
    path = tmp_path / "names.ndp"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: line {line}: {message}\n")


def test_a_name_reads_as_the_formula_it_defines():
    # Through a name or written out, a formula is one object, and it nests
    # as deep: 32 levels through names parse, as 32 written out do.
    text = f"let $1 = {_G20}\nlet $2 = {'(X ' * 12}$1{')' * 12}\nassume 1 lwff b : $2\n"
    text += f"assume 2 lwff b : {'(X ' * 12}{_G20}{')' * 12}\nnode 3 reflLe concl b : $2 prem 2\nroot 3\n"
    root = parse_script(text)
    assert outcome(parse_script, text) == outcome(reference_parse_script, text)
    [two] = root.premises
    f = root.conclusion.formula
    assert f is two.formula.formula and format_formula(f) == f"{'(X ' * 12}{_G20}{')' * 12}"
    assert formulas.format_nesting(f) == formulas.MAX_NESTING
    assert check(root).accepted


_CORPUS = [
    resources.files("nabla").joinpath(f"{d}/{name}").read_text(encoding="utf-8")
    for d, names in (("corpus", [e.script for e in ENTRIES]), ("corpus/mutations", [m.script for m in MUTATIONS]))
    for name in names
]
_TAUT = [
    serialize(derive_tautology(parse_ltl(f), label))
    for f, label in [
        ("(((p -> q) -> p) -> p)", "b"),
        ("(((prem -> disch) -> prem) -> prem)", "subst"),
        ("((((a & b) -> c) -> (a & b)) -> (a & b))", "prem"),
    ]
]
# Every operator over the same operands, and each formula twice.
_OPERATORS = (
    "assume 1 lwff b : ((p -> q) -> ((p | q) -> ((p & q) -> ((G p) -> ((X p) -> ((F p) -> ((H p) -> (~ p))))))))\n"
    "assume 2 lwff b : ((p & q) | ((H p) -> ((X p) & (G p))))\n"
    "node 3 reflLe concl b : ((p & q) | ((H p) -> ((X p) & (G p)))) prem 2\n"
    "root 3\n"
)
# Names a script's tail uses as keywords, as atoms and as labels.
_KEYWORD_NAMES = {"p": "prem", "q": "disch", "r": "subst", "b": "prem", "c": "subst", "d": "disch"}


def keyword_names(text):
    return re.sub(r"(?<=[ (,:])([bcdpqr])(?=[ ),]|$)", lambda m: _KEYWORD_NAMES[m.group(1)], text, flags=re.M)


@st.composite
def scripts(draw):
    text = draw(st.sampled_from(_CORPUS + _TAUT + [_OPERATORS]))
    if draw(st.booleans()):
        text = keyword_names(text)
    lines = text.splitlines()
    edit = st.tuples(st.integers(0, 5), st.integers(0, 10**6), st.sampled_from(" \t()->:,pXH#0$_é²"))
    for kind, k, ch in draw(st.one_of(st.just([]), st.lists(edit, max_size=3))):
        if not lines:
            break
        i = k % len(lines)
        line = lines[i]
        j = k % (len(line) + 1)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, line)
        elif kind == 2:
            lines[i] = line[:j]
        elif kind == 3:
            lines[i] = line[:j] + ch + line[j:]
        elif kind == 4:
            lines[i] = line[:j] + line[j + 1:]
        else:
            lines[i] = line.replace(" ", "  ", 1 + k % 3)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts())
def test_shared_parse_agrees_with_the_reference(text):
    assert outcome(parse_script, text) == outcome(reference_parse_script, text)


def test_keyword_names_parse_as_before():
    # Atoms and labels named like the keywords of a node line's tail.
    texts = [
        "assume 1 lwff prem : prem\nnode 2 impI concl prem : (prem -> prem) prem 1 disch 1\nroot 2\n",
        "assume 1 lwff subst : (disch -> prem)\nassume 2 lwff subst : disch\n"
        "node 3 impE concl subst : prem prem 1,2\nroot 3\n",
        "assume 1 rwff succ(prem,subst)\nassume 2 rwff succ(prem,disch)\nassume 3 lwff prem subst : prem\n"
        "assume 4 lwff prem disch : prem\nnode 5 linS concl prem disch : prem prem 1,2,3,4 disch 4\nroot 5\n",
        "assume 1 lwff b : prem\nnode 2 impI concl b : (prem -> prem) prem 1 prem 1\nroot 2\n",
        "assume 1 lwff b : prem\nnode 2 impI concl b : (prem -> prem)\tprem 1\nroot 2\n",
        "assume 1 lwff b : (prem -> (prem -> prem))\nnode 2 impI concl b : prem prem prem 1\nroot 2\n",
    ]
    for text in texts + _TAUT[1:]:
        assert outcome(parse_script, text) == outcome(reference_parse_script, text)
    assert check(parse_script(texts[2])).accepted
    for text in _CORPUS:
        renamed = keyword_names(text)
        assert renamed != text and outcome(parse_script, renamed) == outcome(reference_parse_script, renamed)
        reasons = [check(expand(parse_script(t))).reason for t in (text, renamed)]
        assert reasons[0] == reasons[1]


def _wide_chain(n):
    """An impE chain over n open implications, closed by transLe, serS and
    impI, in the shape of the check-wide benchmark's scripts."""
    lines = ["assume 1 lwff b : a0"]
    for i in range(1, n + 1):
        lines += [f"assume {2 * i} lwff b : (a{i - 1} -> a{i})", f"node {2 * i + 1} impE concl b : a{i} prem {2 * i},{2 * i - 1}"]
    k = 2 * n + 1
    lines += [
        f"assume {k + 1} rwff le(b,d)",
        f"assume {k + 2} rwff le(d,b)",
        f"node {k + 3} transLe concl b : a{n} prem {k + 1},{k + 2},{k}",
        f"assume {k + 4} rwff succ(b,c)",
        f"node {k + 5} serS concl b : a{n} prem {k + 3} disch {k + 4}",
        f"node {k + 6} impI concl b : (a0 -> a{n}) prem {k + 5} disch 1",
        f"root {k + 6}",
    ]
    return "\n".join(lines) + "\n"


def _guess_fails(text):
    """Whether some labelled line's formula is not everything between its
    first ':' and its last ' prem ' (or the line's end), stripped."""
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if " lwff " in line or " concl " in line:
            rest = line.partition(":")[2]
            head, sep, _ = rest.rpartition(" prem ")
            try:
                ReferenceParser((head if sep else rest).strip(), "U").run()
            except ParseError:
                return True
    return False


def test_well_formed_scripts_take_the_fast_path(monkeypatch):
    # Counts the scans that recover token offsets; parsing a script whose
    # every formula is where the guess puts it needs none.
    scans = []
    positions = formulas._positions
    monkeypatch.setattr(formulas, "_positions", lambda text, *mode: scans.append(text) or positions(text, *mode))
    wide = _wide_chain(2000)
    assert len(_CORPUS) == len(ENTRIES) + len(MUTATIONS) == 19
    for text in _CORPUS + _TAUT + [wide]:
        scans.clear()
        parse_script(text)
        assert scans == []
    assert outcome(parse_script, wide) == outcome(reference_parse_script, wide)
    assert check(parse_script(wide)).accepted
    # Atoms and labels named like the keywords take it too: no field after
    # the last ' prem ' of a well-formed node line is a name.
    for text in _CORPUS:
        renamed = keyword_names(text)
        scans.clear()
        parse_script(renamed)
        assert scans == [] and not _guess_fails(renamed)
    # Where the guess fails, on a line with trailing input, the partial
    # parse finds the formula's end, and the scan runs.
    text = "assume 1 lwff b : prem\nnode 2 impI concl b : (prem -> prem) prem 1 prem 1\nroot 2\n"
    assert _guess_fails(text)
    with pytest.raises(ScriptError, match="unexpected trailing input 'prem 1'"):
        parse_script(text)
    assert scans


def _formula_objects(root):
    """Every formula object reachable from the derivation's judgments."""
    seen, stack = {}, []
    for n in all_nodes(root):
        w = n.conclusion
        if isinstance(w, Lwff):
            stack.append(w.formula)
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen[id(f)] = f
            stack.extend(x for x in vars(f).values() if isinstance(x, Formula))
    return list(seen.values())


def test_equal_formulas_of_one_script_are_one_object():
    for text in _CORPUS + _TAUT + [_OPERATORS]:
        assert outcome(parse_script, text) == outcome(reference_parse_script, text)
        objects = _formula_objects(parse_script(text))
        by_text = {}
        for f in objects:
            assert by_text.setdefault(format_formula(f), f) is f
        assert len(by_text) == len(objects) > 1
    # Two calls share nothing.
    a, b = parse_script(_TAUT[0]), parse_script(_TAUT[0])
    assert not {id(f) for f in _formula_objects(a)} & {id(f) for f in _formula_objects(b)}


def _module_containers():
    return {
        (name, key): len(value)
        for name, module in sys.modules.items()
        if name == "nabla" or name.startswith("nabla.")
        for key, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def test_no_formula_memo_outlives_its_call(tmp_path):
    path = tmp_path / "t.ndp"
    path.write_text(_TAUT[2], encoding="utf-8")
    before = _module_containers()
    root = parse_script(_TAUT[2])
    report = check(expand(root))
    assert report.accepted and serialize(root) == _TAUT[2]
    assert main(["check", str(path), "--json"]) == 0
    refs = [weakref.ref(f) for f in _formula_objects(root)]
    del root, report
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert _module_containers() == before


# --- names in printed scripts --------------------------------------------------


def _props(max_leaves):
    """Propositional formulas over four atoms and bot."""
    leaves = st.sampled_from(["p", "q", "r", "s", "bot"])
    binary = lambda c: st.tuples(c, st.sampled_from(["->", "&", "|"]), c).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    return st.recursive(leaves, lambda c: binary(c) | c.map(lambda a: f"(~ {a})"), max_leaves=max_leaves)


def _round_trip(d):
    """A derivation's script read back: the same report, over as many
    distinct formula objects as ``d`` has distinct formulas."""
    again = parse_script(serialize(d))
    assert check(again).to_dict() == check(d).to_dict()
    assert len(_formula_objects(again)) == len(set(_formula_objects(d)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_sampled_derivations_print_and_read_back(seed, steps):
    _round_trip(DerivationSampler(random.Random(seed)).sample(steps=steps))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_props(8), st.sampled_from(["p", "q", "(p -> s)"]), st.booleans())
def test_tautology_proofs_print_and_read_back(a, b, peirce):
    d = derive_tautology(parse_ltl(f"((({a} -> {b}) -> {a}) -> {a})" if peirce else f"({a} | (~ {a}))"), "b")
    judged = [n.conclusion.formula for n in all_nodes(d) if isinstance(n.conclusion, Lwff)]
    assume(formulas.format_nesting(*judged) <= formulas.MAX_NESTING)
    _round_trip(d)


def _and_chain_peirce(n):
    """Peirce's law over ``a``, the ``&`` of n atoms, nested to the left."""
    a = "p0"
    for i in range(1, n):
        a = f"({a} & p{i})"
    return f"((({a} -> p0) -> {a}) -> {a})"


def test_peirce_scripts_grow_with_distinct_formulas():
    # Counted work, no timing: at a constant 25 nodes, each added atom adds
    # about 1,760 bytes to the text written out, because each of its lines
    # restates a judgment on the whole chain.  With each long formula that
    # is printed twice defined once, it adds about 44.
    sizes = []
    for n in range(2, 9):
        d = derive_tautology(parse_ltl(_and_chain_peirce(n)), "b")
        text = serialize(d)
        assert len(all_nodes(d)) == 25
        assert check(parse_script(text)).to_dict() == check(d).to_dict()
        sizes.append(len(text.encode()))
    growth = [b - a for a, b in zip(sizes, sizes[1:])]
    assert max(growth) <= 64, growth


def test_taut_prints_the_same_names_under_any_string_hash():
    # Names are numbered in the order of a walk over ids kept in insertion
    # order, which no string hash reorders.
    argv = [sys.executable, "-m", "nabla.cli", "taut", _and_chain_peirce(5)]
    paths = [str(Path(formulas.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        outs.append(done.stdout)
    assert outs[0] == outs[1] and outs[0].startswith("let $1 = ")
    assert check(parse_script(outs[0])).accepted
