"""Line-oriented derivation scripts.

Grammar (``#`` starts a comment, blank lines are skipped)::

    assume <id> lwff <label>+ : <formula>
    assume <id> rwff le(<label>,<label>)
    assume <id> rwff succ(<label>,<label>)
    node <id> <rule> concl <label>+ : <formula> prem <id>,... [disch <id>,...]
    root <id>

Formulas use the history-language concrete syntax.  Premises reference
earlier lines positionally, in the order the rule schema lists them; rule
names may be primitive or derived (the loader expands derived rules before
checking).  A line names no substitution: ``linS``, ``eqLe`` and
``splitLe`` substitute the pair their premises name.  Exit-code
convention for the checker CLI: 0 accepted, 1 rejected, 2 parse error.

Fields are separated by any run of whitespace (spaces or tabs), and each
keyword (``assume``, ``lwff``, ``concl``, ``prem``, ...) is a whole field.
The label sequence ends at the first ``:``, which needs no space around
it.  An id is one or more ASCII digits (``007`` is 7); ``-1``, ``+1``,
``1_0`` and other digits than ``0``-``9`` are bad ids.

``parse_script`` reads each line once, in grammar order: the directive,
the id, the kind or rule name, ``concl``, the label sequence up to ``:``,
the formula, then the ``prem`` and ``disch`` clauses.  Each field is
checked where it is read, so an error names the first field that is
wrong.  A node line's formula is taken to be the text before its last
`` prem `` (an assumption's, all the text after ``:``); when that text
parses as a whole formula it is what a parse of the rest of the line
would read, and only otherwise is the formula's end found by a partial
parse, which also gives the error.

Every line restates a whole formula, so a script repeats a few large
formulas many times.  ``parse_script`` parses each distinct formula text
once, reads each distinct label-sequence text once, and interns every
node, so equal formulas and subformulas of one script are one object;
``serialize`` prints each formula and subformula object once, through
one fold memo for the whole script.  Each memo belongs to one call and
is dropped when it returns.
"""

from __future__ import annotations

import re

from .formulas import Formula, ParseError, _FORMAT, _Parser, _fold_from
from .kernel import Apply, Assume, Le, Lwff, Node, Succ, all_nodes, format_generic

__all__ = ["ScriptError", "parse_script", "serialize"]

# One label grammar for label sequences and relational formulas.
_LABEL = r"[A-Za-z][A-Za-z0-9_]*"
_RWFF_RE = re.compile(rf"^(le|succ)\(\s*({_LABEL})\s*,\s*({_LABEL})\s*\)$")
_LABEL_RE = re.compile(rf"^{_LABEL}$")


class ScriptError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_USAGE = {"assume": "assume needs '<id> lwff|rwff ...'", "node": "node needs '<id> <rule> concl ...'"}


def _read_id(word: str, lineno: int) -> int:
    """An id: one or more ASCII digits."""
    if not (word.isdigit() and word.isascii()):
        raise ScriptError(f"bad id {word!r}", lineno)
    return int(word)


def parse_script(text: str) -> Node:
    """Parse a script into its root derivation node.

    Sharing: within one call, structurally equal formulas and subformulas
    are one object, and each distinct formula text is parsed once.  The
    tables live only for the call; two calls share nothing.
    """
    texts: dict[str, Formula] = {}  # formula text -> formula
    seqs: dict[str, tuple[str, ...]] = {}  # label-sequence text -> labels
    shared: dict[str | tuple, Formula] = {}  # the parsers' intern table
    nodes: dict[int, Node] = {}
    root_id: int | None = None
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.partition("#")[0]
        words = line.split(None, 3)
        if not words:
            continue
        directive = words[0]
        if directive != "node" and directive != "assume":
            if directive != "root":
                raise ScriptError(f"unknown directive {directive!r}", lineno)
            if root_id is not None:
                raise ScriptError("duplicate root line", lineno)
            if len(words) != 2:
                raise ScriptError("root needs exactly one id", lineno)
            root_id = _read_id(words[1], lineno)
            if root_id not in nodes:
                raise ScriptError(f"root {root_id} is not defined", lineno)
            continue
        if len(words) < 3:
            raise ScriptError(_USAGE[directive], lineno)
        nid = _read_id(words[1], lineno)
        if nid in nodes:
            raise ScriptError(f"duplicate id {nid}", lineno)
        rest = words[3] if len(words) == 4 else ""
        if directive == "node":
            if rest[:5] != "concl" or rest[5:6].strip():
                raise ScriptError("expected 'concl' after the rule name", lineno)
            rest = rest[5:]
        elif words[2] == "rwff":
            m = _RWFF_RE.match(rest.strip())
            if not m:
                raise ScriptError(f"bad relational formula {rest.strip()!r}", lineno)
            ctor = Le if m.group(1) == "le" else Succ
            nodes[nid] = Assume(nid, ctor(m.group(2), m.group(3)))
            continue
        elif words[2] != "lwff":
            raise ScriptError(f"expected 'lwff' or 'rwff', got {words[2]!r}", lineno)

        head, colon, rest = rest.partition(":")
        if not colon:
            raise ScriptError("expected '<label>+ : <formula>'", lineno)
        seq = seqs.get(head)
        if seq is None:
            seq = tuple(head.split())
            if not seq or not all(_LABEL_RE.match(x) for x in seq):
                raise ScriptError(f"bad label sequence {head.strip()!r}", lineno)
            seqs[head] = seq
        # The formula: the guess of the module docstring, checked by parsing
        # it whole; a tab before 'prem' separates like a space.
        k = (rest.replace("\t", " ") if "\t" in rest else rest).rfind(" prem ") if directive == "node" else -1
        key = (rest[:k] if k >= 0 else rest).strip()
        f = texts.get(key) or shared.get(key)  # an atom or bot seen before
        if f is None:
            try:
                f = texts[key] = _Parser(key, "U", shared).run()
            except ParseError:
                pass
        if f is not None:
            tail = rest[k + 1 :] if k >= 0 else ""
        else:
            rest = rest.rstrip()  # offsets as in the stripped line
            try:
                f, stop = _Parser(rest, "U", shared).prefix()
            except ParseError as e:
                raise ScriptError(f"bad formula: {e}", lineno) from None
            tail = rest[stop:]
        if directive == "assume":
            if tail.strip():
                raise ScriptError(f"trailing input after formula: {tail.strip()!r}", lineno)
            nodes[nid] = Assume(nid, Lwff(seq, f))
            continue

        fields = tail.split()
        n = len(fields)
        if not n or fields[0] != "prem":
            raise ScriptError("node needs a 'prem' clause", lineno)
        if n == 1:
            raise ScriptError("prem needs a comma-separated id list", lineno)
        # Each premise is looked up as its id is read; an id that is not
        # defined yet is reported once the whole line has been read.
        premises = []
        missing = None
        for word in fields[1].split(","):
            if word:
                pid = _read_id(word, lineno)
                node = nodes.get(pid)
                if node is None and missing is None:
                    missing = pid
                premises.append(node)
        disch_ids = []
        i = 2
        if n > 2 and fields[2] == "disch":
            if n == 3:
                raise ScriptError("disch needs a comma-separated id list", lineno)
            disch_ids = [_read_id(word, lineno) for word in fields[3].split(",") if word]
            i = 4
        if i != n:
            raise ScriptError(f"unexpected trailing input {' '.join(fields[i:])!r}", lineno)
        if missing is not None:
            raise ScriptError(f"premise {missing} is not defined yet", lineno)
        discharges = []
        for did in disch_ids:
            if did not in nodes:
                raise ScriptError(f"discharged assumption {did} is not defined yet", lineno)
            if not isinstance(nodes[did], Assume):
                raise ScriptError(f"discharged id {did} is not an assumption", lineno)
            discharges.append(nodes[did])
        nodes[nid] = Apply(nid, words[2], Lwff(seq, f), tuple(premises), tuple(discharges))
    if root_id is None:
        raise ScriptError("missing root line", len(lines) + 1)
    return nodes[root_id]


def serialize(root: Node) -> str:
    """Render a derivation as a script (ids renumbered in definition order).

    One postorder walk numbers and prints each node.  Every formula is
    printed through one ``_FORMAT`` fold memo per call, so each formula
    object, and each subformula object that many lines share, is printed
    once.  The memo is keyed on ``id``; ``root`` holds every object it
    names, and it is dropped when the call returns.
    """
    memo: dict[int, str] = {}
    num: dict[int, int] = {}

    def lwff(w: Lwff) -> str:
        return f"{' '.join(w.seq)} : {_fold_from(w.formula, _FORMAT, memo)}"

    lines: list[str] = []
    for n in all_nodes(root):
        k = num[id(n)] = len(num) + 1
        if isinstance(n, Assume):
            if isinstance(n.formula, Lwff):
                lines.append(f"assume {k} lwff {lwff(n.formula)}")
            else:
                lines.append(f"assume {k} rwff {format_generic(n.formula)}")
        else:
            parts = [f"node {k} {n.rule} concl {lwff(n.conclusion)}", "prem", ",".join(str(num[id(p)]) for p in n.premises)]
            if n.discharges:
                parts += ["disch", ",".join(str(num[id(a)]) for a in n.discharges)]
            lines.append(" ".join(parts))
    lines.append(f"root {num[id(root)]}")
    return "\n".join(lines) + "\n"
