"""Line-oriented derivation scripts.

Grammar (``#`` starts a comment, blank lines are skipped)::

    let $<name> = <formula>
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

A ``let`` line defines a name: ``$`` and one or more ASCII letters, digits
or ``_``, and ``=`` is a field of its own.  Every formula after it, a
``let`` line's included, may use the name where a formula may stand, and
reads it as the very object the definition built (``formulas._Parser``
resolves it).  A name is defined once and before it is used.  A formula
read through names nests at most ``MAX_NESTING`` levels in all, as its
text written out would: a name counts the nesting of its formula where it
is used.

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
one fold memo for the whole script, and prints a large formula that
would otherwise be printed more than once in a ``let`` line, so that
the text, too, grows with the distinct formulas rather than with the
lines that restate them.  Each memo belongs to one call and is dropped
when it returns.
"""

from __future__ import annotations

import re

from .formulas import _FORMAT, _LENGTH, _NESTING, _OPERATOR_NODES, Formula, ParseError, _Parser, _fold_from
from .kernel import Apply, Assume, Le, Lwff, Node, Succ, all_nodes, format_generic

__all__ = ["ScriptError", "parse_script", "serialize"]

# One label grammar for label sequences and relational formulas.
_LABEL = r"[A-Za-z][A-Za-z0-9_]*"
_RWFF_RE = re.compile(rf"^(le|succ)\(\s*({_LABEL})\s*,\s*({_LABEL})\s*\)$")
_LABEL_RE = re.compile(rf"^{_LABEL}$")
_NAME_RE = re.compile(r"^\$[A-Za-z0-9_]+$")


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
    are one object, whether written out or named, and each distinct
    formula text is parsed once.  A name's nesting is folded once, through
    one memo for the call.  The tables live only for the call; two calls
    share nothing.
    """
    texts: dict[str, Formula] = {}  # formula text -> formula
    seqs: dict[str, tuple[str, ...]] = {}  # label-sequence text -> labels
    shared: dict[str | tuple, Formula] = {}  # the parsers' intern table
    names: dict[str, tuple[Formula, int]] = {}  # name -> formula, its nesting
    nesting: dict[int, object] = {}  # the _NESTING fold memo of the names
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
        if directive == "node" or directive == "assume":
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
        elif directive == "let":
            if len(words) < 4 or words[2] != "=":
                raise ScriptError("let needs '$<name> = <formula>'", lineno)
            name = words[1]
            if not _NAME_RE.match(name):
                raise ScriptError(f"bad name {name!r}", lineno)
            if name in names:
                raise ScriptError(f"duplicate name {name}", lineno)
            rest = words[3]
        else:
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
        # The formula: the guess of the module docstring, checked by parsing
        # it whole; a tab before 'prem' separates like a space.
        k = (rest.replace("\t", " ") if "\t" in rest else rest).rfind(" prem ") if directive == "node" else -1
        key = (rest[:k] if k >= 0 else rest).strip()
        f = texts.get(key) or shared.get(key)  # an atom or bot seen before
        if f is None:
            try:
                f = texts[key] = _Parser(key, "U", shared, names).run()
            except ParseError:
                pass
        if f is not None:
            tail = rest[k + 1 :] if k >= 0 else ""
        else:
            rest = rest.rstrip()  # offsets as in the stripped line
            try:
                f, stop = _Parser(rest, "U", shared, names).prefix()
            except ParseError as e:
                raise ScriptError(f"bad formula: {e}", lineno) from None
            tail = rest[stop:]
        if directive != "node":
            if tail.strip():
                raise ScriptError(f"trailing input after formula: {tail.strip()!r}", lineno)
            if directive == "let":
                names[name] = f, _fold_from(f, _NESTING, nesting)
            else:
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


def _walk(x: Formula, kept: dict[int, Formula]) -> None:
    """Add ``x`` and the operator objects below it that ``kept`` lacks to
    ``kept``, children before parents."""
    for c in x._fields(x):
        if type(c) in _OPERATOR_NODES and id(c) not in kept:
            _walk(c, kept)
    kept[id(x)] = x


# The shortest text that ``serialize`` prints as a definition rather than
# at each of its uses; see serialize.
_SHARED_LENGTH = 64


def serialize(root: Node) -> str:
    """Render a derivation as a script (ids renumbered in definition order).

    One postorder walk numbers and prints each node.  Every formula is
    printed through one ``_FORMAT`` fold memo per call, so each formula
    object, and each subformula object that many lines share, is printed
    once.  The memos are keyed on ``id``; ``root`` holds every object they
    name, and they are dropped when the call returns.

    The text prints each large shared formula once too.  Definitions come
    first, children before parents, named ``$1``, ``$2``, ... in the order
    of the kept walk (``_walk``'s postorder over the lines' formulas, in
    line order).  An operator object is defined when its text, written out, is
    longer than ``_SHARED_LENGTH`` characters and the script would
    otherwise print it at least twice: once for each line whose formula it
    is, and for each place in a parent's text, which counts once if the
    parent is defined and as often as the parent is printed if it is not.
    Parents are decided before their children, so a subformula that only
    its defined parent uses stays inside the parent's definition.

    The threshold is 64 characters, about 16 tokens.  By cost alone a
    lower one would do: a ``let`` line costs ``parse_script`` about as much
    as a 15-character formula text, and a definition saves the reading of
    its text wherever it stands inside another distinct formula text, and
    the slicing and hashing of every line text that restates it.  But a
    short formula reads better in place than through a name, and the
    short formulas are the ones that hand-written scripts share: from 48
    characters down, ``--emit-primitive`` starts to print definitions for
    the bundled corpus, and at 16 so do small ``nabla taut`` proofs and
    sampled derivations.  At 64 every script whose shared formulas are
    short prints byte-identical to the text printed before definitions
    existed, while the judgments that a proof of a large tautology
    restates on every line are longer.
    """
    nodes = all_nodes(root)
    kept: dict[int, Formula] = {}  # the kept walk: id -> object, postorder
    lines_of: dict[int, int] = {}  # id -> how many lines' formulas it is
    for n in nodes:
        w = n.conclusion
        if isinstance(w, Lwff) and type(w.formula) in _OPERATOR_NODES:
            k = id(w.formula)
            if k not in kept:
                _walk(w.formula, kept)
            lines_of[k] = lines_of.get(k, 0) + 1
    uses = dict.fromkeys(kept, 0) | lines_of
    lengths: dict[int, object] = {}
    defined = []
    for k in reversed(kept):
        x, n = kept[k], uses[k]
        if n >= 2 and _fold_from(x, _LENGTH, lengths) > _SHARED_LENGTH:
            defined.append(x)
            n = 1
        for c in x._fields(x):
            if id(c) in uses:
                uses[id(c)] += n

    memo: dict[int, str] = {}
    lines: list[str] = []
    for i, x in enumerate(reversed(defined), start=1):
        body = _FORMAT[type(x)](x, *(_fold_from(c, _FORMAT, memo) for c in x._fields(x)))
        lines.append(f"let ${i} = {body}")
        memo[id(x)] = f"${i}"

    def lwff(w: Lwff) -> str:
        return f"{' '.join(w.seq)} : {_fold_from(w.formula, _FORMAT, memo)}"

    num: dict[int, int] = {}
    for n in nodes:
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
