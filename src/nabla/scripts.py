"""Line-oriented derivation scripts.

Grammar (``#`` starts a comment, blank lines are skipped)::

    assume <id> lwff <label>+ : <formula>
    assume <id> rwff le(<label>,<label>)
    assume <id> rwff succ(<label>,<label>)
    node <id> <rule> concl <label>+ : <formula> prem <id>,...
         [disch <id>,...] [subst <from> <to>]
    root <id>

Formulas use the history-language concrete syntax.  Premises reference
earlier lines positionally, in the order the rule schema lists them; rule
names may be primitive or derived (the loader expands derived rules before
checking).  Exit-code convention for the checker CLI: 0 accepted,
1 rejected, 2 parse error.

Every line restates a whole formula, so a script repeats a few large
formulas many times.  ``parse_script`` parses each distinct formula text
once and interns every node, so equal formulas and subformulas of one
script are one object; ``serialize`` prints each formula object once.
Each memo belongs to one call and is dropped when it returns.
"""

from __future__ import annotations

import re

from .formulas import Formula, ParseError, _Parser, format_formula
from .kernel import Apply, Assume, Le, Lwff, Node, Succ, all_nodes, format_generic

__all__ = ["ScriptError", "parse_script", "serialize"]

# One label grammar for label sequences, relational formulas and subst.
_LABEL = r"[A-Za-z][A-Za-z0-9_]*"
_RWFF_RE = re.compile(rf"^(le|succ)\(\s*({_LABEL})\s*,\s*({_LABEL})\s*\)$")
_LABEL_RE = re.compile(rf"^{_LABEL}$")


class ScriptError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Formulas:
    """The formulas of one script: each distinct formula text is parsed
    once, each distinct label-sequence text is read once, and every node
    goes through one intern table."""

    def __init__(self) -> None:
        self.texts: dict[str, Formula] = {}
        self.labels: dict[str, tuple[str, ...]] = {}
        self.shared: dict[tuple, Formula] = {}

    def prefix(self, text: str, line: int) -> tuple[Formula, str]:
        """The formula at the start of ``text`` and the rest of the line.

        The guess is that a node line's formula is everything before its
        last `` prem `` (an assumption's, everything), stripped.  When the
        guess parses as a whole formula, a parse of ``text`` would read the
        same tokens and stop at that `` prem ``, so the guess is the answer,
        found without the offsets of its tokens; each distinct guess is
        parsed once.  Otherwise (an atom or a later field named ``prem``, or
        no formula at all) the partial parse of ``text`` gives the split or
        the exact error."""
        head, sep, tail = text.rpartition(" prem ")
        key = (head if sep else text).strip()
        f = self.texts.get(key) or self.shared.get((key,))  # an atom or bot seen before
        if f is None:
            try:
                f = self.texts[key] = _Parser(key, "U", self.shared).run()
            except ParseError:
                pass
        if f is not None:
            return f, "prem " + tail if sep else ""
        try:
            f, stop = _Parser(text, "U", self.shared).prefix()
        except ParseError as e:
            raise ScriptError(f"bad formula: {e}", line)
        return f, text[stop:]

    def labelled(self, text: str, line: int) -> tuple[Lwff, str]:
        head, colon, rest = text.partition(":")
        if not colon:
            raise ScriptError("expected '<label>+ : <formula>'", line)
        labels = self.labels.get(head)
        if labels is None:
            labels = tuple(head.split())
            if not labels or not all(_LABEL_RE.match(x) for x in labels):
                raise ScriptError(f"bad label sequence {head.strip()!r}", line)
            self.labels[head] = labels
        f, tail = self.prefix(rest, line)
        return Lwff(labels, f), tail


def _parse_id(word: str, line: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise ScriptError(f"bad id {word!r}", line)


def _parse_ids(field: str, line: int) -> list[int]:
    # A field of the node line holds no whitespace, so no part needs stripping.
    parts = field.split(",")
    try:
        return [int(part) for part in parts if part]
    except ValueError:
        for part in filter(None, parts):
            _parse_id(part, line)  # raises at the first bad part
        raise


_USAGE = {"assume": "assume needs '<id> lwff|rwff ...'", "node": "node needs '<id> <rule> concl ...'"}


def parse_script(text: str) -> Node:
    """Parse a script into its root derivation node.

    Sharing: within one call, structurally equal formulas and subformulas
    are one object, and each distinct formula text is parsed once.  Both
    tables live only for the call; two calls share nothing.
    """
    formulas = _Formulas()
    nodes: dict[int, Node] = {}
    root_id: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        words = line.split(None, 2)
        if words[0] in _USAGE:
            if len(words) < 3:
                raise ScriptError(_USAGE[words[0]], lineno)
            nid = _parse_id(words[1], lineno)
            if nid in nodes:
                raise ScriptError(f"duplicate id {nid}", lineno)
            kind, _, rest = words[2].partition(" ")
        if words[0] == "assume":
            if kind == "lwff":
                w, tail = formulas.labelled(rest, lineno)
                if tail.strip():
                    raise ScriptError(f"trailing input after formula: {tail.strip()!r}", lineno)
                nodes[nid] = Assume(nid, w)
            elif kind == "rwff":
                m = _RWFF_RE.match(rest.strip())
                if not m:
                    raise ScriptError(f"bad relational formula {rest.strip()!r}", lineno)
                ctor = Le if m.group(1) == "le" else Succ
                nodes[nid] = Assume(nid, ctor(m.group(2), m.group(3)))
            else:
                raise ScriptError(f"expected 'lwff' or 'rwff', got {kind!r}", lineno)
        elif words[0] == "node":
            if not rest.startswith("concl"):
                raise ScriptError("expected 'concl' after the rule name", lineno)
            conclusion, tail = formulas.labelled(rest[len("concl") :], lineno)
            fields = tail.split()
            prem_ids: list[int] = []
            disch_ids: list[int] = []
            subst: tuple[str, str] | None = None
            i = 0
            if i < len(fields) and fields[i] == "prem":
                if i + 1 >= len(fields):
                    raise ScriptError("prem needs a comma-separated id list", lineno)
                prem_ids = _parse_ids(fields[i + 1], lineno)
                i += 2
            else:
                raise ScriptError("node needs a 'prem' clause", lineno)
            if i < len(fields) and fields[i] == "disch":
                if i + 1 >= len(fields):
                    raise ScriptError("disch needs a comma-separated id list", lineno)
                disch_ids = _parse_ids(fields[i + 1], lineno)
                i += 2
            if i < len(fields) and fields[i] == "subst":
                if len(fields) - i < 3:
                    raise ScriptError("subst needs two labels", lineno)
                subst = (fields[i + 1], fields[i + 2])
                if not all(_LABEL_RE.match(x) for x in subst):
                    raise ScriptError(f"bad subst labels {' '.join(subst)!r}", lineno)
                i += 3
            if i != len(fields):
                raise ScriptError(f"unexpected trailing input {' '.join(fields[i:])!r}", lineno)
            try:
                premises = tuple([nodes[pid] for pid in prem_ids])
            except KeyError:
                missing = next(pid for pid in prem_ids if pid not in nodes)
                raise ScriptError(f"premise {missing} is not defined yet", lineno) from None
            discharges = []
            for did in disch_ids:
                if did not in nodes:
                    raise ScriptError(f"discharged assumption {did} is not defined yet", lineno)
                if not isinstance(nodes[did], Assume):
                    raise ScriptError(f"discharged id {did} is not an assumption", lineno)
                discharges.append(nodes[did])
            nodes[nid] = Apply(nid, kind, conclusion, premises, tuple(discharges), subst)
        elif words[0] == "root":
            if root_id is not None:
                raise ScriptError("duplicate root line", lineno)
            if len(words) != 2:
                raise ScriptError("root needs exactly one id", lineno)
            root_id = _parse_id(words[1], lineno)
            if root_id not in nodes:
                raise ScriptError(f"root {root_id} is not defined", lineno)
        else:
            raise ScriptError(f"unknown directive {words[0]!r}", lineno)
    if root_id is None:
        raise ScriptError("missing root line", len(text.splitlines()) + 1)
    return nodes[root_id]


def serialize(root: Node) -> str:
    """Render a derivation as a script (ids renumbered in definition order).

    One postorder walk numbers and prints each node.  Each formula object
    is printed once per call; the memo is keyed on its ``id`` and holds the
    object, and is dropped when the call returns.
    """
    printed: dict[int, tuple[Formula, str]] = {}
    num: dict[int, int] = {}

    def lwff(w: Lwff) -> str:
        hit = printed.get(id(w.formula))
        if hit is None:
            hit = printed[id(w.formula)] = (w.formula, format_formula(w.formula))
        return f"{' '.join(w.seq)} : {hit[1]}"

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
            if n.subst is not None:
                parts += ["subst", n.subst[0], n.subst[1]]
            lines.append(" ".join(parts))
    lines.append(f"root {num[id(root)]}")
    return "\n".join(lines) + "\n"
