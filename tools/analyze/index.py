"""Lightweight C++ declaration indexer over the tokenizer's output.

Per file it records:
  * classes/structs (including nested ones), each with its *data members*
    (name + declaration line) and the set of member functions it declares,
  * function bodies — inline methods, out-of-line `Class::method` definitions
    and free functions — as token slices, so passes can walk real code
    without ever seeing comments, strings or preprocessor text,
  * suppression markers (`// analyze: <marker> (<reason>)`) by line.

The indexer is deliberately not a parser for all of C++. It understands the
subset this repo (and most engine-style code) is written in: namespaces,
classes with access specifiers, nested types, template headers, default
member initializers, brace/paren initializers, out-of-line qualified
definitions. Exotic constructs degrade gracefully (a statement that cannot
be classified is skipped, never crashed on).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from tokenizer import Tok, code_tokens, tokenize, KEYWORDS

MARKER_RE = re.compile(r"//\s*analyze:\s*([A-Za-z0-9_-]+)\s*(?:\(([^)]*)\))?")
# Statement-introducing keywords that a declaration never starts with.
_NON_MEMBER_HEAD = frozenset(
    {"using", "typedef", "friend", "static_assert", "template", "public",
     "private", "protected", "static", "constexpr", "consteval", "constinit"})
_CONTROL = frozenset({"if", "for", "while", "switch", "return", "throw",
                      "catch", "do", "else", "new", "delete", "sizeof",
                      "co_return", "co_yield", "co_await", "case", "goto"})


@dataclass
class Marker:
    name: str
    reason: str
    line: int


@dataclass
class Member:
    name: str
    line: int


@dataclass
class Function:
    cls: str        # short class name, "" for free functions
    name: str
    path: str
    line: int       # line of the definition header
    body: list      # token slice of the body, *excluding* the outer braces


@dataclass
class ClassInfo:
    name: str       # short name
    path: str
    line: int
    members: list = field(default_factory=list)     # [Member]
    methods: dict = field(default_factory=dict)     # name -> Function (inline)
    declared: set = field(default_factory=set)      # declared method names


@dataclass
class FileIndex:
    path: str       # repo-relative, forward slashes
    text: str
    raw_lines: list
    toks: list      # full token stream (incl. comments/pp)
    code: list      # code tokens only
    classes: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    markers: list = field(default_factory=list)

    def markers_near(self, line: int, names: set, back: int = 2):
        """Markers with a name in `names` and a reason, on `line` or up to
        `back` lines above. A bare marker suppresses nothing."""
        return [m for m in self.markers
                if m.name in names and m.reason and line - back <= m.line <= line]


class RepoIndex:
    def __init__(self):
        self.files: dict[str, FileIndex] = {}

    def add(self, path: str, text: str) -> FileIndex:
        fi = index_file(path, text)
        self.files[path] = fi
        return fi

    def classes_by_name(self, name: str) -> list:
        return [c for fi in self.files.values() for c in fi.classes if c.name == name]

    def all_classes(self):
        for fi in self.files.values():
            yield fi, fi.classes

    def method_bodies(self, cls: str, name: str) -> list:
        """Every indexed body of Class::name (inline or out-of-line)."""
        out = []
        for fi in self.files.values():
            for fn in fi.functions:
                if fn.cls == cls and fn.name == name:
                    out.append(fn)
        return out


# ---- token-walk helpers -----------------------------------------------------

def match_group(toks: list, i: int, open_ch: str, close_ch: str) -> int:
    """Index of the token matching toks[i] (== open_ch); len(toks) if unbalanced."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.text == open_ch:
                depth += 1
            elif t.text == close_ch:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n


def skip_template_args(toks: list, i: int) -> int:
    """With toks[i] == '<' opening a template argument list, return the index
    just past the matching '>'. Tracks nested <>, () and {}; gives up (returns
    i+1) if no close is found before a ';' at depth 0."""
    depth = 0
    j = i
    n = len(toks)
    while j < n:
        t = toks[j]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t.text in "({[":
                j = match_group(toks, j, t.text, {"(": ")", "{": "}", "[": "]"}[t.text])
            elif t.text == ";" and depth > 0:
                return i + 1  # not a template arg list after all
        j += 1
    return i + 1


# ---- file indexing ----------------------------------------------------------

def index_file(path: str, text: str) -> FileIndex:
    toks = tokenize(text)
    code = code_tokens(toks)
    fi = FileIndex(path=path, text=text, raw_lines=text.splitlines(),
                   toks=toks, code=code)
    for t in toks:
        if t.kind == "comment":
            for m in MARKER_RE.finditer(t.text):
                # a marker inside a multi-line block comment anchors to the
                # line the marker text is on
                off = t.text[:m.start()].count("\n")
                fi.markers.append(Marker(m.group(1), (m.group(2) or "").strip(),
                                         t.line + off))
    _scan_scope(fi, code, 0, len(code))
    return fi


def _scan_scope(fi: FileIndex, toks: list, i: int, end: int) -> None:
    """Namespace/global scope: classes, functions, namespaces."""
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text == "namespace":
            j = i + 1
            while j < end and not (toks[j].kind == "punct" and toks[j].text in "{;="):
                j += 1
            if j < end and toks[j].text == "{":
                close = match_group(toks, j, "{", "}")
                _scan_scope(fi, toks, j + 1, min(close, end))
                i = close + 1
            else:
                i = j + 1
            continue
        if t.kind == "id" and t.text == "template":
            if i + 1 < end and toks[i + 1].kind == "punct" and toks[i + 1].text == "<":
                i = skip_template_args(toks, i + 1)
            else:
                i += 1
            continue
        if t.kind == "id" and t.text in ("class", "struct", "union"):
            i = _scan_class(fi, toks, i, end)
            continue
        if t.kind == "id" and t.text == "enum":
            i = _skip_to_semi(toks, i, end)
            continue
        if t.kind == "punct" and t.text == "{":
            # extern "C" { ... } or a stray block: descend
            close = match_group(toks, i, "{", "}")
            _scan_scope(fi, toks, i + 1, min(close, end))
            i = close + 1
            continue
        fn_end = _try_function(fi, toks, i, end, cls_hint=None)
        if fn_end is not None:
            i = fn_end
            continue
        i += 1


def _skip_to_semi(toks: list, i: int, end: int) -> int:
    """Past the next ';' at group depth 0 (consuming brace/paren groups)."""
    while i < end:
        t = toks[i]
        if t.kind == "punct":
            if t.text in "({[":
                i = match_group(toks, i, t.text, {"(": ")", "{": "}", "[": "]"}[t.text])
            elif t.text == ";":
                return i + 1
        i += 1
    return end


def _scan_class(fi: FileIndex, toks: list, i: int, end: int) -> int:
    """toks[i] is class/struct/union. Index it (and nested types); return the
    index just past the closing ';' (or wherever scanning can resume)."""
    j = i + 1
    # optional attributes / export macros before the name
    name = None
    while j < end:
        t = toks[j]
        if t.kind == "id" and t.text not in KEYWORDS:
            name = t.text
            j += 1
            # skip template-id in the name position (specialisations)
            if j < end and toks[j].kind == "punct" and toks[j].text == "<":
                j = skip_template_args(toks, j)
            continue
        if t.kind == "id" and t.text == "final":
            j += 1
            continue
        if t.kind == "punct" and t.text in ("{", ";", ":"):
            break
        if t.kind == "punct" and t.text == "[":
            j = match_group(toks, j, "[", "]") + 1
            continue
        j += 1
    if j >= end or toks[j].text == ";":
        return j + 1  # forward declaration
    if toks[j].text == ":":  # base clause
        while j < end and not (toks[j].kind == "punct" and toks[j].text in "{;"):
            if toks[j].kind == "punct" and toks[j].text == "<":
                j = skip_template_args(toks, j)
                continue
            j += 1
        if j >= end or toks[j].text == ";":
            return j + 1
    # toks[j] == '{'
    close = match_group(toks, j, "{", "}")
    ci = ClassInfo(name=name or "<anon>", path=fi.path, line=toks[i].line)
    fi.classes.append(ci)
    _scan_class_body(fi, ci, toks, j + 1, min(close, end))
    return _skip_to_semi(toks, close, end) if close < end else end


def _scan_class_body(fi: FileIndex, ci: ClassInfo, toks: list, i: int, end: int) -> None:
    while i < end:
        t = toks[i]
        if t.kind == "punct":
            i += 1
            continue
        if t.kind == "id" and t.text in ("public", "private", "protected"):
            i += 1  # ':' consumed by the punct branch above
            continue
        if t.kind == "id" and t.text == "template":
            if i + 1 < end and toks[i + 1].kind == "punct" and toks[i + 1].text == "<":
                i = skip_template_args(toks, i + 1)
            else:
                i += 1
            continue
        if t.kind == "id" and t.text in ("class", "struct", "union"):
            i = _scan_class(fi, toks, i, end)
            continue
        if t.kind == "id" and t.text == "enum":
            i = _skip_to_semi(toks, i, end)
            continue
        if t.kind == "id" and t.text in ("using", "typedef", "friend", "static_assert"):
            i = _skip_to_semi(toks, i, end)
            continue
        i = _scan_member_statement(fi, ci, toks, i, end)


def _scan_member_statement(fi: FileIndex, ci: ClassInfo, toks: list, i: int, end: int) -> int:
    """One class-body statement starting at toks[i]: a data-member
    declaration, a method declaration, or an inline method definition."""
    start = i
    is_static = False
    paren_open = None     # first top-level paren group (function signature?)
    paren_close = None
    eq_before_parens = False
    names: list[tuple[str, int]] = []     # candidate data-member names
    in_init = False
    in_ctor_init = False  # between a ctor's `:` and its body
    prev_id: Tok | None = None

    j = i
    while j < end:
        t = toks[j]
        if t.kind == "id" and t.text in ("static", "constexpr", "consteval", "inline") \
                and paren_open is None and not names and j == start:
            is_static = is_static or t.text == "static"
            # constexpr/static data members are compile-time or per-class
            # state, not per-instance checkpoint material
            j += 1
            start = j
            continue
        if t.kind == "punct":
            if t.text == "(":
                cl = match_group(toks, j, "(", ")")
                if paren_open is None and not in_init:
                    paren_open, paren_close = j, cl
                j = cl + 1
                continue
            if t.text == "[":
                j = match_group(toks, j, "[", "]") + 1
                continue
            if t.text == "<" and prev_id is not None and not in_init:
                j = skip_template_args(toks, j)
                continue
            if t.text == "=":
                if paren_open is None and not in_init and prev_id is not None \
                        and prev_id.kind == "id" and prev_id.text not in KEYWORDS:
                    names.append((prev_id.text, prev_id.line))
                in_init = True
                j += 1
                continue
            if t.text == ",":
                if not in_init and prev_id is not None and prev_id is toks[j - 1] \
                        and prev_id.kind == "id" and prev_id.text not in KEYWORDS:
                    names.append((prev_id.text, prev_id.line))
                in_init = False
                j += 1
                continue
            if t.text == ":" and paren_close is not None and not in_init:
                in_ctor_init = True
                j += 1
                continue
            if t.text == "{":
                # a `member{...}` entry of a ctor init list is not the body
                if in_ctor_init and j > 0 and toks[j - 1].kind == "id":
                    j = match_group(toks, j, "{", "}") + 1
                    continue
                # function body, or a brace initializer?
                if paren_open is not None and not eq_before_parens and not in_init:
                    # inline method definition
                    close = match_group(toks, j, "{", "}")
                    name = _name_before(toks, paren_open)
                    if name:
                        fn = Function(cls=ci.name, name=name, path=fi.path,
                                      line=toks[start].line,
                                      body=toks[j + 1:min(close, end)])
                        fi.functions.append(fn)
                        ci.methods[name] = fn
                        ci.declared.add(name)
                    j = close + 1
                    if j < end and toks[j].kind == "punct" and toks[j].text == ";":
                        j += 1
                    return j
                # brace initializer: record the name it initialises
                if not in_init and prev_id is not None and prev_id is toks[j - 1] \
                        and prev_id.kind == "id" and prev_id.text not in KEYWORDS:
                    names.append((prev_id.text, prev_id.line))
                    in_init = True
                j = match_group(toks, j, "{", "}") + 1
                continue
            if t.text == ";":
                # classify: method declaration vs data member
                if paren_open is not None:
                    name = _name_before(toks, paren_open)
                    if name:
                        ci.declared.add(name)
                elif not is_static:
                    if not in_init and prev_id is not None and prev_id is toks[j - 1] \
                            and prev_id.kind == "id" and prev_id.text not in KEYWORDS:
                        names.append((prev_id.text, prev_id.line))
                    for nm, ln in names:
                        ci.members.append(Member(nm, ln))
                return j + 1
            j += 1
            continue
        if t.kind == "id":
            prev_id = t
            if t.text == "operator":
                # consume operator token sequence up to '('
                j += 1
                while j < end and not (toks[j].kind == "punct" and toks[j].text in "(;"):
                    j += 1
                continue
            if paren_close is not None and t.text in ("const", "noexcept", "override",
                                                      "final", "mutable"):
                j += 1
                continue
        j += 1
    return end


def _name_before(toks: list, paren_idx: int) -> str | None:
    """The function name immediately preceding toks[paren_idx] == '('."""
    k = paren_idx - 1
    if k < 0:
        return None
    t = toks[k]
    if t.kind == "id" and t.text not in _CONTROL:
        return t.text
    return None


def _try_function(fi: FileIndex, toks: list, i: int, end: int, cls_hint) -> int | None:
    """At namespace scope, try to recognise `[type] [Qual::]name(args) [quals]
    { body }` starting at or after toks[i]. Returns the index past the body
    when a definition begins exactly at the statement starting at toks[i]
    (we advance statement-wise from _scan_scope), else None."""
    # find the statement end or the first '{' at depth 0
    j = i
    paren_open = paren_close = None
    saw_eq = False
    in_ctor_init = False
    while j < end:
        t = toks[j]
        if t.kind == "punct":
            if t.text == "(":
                cl = match_group(toks, j, "(", ")")
                if paren_open is None and not saw_eq:
                    paren_open, paren_close = j, cl
                j = cl + 1
                continue
            if t.text == "[":
                j = match_group(toks, j, "[", "]") + 1
                continue
            if t.text == "<" and j > i and toks[j - 1].kind == "id":
                j = skip_template_args(toks, j)
                continue
            if t.text == "=":
                saw_eq = True
            if t.text == ":" and paren_close is not None:
                in_ctor_init = True
            if t.text == ";":
                return j + 1  # a declaration or variable: consume it
            if t.text == "{":
                if in_ctor_init and j > 0 and toks[j - 1].kind == "id":
                    # `member{...}` entry of a ctor init list, not the body
                    j = match_group(toks, j, "{", "}") + 1
                    continue
                if paren_open is None or saw_eq:
                    # brace initializer at namespace scope (e.g. `int x{0};`)
                    j = match_group(toks, j, "{", "}") + 1
                    continue
                close = match_group(toks, j, "{", "}")
                name = _name_before(toks, paren_open)
                if name:
                    cls = _qualifier_before(toks, paren_open - 1)
                    fn = Function(cls=cls or "", name=name, path=fi.path,
                                  line=toks[i].line, body=toks[j + 1:min(close, end)])
                    fi.functions.append(fn)
                return close + 1
        j += 1
    return end


def _qualifier_before(toks: list, name_idx: int) -> str | None:
    """For `... Qual::name(`, with toks[name_idx] being the name token,
    return the last qualifier component (the class short name), skipping
    template arguments (`Foo<T>::name`)."""
    k = name_idx - 1
    if k < 0 or not (toks[k].kind == "punct" and toks[k].text == "::"):
        return None
    k -= 1
    if k >= 0 and toks[k].kind == "punct" and toks[k].text == ">":
        # skip back over the template argument list
        depth = 0
        while k >= 0:
            t = toks[k]
            if t.kind == "punct":
                if t.text == ">":
                    depth += 1
                elif t.text == "<":
                    depth -= 1
                    if depth == 0:
                        k -= 1
                        break
            k -= 1
    if k >= 0 and toks[k].kind == "id":
        return toks[k].text
    return None
