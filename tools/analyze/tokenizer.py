"""C++ tokenizer for the repo's static-analysis passes.

Not a full lexer — a faithful *scanner* of the lexical structure the passes
care about: it never mistakes the inside of a comment, a string literal, a
char literal, or a raw string for code, and it keeps comments around (with
positions) so suppression markers can be matched against the code lines they
annotate. Preprocessor directives are folded into single tokens (with
backslash-continuation handling) so `#include <vector>` never produces a
stray `<` that would desync brace/angle tracking.

Token kinds
-----------
id        identifier or keyword
num       numeric literal (incl. hex/float/digit separators)
punct     operator/punctuation; `::` is fused, everything else single-char
str       string literal ("..." incl. encoding prefixes, R"tag(...)tag")
char      character literal ('x', L'\\n', ...)
comment   // or /* */ comment, full text
pp        preprocessor logical line (continuations folded)

Every token records 1-based `line` and 0-based `col` of its first character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset("""
alignas alignof and and_eq asm auto bitand bitor bool break case catch char
char8_t char16_t char32_t class co_await co_return co_yield compl concept
const consteval constexpr constinit const_cast continue decltype default
delete do double dynamic_cast else enum explicit export extern false float
for friend goto if inline int long mutable namespace new noexcept not not_eq
nullptr operator or or_eq private protected public register reinterpret_cast
requires return short signed sizeof static static_assert static_cast struct
switch template this thread_local throw true try typedef typeid typename
union unsigned using virtual void volatile wchar_t while xor xor_eq
final override
""".split())

_ID_START = re.compile(r"[A-Za-z_]")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(
    r"(?:0[xX][0-9a-fA-F']*(?:\.[0-9a-fA-F']*)?(?:[pP][+\-]?[0-9]+)?"
    r"|0[bB][01']+"
    r"|[0-9][0-9']*(?:\.[0-9']*)?(?:[eE][+\-]?[0-9]+)?"
    r"|\.[0-9][0-9']*(?:[eE][+\-]?[0-9]+)?)"
    r"[fFlLuUzZ]*")
_RAW_PREFIX_RE = re.compile(r'(?:u8|[uUL])?R$')
_STR_PREFIX_RE = re.compile(r'(?:u8|[uUL])$')


@dataclass
class Tok:
    kind: str  # id | num | punct | str | char | comment | pp
    text: str
    line: int  # 1-based
    col: int   # 0-based

    def __repr__(self) -> str:  # compact for debugging
        return f"{self.kind}:{self.text!r}@{self.line}"


class TokenizeError(Exception):
    pass


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    i, n = 0, len(text)
    line, col = 1, 0
    at_line_start = True  # only whitespace seen since last newline

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 0
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\v\f":
            advance(1)
            continue
        if c == "\n":
            advance(1)
            at_line_start = True
            continue

        start_line, start_col = line, col

        # preprocessor logical line (folds backslash continuations)
        if c == "#" and at_line_start:
            j = i
            while j < n:
                if text[j] == "\n":
                    if j > i and text[j - 1] == "\\":
                        j += 1
                        continue
                    break
                j += 1
            toks.append(Tok("pp", text[i:j], start_line, start_col))
            advance(j - i)
            at_line_start = True
            continue
        at_line_start = False

        # comments
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            toks.append(Tok("comment", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            toks.append(Tok("comment", text[i:j], start_line, start_col))
            advance(j - i)
            continue

        # identifiers (and string-literal encoding prefixes / raw strings)
        if _ID_START.match(c):
            m = _ID_RE.match(text, i)
            assert m
            word = m.group(0)
            nxt = text[m.end()] if m.end() < n else ""
            if nxt == '"' and _RAW_PREFIX_RE.match(word):
                # raw string literal: [prefix]R"delim( ... )delim"
                dstart = m.end() + 1
                dend = text.find("(", dstart)
                if dend < 0:
                    raise TokenizeError(f"line {line}: malformed raw string")
                delim = text[dstart:dend]
                closer = ")" + delim + '"'
                j = text.find(closer, dend + 1)
                if j < 0:
                    raise TokenizeError(f"line {line}: unterminated raw string")
                j += len(closer)
                toks.append(Tok("str", text[i:j], start_line, start_col))
                advance(j - i)
                continue
            if nxt == '"' and _STR_PREFIX_RE.match(word):
                j = _scan_quoted(text, m.end(), '"', line)
                toks.append(Tok("str", text[i:j], start_line, start_col))
                advance(j - i)
                continue
            if nxt == "'" and _STR_PREFIX_RE.match(word):
                j = _scan_quoted(text, m.end(), "'", line)
                toks.append(Tok("char", text[i:j], start_line, start_col))
                advance(j - i)
                continue
            toks.append(Tok("id", word, start_line, start_col))
            advance(len(word))
            continue

        # plain string / char literals
        if c == '"':
            j = _scan_quoted(text, i, '"', line)
            toks.append(Tok("str", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if c == "'":
            j = _scan_quoted(text, i, "'", line)
            toks.append(Tok("char", text[i:j], start_line, start_col))
            advance(j - i)
            continue

        # numbers
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            assert m
            toks.append(Tok("num", m.group(0), start_line, start_col))
            advance(len(m.group(0)))
            continue

        # punctuation; fuse `::` (qualified names), everything else single-char
        if c == ":" and i + 1 < n and text[i + 1] == ":":
            toks.append(Tok("punct", "::", start_line, start_col))
            advance(2)
            continue
        toks.append(Tok("punct", c, start_line, start_col))
        advance(1)

    return toks


def _scan_quoted(text: str, start: int, quote: str, line: int) -> int:
    """End index (exclusive) of a quoted literal starting at text[start]==quote."""
    i = start + 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\":
            i += 2
            continue
        if c == quote:
            return i + 1
        if c == "\n":
            break  # unterminated on this line: tolerate (broken fixture input)
        i += 1
    return min(i, n)


def code_tokens(toks: list[Tok]) -> list[Tok]:
    """Tokens with comments and preprocessor lines dropped (string/char
    literals stay, as opaque single tokens)."""
    return [t for t in toks if t.kind not in ("comment", "pp")]
