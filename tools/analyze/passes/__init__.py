"""Analysis passes over the shared C++ index (see tools/analyze/index.py).

Each pass module exports:
  RULE      — the rule id its findings carry (hot_alloc names the family;
              its findings carry the per-scope ids)
  run(repo) — RepoIndex -> list[Finding]
  SELF_TEST_CASES — fixture cases: (case_name, {relpath: source}, expected)
              where expected is the set of finding keys that *every* pass
              together emits on those files (after marker suppression)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Finding:
    rule: str
    path: str
    line: int      # 1-based
    message: str
    key: str = ""  # what the finding is about (no line numbers); the rule if empty

    def __post_init__(self) -> None:
        self.key = self.key or self.rule

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def spells(toks: list, i: int, *texts: str) -> bool:
    """True when the tokens from toks[i] on spell `texts`, e.g.
    spells(code, i, "std", "::", "function", "<")."""
    return toks[i].text == texts[0] and \
        [t.text for t in toks[i:i + len(texts)]] == list(texts)


def iter_calls(toks: list):
    """Yield (idx, name, receiver) for every `name(`-shaped call in a token
    slice. `receiver` is '.', '->' (approximated as '>'), '::' or '' for a
    plain unqualified call. Declarations are not distinguished here — pass
    bodies only contain statements, so every match is a call."""
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if i + 1 >= len(toks):
            continue
        nxt = toks[i + 1]
        if nxt.kind != "punct" or nxt.text != "(":
            continue
        recv = ""
        if i > 0 and toks[i - 1].kind == "punct":
            p = toks[i - 1].text
            if p in (".", "::"):
                recv = p
            elif p == ">" and i > 1 and toks[i - 2].kind == "punct" \
                    and toks[i - 2].text == "-":
                recv = "->"
        yield i, t.text, recv


def call_args_span(toks: list, name_idx: int):
    """Token slice of the argument list of the call at toks[name_idx]."""
    from index import match_group
    open_idx = name_idx + 1
    close = match_group(toks, open_idx, "(", ")")
    return toks[open_idx + 1:close]
