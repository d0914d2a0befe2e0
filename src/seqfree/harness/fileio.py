"""Reading problem instances from disk and writing canonical reports.

Texts and words are whitespace-separated tokens; weights are one
rational per line, either `p/q` or a decimal literal. Reports are JSON
with sorted keys and a fixed indent so that identical configurations
produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ..core import Alphabet, Distribution, Text, Word, as_fraction


def read_tokens(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().split()


def load_text(path: str) -> Text:
    return Text.from_tokens(read_tokens(path))


def load_word(path: str, alphabet: Alphabet) -> Word:
    tokens = read_tokens(path)
    if not tokens:
        raise ValueError(f"word file {path!r} is empty")
    return Word.from_tokens(tokens, alphabet)


def parse_weight(token: str) -> Fraction:
    # as_fraction() accepts both "3/7" and "0.15"; it rejects inf/nan
    # spellings, zero denominators and anything else without an exact value.
    try:
        return as_fraction(token)
    except ValueError:
        raise ValueError(f"cannot parse weight {token!r}") from None


def load_weights(path: str, n: int) -> Distribution:
    tokens = read_tokens(path)
    if len(tokens) != n:
        raise ValueError(
            f"weight file {path!r} has {len(tokens)} entries, text has {n}"
        )
    return Distribution.from_fractions([parse_weight(t) for t in tokens])


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
