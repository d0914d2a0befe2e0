"""Deterministic instance generators for tests and experiments.

All randomness flows through numpy generators seeded by the caller, so
every ensemble is reproducible from its parameters plus one integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from ..core import Distribution, Text, Word, as_fraction


def identity_word(k: int) -> Word:
    """The word 1 2 ... k over the interned alphabet."""
    if k < 1:
        raise ValueError("word length must be at least 1")
    return Word(np.arange(1, k + 1, dtype=np.int32))


def periodic_text(n: int, k: int) -> Text:
    """Repeats 1 2 ... k until n positions are filled."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    reps = -(-n // k)
    return Text(np.tile(np.arange(1, k + 1, dtype=np.int32), reps)[:n])


def blockwise_text(n: int, k: int) -> Text:
    """All copies of symbol 1, then all of 2, and so on.

    When k does not divide n the first n mod k symbols get one extra
    position, keeping the block sizes within one of each other.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    base, extra = divmod(n, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    return Text(np.repeat(np.arange(1, k + 1, dtype=np.int32), sizes))


def random_text(n: int, alphabet_size: int, seed) -> Text:
    if n < 1 or alphabet_size < 1:
        raise ValueError("need n >= 1 and alphabet_size >= 1")
    rng = np.random.default_rng(seed)
    return Text(rng.integers(1, alphabet_size + 1, size=n, dtype=np.int32))


def random_word(k: int, alphabet_size: int, seed, adjacent_repeats: bool = True) -> Word:
    """Random word; with adjacent_repeats=False consecutive symbols differ
    (requires alphabet_size >= 2 for k >= 2)."""
    if k < 1 or alphabet_size < 1:
        raise ValueError("need k >= 1 and alphabet_size >= 1")
    rng = np.random.default_rng(seed)
    if adjacent_repeats:
        return Word(rng.integers(1, alphabet_size + 1, size=k, dtype=np.int32))
    if k > 1 and alphabet_size < 2:
        raise ValueError("repeat-free words of length >= 2 need two symbols")
    ids = [int(rng.integers(1, alphabet_size + 1))]
    while len(ids) < k:
        nxt = int(rng.integers(1, alphabet_size))
        if nxt >= ids[-1]:
            nxt += 1
        ids.append(nxt)
    return Word(np.array(ids, dtype=np.int32))


def block_ensemble_text(n: int, distinct: int, filler_rate, seed) -> Text:
    """Text of n/distinct blocks [head, 2, 3, ..., distinct].

    Each block head is independently the filler symbol (id distinct + 1)
    with probability filler_rate and symbol 1 otherwise. Lower-bound
    ensembles are the rates 1/2 and 1/2 + 3 * distinct * gap.
    """
    rate = as_fraction(filler_rate)
    if not 0 <= rate <= 1:
        raise ValueError("filler rate must lie in [0, 1]")
    if distinct < 1:
        raise ValueError("need at least one distinct symbol")
    if n < 1 or n % distinct != 0:
        raise ValueError("block texts need n to be a positive multiple of distinct")
    blocks = n // distinct
    ids = np.tile(np.arange(1, distinct + 1, dtype=np.int32), blocks)
    rng = np.random.default_rng(seed)
    filler = rng.random(blocks) < float(rate)
    ids[np.flatnonzero(filler) * distinct] = distinct + 1
    return Text(ids)


def lowerbound_rates(distinct: int, gap) -> tuple[Fraction, Fraction]:
    """Head filler rates of the two hard-to-distinguish ensembles."""
    g = as_fraction(gap)
    if g < 0:
        raise ValueError("gap must be non-negative")
    shifted = Fraction(1, 2) + 3 * distinct * g
    if shifted > 1:
        raise ValueError(
            f"gap {float(g):.4f} pushes the filler rate past 1; "
            f"needs gap <= 1/(6*{distinct})"
        )
    return Fraction(1, 2), shifted


def lowerbound_premises(distinct: int, gap, n: int) -> dict:
    """Which premises of the hardness statement hold for these parameters.

    The concentration inequalities only need the sample-size premise on
    n; the stricter cap on the gap matters for the indistinguishability
    argument, which is out of scope here. Violations are therefore
    reported, not enforced.
    """
    g = as_fraction(gap)
    gap_ok = g <= Fraction(1, 300 * distinct)
    if g > 0:
        n_ok = n > max(8 * distinct / g, 200 / (distinct * g * g))
    else:
        n_ok = False
    return {"gap_premise": bool(gap_ok), "size_premise": bool(n_ok)}


def random_rational_weights(
    n: int,
    denominator: int,
    seed,
    kind: str = "spread",
    heavy_weight=Fraction(9, 10),
) -> Distribution:
    """Exact rational weights with the given common denominator.

    kind "spread": a multinomial split of the denominator over all
    positions (some weights may be zero). kind "pointmass": one random
    position takes `heavy_weight`, the rest share the remainder as evenly
    as integer arithmetic allows.
    """
    if n < 1 or denominator < 1:
        raise ValueError("need n >= 1 and denominator >= 1")
    rng = np.random.default_rng(seed)
    if kind == "spread":
        counts = rng.multinomial(denominator, np.full(n, 1.0 / n))
        return Distribution.from_numerators(counts)
    if kind == "pointmass":
        if n < 2:
            raise ValueError("pointmass weights need n >= 2")
        heavy = as_fraction(heavy_weight) * denominator
        if heavy.denominator != 1:
            raise ValueError("heavy weight must be exact at this denominator")
        heavy_count = int(heavy)
        if not 0 < heavy_count < denominator:
            raise ValueError("heavy weight must leave room for the rest")
        position = int(rng.integers(n)) + 1
        rest, extra = divmod(denominator - heavy_count, n - 1)
        counts = np.full(n, rest, dtype=np.int64)
        others = [j for j in range(n) if j != position - 1]
        for j in others[:extra]:
            counts[j] += 1
        counts[position - 1] = heavy_count
        return Distribution.from_numerators(counts)
    raise ValueError(f"unknown weight kind {kind!r}")
