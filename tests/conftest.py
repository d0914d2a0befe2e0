"""Shared helpers: instance generation, an independent minimum-weight
removal oracle, and high-precision sample-size arithmetic."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from seqfree import Text, Word

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_text_ids(rng, n: int, alphabet_size: int) -> Text:
    return Text(rng.integers(1, alphabet_size + 1, size=n, dtype=np.int32))


def random_word_ids(rng, k: int, alphabet_size: int) -> Word:
    return Word(rng.integers(1, alphabet_size + 1, size=k, dtype=np.int32))


def random_repeat_free_word(rng, k: int, alphabet_size: int) -> Word:
    ids = [int(rng.integers(1, alphabet_size + 1))]
    while len(ids) < k:
        nxt = int(rng.integers(1, alphabet_size))
        ids.append(nxt if nxt < ids[-1] else nxt + 1)
    return Word(np.array(ids, dtype=np.int32))


def positive_rational_weights(rng, n: int, denominator: int) -> list:
    """Strictly positive weights summing to one, denominators dividing
    the given one. Needs denominator >= n."""
    assert denominator >= n
    extra = rng.multinomial(denominator - n, [1.0 / n] * n)
    return [Fraction(int(c) + 1, denominator) for c in extra]


def branching_distance(text: Text, word: Word, weights=None) -> Fraction:
    """Minimum total weight of positions whose removal kills every copy.

    Independent of the library's dynamic programs: branches on which
    position of the leftmost occurrence to delete. Exponential, so keep
    n tiny. Uniform weights (1/n each) when none are given.
    """
    ids = tuple(int(v) for v in text.ids)
    wids = tuple(int(v) for v in word.ids)
    if weights is None:
        wts = tuple(Fraction(1, len(ids)) for _ in ids) if ids else ()
    else:
        wts = tuple(weights)
    cache: dict[tuple, Fraction] = {}

    def leftmost(alive: tuple):
        need = 0
        found = []
        for idx in alive:
            if ids[idx] == wids[need]:
                found.append(idx)
                need += 1
                if need == len(wids):
                    return found
        return None

    def solve(alive: tuple) -> Fraction:
        hit = cache.get(alive)
        if hit is not None:
            return hit
        occ = leftmost(alive)
        if occ is None:
            result = Fraction(0)
        else:
            result = min(
                wts[idx] + solve(tuple(a for a in alive if a != idx))
                for idx in occ
            )
        cache[alive] = result
        return result

    return solve(tuple(range(len(ids))))


def ceil_scaled_log(scale: Fraction, arg: Fraction) -> int:
    """ceil(scale * ln(arg)) at 60 significant digits.

    Independent of math.log so the frozen sample sizes are checked
    against a second numeric route.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(arg.numerator).ln() - Decimal(arg.denominator).ln()
        value *= Decimal(scale.numerator) / Decimal(scale.denominator)
        return math.ceil(value)


def is_free_after_removal(text: Text, word: Word, removed: set) -> bool:
    keep = [int(v) for i, v in enumerate(text.ids) if i not in removed]
    return not _contains(keep, [int(v) for v in word.ids])


def _contains(seq, word) -> bool:
    need = 0
    for v in seq:
        if v == word[need]:
            need += 1
            if need == len(word):
                return True
    return False


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)
