"""Reference answers the benchmark computes without the package under test.

Everything here is written from the definitions, favouring obviousness
over speed: containment by trying every subsequence, the stack pass by
re-testing the whole stack after each hypothetical push.  The benchmark
uses these to check the answers of seed-dependent operations, and to
generate its random inputs, so a broken program can neither produce the
inputs it is measured on nor vouch for its own output.
"""

from __future__ import annotations

import itertools
import random
from math import comb

Word = tuple[int, ...]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _order_pattern(sub: Word) -> Word:
    ranks = sorted(sub)
    return tuple(ranks.index(v) + 1 for v in sub)


def contains(word: Word, pattern: Word) -> bool:
    """Classical containment: some subsequence is order-isomorphic to pattern."""
    return any(
        _order_pattern(tuple(word[i] for i in idx)) == pattern
        for idx in itertools.combinations(range(len(word)), len(pattern))
    )


def contains_star(word: Word, base: Word) -> bool:
    """The tightened length-3 patterns (132-star, 123-star).

    The entries playing 2 and 3 of the base pattern sit in adjacent
    positions, and no entry of the word lies strictly between their values.
    """
    where = {v: i for i, v in enumerate(base)}
    for idx in itertools.combinations(range(len(word)), 3):
        if idx[2] != idx[1] + 1:
            continue
        sub = tuple(word[i] for i in idx)
        if _order_pattern(sub) != base:
            continue
        lo, hi = sub[where[2]], sub[where[3]]
        if not any(lo < w < hi for w in word):
            return True
    return False


def pattern_test(token: str):
    """Containment test for a CLI pattern token such as 132 or 132-star."""
    if token.endswith("-star"):
        base = tuple(int(c) for c in token[: -len("-star")])
        return lambda word: contains_star(word, base)
    pattern = tuple(int(c) for c in token)
    return lambda word: contains(word, pattern)


def stack_pass(word: Word, tests) -> Word:
    """Right-greedy pass through a stack whose content (read top to bottom)
    must contain none of the forbidden patterns."""
    stack: list[int] = []
    out: list[int] = []
    for v in word:
        while stack and any(t((v,) + tuple(reversed(stack))) for t in tests):
            out.append(stack.pop())
        stack.append(v)
    out.extend(reversed(stack))
    return tuple(out)


def increasing_stack_pass(word: Word) -> Word:
    return stack_pass(word, [lambda w: contains(w, (2, 1))])


def signature(x: Word, y: Word) -> Word:
    """Active-site counts of x and of each restriction to its smallest values."""
    n = len(x)
    sig = []
    for k in range(n, 0, -1):
        sub = tuple(v for v in x if v <= k)
        sig.append(
            sum(
                1
                for site in range(k + 1)
                if not contains(sub[:site] + (k + 1,) + sub[site:], y)
            )
        )
    return tuple(sig)


def has_plateau(sig: Word) -> bool:
    return any(
        sig[i] == sig[i + 1] <= sig[i + 2] for i in range(len(sig) - 2)
    )


def b_sequence(x: Word) -> Word:
    """Rotem's staircase profile: hold at left-to-right minima, else x_i - 1."""
    b = []
    prev, low = len(x), len(x) + 1
    for v in x:
        if v < low:
            low = v
        else:
            prev = v - 1
        b.append(prev)
    return tuple(b)


def dyck_word(b: Word) -> str:
    nxt = b[1:] + (0,)
    return "".join("u" + "d" * (hi - lo) for hi, lo in zip(b, nxt))


def random_132_avoider(rng: random.Random, n: int) -> Word:
    """Uniform over Av_n(132): the maximum splits x into a left part lying
    entirely above a right part, both 132-avoiding."""
    if n == 0:
        return ()
    weights = [catalan(k) * catalan(n - 1 - k) for k in range(n)]
    k = rng.choices(range(n), weights)[0]
    right = n - 1 - k
    left = tuple(v + right for v in random_132_avoider(rng, k))
    return left + (n,) + random_132_avoider(rng, right)


def random_123_avoider(rng: random.Random, n: int) -> Word:
    """Uniform over Av_n(123) through the Simion-Schmidt bijection: keep the
    left-to-right minima of a 132-avoider, fill the other positions with the
    remaining values in decreasing order."""
    x = random_132_avoider(rng, n)
    minima, low = {}, n + 1
    for i, v in enumerate(x):
        if v < low:
            minima[i] = low = v
    rest = sorted(set(x) - set(minima.values()), reverse=True)
    fill = iter(rest)
    return tuple(minima[i] if i in minima else next(fill) for i in range(n))


def random_permutation(rng: random.Random, n: int) -> Word:
    x = list(range(1, n + 1))
    rng.shuffle(x)
    return tuple(x)
