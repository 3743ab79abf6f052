"""Slow reference implementations, independent of the package internals.

Everything here recomputes from the definitions with no shortcuts: full
containment rechecks instead of the new-top test, the recursive form of
the increasing-stack pass instead of the iterative one, closed formulas
instead of recurrences.  Tests compare the fast code against these.
"""

from itertools import combinations
from math import comb


# ---- containment ----------------------------------------------------------


def rank_word(word):
    """Replace each letter by its 1-based rank among the word's letters."""
    order = sorted(word)
    return tuple(order.index(v) + 1 for v in word)


def contains(word, pattern):
    """Classical containment, checked over every index subset."""
    k = len(pattern)
    for idx in combinations(range(len(word)), k):
        if rank_word([word[i] for i in idx]) == tuple(pattern):
            return True
    return False


def contains_star(word, base):
    """Containment of a length-3 pattern whose last two letters must be
    tight: adjacent in position, and with no letter of the word lying
    strictly between their values."""
    n = len(word)
    lo_slot = list(base).index(2)
    hi_slot = list(base).index(3)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            k = j + 1  # positional adjacency of the last two slots
            triple = (word[i], word[j], word[k])
            if rank_word(triple) != tuple(base):
                continue
            lo, hi = triple[lo_slot], triple[hi_slot]
            if not any(lo < v < hi for v in word):
                return True
    return False


# ---- the machine, recomputed from scratch ---------------------------------


def stack_pass(word, classical=(), stars=()):
    """Right-greedy pass where legality of a push is decided by a full
    containment recheck of the whole would-be stack content."""

    def legal(stack_bottom_up, incoming):
        content = [incoming] + stack_bottom_up[::-1]  # read top to bottom
        return not (
            any(contains(content, p) for p in classical)
            or any(contains_star(content, b) for b in stars)
        )

    stack = []
    out = []
    for v in word:
        while stack and not legal(stack, v):
            out.append(stack.pop())
        stack.append(v)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def west(word):
    """The increasing-stack pass via its recursive description:
    W(L n R) = W(L) W(R) n, with n the maximum."""
    word = tuple(word)
    if not word:
        return ()
    i = word.index(max(word))
    return west(word[:i]) + west(word[i + 1 :]) + (word[i],)


def machine_sorts(word, *patterns):
    """Does the machine whose first stack avoids the classical patterns sort word?"""
    mid = stack_pass(word, classical=patterns)
    return west(mid) == tuple(sorted(word))


# ---- bijection ingredients ------------------------------------------------


def smallest(word, k):
    """Order-isomorphic copy of the subsequence of the k smallest values."""
    keep = sorted(word)[:k]
    return rank_word([v for v in word if v in keep])


def active_sites(word, pattern):
    """Sites where the new maximum can land without creating the pattern."""
    n = len(word)
    sites = set()
    for site in range(1, n + 2):
        grown = list(word[: site - 1]) + [n + 1] + list(word[site - 1 :])
        if not contains(grown, pattern):
            sites.add(site)
    return sites


def signature(word, pattern):
    sig = []
    for j in range(1, len(word) + 1):
        sig.append(len(active_sites(smallest(word, len(word) + 1 - j), pattern)))
    return tuple(sig)


# ---- paths and numbers ------------------------------------------------------


def dyck_words(n):
    """All balanced words, built by choosing each letter recursively."""

    def grow(word, opens, closes):
        if opens == n and closes == n:
            yield word
            return
        if opens < n:
            yield from grow(word + "u", opens + 1, closes)
        if closes < opens:
            yield from grow(word + "d", opens, closes + 1)

    yield from grow("", 0, 0)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def schroder(n):
    """Large Schroeder numbers by summing over the number of diagonal steps:
    paths from (0,0) to (2n,0) with steps U, D and flat FF, counted as
    Catalan-weighted choices of step positions."""
    return sum(comb(n + k, n - k) * catalan(k) for k in range(n + 1))
