"""Permutations in one-line notation, pattern containment, avoider generation.

Entries are the values 1..n.  Every position or site that crosses the module
boundary is 1-based, so worked examples from the enumerative-combinatorics
literature can be typed in verbatim and checked by eye.  Internal helpers that
operate on raw ``tuple[int, ...]`` words use ordinary Python indexing.

``_ends_at`` is the one new-entry test: ``avoiders`` runs it on each prefix
it extends, and the stack machine on its stack with the patterns reversed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

DEFAULT_GENERATION_CAP = 12

#: Largest n_max each verification suite in ``suites.SUITES`` accepts; also
#: the default the CLI clamps to, in the order ``verify --suite all`` runs
#: them.  Kept with the other length caps so the CLI parser can list them
#: without loading the suites.
SUITE_CAPS = {
    "characterization": 9,
    "west": 9,
    "dyck": 9,
    "structure": 10,
    "tables": 9,
    "conjecture": 11,
}


class MalformedToken(ValueError):
    """A token in a permutation string is not a positive integer."""


class NotABijection(ValueError):
    """The entries do not form a bijection on {1, ..., n}."""


class ValueOutOfRange(ValueError):
    """Asked about a value outside 1..n."""


class KOutOfRange(ValueError):
    """Asked for a bottom portion of size outside 0..n."""


class TooShort(ValueError):
    """The permutation is too short for the requested operation."""


class SiteOutOfRange(ValueError):
    """Asked for an insertion site outside 1..n+1."""


class LengthTooLarge(ValueError):
    """Refusing to run an exhaustive scan past the configured length cap."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> Permutation((2, 3, 1))
    Permutation((2, 3, 1))
    >>> len(Permutation((2, 3, 1)))
    3
    >>> str(Permutation((2, 3, 1)))
    '2 3 1'
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if entries != self.entries:
            object.__setattr__(self, "entries", entries)
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise NotABijection(f"not a permutation of 1..{len(entries)}: {entries!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"Permutation({self.entries!r})"

    def __str__(self) -> str:
        return format_permutation(self)

    @classmethod
    def from_digits(cls, digits: str) -> "Permutation":
        """Build a short permutation from a digit string.

        >>> Permutation.from_digits("132")
        Permutation((1, 3, 2))
        """
        if not digits.isdecimal():  # isdigit() also passes "²", which int() refuses
            raise MalformedToken(f"not a digit string: {digits!r}")
        return cls(tuple(int(c) for c in digits))

    @property
    def is_identity(self) -> bool:
        return self.entries == tuple(range(1, len(self.entries) + 1))


def identity(n: int) -> Permutation:
    """The identity permutation 1 2 ... n."""
    return Permutation(tuple(range(1, n + 1)))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation with whitespace or comma separators.

    >>> parse_permutation("2 3 1 4")
    Permutation((2, 3, 1, 4))
    >>> parse_permutation("2, 3, 1, 4")
    Permutation((2, 3, 1, 4))
    """
    tokens = text.replace(",", " ").split()
    values = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise MalformedToken(f"bad token {tok!r} in permutation string") from None
        if v < 1:
            raise MalformedToken(f"bad token {tok!r}: entries are positive")
        values.append(v)
    return Permutation(tuple(values))


def format_permutation(x: Permutation) -> str:
    """Canonical text form: entries joined by single spaces."""
    return " ".join(str(v) for v in x.entries)


def index_of(x: Permutation, value: int) -> int:
    """1-based position of ``value`` in x.

    >>> index_of(parse_permutation("1 2 5 3 4"), 5)
    3
    """
    if not 1 <= value <= len(x):
        raise ValueOutOfRange(f"value {value} not in 1..{len(x)}")
    return x.entries.index(value) + 1


def ltr_minima(x: Permutation) -> tuple[tuple[int, int], ...]:
    """Left-to-right minima as (position, value) pairs, positions 1-based.

    An entry is a left-to-right minimum when it is smaller than everything
    before it; the first entry always qualifies.

    >>> ltr_minima(parse_permutation("5 2 4 6 1 3"))
    ((1, 5), (2, 2), (5, 1))
    """
    out = []
    current = len(x) + 1
    for pos, v in enumerate(x.entries, start=1):
        if v < current:
            out.append((pos, v))
            current = v
    return tuple(out)


def smallest_k(x: Permutation, k: int) -> Permutation:
    """The subsequence of x holding the values 1..k, in place order.

    The result is itself a permutation of 1..k.

    >>> smallest_k(parse_permutation("4 5 2 3 1"), 4)
    Permutation((4, 2, 3, 1))
    """
    if not 0 <= k <= len(x):
        raise KOutOfRange(f"k={k} not in 0..{len(x)}")
    return Permutation(tuple(v for v in x.entries if v <= k))


def swap12(x: Permutation) -> Permutation:
    """Exchange the values 1 and 2, leaving all positions fixed.

    >>> swap12(parse_permutation("4 5 2 3 1"))
    Permutation((4, 5, 1, 3, 2))
    """
    if len(x) < 2:
        raise TooShort("need at least the values 1 and 2 to swap")
    entries = list(x.entries)
    i, j = entries.index(1), entries.index(2)
    entries[i], entries[j] = 2, 1
    return Permutation(tuple(entries))


def insert_one_at(x: Permutation, site: int) -> Permutation:
    """Insert a new value 1 at 1-based site, shifting the old entries up.

    Site i means the new entry lands at position i of the result.

    >>> insert_one_at(parse_permutation("1 2 5 4 3"), 2)
    Permutation((2, 1, 3, 6, 5, 4))
    """
    n = len(x)
    if not 1 <= site <= n + 1:
        raise SiteOutOfRange(f"site {site} not in 1..{n + 1}")
    lifted = [v + 1 for v in x.entries]
    return Permutation(tuple(lifted[: site - 1] + [1] + lifted[site - 1:]))


def insert_max_at(x: Permutation, site: int) -> Permutation:
    """Insert a new maximum value n+1 at 1-based site.

    >>> insert_max_at(parse_permutation("4 5 2 3 1"), 2)
    Permutation((4, 6, 5, 2, 3, 1))
    >>> insert_max_at(parse_permutation("4 5 2 3 1"), 4)
    Permutation((4, 5, 2, 6, 3, 1))
    """
    n = len(x)
    if not 1 <= site <= n + 1:
        raise SiteOutOfRange(f"site {site} not in 1..{n + 1}")
    entries = list(x.entries)
    entries.insert(site - 1, n + 1)
    return Permutation(tuple(entries))


# ---- patterns ----------------------------------------------------------


@dataclass(frozen=True)
class BivincularPattern:
    """A classical pattern plus position- and value-adjacency constraints.

    ``adjacent_positions`` holds indices i in 1..m-1 forcing the occurrence
    positions c(i+1) = c(i) + 1.  ``adjacent_values`` holds values v in
    1..m-1 forcing the occurrence entry playing v+1 to sit directly above
    the entry playing v, with no entry of the host word in between; on a
    full permutation that means the two entries differ by exactly 1.
    """

    base: Permutation
    adjacent_positions: frozenset[int] = frozenset()
    adjacent_values: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjacent_positions", frozenset(self.adjacent_positions))
        object.__setattr__(self, "adjacent_values", frozenset(self.adjacent_values))
        m = len(self.base)
        for i in self.adjacent_positions:
            if not 1 <= i <= m - 1:
                raise ValueError(f"position constraint {i} not in 1..{m - 1}")
        for v in self.adjacent_values:
            if not 1 <= v <= m - 1:
                raise ValueError(f"value constraint {v} not in 1..{m - 1}")


PATTERN_21 = Permutation((2, 1))
PATTERN_123 = Permutation((1, 2, 3))
PATTERN_132 = Permutation((1, 3, 2))
PATTERN_213 = Permutation((2, 1, 3))
PATTERN_231 = Permutation((2, 3, 1))
PATTERN_312 = Permutation((3, 1, 2))
PATTERN_321 = Permutation((3, 2, 1))

STAR_123 = BivincularPattern(PATTERN_123, frozenset({2}), frozenset({2}))
STAR_132 = BivincularPattern(PATTERN_132, frozenset({2}), frozenset({2}))


@dataclass(frozen=True)
class PatternSet:
    """The patterns a stack is forbidden from containing, split by kind."""

    classical: tuple[Permutation, ...] = ()
    bivincular: tuple[BivincularPattern, ...] = ()

    @classmethod
    def of(cls, *patterns: Permutation | BivincularPattern) -> "PatternSet":
        classical = []
        bivincular = []
        for p in patterns:
            if isinstance(p, BivincularPattern):
                if p not in bivincular:
                    bivincular.append(p)
            elif isinstance(p, Permutation):
                if p not in classical:
                    classical.append(p)
            else:
                raise TypeError(f"not a pattern: {p!r}")
        return cls(tuple(classical), tuple(bivincular))

    @classmethod
    def coerce(cls, obj: "PatternSet | Iterable[Permutation | BivincularPattern]") -> "PatternSet":
        if isinstance(obj, PatternSet):
            return obj
        return cls.of(*obj)

    def is_empty(self) -> bool:
        return not self.classical and not self.bivincular


def pattern_name(p: Permutation | BivincularPattern) -> str:
    """Short stable name for a pattern, used in labels and serialized output."""
    if isinstance(p, BivincularPattern):
        base = "".join(str(v) for v in p.base.entries)
        if (
            len(p.base) == 3
            and p.adjacent_positions == frozenset({2})
            and p.adjacent_values == frozenset({2})
        ):
            return f"{base}-star"
        pos = ",".join(str(i) for i in sorted(p.adjacent_positions))
        val = ",".join(str(v) for v in sorted(p.adjacent_values))
        return f"{base}|pos:{pos}|val:{val}"
    return "".join(str(v) for v in p.entries)


# ---- containment -------------------------------------------------------


def _order_iso(sub: Sequence[int], pat: Sequence[int]) -> bool:
    m = len(pat)
    for a in range(m - 1):
        sa, pa = sub[a], pat[a]
        for b in range(a + 1, m):
            if (sa < sub[b]) != (pa < pat[b]):
                return False
    return True


def _word_contains(word: Sequence[int], pat: Sequence[int]) -> bool:
    """Classical containment on an arbitrary word of distinct integers."""
    n, m = len(word), len(pat)
    if m > n:
        return False
    if m == 0:
        return True
    if m == 1:
        return n >= 1
    if m == 2:
        asc = pat[0] < pat[1]
        for i in range(n - 1):
            wi = word[i]
            for j in range(i + 1, n):
                if (wi < word[j]) == asc:
                    return True
        return False
    if m == 3:
        p01, p02, p12 = pat[0] < pat[1], pat[0] < pat[2], pat[1] < pat[2]
        for i in range(n - 2):
            wi = word[i]
            for j in range(i + 1, n - 1):
                wj = word[j]
                if (wi < wj) != p01:
                    continue
                for k in range(j + 1, n):
                    wk = word[k]
                    if (wi < wk) == p02 and (wj < wk) == p12:
                        return True
        return False
    for combo in itertools.combinations(range(n), m):
        if _order_iso([word[c] for c in combo], pat):
            return True
    return False


def contains_classical(x: Permutation, pattern: Permutation) -> bool:
    """Does x contain the classical pattern, as an order-isomorphic subsequence?

    >>> contains_classical(parse_permutation("4 2 1 3"), Permutation.from_digits("231"))
    False
    >>> contains_classical(parse_permutation("3 4 1 2"), Permutation.from_digits("231"))
    True
    """
    return _word_contains(x.entries, pattern.entries)


def _word_contains_bivincular(word: Sequence[int], p: BivincularPattern) -> bool:
    base = p.base.entries
    m, n = len(base), len(word)
    if m > n:
        return False
    # occurrence position of each pattern value 1..m
    slot_of_value = {v: i for i, v in enumerate(base)}
    adj_pos = p.adjacent_positions
    adj_val = p.adjacent_values
    for combo in itertools.combinations(range(n), m):
        if any(combo[i] != combo[i - 1] + 1 for i in adj_pos):
            continue
        sub = tuple(word[c] for c in combo)
        if not _order_iso(sub, base):
            continue
        ok = True
        for v in adj_val:
            lo = sub[slot_of_value[v]]
            hi = sub[slot_of_value[v + 1]]
            if any(lo < w < hi for w in word):
                ok = False
                break
        if ok:
            return True
    return False


def contains_bivincular(x: Permutation, pattern: BivincularPattern) -> bool:
    """Containment with the pattern's adjacency constraints enforced.

    With no constraints this degenerates to classical containment.

    >>> contains_bivincular(parse_permutation("1 3 2"), STAR_132)
    True
    >>> contains_bivincular(parse_permutation("2 4 1 3"), STAR_132)
    False
    """
    return _word_contains_bivincular(x.entries, pattern)


@lru_cache(maxsize=None)
def _compile_classical(patterns: tuple[tuple[int, ...], ...]):
    """Compile classical patterns, given as entry tuples, for ``_ends_at``.

    Patterns of length 2 and 3 become the "is less than" comparisons between
    their entries; a subsequence matches exactly when its own comparisons are
    equal.  Other lengths stay whole.
    """
    rels2 = tuple(p[0] < p[1] for p in patterns if len(p) == 2)
    rels3 = tuple((p[0] < p[1], p[0] < p[2], p[1] < p[2]) for p in patterns if len(p) == 3)
    whole = tuple(p for p in patterns if len(p) not in (2, 3))
    return rels2, rels3, whole


def _ends_at(word: Sequence[int], v: int, compiled) -> bool:
    """Does word + (v,) contain a compiled pattern in an occurrence ending at v?

    ``word`` must be non-empty and already avoid every compiled pattern, so
    this decides whether appending v keeps it avoiding them.  Such a word is
    monotone when it avoids a length-2 pattern, so those compare v with the
    last entry alone; the length-3 loops scan the entries nearest v first.
    """
    rels2, rels3, whole = compiled
    if rels2 and (word[-1] < v) in rels2:
        return True
    m = len(word)
    if rels3 and m > 1:
        for j in range(m - 1, 0, -1):
            a = word[j]
            av = a < v
            for i in range(j - 1, -1, -1):
                b = word[i]
                if (b < a, b < v, av) in rels3:
                    return True
    if whole:  # the hot passes have none; this skips making an iterator
        for pat in whole:
            for combo in itertools.combinations(range(m), len(pat) - 1):
                if _order_iso([word[c] for c in combo] + [v], pat):
                    return True
    return False


def avoiders(
    n: int,
    patterns: "PatternSet | Iterable[Permutation | BivincularPattern]",
) -> Iterator[Permutation]:
    """All x in S_n avoiding every pattern, streamed in lexicographic order.

    Classical patterns prune the backtracking as soon as a prefix contains
    one.  Bivincular patterns are only tested at full length: an occurrence
    in a prefix can be destroyed by a later entry landing between its
    adjacent values, so prefix containment decides nothing.

    >>> [str(p) for p in avoiders(3, [Permutation.from_digits("123"), STAR_132])]
    ['2 1 3', '2 3 1', '3 1 2', '3 2 1']
    """
    patterns = PatternSet.coerce(patterns)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_GENERATION_CAP:
        raise LengthTooLarge(f"n={n} above the generation cap {DEFAULT_GENERATION_CAP}")
    compiled = _compile_classical(tuple(p.entries for p in patterns.classical))
    bivincular = patterns.bivincular

    prefix: list[int] = []
    used = [False] * (n + 1)

    def rec() -> Iterator[Permutation]:
        if len(prefix) == n:
            x = Permutation(tuple(prefix))
            if all(not _word_contains_bivincular(x.entries, b) for b in bivincular):
                yield x
            return
        for v in range(1, n + 1):
            if used[v] or prefix and _ends_at(prefix, v, compiled):
                continue
            prefix.append(v)
            used[v] = True
            yield from rec()
            prefix.pop()
            used[v] = False

    return rec()
