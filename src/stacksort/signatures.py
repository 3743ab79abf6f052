"""Active sites, signatures, and West's signature bijection.

Inserting a new maximum into a permutation can be done at any of the n+1
gaps (sites).  A site is *active* with respect to a forbidden pattern when
the insertion keeps the permutation an avoider.  Recording the number of
active sites while peeling maxima off one at a time yields the signature,
and West's observation is that avoiders of 123 and avoiders of 132 are
matched one-to-one by having equal signatures.

The matching is decoded on the generating tree of the target class (J. West,
"Generating trees and the Catalan and Schroder numbers", 1995).  Each avoider
of length k comes from one avoider of length k-1 by inserting its maximum at
an active site, and the child's active-site count is the next signature entry
read from the right.  Under 123 and 132 the children of a node with k sites
have 2, ..., k+1 sites, one each, by West's rule, so ``avoider_with_signature``
reads each level's site off the next entry, keeps no cache, and raises
NoMatch wherever a child's count disagrees with the entry.

On the avoiders of 123 and 132 the active sites follow a rule, so
``_open_sites`` reads them off the word in linear time.  Under 123 a new
maximum may land anywhere left of the larger entry of the first ascent:
the sites are 1..r+1, where r is the length of the initial decreasing run.
Under 132 it may land wherever every entry to its left exceeds every entry
to its right.  For any other pattern ``_open_sites`` asks
``active_sites``, which stays the definition the west suite and the tests
check the rule against.

``signature`` reads x's levels once, smallest first: level k is x's values
1..k in place order, so it is level k-1 with k inserted at one site.  Level
k avoids the pattern exactly when level k-1 does and k sits on an open site
of it; a level that contains the pattern has no active site, and neither
has any level above it.  Signatures of a whole avoider class are these
signatures over ``avoiders``; they are the exhaustive certificate the west
suite checks the decoder against, and only the tests and the benchmark's
cache counter (``perfbench/spans.py`` ``CACHES``) read the signature ->
avoider index built from them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping

from .perms import (
    PATTERN_123,
    PATTERN_132,
    PERM_LENGTH_LIMIT,
    LengthTooLarge,
    Permutation,
    PatternSet,
    avoiders,
    contains_classical,
    insert_max_at,
    pattern_name,
    _word_contains,
)

#: The only source/target pairs the matching is defined (and proven) for.
DIRECTIONS = ((PATTERN_132, PATTERN_123), (PATTERN_123, PATTERN_132))


class SourceNotAvoider(ValueError):
    """The permutation handed to west_map contains its source pattern."""


class NoMatch(LookupError):
    """No target avoider has the signature.  From west_map it signals a bug."""


class DuplicateSignature(ValueError):
    """Two avoiders of the same pattern share a signature.  For 123 or 132, a bug."""


def active_sites(x: Permutation, y: Permutation) -> frozenset[int]:
    """Sites where a new maximum can land without creating an occurrence of y.

    Site i means "immediately left of position i"; site len(x)+1 appends.
    If x already contains y no site can help, so the result is empty.

    >>> sorted(active_sites(Permutation.from_digits("45231"), PATTERN_132))
    [1, 3, 5, 6]
    >>> sorted(active_sites(Permutation.from_digits("4231"), PATTERN_132))
    [1, 2, 4, 5]
    >>> sorted(active_sites(Permutation((1,)), PATTERN_123))
    [1, 2]
    """
    word, top = x.entries, len(x) + 1
    return frozenset(
        site
        for site in range(1, top + 1)
        if not _word_contains(word[: site - 1] + (top,) + word[site - 1 :], y)
    )


def _open_sites(word: tuple[int, ...], y: Permutation) -> frozenset[int]:
    """``active_sites`` of a word of 1..len(word) that avoids y, by the rule
    for 123 and 132 in linear time, and by ``active_sites`` for any other y.

    >>> sorted(_open_sites((4, 5, 2, 3, 1), PATTERN_132))
    [1, 3, 5, 6]
    >>> sorted(_open_sites((3, 1, 4, 2), PATTERN_123))
    [1, 2, 3]
    """
    if y == PATTERN_123:
        run = next((i for i in range(1, len(word)) if word[i] > word[i - 1]), len(word))
        return frozenset(range(1, run + 2))
    if y == PATTERN_132:
        # the p entries left of site p+1 exceed all the others exactly when
        # they are the p largest, that is when their minimum is n+1-p
        n = len(word)
        return frozenset(
            p + 1
            for p, low in enumerate(accumulate(word, min, initial=n + 1))
            if low == n + 1 - p
        )
    return active_sites(Permutation(word), y)


def signature(x: Permutation, y: Permutation) -> tuple[int, ...]:
    """Active-site counts of x with each of its largest entries peeled off.

    Entry j counts the active sites of the sub-permutation formed by the
    len(x)+1-j smallest values of x.  The first entry looks at x itself,
    the last at a singleton, which always has both sites active, so every
    nonempty signature ends in 2.  Under 123 and 132 the cost grows as
    len(x)**2; lengths above PERM_LENGTH_LIMIT raise LengthTooLarge before
    any work.

    >>> signature(Permutation.from_digits("45231"), PATTERN_132)
    (4, 4, 3, 3, 2)
    >>> signature(Permutation.from_digits("132"), PATTERN_123)
    (2, 2, 2)
    >>> signature(Permutation.from_digits("123"), PATTERN_132)
    (2, 2, 2)
    """
    m = len(x)
    if m > PERM_LENGTH_LIMIT:
        raise LengthTooLarge(f"n={m} above the signature limit {PERM_LENGTH_LIMIT}")
    sites = _open_sites((), y)
    counts = []
    for k in range(1, m + 1):
        level = tuple(v for v in x.entries if v <= k)
        sites = _open_sites(level, y) if level.index(k) + 1 in sites else frozenset()
        counts.append(len(sites))
    return tuple(reversed(counts))


def format_signature(sig: tuple[int, ...]) -> str:
    """Dot-joined text form; unambiguous once entries pass 9.  The empty
    signature prints as ``-``, as the empty permutation does.

    >>> format_signature((4, 4, 3, 3, 2))
    '4.4.3.3.2'
    """
    return ".".join(str(entry) for entry in sig) or "-"


def has_plateau(sig: tuple[int, ...]) -> bool:
    """Whether sig has two equal adjacent entries followed by one at least as large.

    This is the shape that flags an occurrence of the adjacent-middle
    pattern in the underlying avoider: a plateau in the 123-signature of a
    132-avoider marks a 123 occurrence whose middle entry is tight, and
    symmetrically with the roles of 123 and 132 exchanged.  Signatures
    shorter than 3 cannot have one.

    >>> has_plateau((4, 4, 3, 3, 2))
    False
    >>> has_plateau((2, 2, 2))
    True
    >>> has_plateau((2, 1))
    False
    """
    return any(
        sig[i] == sig[i + 1] and sig[i + 1] <= sig[i + 2]
        for i in range(len(sig) - 2)
    )


@lru_cache(maxsize=None)
def _signatures(n: int, target: Permutation) -> Mapping[Permutation, tuple[int, ...]]:
    """Avoider -> signature over Av_n(target), in avoiders order."""
    return MappingProxyType(
        {x: signature(x, target) for x in avoiders(n, PatternSet.of(target))}
    )


@lru_cache(maxsize=None)
def _signature_index(n: int, target: Permutation) -> Mapping[tuple[int, ...], Permutation]:
    """Signature -> avoider lookup over Av_n(target), certified injective.

    Inverts _signatures(n, target) in avoiders order and raises
    DuplicateSignature at the first signature two avoiders share, so a
    finished index is a proof that the signature is unique on Av_n(target).
    """
    index: dict[tuple[int, ...], Permutation] = {}
    for x, sig in _signatures(n, target).items():
        clash = index.get(sig)
        if clash is not None:
            raise DuplicateSignature(
                f"{x} and {clash} share the {pattern_name(target)} signature "
                f"{format_signature(sig)}"
            )
        index[sig] = x
    return MappingProxyType(index)


def avoider_with_signature(sig: tuple[int, ...], target: Permutation) -> Permutation:
    """The target-avoider with signature sig, decoded by West's rule.

    A parent with k active sites has k children, with 2, ..., k+1 sites, one
    each: under 123 the child at site 1 has k+1 and the child at site s >= 2
    has s; under 132 the child at the j-th site has k+2-j.  The walk inserts
    each new maximum where the rule puts the next entry, read from the right,
    and checks the child's count, so an entry outside 2..k+1 or a wrong rule
    raises NoMatch rather than return a wrong avoider.  Other targets have no
    rule and raise ValueError.

    >>> str(avoider_with_signature((4, 4, 3, 3, 2), PATTERN_123))
    '4 2 1 5 3'
    >>> str(avoider_with_signature((), PATTERN_132))
    '-'
    """
    if target not in (PATTERN_123, PATTERN_132):
        raise ValueError("West's rule decodes 123-avoiders and 132-avoiders only")
    y, sites = Permutation(()), [1]
    for count in reversed(sig):
        k = len(sites)
        # the index, among the parent's sites, where the rule puts this count
        j = (0 if count == k + 1 else count - 1) if target == PATTERN_123 else k + 1 - count
        if not 0 <= j < k:
            break
        y = insert_max_at(y, sites[j])
        sites = sorted(_open_sites(y.entries, target))
        if len(sites) != count:
            break
    else:
        return y
    raise NoMatch(
        f"no {pattern_name(target)}-avoider of length {len(sig)} has signature "
        f"{format_signature(sig)}"
    )


def west_map(x: Permutation, source: Permutation, target: Permutation) -> Permutation:
    """The unique target-avoider whose signature matches that of x.

    Defined for the two directions 132 -> 123 and 123 -> 132; the two maps
    are mutually inverse.  NoMatch cannot fire unless the matching claim
    itself is broken, so reaching it means an implementation bug.

    >>> str(west_map(Permutation.from_digits("45231"), PATTERN_132, PATTERN_123))
    '4 2 1 5 3'
    >>> str(west_map(Permutation.from_digits("42153"), PATTERN_123, PATTERN_132))
    '4 5 2 3 1'
    >>> str(west_map(Permutation((1,)), PATTERN_132, PATTERN_123))
    '1'
    """
    if (source, target) not in DIRECTIONS:
        raise ValueError("matching is defined between 132-avoiders and 123-avoiders only")
    if contains_classical(x, source):
        raise SourceNotAvoider(f"{x} contains {pattern_name(source)}")
    return avoider_with_signature(signature(x, source), target)
