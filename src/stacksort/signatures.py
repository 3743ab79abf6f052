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
read from the right.  So ``avoider_with_signature`` walks down from the empty
permutation and takes, at each level, the one child whose count matches; no
match raises NoMatch and two raise DuplicateSignature, which makes every
answer a certificate that it exists and is unique.

Signatures of a whole avoider class are built level by level: removing the
maximum of an avoider leaves an avoider one shorter whose signature is the
tail of the longer one's, so each avoider costs one active-site count on top
of the class one shorter.  Those signatures and the signature -> avoider
index built from them are the exhaustive certificates the west suite and
the tests check the decoder against.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .perms import (
    DEFAULT_GENERATION_CAP,
    PATTERN_123,
    PATTERN_132,
    LengthTooLarge,
    Permutation,
    PatternSet,
    avoiders,
    contains_classical,
    insert_max_at,
    smallest_k,
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
        if not _word_contains(word[: site - 1] + (top,) + word[site - 1 :], y.entries)
    )


def signature(x: Permutation, y: Permutation) -> tuple[int, ...]:
    """Active-site counts of x with each of its largest entries peeled off.

    Entry j counts the active sites of the sub-permutation formed by the
    len(x)+1-j smallest values of x.  The first entry looks at x itself,
    the last at a singleton, which always has both sites active, so every
    nonempty signature ends in 2.

    >>> signature(Permutation.from_digits("45231"), PATTERN_132)
    (4, 4, 3, 3, 2)
    >>> signature(Permutation.from_digits("132"), PATTERN_123)
    (2, 2, 2)
    >>> signature(Permutation.from_digits("123"), PATTERN_132)
    (2, 2, 2)
    """
    m = len(x)
    return tuple(
        len(active_sites(smallest_k(x, m + 1 - j), y)) for j in range(1, m + 1)
    )


def format_signature(sig: tuple[int, ...]) -> str:
    """Dot-joined text form; unambiguous once entries pass 9.

    >>> format_signature((4, 4, 3, 3, 2))
    '4.4.3.3.2'
    """
    return ".".join(str(entry) for entry in sig)


def parse_signature(text: str) -> tuple[int, ...]:
    """Inverse of format_signature.

    >>> parse_signature("4.4.3.3.2")
    (4, 4, 3, 3, 2)
    """
    if not text:
        return ()
    entries = []
    for token in text.split("."):
        if not token.isdigit() or int(token) < 1:
            raise ValueError(f"signature entries are positive integers, got {token!r}")
        entries.append(int(token))
    return tuple(entries)


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
    """Avoider -> signature over Av_n(target), in avoiders order.

    Removing the maximum of x leaves smallest_k(x, n-1), an avoider of
    length n-1 whose signature is the tail of x's, so each entry is one
    active-site count prepended to an entry of the (n-1) map.
    """
    level = avoiders(n, PatternSet.of(target))  # refuses n past the cap first
    if n == 0:
        return MappingProxyType({x: () for x in level})
    shorter = _signatures(n - 1, target)
    return MappingProxyType(
        {
            x: (len(active_sites(x, target)),) + shorter[smallest_k(x, n - 1)]
            for x in level
        }
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
                f"{x} and {clash} share the {target} signature {format_signature(sig)}"
            )
        index[sig] = x
    return MappingProxyType(index)


@lru_cache(maxsize=None)
def _children(y: Permutation, target: Permutation) -> tuple[tuple[int, Permutation], ...]:
    """(active-site count, child) for each child of y in the generating tree
    of Av(target): y with a new maximum at one of its active sites, in site order.
    """
    return tuple(
        (len(active_sites(child, target)), child)
        for child in (insert_max_at(y, site) for site in sorted(active_sites(y, target)))
    )


def avoider_with_signature(sig: tuple[int, ...], target: Permutation) -> Permutation:
    """The target-avoider with signature sig, decoded on the generating tree.

    A child's signature is its active-site count followed by its parent's
    signature, so every avoider with signature sig descends through the
    children whose counts read sig from the right.  The walk takes the one
    such child per level: NoMatch when there is none, DuplicateSignature when
    two share the count.

    >>> str(avoider_with_signature((4, 4, 3, 3, 2), PATTERN_123))
    '4 2 1 5 3'
    >>> str(avoider_with_signature((), PATTERN_132))
    ''
    """
    n = len(sig)
    if n > DEFAULT_GENERATION_CAP:
        raise LengthTooLarge(f"n={n} above the generation cap {DEFAULT_GENERATION_CAP}")
    y = Permutation(())
    for k in range(n - 1, -1, -1):
        found = [child for count, child in _children(y, target) if count == sig[k]]
        if not found:
            raise NoMatch(
                f"no {target}-avoider of length {n} has signature {format_signature(sig)}"
            )
        if len(found) > 1:
            raise DuplicateSignature(
                f"{found[0]} and {found[1]} share the {target} signature "
                f"{format_signature(sig[k:])}"
            )
        y = found[0]
    return y


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
        raise SourceNotAvoider(f"{x} contains {source}")
    return avoider_with_signature(signature(x, source), target)
