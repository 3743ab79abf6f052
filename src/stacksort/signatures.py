"""Active sites, signatures, and the signature-matching bijection.

Inserting a new maximum into a permutation can be done at any of the n+1
gaps (sites).  A site is *active* with respect to a forbidden pattern when
the insertion keeps the permutation an avoider.  Recording the number of
active sites while peeling maxima off one at a time yields the signature,
and West's observation is that avoiders of 123 and avoiders of 132 are
matched one-to-one by having equal signatures.

The bijection here is realized by exhaustive signature matching over the
generated avoider lists rather than by a succession rule: the index is
built once per (length, pattern) and certifies uniqueness as it goes.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .perms import (
    PATTERN_123,
    PATTERN_132,
    Permutation,
    PatternSet,
    avoiders,
    contains_classical,
    insert_max_at,
    smallest_k,
)

#: The only source/target pairs the matching is defined (and proven) for.
DIRECTIONS = ((PATTERN_132, PATTERN_123), (PATTERN_123, PATTERN_132))


class SourceNotAvoider(ValueError):
    """The permutation handed to west_map contains its source pattern."""


class NoMatch(LookupError):
    """No target avoider shares the signature.  Signals a bug, not bad input."""


class DuplicateSignature(ValueError):
    """Two avoiders of the same pattern share a signature.  Also a bug."""


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
    return frozenset(
        site
        for site in range(1, len(x) + 2)
        if not contains_classical(insert_max_at(x, site), y)
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
def _signature_index(n: int, target: Permutation) -> Mapping[tuple[int, ...], Permutation]:
    """Signature -> avoider lookup over Av_n(target), certified injective."""
    index: dict[tuple[int, ...], Permutation] = {}
    for x in avoiders(n, PatternSet.of(target)):
        sig = signature(x, target)
        clash = index.get(sig)
        if clash is not None:
            raise DuplicateSignature(
                f"{x} and {clash} share the {target} signature {format_signature(sig)}"
            )
        index[sig] = x
    return MappingProxyType(index)


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
    sig = signature(x, source)
    image = _signature_index(len(x), target).get(sig)
    if image is None:
        raise NoMatch(
            f"no {target}-avoider of length {len(x)} has signature {format_signature(sig)}"
        )
    return image
