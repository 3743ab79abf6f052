"""Exact integer sequences used by the counting results and cross-checks.

Everything here is computed with plain integer arithmetic, but storage is
contractually 128-bit: a term that leaves the signed 128-bit range raises
Overflow instead of silently growing, so tables serialize portably (terms
travel as decimal strings in JSON) and other implementations can hold them
in fixed-width integers.  That range is each table's only upper limit: a
table checks every term as it builds it, so a larger n_max stops at the
first term past the range (g_76, C_69, S_54).  Overflow is a ValueError.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .perms import _Frozen

INT128_MAX = 2**127 - 1

#: Coefficients of 1 - 2z - 5z^2 - 2z^3 + z^4, the polynomial under the
#: square root in the closed-form generating function for g.
GF_RADICAND = (1, -2, -5, -2, 1)


class Overflow(OverflowError, ValueError):
    """A term left the signed 128-bit range."""


class NonIntegerCoefficient(ArithmeticError):
    """A series step failed an exactness check; signals a bug, not bad input."""


def _check128(value: int, context: str) -> int:
    if abs(value) > INT128_MAX:
        raise Overflow(f"{context} leaves the 128-bit range")
    return value


class SequenceTable(_Frozen):
    """A named, offset-indexed prefix of an integer sequence."""

    __slots__ = ("name", "offset", "terms")
    name: str
    offset: int
    terms: tuple[int, ...]

    def __init__(self, name: str, offset: int, terms: tuple[int, ...]) -> None:
        self._freeze(name, offset, terms)
        for k, term in enumerate(self.terms):
            if term < 0:
                raise ValueError(f"{self.name}[{self.offset + k}] is negative")
            _check128(term, f"{self.name}[{self.offset + k}]")

    def __getitem__(self, index: int) -> int:
        """Term by sequence index (offset-aware), e.g. table[0] for g_0."""
        if not self.offset <= index < self.offset + len(self.terms):
            raise IndexError(f"{self.name} has no term at index {index}")
        return self.terms[index - self.offset]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "offset": self.offset,
            "terms": [str(t) for t in self.terms],
        }


def _require_nonnegative(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")


def g_sequence(n_max: int) -> SequenceTable:
    """g_0..g_{n_max} where g counts both sortable permutations of the
    (132,321) stack pair and the equinumerous avoider classes.

    g_0 = g_1 = 1 and g_n = sum(g_i * g_{n-1-i}) - g_{n-1} + g_{n-2}.

    >>> g_sequence(8).terms
    (1, 1, 2, 4, 10, 26, 72, 206, 606)
    """
    _require_nonnegative(n_max)
    g = [1, 1][: n_max + 1]
    for n in range(2, n_max + 1):
        conv = sum(g[i] * g[n - 1 - i] for i in range(n))
        g.append(_check128(conv - g[n - 1] + g[n - 2], f"g_{n}"))
    return SequenceTable("g", 0, tuple(g))


def f_sequence(n_max: int) -> SequenceTable:
    """f_2..f_{n_max}, the first differences of g one step back.

    f_n counts the 132-avoiders whose top two values sit adjacent (not at
    the front, largest on the right) and whose max-deleted word avoids the
    adjacent-middle 123 pattern; the difference formula is what makes the
    convolution identity close.

    >>> f_sequence(6).terms
    (0, 1, 2, 6, 16)
    """
    if n_max < 2:
        raise ValueError("f is defined from n = 2")
    g = g_sequence(n_max)
    return SequenceTable(
        "f", 2, tuple(g[n - 1] - g[n - 2] for n in range(2, n_max + 1))
    )


def gf_coefficients(n_max: int) -> SequenceTable:
    """g by an independent route: series expansion of the closed form
    (1 + z - z^2 - sqrt(1 - 2z - 5z^2 - 2z^3 + z^4)) / (2z).

    The square root R is expanded from R^2 = radicand by equating
    coefficients with r_0 = 1; every division must land on an integer or
    something is wrong with the algebra, not the input.

    >>> gf_coefficients(8).terms == g_sequence(8).terms
    True
    """
    _require_nonnegative(n_max)
    need = n_max + 2  # numerator is divided by 2z, so one extra order
    r = [1]
    for k in range(1, need):
        p_k = GF_RADICAND[k] if k < len(GF_RADICAND) else 0
        cross = sum(r[i] * r[k - i] for i in range(1, k))
        num = p_k - cross
        if num % 2:
            raise NonIntegerCoefficient(f"r_{k} is not an integer")
        r.append(_check128(num // 2, f"r_{k}"))

    poly = {0: 1, 1: 1, 2: -1}  # 1 + z - z^2
    numerator = [poly.get(k, 0) - r[k] for k in range(need)]
    if numerator[0] != 0:
        raise NonIntegerCoefficient("numerator has a constant term; not divisible by z")
    coeffs = []
    for k in range(n_max + 1):
        num = numerator[k + 1]
        if num % 2:
            raise NonIntegerCoefficient(f"series coefficient {k} is not an integer")
        coeffs.append(num // 2)
    return SequenceTable("g-series", 0, tuple(coeffs))


def catalan(n_max: int) -> SequenceTable:
    """C_0..C_{n_max} by the defining convolution.

    >>> catalan(5).terms
    (1, 1, 2, 5, 14, 42)
    """
    _require_nonnegative(n_max)
    c = [1]
    for n in range(1, n_max + 1):
        c.append(_check128(sum(c[i] * c[n - 1 - i] for i in range(n)), f"C_{n}"))
    return SequenceTable("catalan", 0, tuple(c))


def _schroder_brute(k: int) -> int:
    """Paths (0,0) -> (2k,0) with steps (1,1), (1,-1), (2,0), never below
    the axis, counted directly.  Oracle for the recurrence below."""

    @lru_cache(maxsize=None)
    def walk(remaining: int, height: int) -> int:
        if remaining == 0:
            return 1 if height == 0 else 0
        total = walk(remaining - 1, height + 1)
        if height > 0:
            total += walk(remaining - 1, height - 1)
        if remaining >= 2:
            total += walk(remaining - 2, height)
        return total

    return walk(2 * k, 0)


def schroder_large(n_max: int) -> SequenceTable:
    """S_0..S_{n_max} via (k+1) S_k = 3(2k-1) S_{k-1} - (k-2) S_{k-2},
    with the first terms re-derived from a lattice-path brute force so the
    recurrence is verified rather than trusted.

    >>> schroder_large(7).terms
    (1, 2, 6, 22, 90, 394, 1806, 8558)
    """
    _require_nonnegative(n_max)
    s = [1, 2][: n_max + 1]
    for k in range(2, n_max + 1):
        num = 3 * (2 * k - 1) * s[k - 1] - (k - 2) * s[k - 2]
        quotient, remainder = divmod(num, k + 1)
        if remainder:
            raise NonIntegerCoefficient(f"S_{k} recurrence does not divide")
        s.append(_check128(quotient, f"S_{k}"))
    for k in range(min(n_max, 8) + 1):
        if s[k] != _schroder_brute(k):
            raise NonIntegerCoefficient(f"S_{k} disagrees with the path count")
    return SequenceTable("schroder-large", 0, tuple(s))


def binomial_transform_catalan(n_max: int) -> SequenceTable:
    """b_n = sum over k of (n choose k) C_k.

    >>> binomial_transform_catalan(4).terms
    (1, 2, 5, 15, 51)
    """
    _require_nonnegative(n_max)
    c = catalan(n_max).terms
    return SequenceTable(
        "catalan-binomial-transform",
        0,
        tuple(
            _check128(sum(comb(n, k) * c[k] for k in range(n + 1)), f"b_{n}")
            for n in range(n_max + 1)
        ),
    )


def powers_2_shifted(n_max: int) -> SequenceTable:
    """2^{n-1} for n = 1..n_max, the count for the single 321 machine.

    >>> powers_2_shifted(5).terms
    (1, 2, 4, 8, 16)
    """
    _require_nonnegative(n_max)
    terms = (_check128(2 ** (n - 1), f"2^{n - 1}") for n in range(1, n_max + 1))
    return SequenceTable("powers-2-shifted", 1, tuple(terms))


def sort_123_321_closed(n: int) -> int:
    """Closed-form count for the (123,321) pair: doubles from 7 at n = 4.

    >>> [sort_123_321_closed(n) for n in range(1, 9)]
    [1, 2, 4, 7, 14, 28, 56, 112]
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    if n <= 3:
        return 2 ** (n - 1)
    # 7 * 2**k fits exactly when 2**k <= INT128_MAX // 7: refuse before building it
    if n - 4 >= (INT128_MAX // 7).bit_length():
        raise Overflow(f"count at n={n} leaves the 128-bit range")
    return 7 * 2 ** (n - 4)
