"""Left-to-right-minima grids on 123-avoiders and their Dyck path images.

A 123-avoider splits along its left-to-right minima: the minima values cut
the value range into horizontal bands, the minima positions cut the word
into vertical strips, and each non-minimum entry lands in one cell of the
resulting grid.  Rotem's classical bijection, restated on this grid, sends
the avoider to a Dyck path; one extra observation makes it useful here:
a cell holding two entries is the same thing as an occurrence of 132 whose
middle pair of values is adjacent, and on the path side it is the same
thing as a dudu factor.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .perms import PATTERN_123, Permutation, _Frozen, contains_classical, ltr_minima

#: Factor whose absence marks the avoiders of the adjacent-middle 132 pattern.
FACTOR_DUDU = "dudu"

DEFAULT_SEMILENGTH_CAP = 14


class Not123Avoider(ValueError):
    """The operation is only meaningful on Av(123) and the input is not in it."""


class InvalidBSequence(ValueError):
    """A staircase sequence that no 123-avoider produces."""


class SemilengthTooLarge(ValueError):
    """Path generation request above the brute-force cap."""


class DyckPath(_Frozen):
    """A balanced u/d word whose prefixes never go below the axis."""

    __slots__ = ("word",)
    word: str

    def __init__(self, word: str) -> None:
        self._freeze(word)
        height = 0
        for step in self.word:
            if step == "u":
                height += 1
            elif step == "d":
                height -= 1
            else:
                raise ValueError(f"step must be 'u' or 'd', got {step!r}")
            if height < 0:
                raise ValueError(f"path dips below the axis: {self.word!r}")
        if height != 0:
            raise ValueError(f"unbalanced path: {self.word!r}")

    def __str__(self) -> str:
        return self.word


class GridDecomposition(NamedTuple):
    """Cell occupancies of a permutation's ltr-minima grid.

    minima holds the minima values in order of appearance (so decreasing);
    vertical_strips[j] holds the non-minimum values strictly between the
    j-th minimum and the next one (after the last, for the final strip);
    cells maps (band, strip), both 1-based, to the number of entries whose
    value sits in band i and whose position sits in strip j.  Only occupied
    cells are stored.
    """

    minima: tuple[int, ...]
    vertical_strips: tuple[tuple[int, ...], ...]
    cells: Mapping[tuple[int, int], int]

    def occupancy(self, i: int, j: int) -> int:
        return self.cells.get((i, j), 0)


def grid_cells(x: Permutation) -> GridDecomposition:
    """Decompose x along its left-to-right minima.

    Band i collects the values strictly between minima i and i-1 (band 1 is
    everything above the first minimum).  An entry below its strip's
    minimum would itself be a minimum, so cells with i > j stay empty, and
    the occupancies together with the minima account for every entry.

    >>> g = grid_cells(Permutation.from_digits("132"))
    >>> g.minima, g.vertical_strips, dict(g.cells)
    ((1,), ((3, 2),), {(1, 1): 2})
    >>> g = grid_cells(Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2)))
    >>> g.minima
    (8, 6, 4, 3, 1)
    >>> g.occupancy(2, 3), g.occupancy(3, 4)
    (1, 0)
    """
    n = len(x)
    minima = ltr_minima(x)
    min_positions = [pos for pos, _ in minima]
    min_values = [val for _, val in minima]
    k = len(minima)

    def band_of(value: int) -> int:
        # smallest i with value > m_i; bands are (m_i, m_{i-1}) with m_0 = n+1
        for i, m in enumerate(min_values, start=1):
            if value > m:
                return i
        raise AssertionError("non-minimum entry below every minimum")

    strips: list[list[int]] = [[] for _ in range(k)]
    cells: dict[tuple[int, int], int] = {}
    boundaries = min_positions + [n + 1]
    for j in range(1, k + 1):
        for pos in range(boundaries[j - 1] + 1, boundaries[j]):
            value = x.entries[pos - 1]
            strips[j - 1].append(value)
            key = (band_of(value), j)
            cells[key] = cells.get(key, 0) + 1

    return GridDecomposition(
        tuple(min_values), tuple(map(tuple, strips)), cells
    )


def cell_capacity_ok(x: Permutation) -> bool:
    """Whether every grid cell of a 123-avoider holds at most one entry.

    Two entries in one cell are a descent pair inside a single band and
    strip, and together with the strip's minimum they form a 132 whose
    middle values are adjacent; so on Av(123) this predicate is exactly
    avoidance of that adjacent-middle pattern.

    >>> cell_capacity_ok(Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2)))
    True
    >>> cell_capacity_ok(Permutation.from_digits("4321"))
    True
    """
    if contains_classical(x, PATTERN_123):
        raise Not123Avoider(f"{x} contains 123")
    return all(count <= 1 for count in grid_cells(x).cells.values())


class BSequence(_Frozen):
    """The staircase profile read off a 123-avoider, one entry per position.

    Starts at n, never increases, and stays above the anti-diagonal
    (b_j >= n+1-j), which is what keeps the rotated path on the axis.
    """

    __slots__ = ("b",)
    b: tuple[int, ...]

    def __init__(self, b: tuple[int, ...]) -> None:
        self._freeze(b)
        n = len(self.b)
        if n == 0:
            return
        if self.b[0] != n:
            raise InvalidBSequence(f"must start at {n}, got {self.b[0]}")
        for j in range(1, n):
            if self.b[j] > self.b[j - 1]:
                raise InvalidBSequence(f"increases at position {j + 1}: {self.b}")
        for j, value in enumerate(self.b, start=1):
            if value < n + 1 - j:
                raise InvalidBSequence(
                    f"entry {value} at position {j} below the anti-diagonal"
                )

    def __len__(self) -> int:
        return len(self.b)


def rotem_b_sequence(x: Permutation) -> BSequence:
    """b_i repeats the previous value at a ltr minimum and is x_i - 1 elsewhere.

    >>> rotem_b_sequence(Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2))).b
    (11, 10, 10, 9, 9, 8, 6, 4, 4, 4, 1)
    >>> rotem_b_sequence(Permutation.from_digits("4321")).b
    (4, 4, 4, 4)
    >>> rotem_b_sequence(Permutation.from_digits("231")).b
    (3, 2, 2)
    """
    if contains_classical(x, PATTERN_123):
        raise Not123Avoider(f"{x} contains 123")
    n = len(x)
    min_positions = {pos for pos, _ in ltr_minima(x)}
    b: list[int] = []
    prev = n
    for pos, value in enumerate(x, start=1):
        prev = prev if pos in min_positions else value - 1
        b.append(prev)
    return BSequence(tuple(b))


def b_to_dyck(b: BSequence) -> DyckPath:
    """Rotate the staircase profile into a path: one rise per entry, then
    as many falls as the profile drops (to zero after the last entry).

    >>> str(b_to_dyck(BSequence((11, 10, 10, 9, 9, 8, 6, 4, 4, 4, 1))))
    'uduuduududdudduuudddud'
    >>> str(b_to_dyck(BSequence((4, 4, 4, 4))))
    'uuuudddd'
    """
    n = len(b)
    pieces = []
    for i in range(n):
        nxt = b.b[i + 1] if i + 1 < n else 0
        pieces.append("u" + "d" * (b.b[i] - nxt))
    return DyckPath("".join(pieces))


def rotem_map(x: Permutation) -> DyckPath:
    """The Dyck path of a 123-avoider; a bijection onto paths of semilength n.

    >>> str(rotem_map(Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2))))
    'uduuduududdudduuudddud'
    >>> str(rotem_map(Permutation.from_digits("4321")))
    'uuuudddd'
    """
    return b_to_dyck(rotem_b_sequence(x))


def contains_factor(p: DyckPath, w: str) -> bool:
    """Whether w occurs as a contiguous block of p.  The empty factor always does.

    >>> contains_factor(DyckPath("uduuduududdudduuudddud"), FACTOR_DUDU)
    False
    >>> contains_factor(DyckPath("ududud"), "dudu")
    True
    >>> contains_factor(DyckPath("uuuddd"), "dudu")
    False
    """
    return w in p.word


def _require_semilength(n: int) -> None:
    if n < 0:
        raise ValueError("semilength must be nonnegative")


def dyck_paths(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n, in lexicographic order with u < d.

    >>> [str(p) for p in dyck_paths(2)]
    ['uudd', 'udud']
    """
    _require_semilength(n)
    if n > DEFAULT_SEMILENGTH_CAP:
        raise SemilengthTooLarge(f"semilength {n} above the cap {DEFAULT_SEMILENGTH_CAP}")

    word: list[str] = []

    def rec(ups: int, downs: int) -> Iterator[DyckPath]:
        if ups == downs == 0:
            yield DyckPath("".join(word))
            return
        if ups > 0:
            word.append("u")
            yield from rec(ups - 1, downs)
            word.pop()
        if downs > ups:
            word.append("d")
            yield from rec(ups, downs - 1)
            word.pop()

    return rec(n, n)


def _factor_automaton(w: str) -> tuple[dict[str, int], ...]:
    """KMP automaton of a non-empty w over the letters u and d.

    Row q gives, for each letter, the length of the longest prefix of w
    that ends the text w[:q] + letter; reaching len(w) means w occurred.
    """
    rows = []
    for q in range(len(w)):
        row = {}
        for letter in "ud":
            text = w[:q] + letter
            k = min(len(w), len(text))
            while k and not text.endswith(w[:k]):
                k -= 1
            row[letter] = k
        rows.append(row)
    return tuple(rows)


def count_dyck_avoiding(n: int, w: str) -> int:
    """How many Dyck paths of semilength n have no factor w.

    A transfer-matrix count over (height, KMP state of w), one step at a
    time, dropping every step that would complete w.  The empty factor
    occurs in every path, so it leaves none.  No count exceeds C_n, so it
    refuses n where ``sequences.catalan`` does, from 69, where C_n leaves
    128 bits.  A bound on the count alone would never refuse ``ud``, whose
    count stays 0.

    >>> [count_dyck_avoiding(n, FACTOR_DUDU) for n in range(1, 7)]
    [1, 2, 4, 10, 26, 72]
    >>> count_dyck_avoiding(3, "")
    0
    """
    from .sequences import catalan  # here, so that dyck --perm loads only dyck

    _require_semilength(n)
    catalan(n)
    if not w:
        return 0
    automaton = _factor_automaton(w)
    ways = {(0, 0): 1}  # (height, state) -> number of prefixes
    for _ in range(2 * n):
        nxt: dict[tuple[int, int], int] = {}
        for (height, state), count in ways.items():
            for letter, h in (("u", height + 1), ("d", height - 1)):
                q = automaton[state][letter]
                if h >= 0 and q < len(w):
                    nxt[h, q] = nxt.get((h, q), 0) + count
        ways = nxt
    return sum(count for (height, _), count in ways.items() if height == 0)
