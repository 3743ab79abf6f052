"""Brute-force enumeration, verification suites, and result caching.

Everything counted or claimed elsewhere in the package is re-derived here
by exhaustive scans at desk scale: sortable sets are enumerated machine
pass by machine pass, structural claims are checked pointwise over whole
symmetric groups, and count rows are aligned against reference sequences.
A failed check is reported with counterexamples rather than raised, so a
false claim shows up loudly in the report and in the exit code without
taking the rest of the suite down with it.

Scans partition S_n by first entry into n blocks.  Blocks are merged in
first-entry order and the merge is plain summation, so results do not
depend on how many workers processed them; reports and results serialize
to the same bytes whatever the worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .dyck import (
    FACTOR_DUDU,
    cell_capacity_ok,
    contains_factor,
    count_dyck_avoiding,
    dyck_paths,
    grid_cells,
    rotem_b_sequence,
    rotem_map,
)
from .machine import (
    _compile,
    _compile_pair,
    _sortable_word,
    is_sortable,
    pattern_name,
    pattern_stack_pass,
)
from .perms import (
    DEFAULT_GENERATION_CAP,
    LengthTooLarge,
    PATTERN_123,
    PATTERN_132,
    PATTERN_213,
    PATTERN_231,
    PATTERN_312,
    PATTERN_321,
    PatternSet,
    Permutation,
    STAR_123,
    STAR_132,
    SUITE_CAPS,
    avoiders,
    contains_bivincular,
    contains_classical,
    format_permutation,
    index_of,
    insert_one_at,
    smallest_k,
    swap12,
)
from .sequences import (
    SequenceTable,
    binomial_transform_catalan,
    catalan,
    g_sequence,
    powers_2_shifted,
    schroder_large,
    sort_123_321_closed,
)
from .signatures import (
    _signatures,
    active_sites,
    format_signature,
    has_plateau,
    signature,
    west_map,
)

PASS = "pass"
FAIL = "fail"

#: Above this length, enumeration drops witnesses unless asked to keep them.
WITNESS_DEFAULT_MAX = 8

ENGINE_VERSION = "1"
CACHE_ENV_VAR = "STACKSORT_CACHE_DIR"

#: Reference prefixes, each with the offset its row comparison established
#: empirically and the generator that recomputes it up to the prefix's last
#: index.  The single-123 machine has no independent reference available
#: offline, so its prefix was frozen from this package's own enumeration, has
#: no generator and acts as a regression guard only.
REFERENCE_ROWS: tuple[tuple[SequenceTable, Callable[[int], SequenceTable] | None], ...] = (
    (SequenceTable("A000108", 0, (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)), catalan),
    (
        SequenceTable("A006318", 0, (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098)),
        schroder_large,
    ),
    (
        SequenceTable("A007317", 0, (1, 2, 5, 15, 51, 188, 731, 2950, 12235, 51822)),
        binomial_transform_catalan,
    ),
    (SequenceTable("A011782", 0, (1, 1, 2, 4, 8, 16, 32, 64, 128, 256)), powers_2_shifted),
    (SequenceTable("A102407", 1, (1, 2, 4, 10, 26, 72, 206, 606)), g_sequence),
    (SequenceTable("A294790", 1, (1, 2, 5, 13, 35, 99, 295, 920)), None),
)

#: The reference prefixes keyed by catalog id.
OEIS_PREFIXES: Mapping[str, SequenceTable] = {table.name: table for table, _ in REFERENCE_ROWS}


class CorruptCacheEntry(UserWarning):
    """A cache file exists but cannot be trusted; it is treated as a miss."""


class CacheStoreFailed(UserWarning):
    """A result could not be written to the cache; it is returned all the same."""


# ---- enumeration --------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    """Count (and optionally the members) of one machine's sortable set."""

    machine: tuple[str, ...]
    n: int
    count: int
    witnesses: tuple[Permutation, ...] | None
    worker_partitions: int

    def __post_init__(self) -> None:
        if self.witnesses is not None and len(self.witnesses) != self.count:
            raise ValueError("witness list disagrees with the count")

    def to_json_dict(self) -> dict:
        return {
            "machine": list(self.machine),
            "n": self.n,
            "count": self.count,
            "witnesses": None
            if self.witnesses is None
            else [format_permutation(w) for w in self.witnesses],
            "worker_partitions": self.worker_partitions,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EnumerationResult":
        witnesses = data["witnesses"]
        if witnesses is not None and not all(isinstance(w, str) for w in witnesses):
            raise TypeError("witnesses must be permutation strings")
        return cls(
            tuple(data["machine"]),
            data["n"],
            data["count"],
            None
            if witnesses is None
            else tuple(
                Permutation(tuple(int(t) for t in w.split())) for w in witnesses
            ),
            data["worker_partitions"],
        )


def _scan_block(args: tuple[int, int, tuple[str, ...], bool]) -> tuple[int, tuple]:
    """Count sortable permutations of S_n whose first entry is fixed."""
    n, first, tokens, keep = args
    compiled = _compile(PatternSet.of(*(Permutation.from_digits(t) for t in tokens)))
    rest = [v for v in range(1, n + 1) if v != first]
    count = 0
    found = []
    for tail in itertools.permutations(rest):
        word = (first, *tail)
        if _sortable_word(word, compiled):
            count += 1
            if keep:
                found.append(word)
    return count, tuple(found)


def _enumerate(
    n: int,
    patterns: tuple[Permutation, ...],
    keep_witnesses: bool | None,
    workers: int,
    cap: int,
) -> EnumerationResult:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise LengthTooLarge(f"n={n} above the enumeration cap {cap}")
    keep = (n <= WITNESS_DEFAULT_MAX) if keep_witnesses is None else keep_witnesses
    tokens = tuple(pattern_name(p) for p in patterns)
    if n == 0:
        witnesses = (Permutation(()),) if keep else None
        return EnumerationResult(tokens, 0, 1, witnesses, 1)

    blocks = [(n, first, tokens, keep) for first in range(1, n + 1)]
    if workers <= 1:
        parts = [_scan_block(block) for block in blocks]
    else:
        # imported only here: the pool loads multiprocessing and logging, which
        # would otherwise slow the start of every CLI process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            parts = list(pool.map(_scan_block, blocks))

    count = sum(part_count for part_count, _ in parts)
    witnesses = (
        tuple(Permutation(w) for _, words in parts for w in words) if keep else None
    )
    return EnumerationResult(tokens, n, count, witnesses, len(blocks))


def enumerate_sortable(
    n: int,
    sigma: Permutation,
    tau: Permutation,
    keep_witnesses: bool | None = None,
    workers: int = 1,
    cap: int = DEFAULT_GENERATION_CAP,
) -> EnumerationResult:
    """Scan S_n for the permutations the (sigma, tau) machine sorts."""
    _compile_pair(sigma, tau)
    return _enumerate(n, (sigma, tau), keep_witnesses, workers, cap)


def enumerate_single_machine(
    n: int,
    sigma: Permutation,
    keep_witnesses: bool | None = None,
    workers: int = 1,
    cap: int = DEFAULT_GENERATION_CAP,
) -> EnumerationResult:
    """Same scan with a one-pattern stack."""
    _compile(PatternSet.of(sigma))
    return _enumerate(n, (sigma,), keep_witnesses, workers, cap)


# ---- reports -------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim checked over a range of lengths."""

    claim_id: str
    n_range: tuple[int, int]
    status: str
    counterexamples: tuple[str, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        if (self.status == PASS) != (not self.counterexamples):
            raise ValueError("pass status must agree with an empty counterexample list")

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "n_range": list(self.n_range),
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SuiteReport:
    """All claims of one verification suite, in a fixed order."""

    suite: str
    n_max: int
    claims: tuple[VerificationReport, ...]

    @property
    def passed(self) -> bool:
        return all(claim.status == PASS for claim in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "passed": self.passed,
            "claims": [claim.to_json_dict() for claim in self.claims],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (n_max={self.n_max}): "
                 f"{'all claims hold' if self.passed else 'FAILURES'}"]
        for claim in self.claims:
            lo, hi = claim.n_range
            mark = "ok  " if claim.status == PASS else "FAIL"
            suffix = f"  [{claim.detail}]" if claim.detail else ""
            lines.append(f"  {mark} {claim.claim_id} (n={lo}..{hi}){suffix}")
            for ce in claim.counterexamples:
                lines.append(f"         {ce}")
        return "\n".join(lines)


_COUNTEREXAMPLE_LIMIT = 5


def _claim(
    claim_id: str,
    lo: int,
    hi: int,
    counterexamples: Sequence[str],
    detail: str = "",
) -> VerificationReport:
    shown = tuple(counterexamples[:_COUNTEREXAMPLE_LIMIT])
    overflow = len(counterexamples) - len(shown)
    if overflow > 0:
        shown += (f"... and {overflow} more",)
    status = PASS if not counterexamples else FAIL
    return VerificationReport(claim_id, (lo, hi), status, shown, detail)


def _require_n_max(n_max: int, suite: str) -> None:
    cap = SUITE_CAPS[suite]
    if not 0 <= n_max <= cap:
        raise ValueError(f"{suite} runs for n_max in 0..{cap}, got {n_max}")


# ---- suites --------------------------------------------------------------


def verify_characterization(n_max: int = 7, workers: int = 1) -> SuiteReport:
    """The (132,321)-sortable permutations are exactly the 123-avoiders
    with no adjacent-middle 132; their counts follow the g recurrence."""
    _require_n_max(n_max, "characterization")
    g = g_sequence(n_max)
    set_bad: list[str] = []
    count_bad: list[str] = []
    for n in range(n_max + 1):
        scan = _enumerate(n, (PATTERN_132, PATTERN_321), True, workers, DEFAULT_GENERATION_CAP)
        sortable = set(scan.witnesses)
        avoiding = set(avoiders(n, PatternSet.of(PATTERN_123, STAR_132)))
        for x in sorted(sortable ^ avoiding, key=lambda p: p.entries):
            side = "sortable only" if x in sortable else "avoider only"
            set_bad.append(f"n={n}: {x} ({side})")
        if len(sortable) != g[n]:
            count_bad.append(f"n={n}: counted {len(sortable)}, recurrence gives {g[n]}")
    return SuiteReport(
        "characterization",
        n_max,
        (
            _claim("sortable-set-equals-avoider-set", 0, n_max, set_bad),
            _claim("sortable-counts-follow-recurrence", 0, n_max, count_bad),
        ),
    )


def _west_golden_claim() -> VerificationReport:
    bad: list[str] = []
    x = Permutation.from_digits("45231")
    sig = signature(x, PATTERN_132)
    if sig != (4, 4, 3, 3, 2):
        bad.append(f"signature of 45231 is {sig}")
    if format_signature(sig) != "4.4.3.3.2":
        bad.append(f"signature renders as {format_signature(sig)}")
    image = west_map(x, PATTERN_132, PATTERN_123)
    if image != Permutation.from_digits("42153"):
        bad.append(f"match of 45231 is {image}")
    if west_map(image, PATTERN_123, PATTERN_132) != x:
        bad.append("match of 42153 does not return 45231")
    return _claim("golden-pair-45231-42153", 5, 5, bad)


def verify_west(n_max: int = 7, workers: int = 1) -> SuiteReport:
    """Signature injectivity, the signature-matching bijection, the plateau
    criteria, and the structural facts feeding them.  Scans no S_n, so
    ``workers`` is accepted like every suite's and ignored."""
    _require_n_max(n_max, "west")
    inj123: list[str] = []
    inj132: list[str] = []
    multiset: list[str] = []
    last_two: list[str] = []
    bijection: list[str] = []
    restriction: list[str] = []
    plateau123: list[str] = []
    plateau132: list[str] = []
    removal: list[str] = []
    locate_max: list[str] = []
    interval: list[str] = []
    recursion: list[str] = []

    for n in range(n_max + 1):
        # avoider -> signature, in avoiders order
        av123 = _signatures(n, PATTERN_123)
        av132 = _signatures(n, PATTERN_132)
        for av, injectivity in ((av123, inj123), (av132, inj132)):
            owner = {}
            for x, sig in av.items():
                if sig in owner:
                    injectivity.append(f"n={n}: {x} and {owner[sig]} share {sig}")
                owner[sig] = x
        if set(av123.values()) != set(av132.values()):
            for sig in sorted(set(av123.values()) ^ set(av132.values())):
                multiset.append(f"n={n}: signature {format_signature(sig)} on one side only")
        for x, sig in av123.items():
            if n >= 1 and sig[-1] != 2:
                last_two.append(f"n={n}: signature of {x} ends in {sig[-1]}")
            if has_plateau(sig) != contains_bivincular(x, STAR_132):
                plateau123.append(f"n={n}: {x}")
            sites = sorted(active_sites(x, PATTERN_123))
            if sites != list(range(1, len(sites) + 1)):
                interval.append(f"n={n}: {x} has gap in {sites}")
            if n >= 2 and x.entries != tuple(range(n, 0, -1)):
                off_diagonal = [v for pos, v in enumerate(x, start=1) if v + pos != n + 1]
                expected = max(off_diagonal)
                if x.entries[len(sites) - 1] != expected:
                    locate_max.append(f"n={n}: {x}: entry at {len(sites)} is not {expected}")
        for x, sig in av132.items():
            if has_plateau(sig) != contains_bivincular(x, STAR_123):
                plateau132.append(f"n={n}: {x}")
            if n >= 1:
                act1 = active_sites(x, PATTERN_132)
                act2 = active_sites(smallest_k(x, n - 1), PATTERN_132)
                top = index_of(x, n)
                derived = {i for i in range(2, n + 2) if i - 1 in act2 and top <= i - 1 <= n}
                if act1 != derived | {1}:
                    recursion.append(f"n={n}: {x}")

        image = []
        for x in av132:
            y = west_map(x, PATTERN_132, PATTERN_123)
            image.append(y)
            if contains_classical(y, PATTERN_123):
                bijection.append(f"n={n}: image {y} of {x} contains 123")
            if west_map(y, PATTERN_123, PATTERN_132) != x:
                bijection.append(f"n={n}: round trip of {x} breaks")
        if sorted(p.entries for p in image) != sorted(p.entries for p in av123):
            bijection.append(f"n={n}: image is not all of the 123-avoiders")

        star_sources = set(avoiders(n, PatternSet.of(PATTERN_132, STAR_123)))
        star_targets = set(avoiders(n, PatternSet.of(PATTERN_123, STAR_132)))
        mapped = {west_map(x, PATTERN_132, PATTERN_123) for x in star_sources}
        if mapped != star_targets:
            for x in sorted(mapped ^ star_targets, key=lambda p: p.entries):
                restriction.append(f"n={n}: {x} on one side only")

        if n >= 1:
            for group, starred in ((star_targets, STAR_132), (star_sources, STAR_123)):
                for x in group:
                    if contains_bivincular(smallest_k(x, n - 1), starred):
                        removal.append(
                            f"n={n}: removing the max of {x} leaves the starred pattern"
                        )

    return SuiteReport(
        "west",
        n_max,
        (
            _west_golden_claim(),
            _claim("signature-determines-123-avoider", 0, n_max, inj123),
            _claim("signature-determines-132-avoider", 0, n_max, inj132),
            _claim("signature-sets-coincide", 0, n_max, multiset),
            _claim("signatures-end-in-two", 1, n_max, last_two),
            _claim("signature-matching-bijects-avoider-classes", 0, n_max, bijection),
            _claim("matching-restricts-to-starred-classes", 0, n_max, restriction),
            _claim("plateau-marks-adjacent-middle-132", 0, n_max, plateau123),
            _claim("plateau-marks-adjacent-middle-123", 0, n_max, plateau132),
            _claim("max-removal-keeps-starred-avoidance", 1, n_max, removal),
            _claim("first-active-count-locates-max", 2, n_max, locate_max),
            _claim("active-sites-form-prefix-interval", 0, n_max, interval),
            _claim("active-site-recursion-under-max-removal", 1, n_max, recursion),
        ),
    )


def _dyck_golden_claim() -> VerificationReport:
    bad: list[str] = []
    x = Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2))
    b = rotem_b_sequence(x)
    if b.b != (11, 10, 10, 9, 9, 8, 6, 4, 4, 4, 1):
        bad.append(f"b sequence is {b.b}")
    path = rotem_map(x)
    if str(path) != "uduuduududdudduuudddud":
        bad.append(f"path is {path}")
    grid = grid_cells(x)
    if grid.minima != (8, 6, 4, 3, 1):
        bad.append(f"minima are {grid.minima}")
    if grid.occupancy(3, 4) != 0:
        bad.append("cell (3,4) is occupied")
    if not cell_capacity_ok(x):
        bad.append("a cell holds two entries")
    if contains_factor(path, FACTOR_DUDU):
        bad.append("path contains dudu")
    return _claim("golden-grid-and-path", 11, 11, bad)


def verify_dyck(n_max: int = 7, workers: int = 1) -> SuiteReport:
    """The staircase map bijects 123-avoiders onto Dyck paths and turns the
    adjacent-middle 132 into a dudu factor; counts close the triangle.
    Scans no S_n, so ``workers`` is accepted like every suite's and ignored."""
    _require_n_max(n_max, "dyck")
    g = g_sequence(n_max)
    bijection: list[str] = []
    capacity: list[str] = []
    factor: list[str] = []
    counts: list[str] = []
    for n in range(n_max + 1):
        av = list(avoiders(n, PatternSet.of(PATTERN_123)))
        images = [rotem_map(x) for x in av]
        if len({str(p) for p in images}) != len(av):
            bijection.append(f"n={n}: map is not injective")
        paths = list(dyck_paths(n))
        if {str(p) for p in images} != {str(p) for p in paths}:
            bijection.append(f"n={n}: image misses some paths")
        for x, path in zip(av, images):
            starred = contains_bivincular(x, STAR_132)
            if n >= 1 and cell_capacity_ok(x) != (not starred):
                capacity.append(f"n={n}: {x}")
            if contains_factor(path, FACTOR_DUDU) != starred:
                factor.append(f"n={n}: {x} -> {path}")
        scanned = sum(not contains_factor(p, FACTOR_DUDU) for p in paths)
        automaton = count_dyck_avoiding(n, FACTOR_DUDU)
        avoider_count = sum(
            1 for _ in avoiders(n, PatternSet.of(PATTERN_123, STAR_132))
        )
        if not (scanned == automaton == avoider_count == g[n]):
            counts.append(
                f"n={n}: path scan {scanned}, automaton {automaton}, "
                f"avoiders {avoider_count}, recurrence {g[n]}"
            )
    return SuiteReport(
        "dyck",
        n_max,
        (
            _dyck_golden_claim(),
            _claim("staircase-map-bijects-onto-paths", 0, n_max, bijection),
            _claim("cell-capacity-marks-adjacent-middle-132", 1, n_max, capacity),
            _claim("dudu-factor-marks-adjacent-middle-132", 0, n_max, factor),
            _claim("path-counts-close-the-triangle", 0, n_max, counts),
        ),
    )


def verify_sortable_structure(n_max: int = 8, workers: int = 1) -> SuiteReport:
    """Shape of the (123,321)-sortable set: forced ends, forced max position,
    the swap and append closures, and the doubling count."""
    _require_n_max(n_max, "structure")
    counts: list[str] = []
    av123: list[str] = []
    first_entry: list[str] = []
    last_entry: list[str] = []
    max_pos: list[str] = []
    out21: list[str] = []
    swap_fix: list[str] = []
    append_iff: list[str] = []
    machine_pair = (PATTERN_123, PATTERN_321)

    for n in range(1, n_max + 1):
        sortable = _enumerate(n, machine_pair, True, workers, DEFAULT_GENERATION_CAP).witnesses
        if len(sortable) != sort_123_321_closed(n):
            counts.append(
                f"n={n}: counted {len(sortable)}, closed form {sort_123_321_closed(n)}"
            )
        if n >= 4:
            for x in sortable:
                if contains_classical(x, PATTERN_123):
                    av123.append(f"n={n}: {x}")
                if x.entries[0] not in (n - 1, n):
                    first_entry.append(f"n={n}: {x}")
                if x.entries[-1] not in (1, 2):
                    last_entry.append(f"n={n}: {x}")
                mid = pattern_stack_pass(x, PatternSet.of(*machine_pair))
                one_at = mid.entries.index(1)
                if one_at == 0 or mid.entries[one_at - 1] != 2:
                    out21.append(f"n={n}: {x} -> {mid}")
            if n >= 5:
                for x in sortable:
                    if index_of(x, n) >= min(index_of(x, 1), index_of(x, 2)):
                        max_pos.append(f"n={n}: {x}")
                    mid = pattern_stack_pass(x, PatternSet.of(*machine_pair))
                    swapped_mid = pattern_stack_pass(
                        swap12(x), PatternSet.of(*machine_pair)
                    )
                    if mid != swapped_mid:
                        swap_fix.append(f"n={n}: {x}: {mid} vs {swapped_mid}")
            sortable_lookup = set(sortable)
            for word in itertools.permutations(range(1, n + 1)):
                x = Permutation(word)
                grown = insert_one_at(x, n + 1)
                if is_sortable(grown, *machine_pair) != (x in sortable_lookup):
                    append_iff.append(f"n={n}: {x}")

    return SuiteReport(
        "structure",
        n_max,
        (
            _claim("counts-match-closed-form", 1, n_max, counts),
            _claim("sortable-avoids-123", 4, n_max, av123),
            _claim("first-entry-is-top-two", 4, n_max, first_entry),
            _claim("last-entry-is-bottom-two", 4, n_max, last_entry),
            _claim("max-precedes-one-and-two", 5, n_max, max_pos),
            _claim("pass-output-pairs-two-one", 4, n_max, out21),
            _claim("swap-of-top-two-fixes-pass-output", 5, n_max, swap_fix),
            _claim("appending-new-max-marks-sortable", 4, n_max, append_iff),
        ),
    )


# ---- count rows against reference sequences ------------------------------


def _count_row(
    n_max: int, patterns: tuple[Permutation, ...], workers: int = 1
) -> list[int]:
    return [
        _enumerate(n, patterns, False, workers, DEFAULT_GENERATION_CAP).count
        for n in range(1, n_max + 1)
    ]


def find_alignment(
    row: Sequence[int], table: SequenceTable, max_shift: int = 3
) -> int | None:
    """The shift d with row[n] = table[n + d] wherever the table covers n.

    Row indices start at 1.  A shift only counts when the overlap is the
    whole row or at least four terms, so a short reference prefix cannot
    certify an alignment by accident.  Returns the smallest-magnitude d
    (ties toward negative) so reports stay deterministic; None if nothing
    fits.
    """
    shifts = sorted(range(-max_shift, max_shift + 1), key=lambda d: (abs(d), d))
    lo, hi = table.offset, table.offset + len(table.terms) - 1
    for d in shifts:
        covered = [n for n in range(1, len(row) + 1) if lo <= n + d <= hi]
        if len(covered) < min(len(row), 4):
            continue
        if all(row[n - 1] == table[n + d] for n in covered):
            return d
    return None


#: Count rows checked by the tables suite: display name, machine patterns,
#: catalog id of the expected reference prefix.
TABLE_ROWS: tuple[tuple[str, tuple[Permutation, ...], str], ...] = (
    ("123+213", (PATTERN_123, PATTERN_213), "A000108"),
    ("132+312", (PATTERN_132, PATTERN_312), "A000108"),
    ("231+321", (PATTERN_231, PATTERN_321), "A000108"),
    ("123+132", (PATTERN_123, PATTERN_132), "A000108"),
    ("123+231", (PATTERN_123, PATTERN_231), "A006318"),
    ("132+231", (PATTERN_132, PATTERN_231), "A006318"),
    ("123+312", (PATTERN_123, PATTERN_312), "A007317"),
    ("132+321", (PATTERN_132, PATTERN_321), "A102407"),
    ("132", (PATTERN_132,), "A007317"),
    ("321", (PATTERN_321,), "A011782"),
    ("123", (PATTERN_123,), "A294790"),
)


def verify_tables(n_max: int = 8, workers: int = 1) -> SuiteReport:
    """Brute-force count rows for the classical machine pairs and singles,
    aligned against the reference prefixes; plus the closed form for the
    (123,321) pair and agreement of generated and embedded references."""
    _require_n_max(n_max, "tables")
    claims: list[VerificationReport] = []

    mismatched = []
    for table, generate in REFERENCE_ROWS:
        if generate is not None:
            last = table.offset + len(table.terms) - 1
            generated = generate(last)
            shared = range(max(table.offset, generated.offset), last + 1)
            if any(generated[k] != table[k] for k in shared):
                mismatched.append(
                    f"{table.name}: generated {generated.terms} vs embedded {table.terms}"
                )
    claims.append(_claim("references-match-embedded-prefixes", 0, 9, mismatched))

    for label, patterns, reference in TABLE_ROWS:
        row = _count_row(n_max, patterns, workers)
        table = OEIS_PREFIXES[reference]
        shift = find_alignment(row, table)
        if shift is None:
            bad = [
                f"machine row  (n=1..{n_max}): {row}",
                f"{reference} prefix (offset {table.offset}): {list(table.terms)}",
            ]
            claims.append(
                _claim(f"row-{label}-matches-{reference}", 1, n_max, bad,
                       detail="no shift aligns the row with the reference")
            )
        else:
            claims.append(
                _claim(f"row-{label}-matches-{reference}", 1, n_max, (),
                       detail=f"aligned at shift {shift:+d}")
            )

    closed_row = _count_row(n_max, (PATTERN_123, PATTERN_321), workers)
    closed_bad = [
        f"n={n}: counted {closed_row[n - 1]}, closed form {sort_123_321_closed(n)}"
        for n in range(1, n_max + 1)
        if closed_row[n - 1] != sort_123_321_closed(n)
    ]
    claims.append(_claim("row-123+321-matches-closed-form", 1, n_max, closed_bad))

    return SuiteReport("tables", n_max, tuple(claims))


# ---- the equidistribution conjecture -------------------------------------


@dataclass(frozen=True)
class DistributionTable:
    """Sortable-set statistics refined by first entry and by max position."""

    machine: tuple[str, ...]
    n: int
    by_first_entry: Mapping[int, int] = field(hash=False)
    by_position_of_max: Mapping[int, int] = field(hash=False)

    def total(self) -> int:
        return sum(self.by_first_entry.values())

    def to_json_dict(self) -> dict:
        return {
            "machine": list(self.machine),
            "n": self.n,
            "by_first_entry": {
                str(k): self.by_first_entry[k] for k in sorted(self.by_first_entry)
            },
            "by_position_of_max": {
                str(k): self.by_position_of_max[k]
                for k in sorted(self.by_position_of_max)
            },
        }


def _distribution(n: int, patterns: tuple[Permutation, ...], workers: int) -> DistributionTable:
    members = _enumerate(n, patterns, True, workers, DEFAULT_GENERATION_CAP).witnesses
    first: dict[int, int] = {}
    max_pos: dict[int, int] = {}
    for x in members:
        head = x.entries[0] if n else 0
        first[head] = first.get(head, 0) + 1
        pos = index_of(x, n) if n else 0
        max_pos[pos] = max_pos.get(pos, 0) + 1
    return DistributionTable(
        tuple(pattern_name(p) for p in patterns), n, first, max_pos
    )


def conjecture_tables(
    n: int,
    pair_a: tuple[Permutation, Permutation] = (PATTERN_132, PATTERN_213),
    pair_b: tuple[Permutation, Permutation] = (PATTERN_213, PATTERN_312),
    workers: int = 1,
) -> tuple[DistributionTable, DistributionTable, SuiteReport]:
    """Refined counts for two machines and whether they agree entry for entry.

    Agreement here is evidence, not proof: the claim is open, so a clean
    pass at desk scale says nothing beyond the lengths actually scanned,
    and any disagreement must surface as a failed claim.
    """
    cap = SUITE_CAPS["conjecture"]
    if not 0 <= n <= cap:
        raise ValueError(f"conjecture tables run for n in 0..{cap}, got {n}")
    table_a = _distribution(n, pair_a, workers)
    table_b = _distribution(n, pair_b, workers)
    totals: list[str] = []
    firsts: list[str] = []
    max_positions: list[str] = []
    partition: list[str] = []
    if table_a.total() != table_b.total():
        totals.append(f"n={n}: {table_a.total()} vs {table_b.total()}")
    if dict(table_a.by_first_entry) != dict(table_b.by_first_entry):
        firsts.append(
            f"n={n}: {dict(sorted(table_a.by_first_entry.items()))}"
            f" vs {dict(sorted(table_b.by_first_entry.items()))}"
        )
    if dict(table_a.by_position_of_max) != dict(table_b.by_position_of_max):
        max_positions.append(
            f"n={n}: {dict(sorted(table_a.by_position_of_max.items()))}"
            f" vs {dict(sorted(table_b.by_position_of_max.items()))}"
        )
    for table in (table_a, table_b):
        if sum(table.by_position_of_max.values()) != table.total():
            partition.append(f"n={n}: {table.machine} tables sum differently")
    report = SuiteReport(
        "conjecture",
        n,
        (
            _claim("totals-agree", n, n, totals),
            _claim("first-entry-distributions-agree", n, n, firsts),
            _claim("max-position-distributions-agree", n, n, max_positions),
            _claim("statistics-partition-the-totals", n, n, partition),
        ),
    )
    return table_a, table_b, report


def verify_conjecture(n_max: int = 8, workers: int = 1) -> SuiteReport:
    """conjecture_tables over every length up to n_max, merged into one report."""
    _require_n_max(n_max, "conjecture")
    merged: dict[str, list[str]] = {}
    # n=0 yields no counterexamples; it supplies the claim ids when n_max is 0
    for n in range(n_max + 1):
        _, _, report = conjecture_tables(n, workers=workers)
        for claim in report.claims:
            merged.setdefault(claim.claim_id, []).extend(claim.counterexamples)
    return SuiteReport(
        "conjecture",
        n_max,
        tuple(
            _claim(claim_id, 1, n_max, counterexamples)
            for claim_id, counterexamples in merged.items()
        ),
    )


SUITES = {
    "characterization": verify_characterization,
    "west": verify_west,
    "dyck": verify_dyck,
    "structure": verify_sortable_structure,
    "tables": verify_tables,
    "conjecture": verify_conjecture,
}

def run_suites(
    names: Iterable[str], n_max: int, workers: int = 1
) -> list[SuiteReport]:
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        reports.append(SUITES[name](min(n_max, SUITE_CAPS[name]), workers=workers))
    return reports


# ---- caching --------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "stacksort"


def _cache_key(machine: Sequence[str], n: int) -> str:
    raw = f"{'|'.join(machine)}|n={n}|v={ENGINE_VERSION}"
    return hashlib.sha256(raw.encode()).hexdigest()


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cache_store(result: EnumerationResult, cache_dir: Path | str | None = None) -> Path:
    """Write one result atomically; the file name is the key digest."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    payload = result.to_json_dict()
    document = {
        "version": ENGINE_VERSION,
        "machine": list(result.machine),
        "n": result.n,
        "checksum": hashlib.sha256(_canonical(payload).encode()).hexdigest(),
        "result": payload,
    }
    target = directory / f"{_cache_key(result.machine, result.n)}.json"
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, suffix=".tmp", delete=False
    )
    try:
        with handle:
            json.dump(document, handle, sort_keys=True, indent=1)
        os.replace(handle.name, target)
    except BaseException:
        os.unlink(handle.name)
        raise
    return target


def cache_load(
    machine: Sequence[str], n: int, cache_dir: Path | str | None = None
) -> EnumerationResult | None:
    """Reload a stored result; anything untrustworthy is a miss.

    A missing file or a version from another engine generation is an
    ordinary miss.  An entry that cannot be read, fails parsing or its
    checksum, or holds the result for another machine or length, warns with
    CorruptCacheEntry and is then treated as a miss too.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    target = directory / f"{_cache_key(machine, n)}.json"
    if not target.exists():
        return None
    try:
        document = json.loads(target.read_text())
        if not isinstance(document, dict):
            raise ValueError("not a JSON object")
        if document.get("version") != ENGINE_VERSION:
            return None
        payload = document["result"]
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        if digest != document["checksum"]:
            raise ValueError("checksum mismatch")
        result = EnumerationResult.from_json_dict(payload)
        if list(result.machine) != list(machine) or result.n != n:
            raise ValueError(f"entry holds machine {list(result.machine)}, n={result.n}")
        return result
    except (OSError, ValueError, KeyError, TypeError) as error:
        warnings.warn(
            f"discarding unreadable cache entry {target.name}: {error}",
            CorruptCacheEntry,
            stacklevel=2,
        )
        return None


def enumerate_cached(
    n: int,
    sigma: Permutation,
    tau: Permutation | None = None,
    workers: int = 1,
    cache_dir: Path | str | None = None,
) -> tuple[EnumerationResult, bool]:
    """Cache-aware enumeration; the flag reports whether the cache answered."""
    patterns = (sigma,) if tau is None else (sigma, tau)
    tokens = tuple(pattern_name(p) for p in patterns)
    hit = cache_load(tokens, n, cache_dir)
    if hit is not None:
        return hit, True
    if tau is None:
        result = enumerate_single_machine(n, sigma, workers=workers)
    else:
        result = enumerate_sortable(n, sigma, tau, workers=workers)
    try:
        cache_store(result, cache_dir)
    except OSError as error:
        warnings.warn(
            f"could not store the result in the cache: {error}",
            CacheStoreFailed,
            stacklevel=2,
        )
    return result, False
