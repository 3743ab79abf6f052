"""The verification suites: brute-force rechecks of the paper's claims.

Each suite is a function ``(n_max, workers) -> SuiteReport`` that checks one
family of claims pointwise over every length up to ``n_max``:
characterization (the (132,321)-sortable set and its count), west (the
signatures and the signature-matching bijection), dyck (the staircase
encoding of 123-avoiders), structure (the (123,321)-sortable set), and
tables (count rows aligned against reference sequences).  A suite declares
each claim once, as its id and the first length it holds from, and a
generator yields (claim id, n, detail) for every counterexample;
``harness._report`` turns the two into the report.  Claims checked at fixed
lengths (the golden examples, the table rows) are built whole and go first.
A failed check becomes a counterexample in the report, never an exception:
a check reads the classes and maps its suite built once per length, and
never hands an answer under check back to a layer that refuses it.

``SUITES`` names them all, together with the conjecture suite, which stays
in ``harness`` beside ``conjecture_tables``.  This module imports every
layer, so ``harness.run_suites`` loads it only when a suite runs, and an
enumeration answered from the cache never does.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
from .harness import (
    Failure,
    SuiteReport,
    VerificationReport,
    _claim,
    _enumerate,
    _report,
    _require_n_max,
    verify_conjecture,
)
from .machine import is_sortable, pattern_stack_pass
from .perms import (
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
    avoiders,
    contains_bivincular,
    contains_classical,
    index_of,
    insert_one_at,
    pattern_name,
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


# ---- suites --------------------------------------------------------------


def verify_characterization(n_max: int, workers: int = 1) -> SuiteReport:
    """The (132,321)-sortable permutations are exactly the 123-avoiders
    with no adjacent-middle 132; their counts follow the g recurrence."""
    _require_n_max(n_max, "characterization")
    claims = (
        ("sortable-set-equals-avoider-set", 0),
        ("sortable-counts-follow-recurrence", 0),
    )
    return _report("characterization", n_max, claims, _characterization_failures(n_max, workers))


def _characterization_failures(n_max: int, workers: int) -> Iterator[Failure]:
    g = g_sequence(n_max)
    for n in range(n_max + 1):
        scan = _enumerate(n, (PATTERN_132, PATTERN_321), True, workers)
        sortable = set(scan.witnesses)
        avoiding = set(avoiders(n, PatternSet.of(PATTERN_123, STAR_132)))
        for x in sorted(sortable ^ avoiding, key=lambda p: p.entries):
            side = "sortable only" if x in sortable else "avoider only"
            yield "sortable-set-equals-avoider-set", n, f"{x} ({side})"
        if len(sortable) != g[n]:
            yield ("sortable-counts-follow-recurrence", n,
                   f"counted {len(sortable)}, recurrence gives {g[n]}")


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


def verify_west(n_max: int, workers: int = 1) -> SuiteReport:
    """Signature injectivity, the signature-matching bijection, the plateau
    criteria, and the structural facts feeding them.  Scans no S_n, so
    ``workers`` is accepted like every suite's and ignored."""
    _require_n_max(n_max, "west")
    claims = (
        ("signature-determines-123-avoider", 0),
        ("signature-determines-132-avoider", 0),
        ("signature-sets-coincide", 0),
        ("signatures-end-in-two", 1),
        ("signature-matching-bijects-avoider-classes", 0),
        ("matching-restricts-to-starred-classes", 0),
        ("plateau-marks-adjacent-middle-132", 0),
        ("plateau-marks-adjacent-middle-123", 0),
        ("max-removal-keeps-starred-avoidance", 1),
        ("first-active-count-locates-max", 2),
        ("active-sites-form-prefix-interval", 0),
        ("active-site-recursion-under-max-removal", 1),
    )
    return _report("west", n_max, claims, _west_failures(n_max), fixed=(_west_golden_claim(),))


def _west_failures(n_max: int) -> Iterator[Failure]:
    for n in range(n_max + 1):
        # avoider -> signature, in avoiders order
        av123 = _signatures(n, PATTERN_123)
        av132 = _signatures(n, PATTERN_132)
        star_targets = {x for x in av123 if not contains_bivincular(x, STAR_132)}
        star_sources = {x for x in av132 if not contains_bivincular(x, STAR_123)}
        for av, claim_id in ((av123, "signature-determines-123-avoider"),
                             (av132, "signature-determines-132-avoider")):
            owner = {}
            for x, sig in av.items():
                if sig in owner:
                    yield claim_id, n, f"{x} and {owner[sig]} share {sig}"
                owner[sig] = x
        for sig in sorted(set(av123.values()) ^ set(av132.values())):
            yield ("signature-sets-coincide", n,
                   f"signature {format_signature(sig)} on one side only")
        for x, sig in av123.items():
            if n >= 1 and sig[-1] != 2:
                yield "signatures-end-in-two", n, f"signature of {x} ends in {sig[-1]}"
            if has_plateau(sig) != (x not in star_targets):
                yield "plateau-marks-adjacent-middle-132", n, str(x)
            sites = sorted(active_sites(x, PATTERN_123))
            if sites != list(range(1, len(sites) + 1)):
                yield "active-sites-form-prefix-interval", n, f"{x} has gap in {sites}"
            if n >= 2 and x.entries != tuple(range(n, 0, -1)):
                off_diagonal = [v for pos, v in enumerate(x, start=1) if v + pos != n + 1]
                expected = max(off_diagonal)
                if x.entries[len(sites) - 1:len(sites)] != (expected,):
                    yield ("first-active-count-locates-max", n,
                           f"{x}: entry at {len(sites)} is not {expected}")
        for x, sig in av132.items():
            if has_plateau(sig) != (x not in star_sources):
                yield "plateau-marks-adjacent-middle-123", n, str(x)
            if n >= 1:
                act1 = active_sites(x, PATTERN_132)
                act2 = active_sites(smallest_k(x, n - 1), PATTERN_132)
                top = index_of(x, n)
                derived = {i for i in range(2, n + 2) if i - 1 in act2 and top <= i - 1 <= n}
                if act1 != derived | {1}:
                    yield "active-site-recursion-under-max-removal", n, str(x)

        bijection = "signature-matching-bijects-avoider-classes"
        image = {x: west_map(x, PATTERN_132, PATTERN_123) for x in av132}
        for x, y in image.items():
            if y not in av123:
                yield bijection, n, f"image {y} of {x} is not a 123-avoider of length {n}"
            elif west_map(y, PATTERN_123, PATTERN_132) != x:
                yield bijection, n, f"round trip of {x} breaks"
        if sorted(p.entries for p in image.values()) != sorted(p.entries for p in av123):
            yield bijection, n, "image is not all of the 123-avoiders"

        mapped = {image[x] for x in star_sources}
        for x in sorted(mapped ^ star_targets, key=lambda p: p.entries):
            yield "matching-restricts-to-starred-classes", n, f"{x} on one side only"

        if n >= 1:
            for group, starred in ((star_targets, STAR_132), (star_sources, STAR_123)):
                for x in group:
                    if contains_bivincular(smallest_k(x, n - 1), starred):
                        yield ("max-removal-keeps-starred-avoidance", n,
                               f"removing the max of {x} leaves the starred pattern")


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


def verify_dyck(n_max: int, workers: int = 1) -> SuiteReport:
    """The staircase map bijects 123-avoiders onto Dyck paths and turns the
    adjacent-middle 132 into a dudu factor; counts close the triangle.
    Scans no S_n, so ``workers`` is accepted like every suite's and ignored."""
    _require_n_max(n_max, "dyck")
    claims = (
        ("staircase-map-bijects-onto-paths", 0),
        ("cell-capacity-marks-adjacent-middle-132", 1),
        ("dudu-factor-marks-adjacent-middle-132", 0),
        ("path-counts-close-the-triangle", 0),
    )
    return _report("dyck", n_max, claims, _dyck_failures(n_max), fixed=(_dyck_golden_claim(),))


def _dyck_failures(n_max: int) -> Iterator[Failure]:
    g = g_sequence(n_max)
    for n in range(n_max + 1):
        av = list(avoiders(n, PatternSet.of(PATTERN_123)))
        images = [rotem_map(x) for x in av]
        if len(set(images)) != len(av):
            yield "staircase-map-bijects-onto-paths", n, "map is not injective"
        paths = list(dyck_paths(n))
        if set(images) != set(paths):
            yield "staircase-map-bijects-onto-paths", n, "image misses some paths"
        avoider_count = 0
        for x, path in zip(av, images):
            starred = contains_bivincular(x, STAR_132)
            avoider_count += not starred
            if n >= 1 and cell_capacity_ok(x) != (not starred):
                yield "cell-capacity-marks-adjacent-middle-132", n, str(x)
            if contains_factor(path, FACTOR_DUDU) != starred:
                yield "dudu-factor-marks-adjacent-middle-132", n, f"{x} -> {path}"
        scanned = sum(not contains_factor(p, FACTOR_DUDU) for p in paths)
        automaton = count_dyck_avoiding(n, FACTOR_DUDU)
        if not (scanned == automaton == avoider_count == g[n]):
            yield ("path-counts-close-the-triangle", n,
                   f"path scan {scanned}, automaton {automaton}, "
                   f"avoiders {avoider_count}, recurrence {g[n]}")


#: Longest x for which the append closure checks all of S_n, not only the
#: sortable x: 40320 calls of ``is_sortable`` at length 8, 3628800 at 10.
APPEND_CLOSURE_FULL_MAX = 8


def verify_sortable_structure(n_max: int, workers: int = 1) -> SuiteReport:
    """Shape of the (123,321)-sortable set: forced ends, forced max position,
    the swap and append closures, and the doubling count.

    The append closure, ``appending-new-max-marks-sortable``, checks that
    appending a new smallest entry to x (``insert_one_at(x, n + 1)``) gives
    a sortable word exactly when x is sortable.  Appending a new maximum
    would never sort from length 4 on, where the last entry must be 1 or 2.
    Deleting the last entry of a sortable word keeps it sortable (pinned
    by ``tests/test_machine.py::test_deleting_the_last_entry_keeps_a_word_sortable``),
    so a non-sortable x never fails this claim.  Up to length
    ``APPEND_CLOSURE_FULL_MAX`` every x in S_n is checked anyway, as an
    independent check; above it only the sortable x are.
    """
    _require_n_max(n_max, "structure")
    claims = (
        ("counts-match-closed-form", 1),
        ("sortable-avoids-123", 4),
        ("first-entry-is-top-two", 4),
        ("last-entry-is-bottom-two", 4),
        ("max-precedes-one-and-two", 5),
        ("pass-output-pairs-two-one", 4),
        ("swap-of-top-two-fixes-pass-output", 5),
        # the id says "max" for a new minimum; perfbench/answers.json pins it
        ("appending-new-max-marks-sortable", 4),
    )
    return _report("structure", n_max, claims, _structure_failures(n_max, workers))


def _structure_failures(n_max: int, workers: int) -> Iterator[Failure]:
    machine_pair = (PATTERN_123, PATTERN_321)
    first_stack = PatternSet.of(*machine_pair)
    for n in range(1, n_max + 1):
        sortable = _enumerate(n, machine_pair, True, workers).witnesses
        if len(sortable) != sort_123_321_closed(n):
            yield ("counts-match-closed-form", n,
                   f"counted {len(sortable)}, closed form {sort_123_321_closed(n)}")
        if n >= 4:
            for x in sortable:
                if contains_classical(x, PATTERN_123):
                    yield "sortable-avoids-123", n, str(x)
                if x.entries[0] not in (n - 1, n):
                    yield "first-entry-is-top-two", n, str(x)
                if x.entries[-1] not in (1, 2):
                    yield "last-entry-is-bottom-two", n, str(x)
                mid = pattern_stack_pass(x, first_stack)
                one_at = mid.entries.index(1)
                if one_at == 0 or mid.entries[one_at - 1] != 2:
                    yield "pass-output-pairs-two-one", n, f"{x} -> {mid}"
                if n >= 5:
                    if index_of(x, n) >= min(index_of(x, 1), index_of(x, 2)):
                        yield "max-precedes-one-and-two", n, str(x)
                    swapped_mid = pattern_stack_pass(swap12(x), first_stack)
                    if mid != swapped_mid:
                        yield ("swap-of-top-two-fixes-pass-output", n,
                               f"{x}: {mid} vs {swapped_mid}")
            if n <= APPEND_CLOSURE_FULL_MAX:
                xs = map(Permutation, itertools.permutations(range(1, n + 1)))
            else:
                xs = sortable
            yield from _append_closure_failures(n, machine_pair, sortable, xs)


def _append_closure_failures(
    n: int,
    machine_pair: tuple[Permutation, Permutation],
    sortable: Sequence[Permutation],
    xs: Iterable[Permutation],
) -> Iterator[Failure]:
    """x in xs whose grown word ``insert_one_at(x, n + 1)`` is sortable
    exactly when x is not in ``sortable``."""
    sortable_lookup = set(sortable)
    for x in xs:
        grown = insert_one_at(x, n + 1)
        if is_sortable(grown, *machine_pair) != (x in sortable_lookup):
            yield "appending-new-max-marks-sortable", n, str(x)


# ---- count rows against reference sequences ------------------------------


def _count_row(n_max: int, patterns: tuple[Permutation, ...], workers: int) -> list[int]:
    return [_enumerate(n, patterns, False, workers).count for n in range(1, n_max + 1)]


def find_alignment(row: Sequence[int], table: SequenceTable) -> int | None:
    """The shift d, |d| <= 3, with row[n] = table[n + d] wherever the table
    covers n.

    Row indices start at 1.  A shift only counts when the overlap is the
    whole row or at least four terms, so a short reference prefix cannot
    certify an alignment by accident.  Returns the smallest-magnitude d
    (ties toward negative) so reports stay deterministic; None if nothing
    fits.
    """
    shifts = sorted(range(-3, 4), key=lambda d: (abs(d), d))
    lo, hi = table.offset, table.offset + len(table.terms) - 1
    for d in shifts:
        covered = [n for n in range(1, len(row) + 1) if lo <= n + d <= hi]
        if len(covered) < min(len(row), 4):
            continue
        if all(row[n - 1] == table[n + d] for n in covered):
            return d
    return None


#: Count rows checked by the tables suite: machine patterns, catalog id of
#: the expected reference prefix.
TABLE_ROWS: tuple[tuple[tuple[Permutation, ...], str], ...] = (
    ((PATTERN_123, PATTERN_213), "A000108"),
    ((PATTERN_132, PATTERN_312), "A000108"),
    ((PATTERN_231, PATTERN_321), "A000108"),
    ((PATTERN_123, PATTERN_132), "A000108"),
    ((PATTERN_123, PATTERN_231), "A006318"),
    ((PATTERN_132, PATTERN_231), "A006318"),
    ((PATTERN_123, PATTERN_312), "A007317"),
    ((PATTERN_132, PATTERN_321), "A102407"),
    ((PATTERN_132,), "A007317"),
    ((PATTERN_321,), "A011782"),
    ((PATTERN_123,), "A294790"),
)


def verify_tables(n_max: int, workers: int = 1) -> SuiteReport:
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

    for patterns, reference in TABLE_ROWS:
        label = "+".join(map(pattern_name, patterns))  # as EnumerationResult.machine
        row = _count_row(n_max, patterns, workers)
        table = OEIS_PREFIXES[reference]
        shift = find_alignment(row, table)
        bad: list[str] = []
        if shift is None:
            bad = [
                f"machine row  (n=1..{n_max}): {row}",
                f"{reference} prefix (offset {table.offset}): {list(table.terms)}",
            ]
            detail = "no shift aligns the row with the reference"
        else:
            # an empty row is skipped: it examined nothing, so it aligned nowhere
            detail = f"aligned at shift {shift:+d}" if row else ""
        claims.append(_claim(f"row-{label}-matches-{reference}", 1, n_max, bad, detail))

    closed_pair = (PATTERN_123, PATTERN_321)
    closed_id = f"row-{'+'.join(map(pattern_name, closed_pair))}-matches-closed-form"
    closed_row = _count_row(n_max, closed_pair, workers)
    failures = (
        (closed_id, n, f"counted {count}, closed form {sort_123_321_closed(n)}")
        for n, count in enumerate(closed_row, start=1)
        if count != sort_123_321_closed(n)
    )
    return _report("tables", n_max, [(closed_id, 1)], failures, fixed=claims)


SUITES = {
    "characterization": verify_characterization,
    "west": verify_west,
    "dyck": verify_dyck,
    "structure": verify_sortable_structure,
    "tables": verify_tables,
    "conjecture": verify_conjecture,
}

