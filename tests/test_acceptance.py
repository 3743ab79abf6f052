"""End-to-end acceptance checks.

Each test pins one headline behavior of the package to frozen golden
values and exhaustive small-length scans.  Three of them pin refutations:
the strongest published form of a property is false, and the test asserts
what the brute force found instead (the lone exception, the row that
matches no reference, the lengths where two distributions part).  Those
findings are recomputed inside the test by the slow reference code in
``oracles``, so the test fails if a counterexample stops being one or a
pinned distribution moves.  Two more pin, in the same way, explanations of
the open (132,213)/(213,312) equinumerosity that the brute force rules out.
"""

import json
import time
from collections import Counter
from itertools import permutations as iter_perms

import oracles
import pytest

from stacksort.dyck import FACTOR_DUDU, count_dyck_avoiding, dyck_paths, rotem_map
from stacksort.harness import (
    OEIS_PREFIXES,
    conjecture_tables,
    enumerate_sortable,
    find_alignment,
    run_suites,
    verify_conjecture,
    verify_dyck,
    verify_sortable_structure,
    verify_tables,
    verify_west,
)
from stacksort.machine import is_sortable, machine, pattern_stack_pass, west_pass
from stacksort.perms import (
    STAR_123,
    STAR_132,
    PatternSet,
    Permutation,
    avoiders,
    contains_bivincular,
    identity,
    index_of,
    insert_one_at,
    smallest_k,
    swap12,
)
from stacksort.sequences import g_sequence, gf_coefficients, sort_123_321_closed
from stacksort.signatures import format_signature, has_plateau, signature, west_map

P = Permutation.from_digits
P123, P132, P213, P231, P312, P321 = (P(w) for w in ("123", "132", "213", "231", "312", "321"))

#: |Sort_n(132, 321)| for n = 1..9.  The first eight entries are table
#: values; the ninth was frozen after the recurrence, the series, the Dyck
#: path count and a full 9! machine scan all produced the same number.
SORTABLE_132_321 = (1, 2, 4, 10, 26, 72, 206, 606, 1820)

#: |Sort_n(123, 321)| for n = 1..7, plus the closed form beyond.
SORTABLE_123_321 = (1, 2, 4, 7, 14, 28, 56)


def all_perms(n):
    return (Permutation(p) for p in iter_perms(range(1, n + 1)))


def claim(report, claim_id):
    matches = [c for c in report.claims if c.claim_id == claim_id]
    assert matches, f"suite {report.suite} has no claim {claim_id}"
    return matches[0]


# ---- shared heavy computations, run once ----------------------------------


@pytest.fixture(scope="module")
def sortable_sets():
    """Sort_n(132, 321) as explicit sets for n = 1..8."""
    return {
        n: frozenset(enumerate_sortable(n, P132, P321).witnesses)
        for n in range(1, 9)
    }


@pytest.fixture(scope="module")
def west_report():
    return verify_west(8)


@pytest.fixture(scope="module")
def dyck_report():
    return verify_dyck(8)


@pytest.fixture(scope="module")
def structure_report():
    return verify_sortable_structure(8)


@pytest.fixture(scope="module")
def tables_report():
    return verify_tables(8)


@pytest.fixture(scope="module")
def conjecture_report():
    return verify_conjecture(8)


# ---- 1: the machine reproduces the worked figures ---------------------------


def test_machine_trace_fidelity():
    start = time.perf_counter()
    mid = pattern_stack_pass(P("2314"), PatternSet.of(P132, P321))
    out = machine(P("2314"), P132, P321)
    fully_sorted = machine(P("4213"), P132, P321)
    elapsed = time.perf_counter() - start
    assert mid == P("3412")
    assert out == P("3124")
    assert fully_sorted == identity(4)
    # three passes over four letters; anything past a few ms means the
    # pass lost its linear step count
    assert elapsed < 0.05, f"machine pass took {elapsed * 1000:.1f} ms"


# ---- 2: four independent counts of the same triangle ------------------------


def test_sortable_counts_four_ways(sortable_sets):
    g = g_sequence(9)
    series = gf_coefficients(9)
    for n in range(1, 10):
        brute = (
            len(sortable_sets[n])
            if n <= 8
            else enumerate_sortable(n, P132, P321).count
        )
        dyck = count_dyck_avoiding(n, FACTOR_DUDU)
        frozen = SORTABLE_132_321[n - 1]
        assert brute == g[n] == series[n] == dyck == frozen, (
            f"n={n}: scan {brute}, recurrence {g[n]}, series {series[n]}, "
            f"paths {dyck}, frozen {frozen}"
        )


# ---- 3: the sortable set is a twin avoidance class --------------------------


def test_sortable_set_equals_tight_avoider_set(sortable_sets):
    tight = PatternSet.of(P123, STAR_132)
    for n in range(1, 9):
        avoider_set = frozenset(avoiders(n, tight))
        assert sortable_sets[n] == avoider_set, f"sets differ at n={n}"


# ---- 4: the signature bijection ---------------------------------------------


def test_golden_signature_pair():
    assert signature(P("45231"), P132) == (4, 4, 3, 3, 2)
    assert format_signature(signature(P("45231"), P132)) == "4.4.3.3.2"
    assert west_map(P("45231"), P132, P123) == P("42153")
    assert west_map(P("42153"), P123, P132) == P("45231")


def test_signature_bijection_suite(west_report):
    for claim_id in (
        "signature-determines-123-avoider",
        "signature-determines-132-avoider",
        "signature-sets-coincide",
        "signature-matching-bijects-avoider-classes",
        "matching-restricts-to-starred-classes",
    ):
        c = claim(west_report, claim_id)
        assert c.status == "pass", f"{claim_id}: {c.counterexamples}"
    assert west_report.n_max == 8


# ---- 5: plateaus in the signature mark the tight patterns -------------------


def test_plateau_criteria(west_report):
    for claim_id in (
        "plateau-marks-adjacent-middle-132",
        "plateau-marks-adjacent-middle-123",
    ):
        c = claim(west_report, claim_id)
        assert c.status == "pass", f"{claim_id}: {c.counterexamples}"
    # spot checks straight from the definitions
    assert has_plateau(signature(P("2134"), P123)) == contains_bivincular(
        P("2134"), STAR_132
    )
    assert not has_plateau(signature(P("45231"), P132))


# ---- 6: the staircase encoding ----------------------------------------------


def test_golden_staircase_chain():
    x = Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2))
    from stacksort.dyck import rotem_b_sequence

    assert rotem_b_sequence(x).b == (11, 10, 10, 9, 9, 8, 6, 4, 4, 4, 1)
    assert rotem_map(x).word == "uduuduududdudduuudddud"


def test_staircase_suite(dyck_report):
    assert dyck_report.passed, dyck_report.render_text()
    assert dyck_report.n_max == 8
    for n in range(1, 9):
        assert sum(1 for _ in dyck_paths(n)) == len(
            {rotem_map(x).word for x in avoiders(n, [P123])}
        )


# ---- 7: the doubling family -------------------------------------------------


def test_doubling_family_counts():
    for n in range(1, 8):
        got = sum(1 for x in all_perms(n) if is_sortable(x, P123, P321))
        assert got == SORTABLE_123_321[n - 1] == sort_123_321_closed(n)


def test_doubling_without_full_scan():
    # grow length 8 -> 9 -> 10 by appending a new smallest entry, plus the
    # bottom-two swap of each grown word; every candidate must sort, stay
    # distinct, and fill the closed-form count exactly
    current = {x for x in all_perms(8) if is_sortable(x, P123, P321)}
    assert len(current) == sort_123_321_closed(8) == 112
    for n in range(9, 11):
        grown = {insert_one_at(x, n) for x in current}
        grown |= {swap12(y) for y in grown}
        assert all(is_sortable(y, P123, P321) for y in grown)
        assert len(grown) == sort_123_321_closed(n) == 7 * 2 ** (n - 4)
        current = grown


# ---- 8: structure of the doubling family's members ---------------------------


def test_sortable_structure_properties(structure_report):
    assert structure_report.passed, structure_report.render_text()


def test_max_precedes_both_extremes_from_length_four():
    # the strong form of the position claim, stated from length 4, has
    # exactly one exception: 3241 sorts (3241 -> 4213 -> 1234), yet its
    # maximum sits right of the 2.  From length 5 on there is none, which
    # is why the structure suite's claim starts at 5.  The oracle rechecks
    # the exception set with full containment tests.
    exceptions = {
        n: {
            x.entries
            for x in all_perms(n)
            if is_sortable(x, P123, P321)
            and index_of(x, n) > min(index_of(x, 1), index_of(x, 2))
        }
        for n in range(4, 9)
    }
    assert exceptions == {4: {(3, 2, 4, 1)}, 5: set(), 6: set(), 7: set(), 8: set()}

    machine_123_321 = ((1, 2, 3), (3, 2, 1))
    assert oracles.stack_pass((3, 2, 4, 1), classical=machine_123_321) == (4, 2, 1, 3)
    assert oracles.west((4, 2, 1, 3)) == (1, 2, 3, 4)
    for n in range(4, 8):
        slow = {
            w
            for w in iter_perms(range(1, n + 1))
            if w.index(n) > min(w.index(1), w.index(2))
            and oracles.machine_sorts(w, *machine_123_321)
        }
        assert exceptions[n] == slow, f"n={n}: package {exceptions[n]}, oracle {slow}"


# ---- 9: counting table alignments --------------------------------------------


ROW_EXPECTATIONS = [
    ("row-123+213-matches-A000108", "Catalan"),
    ("row-132+312-matches-A000108", "Catalan"),
    ("row-231+321-matches-A000108", "Catalan"),
    ("row-123+132-matches-A000108", "Catalan"),
    ("row-123+312-matches-A007317", "binomial transform of Catalan"),
    ("row-132-matches-A007317", "binomial transform of Catalan"),
    ("row-321-matches-A011782", "2^(n-1)"),
]


@pytest.mark.parametrize("claim_id,label", ROW_EXPECTATIONS, ids=lambda v: str(v))
def test_count_row_alignments(tables_report, claim_id, label):
    c = claim(tables_report, claim_id)
    assert c.status == "pass", f"{label} row broke: {c.counterexamples}"


#: |Sort_n(123, 231)| for n = 1..8: off the large Schroeder numbers from
#: length 4 on (21 against 22), at every shift.
SORTABLE_123_231 = (1, 2, 6, 21, 79, 310, 1252, 5168)


def sortable_row(sigma, tau, n_max=8):
    return tuple(
        sum(1 for x in all_perms(n) if is_sortable(x, sigma, tau))
        for n in range(1, n_max + 1)
    )


def test_schroder_row_for_the_123_231_machine(tables_report):
    # the published statement pairs the large Schroeder numbers with the
    # (123, 231) machine.  Its counts match no offset of that sequence; the
    # (132, 231) machine is the one that walks it, one index behind.  The
    # tables suite keeps the row claim and must report it failed, with the
    # row as evidence.  The oracle recounts both rows through length 7.
    schroder = OEIS_PREFIXES["A006318"]
    row = sortable_row(P123, P231)
    assert row == SORTABLE_123_231
    assert find_alignment(row, schroder) is None

    twin_row = sortable_row(P132, P231)
    assert twin_row == tuple(oracles.schroder(n - 1) for n in range(1, 9))
    assert find_alignment(twin_row, schroder) == -1

    for n in range(1, 8):
        perms_n = list(iter_perms(range(1, n + 1)))
        slow = sum(oracles.machine_sorts(w, (1, 2, 3), (2, 3, 1)) for w in perms_n)
        slow_twin = sum(oracles.machine_sorts(w, (1, 3, 2), (2, 3, 1)) for w in perms_n)
        assert (slow, slow_twin) == (row[n - 1], twin_row[n - 1]), f"n={n}"

    refuted = claim(tables_report, "row-123+231-matches-A006318")
    assert refuted.status == "fail"
    assert f"machine row  (n=1..8): {list(SORTABLE_123_231)}" in refuted.counterexamples
    held = claim(tables_report, "row-132+231-matches-A006318")
    assert held.status == "pass"
    assert held.detail == "aligned at shift -1"


def test_closed_form_row(tables_report):
    c = claim(tables_report, "row-123+321-matches-closed-form")
    assert c.status == "pass", c.counterexamples


# ---- 10: evidence for the open equinumerosity --------------------------------


def test_totals_and_first_entry_distributions_agree():
    for n in range(1, 9):
        a, b, report = conjecture_tables(n)
        assert a.total == b.total
        assert a.distributions["by_first_entry"] == b.distributions["by_first_entry"]
        assert claim(report, "totals-agree").status == "pass"
        assert claim(report, "first-entry-distributions-agree").status == "pass"


def oracle_max_positions(n, sigma, tau):
    """Position of the maximum over the machine's sortable set, by oracle."""
    return dict(
        Counter(
            w.index(n) + 1
            for w in iter_perms(range(1, n + 1))
            if oracles.machine_sorts(w, sigma, tau)
        )
    )


def test_max_position_distributions_agree():
    # the refined form of the claim.  Both machines sort the same number
    # of length-n permutations with every fixed first entry, but the
    # position of the maximum is distributed alike only through length 3
    # and differently at every length from 4 to 6.  Both tables must equal
    # the oracle's direct count, so neither side of the split can drift.
    for n in range(1, 7):
        a, b, report = conjecture_tables(n)
        dist_a, dist_b = (t.distributions["by_position_of_max"] for t in (a, b))
        assert dist_a == oracle_max_positions(n, (1, 3, 2), (2, 1, 3)), f"n={n}"
        assert dist_b == oracle_max_positions(n, (2, 1, 3), (3, 1, 2)), f"n={n}"
        assert (dist_a == dist_b) == (n <= 3), f"n={n}: {dist_a} vs {dist_b}"
        agree = claim(report, "max-position-distributions-agree")
        assert agree.status == ("pass" if n <= 3 else "fail")
        if n == 4:
            assert (dist_a, dist_b) == (
                {1: 6, 2: 3, 3: 3, 4: 4},
                {1: 6, 2: 2, 3: 3, 4: 5},
            )


def test_disagreement_is_reported_loudly(conjecture_report):
    # whatever the truth of the refined claim, the suite must never shrug:
    # the one statistic that differs has to surface as a failed claim
    assert claim(conjecture_report, "totals-agree").status == "pass"
    assert claim(conjecture_report, "first-entry-distributions-agree").status == "pass"
    failing = claim(conjecture_report, "max-position-distributions-agree")
    assert failing.status == "fail"
    assert failing.counterexamples, "a failed claim must carry its evidence"
    assert not conjecture_report.passed


# ---- 11: explanations of the equinumerosity that fail --------------------------

CONJECTURE_PAIRS = (((1, 3, 2), (2, 1, 3)), ((2, 1, 3), (3, 1, 2)))


@pytest.fixture(scope="module")
def conjecture_sets():
    """Sort_n(132, 213) and Sort_n(213, 312) for n = 1..7, by oracle, each
    checked against the package's scan."""
    sets = {}
    for n in range(1, 8):
        pair = []
        for sigma, tau in CONJECTURE_PAIRS:
            found = frozenset(
                w for w in iter_perms(range(1, n + 1)) if oracles.machine_sorts(w, sigma, tau)
            )
            scanned = enumerate_sortable(n, Permutation(sigma), Permutation(tau)).witnesses
            assert found == {x.entries for x in scanned}, f"n={n}, {sigma}+{tau}"
            pair.append(found)
        sets[n] = tuple(pair)
    return sets


def _reverse(w):
    return w[::-1]


def _complement(w):
    return tuple(len(w) + 1 - v for v in w)


def _inverse(w):
    out = [0] * len(w)
    for position, value in enumerate(w, start=1):
        out[value - 1] = position
    return tuple(out)


_FLIPS = (lambda w: w, _reverse, _complement, lambda w: _reverse(_complement(w)))
#: The 8 symmetries of the square, as maps on one-line words.
SQUARE_SYMMETRIES = _FLIPS + tuple(lambda w, f=f: f(_inverse(w)) for f in _FLIPS)


def test_no_symmetry_of_the_square_maps_one_sortable_set_onto_the_other(conjecture_sets):
    # the two sets have the same size, but not because one is an image of
    # the other under reverse, complement, inverse or their compositions:
    # the best of the 8 matches all but a few words at n = 4 and loses
    # ground at every length after.  The identity is among the best each time.
    assert len({g((3, 1, 4, 2, 5)) for g in SQUARE_SYMMETRIES}) == 8
    best = {}
    for n in range(4, 8):
        a, b = conjecture_sets[n]
        overlaps = [len({g(w) for w in a} & b) for g in SQUARE_SYMMETRIES]
        assert len(a) == len(b) > max(overlaps) == overlaps[0], f"n={n}"
        best[n] = (len(a), max(overlaps))
    assert best == {4: (16, 15), 5: (61, 52), 6: (261, 203), 7: (1206, 869)}


def test_the_first_stacks_have_different_images_from_length_five(conjecture_sets):
    # nor does the first stack explain it: it sends each sortable set onto
    # its images with fibres of the same sizes only through length 4; from
    # length 5 the two machines do not even have the same number of images
    image_counts = {}
    for n in range(1, 8):
        fibres = []
        for (sigma, tau), sortable in zip(CONJECTURE_PAIRS, conjecture_sets[n]):
            images = Counter(oracles.stack_pass(w, classical=(sigma, tau)) for w in sortable)
            packed = PatternSet.of(Permutation(sigma), Permutation(tau))
            assert images == Counter(
                pattern_stack_pass(Permutation(w), packed).entries for w in sortable
            ), f"n={n}, {sigma}+{tau}"
            fibres.append(sorted(images.values()))
        assert (fibres[0] == fibres[1]) == (n <= 4), f"n={n}"
        image_counts[n] = tuple(len(f) for f in fibres)
    assert {n: c for n, c in image_counts.items() if n >= 5} == {
        5: (13, 12), 6: (33, 29), 7: (87, 72),
    }


# ---- 12: determinism ----------------------------------------------------------


SUITE_NAMES = ["characterization", "west", "dyck", "structure", "tables", "conjecture"]


def suite_bytes(n_max, workers):
    reports = run_suites(SUITE_NAMES, n_max, workers=workers)
    return json.dumps([r.to_json_dict() for r in reports], sort_keys=True)


def test_suites_are_deterministic_across_runs_and_workers():
    solo = suite_bytes(6, workers=1)
    again = suite_bytes(6, workers=1)
    team = suite_bytes(6, workers=8)
    assert solo == again
    assert solo == team
