import hashlib
import importlib
import json
import warnings
from itertools import combinations, permutations
from typing import Callable, Mapping, NamedTuple

import pytest

import oracles
from stacksort import cli, harness, suites
from stacksort.dyck import BSequence
from stacksort.harness import (
    CACHE_ENV_VAR,
    CorruptCacheEntry,
    EnumerationResult,
    SUITE_CAPS,
    SuiteReport,
    VerificationReport,
    _canonical,
    _enumerate,
    _report,
    cache_load,
    cache_store,
    conjecture_tables,
    default_cache_dir,
    enumerate_cached,
    enumerate_single_machine,
    enumerate_sortable,
    run_suites,
)
from stacksort.perms import (
    PATTERN_123,
    PATTERN_132,
    PATTERN_321,
    STAR_132,
    BivincularPattern,
    DegeneratePair,
    LengthTooLarge,
    PatternSet,
    Permutation,
    identity,
    machine_patterns,
    parse_pattern,
    pattern_name,
)
from stacksort.sequences import SequenceTable
from stacksort.suites import SUITES, find_alignment, verify_characterization, verify_west

P = Permutation.from_digits
# the package's own ``machine`` name is the two-stack function, not the layer
machine = importlib.import_module("stacksort.machine")


def test_enumeration_counts():
    assert enumerate_sortable(0, P("132"), P("321")).count == 1
    assert enumerate_sortable(5, P("132"), P("321")).count == 26
    assert enumerate_single_machine(5, P("132")).count == 51
    # tau=None is the sigma machine, the scan enumerate_single_machine names
    for sigma in map(P, ("123", "132", "213", "231", "312", "321")):
        for n in range(8):
            assert enumerate_sortable(n, sigma) == enumerate_single_machine(n, sigma)


def test_witness_policy():
    small = enumerate_sortable(4, P("132"), P("321"))
    assert small.witnesses is not None
    assert len(small.witnesses) == small.count
    big = enumerate_sortable(9, P("132"), P("321"))
    assert big.witnesses is None
    assert big.count == 1820


def test_workers_do_not_change_the_result():
    solo = enumerate_sortable(6, P("132"), P("321"), workers=1)
    team = enumerate_sortable(6, P("132"), P("321"), workers=8)
    assert json.dumps(solo.to_json_dict(), sort_keys=True) == json.dumps(
        team.to_json_dict(), sort_keys=True
    )


def test_result_validation():
    with pytest.raises(ValueError):
        EnumerationResult(("132", "321"), 3, 5, (P("123"),))
    with pytest.raises(ValueError, match="witness 1 2 has length 2, not n=3"):
        EnumerationResult(("132", "321"), 3, 2, (P("123"), P("12")))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scan", [
    lambda workers: enumerate_sortable(0, P("132"), P("321"), workers=workers),
    lambda workers: enumerate_single_machine(0, P("132"), workers=workers),
], ids=["pair", "single"])
def test_length_zero_is_scanned_as_one_block(scan, workers):
    result = scan(workers)
    assert (result.count, result.witnesses) == (1, (Permutation(()),))
    assert result.worker_partitions == 1


def test_length_zero_runs_the_block_loop_on_the_empty_prefix(monkeypatch):
    blocks = []
    scan_block = harness._scan_block

    def recording(block):
        blocks.append(block[:2])
        # every block carries the push test _enumerate compiled
        assert block[2] is machine._compile(PatternSet.of(P("132")))
        return scan_block(block)

    monkeypatch.setattr(harness, "_scan_block", recording)
    assert _enumerate(0, (P("132"),), True, 1).count == 1
    assert _enumerate(3, (P("132"),), True, 1).count == 5
    assert blocks == [(0, ()), (3, (1,)), (3, (2,)), (3, (3,))]


@pytest.mark.parametrize("patterns,compiler,count", [
    ((P("132"), P("321")), "_compile", 26),
    ((P("132"),), "_compile", 51),
], ids=["pair", "single"])
def test_enumerate_compiles_the_machine_once(monkeypatch, patterns, compiler, count):
    # warm the caches, so _compile_pair answers without calling _compile
    machine._compile_pair(P("132"), P("321"))
    calls = []

    def counting(name):
        original = getattr(machine, name)

        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for name in ("_compile", "_compile_pair"):
        monkeypatch.setattr(machine, name, counting(name))
    assert _enumerate(5, patterns, True, 1).count == count
    assert calls == [compiler]


@pytest.mark.parametrize("n,workers", [(4, 1), (-1, 1), (13, 1), (4, 0)])
def test_enumerate_refuses_a_degenerate_pair_before_anything_else(tmp_path, n, workers):
    for door in (
        lambda: _enumerate(n, (P("132"), P("132")), True, workers),
        lambda: enumerate_cached(n, P("132"), P("132"), workers=workers, cache_dir=tmp_path),
    ):
        with pytest.raises(DegeneratePair, match="need two distinct patterns, got 132 twice"):
            door()


@pytest.mark.parametrize("scan", [
    lambda: enumerate_sortable(5, STAR_132, P("321")),
    lambda: enumerate_sortable(5, P("321"), STAR_132),
    lambda: enumerate_single_machine(5, STAR_132),
    lambda: enumerate_sortable(5, STAR_132),
    lambda: _enumerate(5, (STAR_132,), False, 1),
], ids=["sigma", "tau", "single", "sigma-machine", "engine"])
def test_enumeration_refuses_star_patterns(scan):
    with pytest.raises(ValueError, match="^enumeration takes classical patterns, got 132-star$"):
        scan()


@pytest.mark.parametrize("unnamed", [
    BivincularPattern(P("213"), {2}, {2}),
    BivincularPattern(P("132"), {2}),
], ids=["star-constraints", "positions-only"])
def test_enumeration_refuses_a_bivincular_pattern_that_has_no_name(tmp_path, unnamed):
    message = "^only 123-star and 132-star have names, got BivincularPattern"
    for door in (
        lambda: enumerate_sortable(3, unnamed, P("321")),
        lambda: enumerate_cached(3, unnamed, P("321"), cache_dir=tmp_path),
        lambda: machine_patterns(unnamed, unnamed),
    ):
        with pytest.raises(ValueError, match=message):
            door()
    assert list(tmp_path.iterdir()) == []


def test_enumerate_cached_refuses_a_star_machine_it_holds(tmp_path):
    # an entry stored before star patterns were refused
    cache_store(EnumerationResult(("132-star", "321"), 5, 19, None), tmp_path)
    with pytest.raises(ValueError, match="^enumeration takes classical patterns, got 132-star$"):
        enumerate_cached(5, STAR_132, P("321"), cache_dir=tmp_path)


@pytest.mark.parametrize("n,error,message", [
    (13, LengthTooLarge, "n=13 above the enumeration cap 12"),
    (-1, ValueError, "n must be nonnegative"),
])
def test_enumerate_cached_refuses_a_length_it_holds(tmp_path, n, error, message):
    # a checksum-valid entry used to answer n = 13, and n = -1 warned that
    # the entry was corrupt before the scan refused it
    cache_store(EnumerationResult(("132", "321"), n, 1, None), tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=f"^{message}$"):
            enumerate_cached(n, P("132"), P("321"), cache_dir=tmp_path)
    assert caught == []


@pytest.mark.parametrize("tokens,error,message", [
    (("132", "132"), DegeneratePair, "need two distinct patterns, got 132 twice"),
    (("1", "321"), ValueError, "forbidden patterns must have length >= 2"),
    (("1",), ValueError, "forbidden patterns must have length >= 2"),
], ids=["repeated", "short-pair", "short-single"])
def test_enumerate_cached_refuses_a_machine_it_holds(tmp_path, tokens, error, message):
    # a checksum-valid entry used to answer a machine every scan refuses
    cache_store(EnumerationResult(tokens, 3, 1, (P("123"),)), tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=f"^{message}$"):
            enumerate_cached(3, *map(parse_pattern, tokens), cache_dir=tmp_path)
    assert caught == []


@pytest.mark.parametrize("door", [
    lambda tmp_path: _enumerate(3, (STAR_132, STAR_132), True, 1),
    lambda tmp_path: enumerate_cached(3, STAR_132, STAR_132, cache_dir=tmp_path),
], ids=["engine", "cached"])
def test_both_doors_name_a_repeated_star_pattern_before_its_kind(tmp_path, door):
    with pytest.raises(DegeneratePair, match="^need two distinct patterns, got 132-star twice$"):
        door(tmp_path)


def test_enumerate_cached_refuses_an_empty_cache_dir(monkeypatch, tmp_path):
    # "" used to mean the working directory, where the entry was written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="^--cache-dir must name a directory, got an empty string$"):
        enumerate_cached(3, P("132"), P("321"), cache_dir="")
    assert list(tmp_path.iterdir()) == []


def test_worker_partitions_counts_the_blocks_of_a_scan(tmp_path):
    for n in range(9):
        scanned = enumerate_sortable(n, P("123"), P("231"))
        cache_store(scanned, tmp_path)
        loaded = cache_load(("123", "231"), n, tmp_path)
        for result in (scanned, loaded):
            assert result.worker_partitions == max(n, 1)
            assert result.to_json_dict()["worker_partitions"] == max(n, 1)
    with pytest.raises(AttributeError):
        scanned.worker_partitions = 3


def test_result_json_round_trip():
    result = enumerate_sortable(4, P("132"), P("321"))
    doc = result.to_json_dict()
    assert EnumerationResult.from_json_dict(doc) == result


def test_report_status_consistency():
    skipped = VerificationReport("claim", (2, 1))
    held = VerificationReport("claim", (1, 5))
    failed = VerificationReport("claim", (1, 5), ("n=3: 132",))
    failed_unchecked = VerificationReport("claim", (2, 1), ("n=2: 12",))
    assert [r.status for r in (skipped, held, failed, failed_unchecked)] == [
        "skip", "pass", "fail", "fail",
    ]
    assert held.to_json_dict() == {
        "claim_id": "claim", "n_range": [1, 5], "status": "pass",
        "counterexamples": [], "detail": "",
    }
    assert list(failed.to_json_dict()) == [
        "claim_id", "n_range", "status", "counterexamples", "detail",
    ]
    assert SuiteReport("s", 1, (skipped, held)).passed
    assert not SuiteReport("s", 1, (skipped, failed)).passed


def test_report_builder_files_failures_under_declared_claims():
    fixed = VerificationReport("golden", (5, 5))
    claims = (("from-zero", 0), ("from-two", 2), ("from-four", 4))
    failures = [("from-two", n, f"case {n}") for n in (3, 2, 3)]
    report = _report("demo", 3, claims, failures, fixed=(fixed,))
    assert report.suite == "demo" and report.n_max == 3
    assert [c.claim_id for c in report.claims] == ["golden", "from-zero", "from-two", "from-four"]
    _, from_zero, from_two, from_four = report.claims
    assert (from_zero.status, from_zero.n_range, from_zero.counterexamples) == ("pass", (0, 3), ())
    assert (from_two.status, from_two.n_range) == ("fail", (2, 3))
    assert from_two.counterexamples == ("n=3: case 3", "n=2: case 2", "n=3: case 3")
    assert (from_four.status, from_four.n_range) == ("skip", (4, 3))
    assert not report.passed


def test_report_builder_truncates_like_a_claim():
    failures = [("c", n, "x") for n in range(1, 9)]
    (claim,) = _report("demo", 8, [("c", 1)], failures).claims
    assert claim.counterexamples == (
        "n=1: x", "n=2: x", "n=3: x", "n=4: x", "n=5: x", "... and 3 more",
    )


@pytest.mark.parametrize("failure", [
    ("undeclared", 3, "x"),  # no such claim
    ("from-two", 1, "x"),  # below the claim's first length
    ("from-two", 4, "x"),  # above n_max
])
def test_report_builder_refuses_failures_outside_its_claims(failure):
    with pytest.raises(RuntimeError, match="suite demo has no claim"):
        _report("demo", 3, [("from-two", 2)], [failure])


def test_report_rendering_shapes():
    report = verify_characterization(4)
    assert report.passed
    text = report.render_text()
    assert "sortable-set-equals-avoider-set" in text
    doc = report.to_json_dict()
    assert doc["suite"] == "characterization"
    assert all(c["status"] == "pass" for c in doc["claims"])


def test_west_suite_small():
    assert verify_west(5).passed


def test_append_closure_finds_the_same_failures_from_the_sortable_words_alone():
    # the structure suite checks every x up to APPEND_CLOSURE_FULL_MAX and
    # only the sortable x above it: deleting the last entry of a sortable word keeps
    # it sortable, so a non-sortable x cannot fail.  Most other pairs break
    # the closure, so both loops must find the same failures there too.
    threes = [P(d) for d in ("123", "132", "213", "231", "312", "321")]
    full_max = suites.APPEND_CLOSURE_FULL_MAX
    pairs = [(pair, 6) for pair in combinations(threes, 2)] + [((P("123"), P("321")), full_max)]
    for pair, n_max in pairs:
        for n in range(1, n_max + 1):
            sortable = _enumerate(n, pair, True, 1).witnesses
            every_x = map(Permutation, permutations(range(1, n + 1)))
            full = list(suites._append_closure_failures(n, pair, sortable, every_x))
            assert full == list(suites._append_closure_failures(n, pair, sortable, sortable))


def test_run_suites_clamps_to_caps():
    reports = run_suites(["characterization"], n_max=99)
    assert reports[0].n_max == 9
    # each suite refuses one past its cap before scanning anything
    for name, suite in SUITES.items():
        with pytest.raises(ValueError, match=f"0..{SUITE_CAPS[name]}, got"):
            suite(SUITE_CAPS[name] + 1)


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suites(["nonsense"], n_max=4)


def test_worker_counts_below_one_are_refused(tmp_path):
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        enumerate_sortable(5, P("132"), P("321"), workers=0)
    # a cache hit refuses the count as a scan does
    enumerate_cached(5, P("132"), P("321"), cache_dir=tmp_path)
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        enumerate_cached(5, P("132"), P("321"), workers=0, cache_dir=tmp_path)
    # the west suite scans no S_n, so run_suites checks the count itself
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        run_suites(["west"], 3, workers=0)


def test_conjecture_agrees_at_three_but_not_four():
    *_, report3 = conjecture_tables(3)
    assert report3.passed
    a, b, report4 = conjecture_tables(4)
    assert a.total == b.total == 16
    assert a.distributions["by_first_entry"] == b.distributions["by_first_entry"]
    # the refined max-position statistic genuinely differs from length 4 on
    assert a.distributions["by_position_of_max"] != b.distributions["by_position_of_max"]
    assert not report4.passed
    failing = {c.claim_id for c in report4.claims if c.status == "fail"}
    assert failing == {"max-position-distributions-agree"}


# ---- fault injection -------------------------------------------------------

#: The row claims of the tables suite, by the machine and reference they align.
ROW_CLAIMS = {
    f"row-{'+'.join(map(pattern_name, patterns))}-matches-{reference}": patterns
    for patterns, reference in suites.TABLE_ROWS
}

#: Claims failed at --n-max 5 with no fault: the refutations
#: test_acceptance.py pins.
REFUTED_AT_FIVE = {
    "tables": {"row-123+231-matches-A006318"},
    "conjecture": {"max-position-distributions-agree"},
}

#: The claims no fault can fail, and why.  The refuted row of tables is not
#: here: it fails with no fault too, but the engine fault shows in its row.
NOT_INJECTABLE = {
    "max-position-distributions-agree":
        "refuted by design: the two machines' max-position tables differ from n = 4 on",
}


def _at(wrong):
    """A fault in a function whose first argument is a length or a word:
    ``wrong(original, first, *rest)`` answers where that length is n."""

    def patch(original, n):
        def faulty(first, *rest):
            size = first if isinstance(first, int) else len(first)
            return (wrong(original, first, *rest) if size == n
                    else original(first, *rest))
        return faulty

    return patch


def _dropping_the_last_witness(only=None):
    """An engine fault: the scan at n loses its last witness, in one
    machine's scan or (only None) in every machine's."""

    def wrong(scan, length, patterns, keep, workers):
        result = scan(length, patterns, keep, workers)
        if only not in (None, patterns):
            return result
        witnesses = None if result.witnesses is None else result.witnesses[:-1]
        return EnumerationResult(result.machine, length, result.count - 1, witnesses)

    return _at(wrong)


def _adding_the_identity(scan, length, patterns, keep, workers):
    # an engine fault: the unsortable identity joins the (123,321) witnesses
    result = scan(length, patterns, keep, workers)
    if patterns != (PATTERN_123, PATTERN_321):
        return result
    witnesses = (*result.witnesses, identity(length))
    return EnumerationResult(result.machine, length, result.count + 1, witnesses)


def _sharing_a_signature(target):
    # the last avoider of the target class takes the first one's signature
    def wrong(signatures_of, length, pattern):
        found = dict(signatures_of(length, pattern))  # the original is cached
        if pattern == target:
            words = list(found)
            found[words[-1]] = found[words[0]]
        return found
    return _at(wrong)


def _ending_a_123_signature_in_three(signatures_of, length, pattern):
    # the first 123-avoider's signature ends in 3 instead of 2
    found = dict(signatures_of(length, pattern))
    if pattern == PATTERN_123:
        first = next(iter(found))
        found[first] = (*found[first][:-1], 3)
    return found


def _moving_the_last_site(sites_of, x, pattern):
    # the last active site of a 123-avoider moves one place right: a gap
    sites = sites_of(x, pattern)
    if pattern != PATTERN_123:
        return sites
    return sites - {max(sites)} | {max(sites) + 1}


def _dropping_the_last_site(sites_of, x, pattern):
    # a 123-avoider loses its last active site: the interval stays, one shorter
    sites = sites_of(x, pattern)
    return sites - {max(sites)} if pattern == PATTERN_123 else sites


def _adding_a_site_past_the_word(sites_of, x, pattern):
    # a 123-avoider gains the site after its last one: the interval stays,
    # one longer, and may count more sites than x has entries
    sites = sites_of(x, pattern)
    return sites | {max(sites) + 1} if pattern == PATTERN_123 else sites


def _totalling_one_more(tabulate, *args):
    table = tabulate(*args)
    return table._replace(total=table.total + 1)


def _altering_an_embedded_prefix(rows, n):
    # A011782's embedded term at index n gains one; the rows the suite
    # aligns read OEIS_PREFIXES, built at import, so only this claim sees it
    altered = []
    for table, generate in rows:
        if table.name == "A011782":
            terms = list(table.terms)
            terms[n - table.offset] += 1
            table = SequenceTable(table.name, table.offset, tuple(terms))
        altered.append((table, generate))
    return tuple(altered)


class Fault(NamedTuple):
    """A small wrong answer at one length n, and the claims it must fail.

    ``patch(original, n)`` builds the value that replaces ``name`` in
    ``suites``, the namespace every suite reads it from.  ``shown`` gives the
    exact counterexamples of the claims checked at fixed lengths; every
    other failed claim names n in each counterexample.
    """

    suite: str
    name: str
    n: int
    patch: Callable
    fails: frozenset[str]
    shown: Mapping[str, list[str]] = {}


A011782 = suites.OEIS_PREFIXES["A011782"]

FAULTS = {
    "characterization": Fault(
        "characterization", "_enumerate", 4, _dropping_the_last_witness(),
        frozenset({"sortable-set-equals-avoider-set", "sortable-counts-follow-recurrence"})),
    "structure": Fault(
        "structure", "_enumerate", 4, _dropping_the_last_witness(),
        frozenset({"counts-match-closed-form", "appending-new-max-marks-sortable"})),
    "tables": Fault(
        "tables", "_enumerate", 4, _dropping_the_last_witness(),
        frozenset({*ROW_CLAIMS, "row-123+321-matches-closed-form"})),
    # the same fault in both machines would cancel in totals-agree
    "conjecture": Fault(
        "conjecture", "_enumerate", 4, _dropping_the_last_witness((P("132"), P("213"))),
        frozenset({"totals-agree", "first-entry-distributions-agree"})),
    "conjecture-tables-sum-to-more": Fault(
        "conjecture", "_distribution", 4, _at(_totalling_one_more),
        frozenset({"statistics-partition-the-totals"})),
    "structure-identity-sorts": Fault(
        "structure", "_enumerate", 5, _at(_adding_the_identity),
        frozenset({
            "counts-match-closed-form", "sortable-avoids-123", "first-entry-is-top-two",
            "last-entry-is-bottom-two", "max-precedes-one-and-two",
            "pass-output-pairs-two-one", "swap-of-top-two-fixes-pass-output",
            "appending-new-max-marks-sortable",
        })),
    "tables-embedded-prefix-altered": Fault(
        "tables", "REFERENCE_ROWS", 4, _altering_an_embedded_prefix,
        frozenset({"references-match-embedded-prefixes"}),
        {"references-match-embedded-prefixes": [
            f"A011782: generated {tuple(2 ** k for k in range(9))} vs embedded"
            f" {tuple(t + (k == 4) for k, t in enumerate(A011782.terms))}"]}),
    "west-golden-signature": Fault(
        "west", "signature", 5, _at(lambda sign, x, y: (*sign(x, y)[:-1], 3)),
        frozenset({"golden-pair-45231-42153"}),
        {"golden-pair-45231-42153": [
            "signature of 45231 is (4, 4, 3, 3, 3)", "signature renders as 4.4.3.3.3"]}),
    "west-123-signatures-collide": Fault(
        "west", "_signatures", 4, _sharing_a_signature(PATTERN_123),
        frozenset({"signature-determines-123-avoider", "signature-sets-coincide",
                   "plateau-marks-adjacent-middle-132"})),
    "west-132-signatures-collide": Fault(
        "west", "_signatures", 4, _sharing_a_signature(PATTERN_132),
        frozenset({"signature-determines-132-avoider", "signature-sets-coincide",
                   "plateau-marks-adjacent-middle-123"})),
    "west-signature-ends-in-three": Fault(
        "west", "_signatures", 4, _at(_ending_a_123_signature_in_three),
        frozenset({"signatures-end-in-two", "signature-sets-coincide"})),
    "west-map-collapses": Fault(
        "west", "west_map", 4,
        _at(lambda match, x, source, target: match(P("4321"), source, target)
            if source == PATTERN_132 else match(x, source, target)),
        frozenset({"signature-matching-bijects-avoider-classes",
                   "matching-restricts-to-starred-classes"})),
    # the identity contains 123, so its image is a wrong answer the suite
    # must not hand back to west_map, which refuses it
    "west-map-to-the-identity": Fault(
        "west", "west_map", 4,
        _at(lambda match, x, source, target: identity(len(x))
            if source == PATTERN_132 else match(x, source, target)),
        frozenset({"signature-matching-bijects-avoider-classes",
                   "matching-restricts-to-starred-classes"})),
    "west-plateau-flips": Fault(
        "west", "has_plateau", 4, _at(lambda plateau, sig: not plateau(sig)),
        frozenset({"plateau-marks-adjacent-middle-132", "plateau-marks-adjacent-middle-123"})),
    "west-max-removal-wrong": Fault(
        "west", "smallest_k", 5, _at(lambda _, x, k: P("1324")),
        frozenset({"max-removal-keeps-starred-avoidance",
                   "active-site-recursion-under-max-removal"})),
    "west-active-sites-gap": Fault(
        "west", "active_sites", 4, _at(_moving_the_last_site),
        frozenset({"active-sites-form-prefix-interval"})),
    "west-active-sites-short": Fault(
        "west", "active_sites", 4, _at(_dropping_the_last_site),
        frozenset({"first-active-count-locates-max"})),
    "west-active-sites-past-the-word": Fault(
        "west", "active_sites", 4, _at(_adding_a_site_past_the_word),
        frozenset({"first-active-count-locates-max"})),
    "dyck-golden-b-sequence": Fault(
        "dyck", "rotem_b_sequence", 11,
        _at(lambda read, x: BSequence((*read(x).b[:-1], 2))),
        frozenset({"golden-grid-and-path"}),
        {"golden-grid-and-path": ["b sequence is (11, 10, 10, 9, 9, 8, 6, 4, 4, 4, 2)"]}),
    "dyck-path-missing": Fault(
        "dyck", "dyck_paths", 4, _at(lambda paths, n: list(paths(n))[:-1]),
        frozenset({"staircase-map-bijects-onto-paths"})),
    "dyck-staircase-collapses": Fault(
        "dyck", "rotem_map", 4, _at(lambda encode, x: encode(P("4321"))),
        frozenset({"staircase-map-bijects-onto-paths",
                   "dudu-factor-marks-adjacent-middle-132"})),
    "dyck-cell-capacity-flips": Fault(
        "dyck", "cell_capacity_ok", 4, _at(lambda fits, x: not fits(x)),
        frozenset({"cell-capacity-marks-adjacent-middle-132"})),
    "dyck-automaton-counts-one-more": Fault(
        "dyck", "count_dyck_avoiding", 4, _at(lambda count, n, w: count(n, w) + 1),
        frozenset({"path-counts-close-the-triangle"})),
}


@pytest.mark.parametrize("case", FAULTS)
def test_a_scan_that_drops_a_witness_fails_the_claims_it_feeds(capsys, monkeypatch, case):
    # named for its first faults; each case is one wrong answer at one n
    fault = FAULTS[case]
    n = fault.n
    # a row claim shows its whole row, so the fault shows as the row lowered at n
    lowered = {claim_id: suites._count_row(5, ROW_CLAIMS[claim_id], 1)
               for claim_id in fault.fails & ROW_CLAIMS.keys()}
    for row in lowered.values():
        row[n - 1] -= 1
    monkeypatch.setattr(suites, fault.name, fault.patch(getattr(suites, fault.name), n))
    code = cli.run(["verify", "--suite", fault.suite, "--n-max", "5", "--format", "json"])
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    failed = {c["claim_id"]: c["counterexamples"] for c in report["claims"]
              if c["status"] == "fail"}
    assert code == 1
    assert set(failed) == fault.fails | REFUTED_AT_FIVE.get(fault.suite, set())
    for claim_id in fault.fails:
        shown = failed[claim_id]
        if claim_id in fault.shown:
            assert shown == fault.shown[claim_id]
        elif claim_id in ROW_CLAIMS:
            assert shown[0] == f"machine row  (n=1..5): {lowered[claim_id]}"
        else:
            named = [ce for ce in shown if not ce.startswith("... and ")]  # a truncation line
            assert all(ce.startswith(f"n={n}: ") for ce in named), (claim_id, shown)


def test_every_claim_has_a_fault_that_fails_it_or_a_reason_it_cannot(capsys):
    code = cli.run(["verify", "--suite", "all", "--n-max", "5", "--format", "json"])
    suites_run = json.loads(capsys.readouterr().out)["suites"]
    claim_ids = [c["claim_id"] for report in suites_run for c in report["claims"]]
    injected = set().union(*(fault.fails for fault in FAULTS.values()))
    assert code == 1
    assert len(claim_ids) == len(set(claim_ids))
    assert not injected & NOT_INJECTABLE.keys()
    assert set(claim_ids) == injected | NOT_INJECTABLE.keys()


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_west_maps_each_avoider_once_and_builds_no_class_of_its_own(capsys, monkeypatch):
    maps = _counting(monkeypatch, suites, "west_map")
    scans = _counting(monkeypatch, suites, "avoiders")
    assert cli.run(["verify", "--suite", "west", "--n-max", "5"]) == 0
    capsys.readouterr()
    # one map and one round trip per 132-avoider of length 0..5, plus the
    # golden claim's two; the classes come from _signatures
    assert len(maps) == 2 * sum(oracles.catalan(n) for n in range(6)) + 2 == 132
    assert scans == []


def test_dyck_builds_the_123_avoiders_once_per_length(capsys, monkeypatch):
    scans = _counting(monkeypatch, suites, "avoiders")
    assert cli.run(["verify", "--suite", "dyck", "--n-max", "5"]) == 0
    capsys.readouterr()
    assert scans == [(n, PatternSet.of(PATTERN_123)) for n in range(6)]


# ---- alignment helper ------------------------------------------------------

REF = SequenceTable("ref", 0, (1, 2, 6, 22, 90, 394, 1806))


def test_alignment_at_zero():
    # row indices start at 1, so row_n = ref_n means shift 0
    assert find_alignment([2, 6, 22, 90], REF) == 0


def test_alignment_with_negative_shift():
    assert find_alignment([1, 2, 6, 22], REF) == -1


def test_alignment_prefers_small_shifts():
    # a constant row fits everywhere; the reported shift is the smallest
    # in magnitude with ties toward the negative side
    flat = SequenceTable("flat", 0, (7, 7, 7, 7, 7, 7, 7, 7))
    assert find_alignment([7, 7, 7, 7], flat) == 0


def test_alignment_needs_enough_overlap():
    # a three-term reference cannot certify a long row: at most three
    # covered indices is below the four-term floor
    short = SequenceTable("short", 0, (1, 2, 6))
    assert find_alignment([1, 2, 6, 22, 90, 394, 1806, 8558], short) is None
    # but a whole short row inside a long reference is fine
    assert find_alignment([2, 6], REF) == 0


def test_alignment_rejects_mismatch():
    assert find_alignment([2, 6, 21, 79, 310], REF) is None


# ---- cache -----------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    result = enumerate_sortable(5, P("132"), P("321"))
    entry = cache_store(result, tmp_path)
    loaded = cache_load(("132", "321"), 5, tmp_path)
    assert loaded == result
    # the checksummed result names its machine and length; nothing repeats them
    assert set(json.loads(entry.read_text())) == {"version", "checksum", "result"}


def test_cache_round_trip_through_a_string_directory(tmp_path):
    # the benchmark's layer runner names its cache directories as strings
    result = enumerate_sortable(4, P("132"), P("321"))
    entry = cache_store(result, str(tmp_path))
    assert entry.parent == tmp_path
    assert cache_load(("132", "321"), 4, str(tmp_path)) == result


def test_cache_load_misses_an_unreachable_directory(tmp_path):
    # Path.exists raised ENAMETOOLONG, which enumerate reported as exit 3
    with pytest.warns(CorruptCacheEntry) as caught:
        assert cache_load(("132", "321"), 3, tmp_path / ("a" * 300)) is None
    assert len(caught) == 1


def test_cache_round_trips_the_empty_witness(tmp_path):
    result = enumerate_sortable(0, P("132"), P("321"))
    entry = cache_store(result, tmp_path)
    assert json.loads(entry.read_text())["result"]["witnesses"] == ["-"]
    assert cache_load(("132", "321"), 0, tmp_path) == result
    # entries written before the empty permutation printed as "-" still load
    doc = json.loads(entry.read_text())
    doc["result"]["witnesses"] = [""]
    doc["checksum"] = hashlib.sha256(_canonical(doc["result"]).encode()).hexdigest()
    entry.write_text(json.dumps(doc))
    assert cache_load(("132", "321"), 0, tmp_path) == result


def test_cache_miss_on_other_machine(tmp_path):
    result = enumerate_sortable(5, P("132"), P("321"))
    cache_store(result, tmp_path)
    assert cache_load(("123", "321"), 5, tmp_path) is None


def test_cache_detects_corruption(tmp_path):
    result = enumerate_sortable(5, P("132"), P("321"))
    cache_store(result, tmp_path)
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["result"]["count"] = 27
    entry.write_text(json.dumps(doc))
    with pytest.warns(CorruptCacheEntry):
        assert cache_load(("132", "321"), 5, tmp_path) is None


def test_cache_ignores_unreadable_entry(tmp_path):
    result = enumerate_sortable(4, P("132"), P("321"))
    cache_store(result, tmp_path)
    (entry,) = tmp_path.glob("*.json")
    for text in ("not json at all", "[]"):
        entry.write_text(text)
        with pytest.warns(CorruptCacheEntry):
            assert cache_load(("132", "321"), 4, tmp_path) is None


def test_cache_rejects_witnesses_that_are_not_strings(tmp_path):
    result = enumerate_sortable(2, P("132"), P("321"))
    cache_store(result, tmp_path)
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["result"]["witnesses"] = [12, 21]
    doc["checksum"] = hashlib.sha256(_canonical(doc["result"]).encode()).hexdigest()
    entry.write_text(json.dumps(doc))
    with pytest.warns(CorruptCacheEntry):
        assert cache_load(("132", "321"), 2, tmp_path) is None


@pytest.mark.parametrize("field,value", [
    ("n", 9.0),
    ("count", 1820.0),
    ("count", -1),
    ("count", True),
    ("count", "1820"),
    ("machine", ["132", 321]),
    ("machine", "132+321"),
    ("witnesses", "1"),
    ("witnesses", {"1": 0}),
])
def test_cache_rejects_fields_of_the_wrong_type(tmp_path, field, value):
    # the checksum covers the bytes, not the types: n=9.0 equals 9 and
    # would print as "n=9.0: 1820.0", and on an n = 1 entry the string "1"
    # or the object {"1": 0} iterates as the one witness 1
    if field == "witnesses":
        result = EnumerationResult(("132", "321"), 1, 1, (P("1"),))
    else:
        result = EnumerationResult(("132", "321"), 9, 1820, None)
    cache_store(result, tmp_path)
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["result"][field] = value
    doc["checksum"] = hashlib.sha256(_canonical(doc["result"]).encode()).hexdigest()
    entry.write_text(json.dumps(doc))
    with pytest.warns(CorruptCacheEntry):
        assert cache_load(result.machine, result.n, tmp_path) is None


@pytest.mark.parametrize("stored,held", [
    (EnumerationResult(("132", "321"), 3, 4, None), "no witnesses"),
    (EnumerationResult(("132", "321"), 9, 1, (identity(9),)), "witnesses"),
], ids=["none-at-3", "some-at-9"])
def test_cache_refuses_witnesses_where_a_scan_keeps_none_or_the_reverse(tmp_path, stored, held):
    # a scan keeps witnesses exactly up to n = 8, so a hit must too
    entry = cache_store(stored, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache_load(stored.machine, stored.n, tmp_path) is None
    assert [(w.category, str(w.message)) for w in caught] == [(
        CorruptCacheEntry,
        f"discarding unreadable cache entry {entry.name}:"
        f" entry for n={stored.n} holds {held}; a scan keeps them up to n=8",
    )]


def test_cache_version_mismatch_is_silent_miss(tmp_path):
    result = enumerate_sortable(4, P("132"), P("321"))
    cache_store(result, tmp_path)
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["version"] = "0"
    entry.write_text(json.dumps(doc))
    assert cache_load(("132", "321"), 4, tmp_path) is None


def test_enumerate_cached_flags_the_source(tmp_path):
    fresh, hit = enumerate_cached(5, P("132"), P("321"), cache_dir=tmp_path)
    assert not hit
    again, hit = enumerate_cached(5, P("132"), P("321"), cache_dir=tmp_path)
    assert hit
    assert again == fresh


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    # an empty variable counts as unset
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "stacksort"
    # the XDG Base Directory spec calls a relative path invalid: it is ignored
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert default_cache_dir() == tmp_path / "home" / ".cache" / "stacksort"
