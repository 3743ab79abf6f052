import hashlib
import json

import pytest

from stacksort.harness import (
    CACHE_ENV_VAR,
    CorruptCacheEntry,
    EnumerationResult,
    SUITE_CAPS,
    SUITES,
    SuiteReport,
    VerificationReport,
    _canonical,
    _report,
    cache_load,
    cache_store,
    conjecture_tables,
    default_cache_dir,
    enumerate_cached,
    enumerate_single_machine,
    enumerate_sortable,
    find_alignment,
    run_suites,
    verify_characterization,
    verify_west,
)
from stacksort.perms import Permutation
from stacksort.sequences import SequenceTable

P = Permutation.from_digits


def test_enumeration_counts():
    assert enumerate_sortable(0, P("132"), P("321")).count == 1
    assert enumerate_sortable(5, P("132"), P("321")).count == 26
    assert enumerate_single_machine(5, P("132")).count == 51


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
        EnumerationResult(("132", "321"), 3, 5, (P("123"),), 1)
    with pytest.raises(ValueError, match="witness 1 2 has length 2, not n=3"):
        EnumerationResult(("132", "321"), 3, 2, (P("123"), P("12")), 1)


def test_result_json_round_trip():
    result = enumerate_sortable(4, P("132"), P("321"))
    doc = result.to_json_dict()
    assert EnumerationResult.from_json_dict(doc) == result


def test_report_status_consistency():
    with pytest.raises(ValueError):
        VerificationReport("claim", (1, 5), "pass", ("oops",), "")
    with pytest.raises(ValueError):
        VerificationReport("claim", (1, 5), "fail", (), "")
    with pytest.raises(ValueError):
        VerificationReport("claim", (2, 1), "skip", ("oops",), "")
    with pytest.raises(ValueError):
        VerificationReport("claim", (1, 5), "maybe", (), "")
    skipped = VerificationReport("claim", (2, 1), "skip")
    held = VerificationReport("claim", (1, 5), "pass")
    failed = VerificationReport("claim", (1, 5), "fail", ("n=3: 132",))
    assert SuiteReport("s", 1, (skipped, held)).passed
    assert not SuiteReport("s", 1, (skipped, failed)).passed


def test_report_builder_files_failures_under_declared_claims():
    fixed = VerificationReport("golden", (5, 5), "pass")
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


def test_worker_counts_below_one_are_refused():
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        enumerate_sortable(5, P("132"), P("321"), workers=0)
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
