import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import oracles
import stacksort
from stacksort import cli, harness, signatures, suites
from stacksort.cli import build_parser, run
from stacksort.perms import SUITE_CAPS, Permutation, pattern_name
from stacksort.sequences import NonIntegerCoefficient, Overflow, schroder_large

SRC = Path(stacksort.__file__).resolve().parents[1]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_golden(capsys):
    code, out, _ = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", "2 3 1 4"
    )
    assert code == 0
    assert "intermediate: 3 4 1 2" in out
    assert "output: 3 1 2 4" in out
    assert out.rstrip().endswith("sorted: no")


def test_trace_json_shape(capsys):
    code, out, _ = invoke(
        capsys,
        "trace", "--sigma", "132", "--tau", "321", "--perm", "2314", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["intermediate"] == [3, 4, 1, 2]
    assert doc["output"] == [3, 1, 2, 4]
    assert doc["sorted"] is False
    assert doc["pattern_pass"]["machine"] == ["132", "321"]


def test_trace_sorts_the_sortable(capsys):
    code, out, _ = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", "4213"
    )
    assert code == 0
    assert "output: 1 2 3 4" in out
    assert "sorted: yes" in out


def test_trace_rejects_a_degenerate_pair(capsys):
    for pattern in ("132", "132-star"):
        code, out, err = invoke(
            capsys, "trace", "--sigma", pattern, "--tau", pattern, "--perm", "2314"
        )
        assert (code, out) == (2, "")
        assert err == f"error: need two distinct patterns, got {pattern} twice\n"


def test_trace_of_the_empty_permutation(capsys):
    for perm in ("-", " - "):
        code, out, err = invoke(
            capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", perm
        )
        assert (code, err) == (0, "")
        assert out == (
            "(132, 321) machine on -\n"
            "pass 1: stack avoiding (132, 321)\n"
            "  intermediate: -\n"
            "pass 2: increasing stack\n"
            "output: -\n"
            "sorted: yes\n"
        )


def test_trace_refuses_patterns_too_long_for_its_perm_at_once(capsys):
    # a length-5 pattern tests every 4-subset of the stack at each push, so
    # this input would run for minutes; the refusal comes before any pass
    decreasing = ",".join(str(v) for v in range(100, 0, -1))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "trace", "--sigma", "12345", "--tau", "21", "--perm", decreasing)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: patterns of length 5 and 2 on a --perm of length 100 may test"
        " 3764475 stack subsets a push, above the limit 313698\n"
    )
    # a star pattern counts as its base
    code, _, err = invoke(
        capsys, "trace", "--sigma", "132-star", "--tau", "123456",
        "--perm", ",".join(str(v) for v in range(36, 0, -1)),
    )
    assert (code, err) == (2, (
        "error: patterns of length 3 and 6 on a --perm of length 36 may test"
        " 325227 stack subsets a push, above the limit 313698\n"
    ))
    # the limit is two length-4 patterns on the longest --perm, which still runs
    assert cli.TRACE_COST_LIMIT == 2 * math.comb(99, 3) == 313698


def test_trace_runs_a_long_pattern_on_a_short_perm(capsys):
    patterns = ((5, 4, 3, 2, 1), (1, 3, 2, 4))
    for x in ((8, 7, 6, 5, 4, 3, 2, 1), (2, 5, 3, 1, 6, 4), (3, 1, 4, 2)):
        perm = " ".join(map(str, x))
        code, out, err = invoke(
            capsys, "trace", "--sigma", "54321", "--tau", "1324", "--perm", perm
        )
        assert (code, err) == (0, "")
        mid = " ".join(map(str, oracles.stack_pass(x, classical=patterns)))
        assert f"  intermediate: {mid}\n" in out
        sortable = oracles.machine_sorts(x, *patterns)
        assert out.endswith(f"sorted: {'yes' if sortable else 'no'}\n")


def test_enumerate_at_length_zero_names_the_empty_witness(capsys, tmp_path):
    argv = ["enumerate", "--sigma", "132", "--tau", "321", "--n", "0", "--cache-dir", str(tmp_path)]
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "scanned in 1 blocks\n")
    assert json.loads(out)["witnesses"] == ["-"]
    assert '"witnesses": [\n    "-"\n  ]' in out
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (0, "machine 132+321, n=0: 1 sortable permutations\n", "cache hit\n")


def test_enumerate_csv_golden(capsys, tmp_path):
    code, out, _ = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "8",
        "--cache-dir", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    assert out == "machine,n,count\n132+321,8,606\n"


def test_enumerate_uses_cache_on_second_run(capsys, tmp_path):
    invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "6",
        "--cache-dir", str(tmp_path),
    )
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "6",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "72 sortable" in out
    assert "cache hit" in err


def test_enumerate_keeps_apart_machines_whose_digits_read_alike(capsys, tmp_path):
    # both --tau patterns used to be named 1098765432111, so the second run
    # printed "cache hit" and the first machine's label
    runs = [
        invoke(
            capsys,
            "enumerate", "--sigma", "123", "--tau", tau, "--n", "5", "--cache-dir", str(tmp_path),
        )
        for tau in ("10 9 8 7 6 5 4 3 2 1 11", "10 9 8 7 6 5 4 3 2 11 1")
    ]
    assert runs == [
        (0, "machine 123+10,9,8,7,6,5,4,3,2,1,11, n=5: 35 sortable permutations\n",
         "scanned in 5 blocks\n"),
        (0, "machine 123+10,9,8,7,6,5,4,3,2,11,1, n=5: 35 sortable permutations\n",
         "scanned in 5 blocks\n"),
    ]
    assert len(list(tmp_path.glob("*.json"))) == 2


def _benchmark_pair_counts() -> dict:
    """``PAIR_COUNTS`` of perfbench/schedule.py, read without importing it."""
    tree = ast.parse((SPANS.parent / "schedule.py").read_text())
    (value,) = (node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["PAIR_COUNTS"])
    return ast.literal_eval(value)


def test_a_shared_cache_answers_as_a_fresh_one(capsys, tmp_path):
    # every machine the benchmark and the tables suite scan, and the two
    # whose patterns of 11 entries once shared a name, at every n <= 5 in
    # every format: the first format scans into the shared directory and the
    # others read it, among all the other entries; each must print what the
    # same request prints into a directory of its own
    machines = [tuple(map(pattern_name, patterns)) for patterns, _ in suites.TABLE_ROWS]
    assert set(_benchmark_pair_counts()) <= set(machines)
    machines += [("123", "10,9,8,7,6,5,4,3,2,1,11"), ("123", "10 9 8 7 6 5 4 3 2 11 1")]
    shared = tmp_path / "shared"
    for i, fmt in enumerate(("text", "json", "csv")):
        for machine in machines:
            patterns = ["--sigma", machine[0], *(["--tau", machine[1]] if machine[1:] else [])]
            for n in range(6):
                argv = ["enumerate", *patterns, "--n", str(n), "--format", fmt]
                code, out, err = invoke(capsys, *argv, "--cache-dir", str(shared))
                assert (code, err == "cache hit\n") == (0, i > 0), argv
                fresh = tmp_path / f"fresh-{fmt}-{machines.index(machine)}-{n}"
                assert invoke(capsys, *argv, "--cache-dir", str(fresh))[:2] == (0, out), argv
    assert len(list(shared.glob("*.json"))) == 6 * len(machines)


def test_enumerate_rescans_an_entry_stored_under_another_key(capsys, tmp_path):
    invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "5",
        "--cache-dir", str(tmp_path),
    )
    (entry,) = tmp_path.glob("*.json")
    moved = f"{harness._cache_key(('132', '321'), 6)}.json"
    entry.rename(tmp_path / moved)
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "6",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert out == "machine 132+321, n=6: 72 sortable permutations\n"
    assert err == (
        f"warning: discarding unreadable cache entry {moved}:"
        " entry holds machine ['132', '321'], n=5\n"
        "scanned in 6 blocks\n"
    )


def test_enumerate_rescans_an_entry_it_cannot_read(capsys, tmp_path):
    entry = tmp_path / f"{harness._cache_key(('132', '321'), 5)}.json"
    entry.mkdir()
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "5",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert out == "machine 132+321, n=5: 26 sortable permutations\n"
    # the directory in the entry's place also blocks the store, whose
    # message names the entry, not the store's randomly named temporary file
    assert err == (
        f"warning: discarding unreadable cache entry {entry.name}:"
        f" [Errno 21] Is a directory: '{entry}'\n"
        f"warning: could not store the result in the cache:"
        f" [Errno 21] Is a directory: '{entry}'\n"
        "scanned in 5 blocks\n"
    )


def test_enumerate_rescans_cached_witnesses_of_the_wrong_length(capsys, tmp_path):
    argv = (
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "2",
        "--cache-dir", str(tmp_path), "--format", "json",
    )
    code, first, _ = invoke(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["result"]["witnesses"] = ["1 2 3", "4 3 2 1"]
    doc["checksum"] = hashlib.sha256(
        harness._canonical(doc["result"]).encode()
    ).hexdigest()
    entry.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (0, first)
    assert json.loads(out)["witnesses"] == ["1 2", "2 1"]
    assert err == (
        f"warning: discarding unreadable cache entry {entry.name}:"
        " witness 1 2 3 has length 3, not n=2\n"
        "scanned in 2 blocks\n"
    )


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("stored", [None, 7, "lots"])
def test_enumerate_serves_an_entry_whatever_its_worker_partitions(capsys, tmp_path, n, stored):
    # the field is derived from n, so an entry that lacks it or holds
    # another value is still a hit and prints max(n, 1)
    argv = (
        "enumerate", "--sigma", "132", "--tau", "321", "--n", str(n),
        "--cache-dir", str(tmp_path), "--format", "json",
    )
    code, first, _ = invoke(capsys, *argv)
    assert json.loads(first)["worker_partitions"] == max(n, 1)
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    if stored is None:
        del doc["result"]["worker_partitions"]
    else:
        doc["result"]["worker_partitions"] = stored
    doc["checksum"] = hashlib.sha256(harness._canonical(doc["result"]).encode()).hexdigest()
    entry.write_text(json.dumps(doc))
    assert invoke(capsys, *argv) == (0, first, "cache hit\n")


def test_enumerate_rescans_an_entry_whose_length_is_a_float(capsys, tmp_path):
    argv = ("enumerate", "--sigma", "132", "--tau", "321", "--n", "2", "--cache-dir", str(tmp_path))
    invoke(capsys, *argv)
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["result"]["n"] = 2.0
    doc["checksum"] = hashlib.sha256(harness._canonical(doc["result"]).encode()).hexdigest()
    entry.write_text(json.dumps(doc))
    assert invoke(capsys, *argv) == (0, "machine 132+321, n=2: 2 sortable permutations\n", (
        f"warning: discarding unreadable cache entry {entry.name}:"
        " n and count must be nonnegative integers\n"
        "scanned in 2 blocks\n"
    ))


def test_enumerate_prints_the_result_when_the_cache_cannot_store(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "6",
        "--cache-dir", str(not_a_dir),
    )
    assert code == 0
    assert out == "machine 132+321, n=6: 72 sortable permutations\n"
    assert err == (
        "warning: could not store the result in the cache:"
        f" [Errno 17] File exists: '{not_a_dir}'\n"
        "scanned in 6 blocks\n"
    )


@pytest.mark.parametrize("action", ["ignore", "error"])
def test_cache_warnings_print_whatever_the_warning_filters(capsys, tmp_path, action):
    # under PYTHONWARNINGS=ignore the warning line went missing, and under
    # PYTHONWARNINGS=error the run exited 3 without printing its result
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    corrupt = tmp_path / "cache"
    corrupt.mkdir()
    entry = corrupt / f"{harness._cache_key(('132', '321'), 5)}.json"
    entry.write_text("not json")
    argv = ("enumerate", "--sigma", "132", "--tau", "321", "--n", "5", "--cache-dir")
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        unstored = invoke(capsys, *argv, str(not_a_dir))
        unread = invoke(capsys, *argv, str(corrupt))
    out = "machine 132+321, n=5: 26 sortable permutations\n"
    assert unstored == (0, out, (
        "warning: could not store the result in the cache:"
        f" [Errno 17] File exists: '{not_a_dir}'\n"
        "scanned in 5 blocks\n"
    ))
    assert unread == (0, out, (
        f"warning: discarding unreadable cache entry {entry.name}:"
        " Expecting value: line 1 column 1 (char 0)\n"
        "scanned in 5 blocks\n"
    ))


def test_enumerate_rescans_an_entry_nested_too_deep_to_parse(capsys, tmp_path):
    # json.loads raises RecursionError here, which used to exit 3
    entry = tmp_path / f"{harness._cache_key(('132', '321'), 5)}.json"
    entry.write_text("[" * 200_000)
    code, out, err = invoke(
        capsys, "enumerate", "--sigma", "132", "--tau", "321", "--n", "5", "--cache-dir", str(tmp_path)
    )
    assert (code, out) == (0, "machine 132+321, n=5: 26 sortable permutations\n")
    warning, note = err.splitlines()
    assert warning.startswith(f"warning: discarding unreadable cache entry {entry.name}: ")
    assert note == "scanned in 5 blocks"


def test_enumerate_scans_uncached_without_a_home_directory(capsys, monkeypatch, tmp_path):
    # a container run with --user may have no home directory; enumerate
    # used to exit 3 on the RuntimeError from Path.home
    for name in ("HOME", "XDG_CACHE_HOME", "STACKSORT_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)

    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", classmethod(no_home))
    monkeypatch.chdir(tmp_path)
    assert invoke(capsys, "enumerate", "--sigma", "132", "--tau", "321", "--n", "4") == (
        0,
        "machine 132+321, n=4: 10 sortable permutations\n",
        "warning: no cache directory (Could not determine home directory.);"
        " name one with --cache-dir or STACKSORT_CACHE_DIR\n"
        "scanned in 4 blocks\n",
    )
    assert list(tmp_path.iterdir()) == []


def test_enumerate_refuses_an_empty_cache_dir(capsys, monkeypatch, tmp_path):
    # an empty --cache-dir used to fall back to the default cache
    monkeypatch.setenv("STACKSORT_CACHE_DIR", str(tmp_path))
    code, out, err = invoke(
        capsys, "enumerate", "--sigma", "132", "--tau", "321", "--n", "3", "--cache-dir", ""
    )
    assert (code, out) == (2, "")
    assert err == "error: --cache-dir must name a directory, got an empty string\n"
    assert list(tmp_path.iterdir()) == []


def test_enumerate_single_machine(capsys, tmp_path):
    code, out, _ = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--n", "5",
        "--cache-dir", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    assert "132,5,51" in out


def test_enumerate_refuses_past_the_enumeration_cap(capsys, tmp_path):
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "13",
        "--cache-dir", str(tmp_path),
    )
    assert (code, out, err) == (2, "", "error: n=13 above the enumeration cap 12\n")
    assert list(tmp_path.iterdir()) == []


def test_enumerate_refuses_past_the_cap_an_entry_it_holds(capsys, tmp_path):
    # a checksum-valid entry used to answer with exit 0
    harness.cache_store(harness.EnumerationResult(("132", "321"), 13, 1, None), tmp_path)
    assert invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "13",
        "--cache-dir", str(tmp_path),
    ) == (2, "", "error: n=13 above the enumeration cap 12\n")


@pytest.mark.parametrize("tokens,message", [
    (("132", "132"), "need two distinct patterns, got 132 twice"),
    (("1", "321"), "forbidden patterns must have length >= 2"),
    (("1",), "forbidden patterns must have length >= 2"),
], ids=["repeated", "short-pair", "short-single"])
def test_enumerate_refuses_a_machine_it_holds_as_it_refuses_a_miss(
    capsys, tmp_path, tokens, message
):
    # a checksum-valid entry used to answer with "cache hit" and exit 0
    argv = ["enumerate", "--sigma", tokens[0], "--n", "3"]
    if len(tokens) > 1:
        argv += ["--tau", tokens[1]]
    miss = invoke(capsys, *argv, "--cache-dir", str(tmp_path / "empty"))
    assert miss == (2, "", f"error: {message}\n")
    harness.cache_store(
        harness.EnumerationResult(tokens, 3, 1, (Permutation((1, 2, 3)),)), tmp_path / "filled"
    )
    assert invoke(capsys, *argv, "--cache-dir", str(tmp_path / "filled")) == miss


@pytest.mark.parametrize("argv,message", [
    (("--sigma", "132", "--tau", "132", "--n", "13"), "need two distinct patterns, got 132 twice"),
    (
        ("--sigma", "132-star", "--tau", "132-star"),
        "need two distinct patterns, got 132-star twice",
    ),
    (("--sigma", "1", "--tau", "132-star"), "forbidden patterns must have length >= 2"),
    (("--sigma", "1", "--n", "13"), "forbidden patterns must have length >= 2"),
], ids=["repeated-long", "repeated-star", "short-star", "short-long"])
def test_enumerate_names_the_machine_rule_before_the_others(capsys, tmp_path, argv, message):
    # each input has two faults; the one in the machine's patterns is named
    argv = ("enumerate", "--n", "3", *argv, "--cache-dir", str(tmp_path))
    assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n,stored,held,count,witnesses", [
    (3, None, "no witnesses", 5, ["1 2 3", "1 3 2", "2 3 1", "3 1 2", "3 2 1"]),
    (9, (Permutation(tuple(range(1, 10))),), "witnesses", 4862, None),
], ids=["none-at-3", "some-at-9"])
def test_enumerate_rescans_an_entry_with_the_wrong_witness_shape(
    capsys, tmp_path, n, stored, held, count, witnesses
):
    # a scan keeps witnesses exactly up to n = 8; a hit printed what it held
    entry = harness.cache_store(
        harness.EnumerationResult(("12",), n, len(stored or ()), stored), tmp_path
    )
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "12", "--n", str(n),
        "--cache-dir", str(tmp_path), "--format", "json",
    )
    assert code == 0
    assert (json.loads(out)["count"], json.loads(out)["witnesses"]) == (count, witnesses)
    assert err == (
        f"warning: discarding unreadable cache entry {entry.name}:"
        f" entry for n={n} holds {held}; a scan keeps them up to n=8\n"
        f"scanned in {n} blocks\n"
    )


def test_enumerate_rescans_when_the_cache_dir_is_unreachable(capsys, tmp_path):
    # Path.exists raised ENAMETOOLONG on the cache entry, which exited 3
    unreachable = tmp_path / ("a" * 300)
    code, out, err = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "3",
        "--cache-dir", str(unreachable),
    )
    assert (code, out) == (0, "machine 132+321, n=3: 4 sortable permutations\n")
    unread, unstored, note = err.splitlines()
    entry = f"{harness._cache_key(('132', '321'), 3)}.json"
    assert unread.startswith(f"warning: discarding unreadable cache entry {entry}: ")
    assert unstored.startswith("warning: could not store the result in the cache: ")
    assert note == "scanned in 3 blocks"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--sigma", "132", "--n", "3", "--cache-dir", "cache"],
    ["verify", "--suite", "west", "--n-max", "2"],
    ["conjecture", "--n", "2"],
])
def test_workers_below_one_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # the engine refuses, before anything scans or touches a cache
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STACKSORT_CACHE_DIR", str(cache))
    for workers in ("0", "-5"):
        assert invoke(capsys, *argv, "--workers", workers) == (
            2, "", f"error: workers must be at least 1, got {workers}\n"
        )
    assert list(cache.iterdir()) == []


def test_enumerate_rejects_star_patterns(capsys, tmp_path):
    for patterns in (("--sigma", "132-star"), ("--sigma", "132", "--tau", "132-star")):
        assert invoke(
            capsys, "enumerate", *patterns, "--n", "4", "--cache-dir", str(tmp_path)
        ) == (2, "", "error: enumeration takes classical patterns, got 132-star\n")
    assert list(tmp_path.iterdir()) == []


def test_enumerate_refuses_an_empty_tau(capsys, tmp_path):
    # an empty --tau used to scan the single-132 machine and print its 15
    code, out, err = invoke(
        capsys, "enumerate", "--sigma", "132", "--tau", "", "--n", "4", "--cache-dir", str(tmp_path)
    )
    assert (code, out, err) == (2, "", "error: forbidden patterns must have length >= 2\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "west", "--n-max", "5")
    assert code == 0
    assert "all claims hold" in out
    code, out, _ = invoke(capsys, "verify", "--suite", "tables", "--n-max", "6")
    assert code == 1
    assert "FAIL" in out


def test_verify_json_is_deterministic(capsys):
    _, first, _ = invoke(
        capsys, "verify", "--suite", "characterization", "--n-max", "5",
        "--format", "json",
    )
    _, second, _ = invoke(
        capsys, "verify", "--suite", "characterization", "--n-max", "5",
        "--format", "json",
    )
    assert first == second
    doc = json.loads(first)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "characterization"


def test_signature_golden(capsys):
    code, out, _ = invoke(capsys, "signature", "--perm", "45231", "--sigma", "132")
    assert code == 0
    assert out.splitlines()[0] == "4.4.3.3.2"


@pytest.mark.parametrize("sigma", ["12", "321", "1234", "132-star"])
def test_signature_refuses_a_sigma_other_than_123_or_132(capsys, sigma):
    code, out, err = invoke(capsys, "signature", "--perm", "2413", "--sigma", sigma)
    assert (code, out, err) == (2, "", f"error: --sigma takes 123 or 132, got '{sigma}'\n")


@pytest.mark.parametrize("argv,err", [
    (("signature", "--perm", "132", "--sigma", "132"), "error: 1 3 2 contains 132\n"),
    (("signature", "--perm", "2134", "--sigma", "123"), "error: 2 1 3 4 contains 123\n"),
    (("west-map", "--perm", "132", "--sigma", "132", "--tau", "123"),
     "error: 1 3 2 contains 132\n"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_signature_and_west_map_refuse_a_perm_that_contains_sigma(capsys, argv, err):
    assert invoke(capsys, *argv) == (2, "", err)


def test_west_map_golden(capsys):
    code, out, _ = invoke(
        capsys, "west-map", "--perm", "45231", "--sigma", "132", "--tau", "123"
    )
    assert code == 0
    assert out.splitlines()[0] == "4 2 1 5 3"
    assert "4.4.3.3.2" in out


def test_west_map_rejects_bad_direction(capsys):
    for sigma, tau in (("132", "132"), ("132-star", "123"), ("132", "123-star")):
        assert invoke(capsys, "west-map", "--perm", "321", "--sigma", sigma, "--tau", tau) == (
            2, "", "error: matching is defined between 132-avoiders and 123-avoiders only\n"
        )


def test_west_map_answers_long_perms_and_maps_them_back(capsys):
    def west_map(perm, sigma, tau):
        code, out, err = invoke(
            capsys, "west-map", "--perm", perm, "--sigma", sigma, "--tau", tau
        )
        assert (code, err) == (0, ""), (perm, sigma, err)
        image, shared = out.splitlines()
        return image.replace(" ", ","), shared

    # the decreasing word avoids both patterns; 100..51 then 1..50 avoids 132
    decreasing = ",".join(str(v) for v in range(13, 0, -1))
    halves = ",".join(str(v) for v in [*range(100, 50, -1), *range(1, 51)])
    for perm, directions in (
        (decreasing, (("132", "123"), ("123", "132"))),
        (halves, (("132", "123"),)),
    ):
        for sigma, tau in directions:
            image, shared = west_map(perm, sigma, tau)
            assert west_map(image, tau, sigma) == (perm, shared)


def test_west_map_refuses_an_over_long_perm_before_computing_its_signature(
    capsys, monkeypatch
):
    def no_signature(x, y):
        raise AssertionError("signature computed for a refused input")

    monkeypatch.setattr(signatures, "signature", no_signature)
    monkeypatch.setattr(cli, "signature", no_signature)
    perm = " ".join(str(v) for v in range(cli.PERM_LENGTH_LIMIT + 1, 0, -1))
    for sigma, tau in (("132", "123"), ("123", "132")):
        code, out, err = invoke(
            capsys, "west-map", "--perm", perm, "--sigma", sigma, "--tau", tau
        )
        assert (code, out, err) == (2, "", "error: --perm has length 101, above the limit 100\n")


def test_dyck_perm_golden(capsys):
    code, out, _ = invoke(
        capsys, "dyck", "--perm", "8 11 6 10 4 9 7 5 3 1 2"
    )
    assert code == 0
    assert "b: 11 10 10 9 9 8 6 4 4 4 1" in out
    assert "path: uduuduududdudduuudddud" in out
    assert "dudu factor: no" in out


@pytest.mark.parametrize("argv,out", [
    (("signature", "--perm", "-", "--sigma", "132"), "-\n"),
    (("west-map", "--perm", "-", "--sigma", "132", "--tau", "123"), "-\nshared signature: -\n"),
    (("dyck", "--perm", "-"), "b: -\npath: -\ndudu factor: no\n"),
    (("sequences", "--n-max", "0"),
     "g (from n=0): 1\ncatalan (from n=0): 1\nschroder-large (from n=0): 1\n"
     "catalan-binomial-transform (from n=0): 1\npowers-2-shifted (from n=1): -\n"
     "sort-123-321 (from n=1): -\ng-series (from n=0): 1\n"),
], ids=["signature", "west-map", "dyck", "sequences"])
def test_empty_values_print_as_a_dash(capsys, argv, out):
    assert invoke(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ("trace", "--sigma", "132", "--tau", "321"),
    ("signature", "--sigma", "132"),
    ("west-map", "--sigma", "132", "--tau", "123"),
    ("dyck",),
], ids=["trace", "signature", "west-map", "dyck"])
def test_a_blank_perm_is_refused(capsys, argv):
    # an unset shell variable must not run the empty permutation; - names it
    for blank in ("", "  "):
        assert invoke(capsys, *argv, "--perm", blank) == (
            2, "", "error: --perm is blank; the empty permutation is -\n"
        )


def test_dyck_count_mode(capsys):
    code, out, _ = invoke(capsys, "dyck", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 6, "paths": 132, "avoiding_dudu": 72}
    code, out, err = invoke(capsys, "dyck", "--n", "15")
    assert (code, out, err) == (
        0, "Dyck paths of semilength 15: 9694845, avoiding dudu: 1742308\n", ""
    )
    code, out, err = invoke(capsys, "dyck", "--n", "69")
    assert (code, out, err) == (2, "", "error: C_69 leaves the 128-bit range\n")
    code, out, err = invoke(capsys, "dyck", "--n", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_dyck_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dyck", "--perm", "132", "--n", "3"])
    assert exc.value.code == 2


def test_sequences_refuses_n_max_past_the_128_bit_tables(capsys):
    code, out, err = invoke(capsys, "sequences", "--n-max", "53")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("g (from n=0): 1 1 2 ")
    with pytest.raises(Overflow, match="S_54"):
        schroder_large(54)
    for n_max, err_line in (
        ("54", "S_54 leaves the 128-bit range"),
        ("60", "S_54 leaves the 128-bit range"),
        ("-1", "n_max must be nonnegative, got -1"),
        ("1000000000", "g_76 leaves the 128-bit range"),
    ):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "sequences", "--n-max", n_max)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {err_line}\n")


def test_sequences_csv(capsys):
    code, out, _ = invoke(capsys, "sequences", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "table,n,value"
    assert "g,0,1" in lines
    assert "g,4,10" in lines
    assert "sort-123-321,4,7" in lines


def test_conjecture_exit_codes(capsys):
    code, out, _ = invoke(capsys, "conjecture", "--n", "3")
    assert code == 0
    code, out, _ = invoke(capsys, "conjecture", "--n", "4")
    assert code == 1
    assert "max-position-distributions-agree" in out


CONJECTURE_N4_TEXT = """\
machine 132+213, n=4, total 16
  by first entry:      1:1, 2:3, 3:6, 4:6
  by position of max:  1:6, 2:3, 3:3, 4:4
machine 213+312, n=4, total 16
  by first entry:      1:1, 2:3, 3:6, 4:6
  by position of max:  1:6, 2:2, 3:3, 4:5
suite conjecture (n_max=4): FAILURES
  ok   totals-agree (n=4..4)
  ok   first-entry-distributions-agree (n=4..4)
  FAIL max-position-distributions-agree (n=4..4)
         n=4: {1: 6, 2: 3, 3: 3, 4: 4} vs {1: 6, 2: 2, 3: 3, 4: 5}
  ok   statistics-partition-the-totals (n=4..4)
"""

VERIFY_CONJECTURE_5_TEXT = """\
suite conjecture (n_max=5): FAILURES
  ok   totals-agree (n=1..5)
  ok   first-entry-distributions-agree (n=1..5)
  FAIL max-position-distributions-agree (n=1..5)
         n=4: {1: 6, 2: 3, 3: 3, 4: 4} vs {1: 6, 2: 2, 3: 3, 4: 5}
         n=5: {1: 22, 2: 11, 3: 11, 4: 8, 5: 9} vs {1: 22, 2: 6, 3: 8, 4: 9, 5: 16}
  ok   statistics-partition-the-totals (n=1..5)

failing suites: conjecture
"""


def test_conjecture_text_golden(capsys):
    assert invoke(capsys, "conjecture", "--n", "4") == (1, CONJECTURE_N4_TEXT, "")


def test_conjecture_json_golden(capsys):
    def table(machine):
        return {
            "machine": machine,
            "n": 0,
            "by_first_entry": {"0": 1},
            "by_position_of_max": {"0": 1},
        }

    claim_ids = (
        "totals-agree",
        "first-entry-distributions-agree",
        "max-position-distributions-agree",
        "statistics-partition-the-totals",
    )
    expected = {
        "machine_a": table(["132", "213"]),
        "machine_b": table(["213", "312"]),
        "report": {
            "suite": "conjecture",
            "n_max": 0,
            "passed": True,
            "claims": [
                {
                    "claim_id": claim_id,
                    "n_range": [0, 0],
                    "status": "pass",
                    "counterexamples": [],
                    "detail": "",
                }
                for claim_id in claim_ids
            ],
        },
    }
    code, out, err = invoke(capsys, "conjecture", "--n", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2) + "\n"


def test_verify_conjecture_text_golden(capsys):
    assert invoke(capsys, "verify", "--suite", "conjecture", "--n-max", "5") == (
        1, VERIFY_CONJECTURE_5_TEXT, "",
    )


GOLDEN = Path(__file__).resolve().parent / "golden"
#: One small input per subcommand and the exit code it gives; the stdout of
#: each (name, format) pair is golden/<name>.<format>.  "{tmp}" is an empty
#: cache directory.
GOLDEN_RUNS = {
    "trace": (0, ["trace", "--sigma", "132", "--tau", "321", "--perm", "231"]),
    "verify": (1, ["verify", "--suite", "conjecture", "--n-max", "4"]),
    "verify-all": (1, ["verify", "--suite", "all", "--n-max", "6"]),
    "signature": (0, ["signature", "--perm", "45231", "--sigma", "132"]),
    "west-map": (0, ["west-map", "--perm", "45231", "--sigma", "132", "--tau", "123"]),
    "dyck-perm": (0, ["dyck", "--perm", "4213"]),
    "dyck-n": (0, ["dyck", "--n", "4"]),
    "conjecture": (0, ["conjecture", "--n", "3"]),
    "enumerate": (0, ["enumerate", "--sigma", "132", "--tau", "321", "--n", "4",
                      "--cache-dir", "{tmp}"]),
    "sequences": (0, ["sequences", "--n-max", "3"]),
}


def _offered_formats(command: str) -> tuple[str, ...]:
    (subparsers,) = build_parser()._subparsers._group_actions
    return subparsers.choices[command]._option_string_actions["--format"].choices


@pytest.mark.parametrize("name,fmt", [
    (name, fmt) for name, (_, argv) in GOLDEN_RUNS.items() for fmt in _offered_formats(argv[0])
])
def test_stdout_golden_for_every_subcommand_and_format(capsys, tmp_path, name, fmt):
    code, argv = GOLDEN_RUNS[name]
    argv = [a.format(tmp=tmp_path) for a in argv]
    expected = (GOLDEN / f"{name}.{fmt}").read_text()
    assert invoke(capsys, *argv, "--format", fmt)[:2] == (code, expected)


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["trace", "--sigma", "132", "--perm", "231"],  # missing --tau
        ["verify", "--suite", "everything"],
        ["bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_sequences", broken)
    code, out, err = invoke(capsys, "sequences", "--n-max", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError: boom (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,target,signal", [
    (("west-map", "--perm", "45231", "--sigma", "132", "--tau", "123"), "west_map", signatures.NoMatch),
    (("sequences", "--n-max", "4"), "gf_coefficients", NonIntegerCoefficient),
], ids=["NoMatch", "NonIntegerCoefficient"])
def test_bug_signals_are_internal_errors_not_refusals(capsys, monkeypatch, argv, target, signal):
    def broken(*args):
        raise signal("bug")

    monkeypatch.setattr(cli, target, broken)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: {signal.__name__}: bug (")
    assert err.count("\n") == 1


def test_bad_permutation_is_a_usage_error(capsys):
    code, _, err = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", "1 999 2"
    )
    assert code == 2
    assert "error:" in err


def test_a_perm_with_an_empty_comma_field_is_refused_not_shortened(capsys):
    code, out, err = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", "3,,1,2"
    )
    assert (code, out) == (2, "")
    assert err == "error: empty entry in permutation string '3,,1,2'\n"


def test_per_permutation_commands_refuse_perms_past_the_length_limit(capsys):
    over = ",".join(str(v) for v in range(cli.PERM_LENGTH_LIMIT + 1, 0, -1))
    for argv in (
        ["trace", "--sigma", "132", "--tau", "321"],
        ["signature", "--sigma", "132"],
        ["west-map", "--sigma", "132", "--tau", "123"],
        ["dyck"],
    ):
        code, out, err = invoke(capsys, *argv, "--perm", over)
        assert (code, out) == (2, "")
        assert err == "error: --perm has length 101, above the limit 100\n"
    at_limit = ",".join(str(v) for v in range(1, cli.PERM_LENGTH_LIMIT + 1))
    code, out, _ = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", at_limit
    )
    assert code == 0
    assert out.rstrip().endswith("sorted: no")  # the identity contains 123


def _loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    script = "import sys\n" + code + "\nprint(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    return set(done.stdout.split())


def _package_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.startswith("stacksort")}


@pytest.fixture(scope="module")
def bare_interpreter_modules():
    return _loaded_modules("pass")


def test_importing_the_cli_loads_only_perms():
    assert _package_modules(_loaded_modules("import stacksort.cli")) == {
        "stacksort", "stacksort.cli", "stacksort.perms",
    }


EVERY_LAYER = ("machine", "signatures", "dyck", "sequences", "harness")
#: The layers each command loads.  "{tmp}" is an empty cache directory and
#: "{filled}" one that already holds the command's result.
LAYERS_RUN = {
    ("trace", "--sigma", "132", "--tau", "321", "--perm", "4213"): ("machine",),
    ("signature", "--perm", "45231", "--sigma", "132"): ("signatures",),
    ("west-map", "--perm", "45231", "--sigma", "132", "--tau", "123"): ("signatures",),
    ("dyck", "--perm", "4213"): ("dyck",),
    ("dyck", "--n", "4"): ("dyck", "sequences"),
    ("sequences", "--n-max", "4"): ("sequences",),
    ("enumerate", "--sigma", "132", "--n", "3", "--cache-dir", "{tmp}"): ("machine", "harness"),
    ("enumerate", "--sigma", "132", "--tau", "321", "--n", "5", "--cache-dir", "{filled}"):
        ("harness",),
    ("verify", "--suite", "dyck", "--n-max", "2"): EVERY_LAYER + ("suites",),
    ("conjecture", "--n", "2"): EVERY_LAYER + ("suites",),
}


@pytest.mark.parametrize("argv,layers", LAYERS_RUN.items(), ids=lambda v: " ".join(v))
def test_each_subcommand_loads_only_the_layers_it_runs(
    argv, layers, tmp_path, bare_interpreter_modules
):
    prefill = "{filled}" in argv
    argv = [a.format(tmp=tmp_path, filled=tmp_path) for a in argv]
    if prefill:  # this run scans and stores the result the next one reads
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) == 0
    loaded = _loaded_modules(
        "import contextlib, io\n"
        "from stacksort.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert run({argv!r}) == 0"
    )
    assert _package_modules(loaded) == {"stacksort", "stacksort.cli", "stacksort.perms"} | {
        f"stacksort.{layer}" for layer in layers
    }
    # text output needs no csv writer, a run that succeeds no traceback, and
    # no layer defines its records with dataclasses (which loads inspect)
    added = loaded - bare_interpreter_modules
    assert not {"csv", "traceback", "dataclasses", "inspect"} & added
    # only the cache in harness reads and writes JSON
    assert "harness" in layers or "json" not in added


def _imported_by(*args: str) -> set[str]:
    """The modules python -X importtime reports for a fresh interpreter run."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    }


def test_the_entry_point_loads_only_what_a_text_trace_runs():
    bare = _imported_by("-c", "pass")
    for argv, layer in (
        (("trace", "--sigma", "132", "--tau", "321", "--perm", "4213"), "machine"),
        (("signature", "--perm", "45231", "--sigma", "132"), "signatures"),
    ):
        loaded = _imported_by("-m", "stacksort.cli", *argv)
        # run as __main__, the CLI module itself is not imported by name
        assert _package_modules(loaded) == {
            "stacksort", "stacksort.perms", f"stacksort.{layer}",
        }, argv
        added = loaded - bare
        assert not {"csv", "traceback", "dataclasses", "inspect", "json"} & added, argv


def test_every_exported_name_resolves_to_its_definition():
    # the package and the CLI resolve every public name from the one table
    for layer, names in stacksort._EXPORTS.items():
        module = importlib.import_module(f"stacksort.{layer}")
        for name in names:
            assert getattr(stacksort, name) is getattr(module, name), name
            assert getattr(cli, name) is getattr(module, name), name
    assert set(stacksort.__all__) <= set(dir(stacksort))
    namespace = {}
    exec("from stacksort import *", namespace)
    assert set(stacksort.__all__) <= set(namespace)
    assert namespace["machine"] is importlib.import_module("stacksort.machine").machine
    with pytest.raises(AttributeError):
        stacksort.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_a_value_set_on_the_cli_module_is_the_one_its_handler_calls(
    capsys, monkeypatch
):
    calls = []
    real = cli.signature

    def recording(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(cli, "signature", recording)
    code, out, _ = invoke(capsys, "signature", "--perm", "45231", "--sigma", "132")
    assert (code, out.splitlines()[0]) == (0, "4.4.3.3.2")
    assert calls == [(Permutation.from_digits("45231"), Permutation.from_digits("132"))]


def test_suite_caps_name_every_suite():
    # verify --suite all runs the suites in the order of SUITE_CAPS
    assert list(suites.SUITES) == list(SUITE_CAPS)
    assert harness.SUITE_CAPS is SUITE_CAPS
    assert suites.SUITES["west"] is suites.verify_west
    assert suites.SUITES["conjecture"] is harness.verify_conjecture
    # the names that moved to suites still resolve on harness
    assert harness.SUITES is suites.SUITES
    assert harness.verify_dyck is suites.verify_dyck
    with pytest.raises(AttributeError):
        harness.no_such_name


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves_in_a_known_layer():
    # perfbench/spans.py wraps these names for --trace 1 and names each span
    # after the module that defines the function; its self times know only
    # spans.LAYERS
    spans = _load_spans()
    for caller, names in spans.ENTRY_POINTS.items():
        module = importlib.import_module(caller)
        for name in names:
            fn = getattr(module, name)
            assert fn.__module__.rsplit(".", 1)[-1] in spans.LAYERS, (caller, name)


def _layer_names_read_by_the_benchmark() -> set[tuple[str, str]]:
    """Each (module, attribute) perfbench/layers.py reads off the layers it
    imports as ``dyck, harness, ... = (import_module(f"stacksort.{name}") ...)``."""
    tree = ast.parse((SPANS.parent / "layers.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.GeneratorExp):
            (target,) = node.targets
            names = node.value.generators[0].iter.elts
            modules.update(
                (var.id, f"stacksort.{name.value}") for var, name in zip(target.elts, names)
            )
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_layer_name_the_benchmark_reads_resolves():
    # perfbench/layers.py and spans.CACHES read these names directly; a
    # cleanup that deletes one breaks only the benchmark's traced runs
    read = _layer_names_read_by_the_benchmark()
    assert {("stacksort.signatures", "PATTERN_123"), ("stacksort.machine", "POP_BLOCKED"),
            ("stacksort.harness", "cache_load")} <= read
    for module, name in sorted(read):
        assert hasattr(importlib.import_module(module), name), (module, name)
    for module, name in _load_spans().CACHES:
        assert callable(getattr(importlib.import_module(module), name).cache_info), (module, name)


def test_a_traced_verify_times_its_suite():
    done = subprocess.run(
        [sys.executable, str(SPANS), "op", "verify", "--suite", "west", "--n-max", "2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    doc = json.loads(done.stdout)
    assert doc["exit"] == 0
    assert "harness.suite.west" in {s["name"] for s in doc["spans"]}
    _load_spans().self_times(doc["spans"])  # a span outside spans.LAYERS raises


def test_a_claim_with_an_empty_range_is_skipped(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "west", "--n-max", "1")
    assert code == 0
    assert "  skip first-active-count-locates-max (n=2..1)\n" in out
    assert out.startswith("suite west (n_max=1): all claims hold\n")
    code, out, _ = invoke(
        capsys, "verify", "--suite", "west", "--n-max", "1", "--format", "json"
    )
    (report,) = json.loads(out)["suites"]
    status = {c["claim_id"]: c["status"] for c in report["claims"]}
    assert status.pop("first-active-count-locates-max") == "skip"
    assert set(status.values()) == {"pass"}
    assert (code, report["passed"]) == (0, True)


TABLES_N0_TEXT = """\
suite tables (n_max=0): all claims hold
  ok   references-match-embedded-prefixes (n=0..9)
  skip row-123+213-matches-A000108 (n=1..0)
  skip row-132+312-matches-A000108 (n=1..0)
  skip row-231+321-matches-A000108 (n=1..0)
  skip row-123+132-matches-A000108 (n=1..0)
  skip row-123+231-matches-A006318 (n=1..0)
  skip row-132+231-matches-A006318 (n=1..0)
  skip row-123+312-matches-A007317 (n=1..0)
  skip row-132+321-matches-A102407 (n=1..0)
  skip row-132-matches-A007317 (n=1..0)
  skip row-321-matches-A011782 (n=1..0)
  skip row-123-matches-A294790 (n=1..0)
  skip row-123+321-matches-closed-form (n=1..0)

all suites passed
"""


def test_empty_table_rows_are_skipped_without_an_alignment(capsys):
    # a row with no lengths examined nothing, so it names no shift
    assert invoke(capsys, "verify", "--suite", "tables", "--n-max", "0") == (
        0, TABLES_N0_TEXT, "",
    )
    code, out, err = invoke(
        capsys, "verify", "--suite", "tables", "--n-max", "0", "--format", "json"
    )
    assert (code, err) == (0, "")
    (report,) = json.loads(out)["suites"]
    references, *rows = report["claims"]
    assert references["status"] == "pass"
    assert [row["claim_id"] for row in rows] == [
        line.split()[1] for line in TABLES_N0_TEXT.splitlines()[2:14]
    ]
    for row in rows:
        assert row == {
            "claim_id": row["claim_id"],
            "n_range": [1, 0],
            "status": "skip",
            "counterexamples": [],
            "detail": "",
        }


def test_parser_covers_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subcommands = set(actions[0].choices)
    assert subcommands == {
        "trace", "enumerate", "verify", "signature",
        "west-map", "dyck", "sequences", "conjecture",
    }
    # every subcommand, and both dyck modes, has its loaded layers pinned
    assert {argv[0] for argv in LAYERS_RUN} == subcommands
    assert {argv[1] for argv in LAYERS_RUN if argv[0] == "dyck"} == {"--perm", "--n"}
