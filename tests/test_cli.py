import json

import pytest

from stacksort import harness
from stacksort.cli import build_parser, run


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
    code, out, err = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "132", "--perm", "2314"
    )
    assert code == 2
    assert out == ""
    assert "two distinct patterns" in err


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


def test_enumerate_rescans_an_entry_stored_under_another_key(capsys, tmp_path):
    invoke(
        capsys,
        "enumerate", "--sigma", "132", "--tau", "321", "--n", "5",
        "--cache-dir", str(tmp_path),
    )
    (entry,) = tmp_path.glob("*.json")
    entry.rename(tmp_path / f"{harness._cache_key(('132', '321'), 6)}.json")
    with pytest.warns(harness.CorruptCacheEntry):
        code, out, err = invoke(
            capsys,
            "enumerate", "--sigma", "132", "--tau", "321", "--n", "6",
            "--cache-dir", str(tmp_path),
        )
    assert code == 0
    assert out == "machine 132+321, n=6: 72 sortable permutations\n"
    assert "cache hit" not in err


def test_enumerate_prints_the_result_when_the_cache_cannot_store(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.warns(harness.CacheStoreFailed):
        code, out, _ = invoke(
            capsys,
            "enumerate", "--sigma", "132", "--tau", "321", "--n", "6",
            "--cache-dir", str(not_a_dir),
        )
    assert code == 0
    assert out == "machine 132+321, n=6: 72 sortable permutations\n"


def test_enumerate_single_machine(capsys, tmp_path):
    code, out, _ = invoke(
        capsys,
        "enumerate", "--sigma", "132", "--n", "5",
        "--cache-dir", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    assert "132,5,51" in out


def test_enumerate_rejects_star_patterns(capsys, tmp_path):
    code, _, err = invoke(
        capsys,
        "enumerate", "--sigma", "132-star", "--n", "4", "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert "classical" in err


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


def test_west_map_golden(capsys):
    code, out, _ = invoke(
        capsys, "west-map", "--perm", "45231", "--sigma", "132", "--tau", "123"
    )
    assert code == 0
    assert out.splitlines()[0] == "4 2 1 5 3"
    assert "4.4.3.3.2" in out


def test_west_map_rejects_bad_direction(capsys):
    code, _, err = invoke(
        capsys, "west-map", "--perm", "321", "--sigma", "132", "--tau", "132"
    )
    assert code == 2
    assert "error:" in err


def test_dyck_perm_golden(capsys):
    code, out, _ = invoke(
        capsys, "dyck", "--perm", "8 11 6 10 4 9 7 5 3 1 2"
    )
    assert code == 0
    assert "b: 11 10 10 9 9 8 6 4 4 4 1" in out
    assert "path: uduuduududdudduuudddud" in out
    assert "dudu factor: no" in out


def test_dyck_count_mode(capsys):
    code, out, _ = invoke(capsys, "dyck", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 6, "paths": 132, "avoiding_dudu": 72}


def test_dyck_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dyck", "--perm", "132", "--n", "3"])
    assert exc.value.code == 2


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


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["trace", "--sigma", "132", "--perm", "231"],  # missing --tau
        ["verify", "--suite", "everything"],
        ["bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_bad_permutation_is_a_usage_error(capsys):
    code, _, err = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", "1 999 2"
    )
    assert code == 2
    assert "error:" in err


def test_parser_covers_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subcommands = set(actions[0].choices)
    assert subcommands == {
        "trace", "enumerate", "verify", "signature",
        "west-map", "dyck", "sequences", "conjecture",
    }
