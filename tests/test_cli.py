import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stacksort
from stacksort import cli, harness, signatures, suites
from stacksort.cli import build_parser, run
from stacksort.perms import SUITE_CAPS, Permutation
from stacksort.sequences import Overflow, schroder_large

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


@pytest.mark.parametrize("argv", [
    ["enumerate", "--sigma", "132", "--n", "3"],
    ["verify", "--suite", "west", "--n-max", "2"],
    ["conjecture", "--n", "2"],
])
def test_workers_below_one_is_a_usage_error(capsys, argv):
    # refused while parsing, before anything scans or touches a cache
    for workers in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--workers", workers])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --workers: must be at least 1, got {workers}\n"
        )


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


@pytest.mark.parametrize("sigma", ["12", "321", "1234"])
def test_signature_refuses_a_sigma_other_than_123_or_132(capsys, sigma):
    code, out, err = invoke(capsys, "signature", "--perm", "2413", "--sigma", sigma)
    assert (code, out, err) == (2, "", f"error: --sigma takes 123 or 132, got '{sigma}'\n")


@pytest.mark.parametrize("argv,err", [
    (("signature", "--perm", "132", "--sigma", "132"), "error: 1 3 2 contains 1 3 2\n"),
    (("signature", "--perm", "2134", "--sigma", "123"), "error: 2 1 3 4 contains 1 2 3\n"),
    (("west-map", "--perm", "132", "--sigma", "132", "--tau", "123"),
     "error: 1 3 2 contains 1 3 2\n"),
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
    code, _, err = invoke(
        capsys, "west-map", "--perm", "321", "--sigma", "132", "--tau", "132"
    )
    assert code == 2
    assert "error:" in err


def test_west_map_refuses_past_the_generation_cap(capsys):
    perm = " ".join(str(v) for v in range(13, 0, -1))
    for sigma, tau in (("132", "123"), ("123", "132")):
        code, out, err = invoke(
            capsys, "west-map", "--perm", perm, "--sigma", sigma, "--tau", tau
        )
        assert (code, out, err) == (2, "", "error: n=13 above the generation cap 12\n")


def test_west_map_refuses_an_over_long_perm_before_computing_its_signature(
    capsys, monkeypatch
):
    def no_signature(x, y):
        raise AssertionError("signature computed for a refused input")

    monkeypatch.setattr(signatures, "signature", no_signature)
    monkeypatch.setattr(cli, "signature", no_signature)
    perm = " ".join(str(v) for v in range(100, 0, -1))
    for sigma, tau in (("132", "123"), ("123", "132")):
        code, out, err = invoke(
            capsys, "west-map", "--perm", perm, "--sigma", sigma, "--tau", tau
        )
        assert (code, out, err) == (2, "", "error: n=100 above the generation cap 12\n")


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
    code, out, err = invoke(capsys, "dyck", "--n", "15")
    assert (code, out, err) == (2, "", "error: semilength 15 above the cap 14\n")
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
    for n_max in ("54", "60", "-1"):
        code, out, err = invoke(capsys, "sequences", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == (
            "error: sequences runs for n_max in 0..53, where every table fits"
            f" in 128 bits; got {n_max}\n"
        )


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


def test_bad_permutation_is_a_usage_error(capsys):
    code, _, err = invoke(
        capsys, "trace", "--sigma", "132", "--tau", "321", "--perm", "1 999 2"
    )
    assert code == 2
    assert "error:" in err


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
    ("conjecture", "--n", "2"): ("machine", "harness"),
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
