import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stacksort
from stacksort import cli, harness, suites
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
    # message names the store's randomly named temporary file
    discard, store, note = err.splitlines(keepends=True)
    assert discard == (
        f"warning: discarding unreadable cache entry {entry.name}:"
        f" [Errno 21] Is a directory: '{entry}'\n"
    )
    assert re.fullmatch(
        re.escape(f"warning: could not store the result in the cache: [Errno 21]"
                  f" Is a directory: '{tmp_path}/")
        + r"tmp\w+\.tmp' -> " + re.escape(f"'{entry}'\n"),
        store,
    )
    assert note == "scanned in 5 blocks\n"


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
    ("signature", "--perm", "45231", "--sigma", "132"): ("machine", "signatures"),
    ("west-map", "--perm", "45231", "--sigma", "132", "--tau", "123"):
        ("machine", "signatures"),
    ("dyck", "--perm", "4213"): ("dyck", "sequences"),
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
    assert set(cli.COMMAND_LAYERS[argv[0]]) <= set(layers)
    # text output needs no csv writer, and a run that succeeds no traceback
    assert not {"csv", "traceback"} & (loaded - bare_interpreter_modules)


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


def test_parser_covers_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subcommands = set(actions[0].choices)
    assert subcommands == {
        "trace", "enumerate", "verify", "signature",
        "west-map", "dyck", "sequences", "conjecture",
    }
    assert set(cli.COMMAND_LAYERS) == subcommands
