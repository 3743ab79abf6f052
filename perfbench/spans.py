"""Spans recorded from the benchmark's own code, around calls into each layer.

A span is (id, parent, name, start_ns, end_ns, op).  Names start with the
layer they time: perms, machine, signatures, dyck, sequences, harness, cli,
or process for what only the parent process can see (interpreter start and
exit around a CLI operation).  Spans are kept in memory and written once,
when the process ends.  Times come from time.perf_counter_ns, which on
Linux reads CLOCK_MONOTONIC, so spans of a child process nest directly
inside the parent's span around it.

Run as a script, this module is one traced CLI operation: it imports
stacksort.cli, wraps the layer entry points the CLI and the harness call,
runs cli.run(argv) with stdout captured, and prints one JSON object with
the exit code, the captured output and the spans.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

LAYERS = ("perms", "machine", "signatures", "dyck", "sequences", "harness", "cli", "process")

#: Layer entry points wrapped in the namespace of the module that calls
#: them.  Helpers called per permutation (pattern_name, format_permutation,
#: the engine's _sortable_word) stay unwrapped: a span per call would cost
#: more than the call.  The engine's time therefore stays in harness.
ENTRY_POINTS = {
    "stacksort.cli": (
        "pattern_stack_pass", "west_pass", "signature", "west_map",
        "rotem_b_sequence", "rotem_map", "dyck_paths", "count_dyck_avoiding",
        "g_sequence", "f_sequence", "catalan", "schroder_large",
        "binomial_transform_catalan", "powers_2_shifted", "sort_123_321_closed",
        "gf_coefficients", "enumerate_cached", "run_suites", "conjecture_tables",
    ),
    "stacksort.harness": (
        "cache_load", "cache_store", "enumerate_sortable", "enumerate_single_machine",
        "conjecture_tables", "avoiders", "is_sortable", "pattern_stack_pass",
        "signature", "west_map", "rotem_map", "grid_cells", "dyck_paths",
        "count_dyck_avoiding", "g_sequence",
    ),
}
#: Entry points that return iterators: drained inside the span, so the span
#: covers the generation and not only the creation of the generator.
GENERATORS = {"avoiders", "dyck_paths"}
#: Process-level caches whose hits mark a call as warm.
CACHES = (
    ("stacksort.machine", "_compile"),
    ("stacksort.machine", "_compile_pair"),
    ("stacksort.signatures", "_signature_index"),
)


class Recorder:
    """Collects spans in memory; nesting follows the call stack."""

    def __init__(self, op: str = "") -> None:
        self.op = op
        self.spans: list[tuple] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, end, self.op)

    def wrap(self, fn, name: str, drain: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                return iter(list(result)) if drain else result

        return traced

    def install(self) -> None:
        """Wrap the entry points of ENTRY_POINTS and the verification suites."""
        for caller, names in ENTRY_POINTS.items():
            module = importlib.import_module(caller)
            for name in names:
                fn = getattr(module, name)
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, name, self.wrap(fn, f"{layer}.{name}", name in GENERATORS))
        harness = importlib.import_module("stacksort.harness")
        for suite, fn in list(harness.SUITES.items()):
            harness.SUITES[suite] = self.wrap(fn, f"harness.suite.{suite}")


def cache_hits() -> dict[str, int]:
    return {
        f"{mod.rsplit('.', 1)[-1]}.{name}": getattr(
            importlib.import_module(mod), name).cache_info().hits
        for mod, name in CACHES
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each layer's self time: a span's duration minus the part
    its child spans cover (children never overlap, they nest)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end"] - s["start"]
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0)
        totals[s["name"].split(".", 1)[0]] += own / 1e9
    return totals


def as_dicts(raw: list[tuple]) -> list[dict]:
    keys = ("id", "parent", "name", "start", "end", "op")
    return [dict(zip(keys, s)) for s in raw]


def main(argv: list[str]) -> None:
    """Usage: spans.py OP_ID CLI-ARG..."""
    op, cli_argv = argv[0], argv[1:]
    rec = Recorder(op)
    with rec.span("cli.import"):
        cli = importlib.import_module("stacksort.cli")
    rec.install()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), rec.span("cli.run"):
        try:
            code = cli.run(cli_argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    json.dump({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
               "spans": as_dicts(rec.spans), "cache_hits": cache_hits()}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
