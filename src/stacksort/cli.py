"""Command line front end.

One subcommand per capability: trace a machine run, enumerate sortable
permutations, run verification suites, and query the bijections and
counting sequences directly.  Data goes to stdout, diagnostics to stderr,
and output bytes are deterministic: nothing here consults a clock, a
random source, or unordered iteration.

Importing this module loads only ``perms``, which also reads every
permutation and pattern argument.  Each handler loads the layers it calls,
where it calls them, with ``_load``, which binds each layer's public names
here from the package's one export table (``stacksort._EXPORTS``).
``tests/test_cli.py::LAYERS_RUN`` lists the layers each subcommand loads and
checks them.

Modules that only one branch needs, such as ``json`` for ``--format json``,
``csv`` for ``--format csv`` and ``traceback`` for an internal error, are
imported in that branch; ``harness`` loads ``json`` for its cache.  No
subcommand loads ``inspect``: the records are ``NamedTuple``s and the value
types subclass ``perms._Frozen``.

Each handler returns an ``Answer``: its text, its JSON payload, its CSV rows
where ``--format csv`` is offered, and its exit code.  ``run`` renders the
form ``--format`` asks for and is the only code here that writes to stdout.
Handlers name no statistic: ``conjecture`` joins each table's own
``render_text``.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors and refused inputs, 3 on any other exception, which is
a bug in the package and is reported as one "internal error:" line on
stderr.  Every refusal is a ``ValueError``, raised by the layer that owns
its rule, ``sequences.Overflow`` for a table or a Dyck count that leaves
128 bits among them; this module refuses only what no layer holds, such as
a blank --perm, a --perm of more than 100 entries, a trace past
``TRACE_COST_LIMIT``, and a ``signature`` whose --sigma is not 123 or 132
or whose --perm contains it.
The package's other exceptions, such as ``signatures.NoMatch`` from
``west_map`` and ``sequences.NonIntegerCoefficient``, signal bugs and exit 3.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import stacksort

from .perms import (
    PERM_LENGTH_LIMIT,
    SUITE_CAPS,
    LengthTooLarge,
    Permutation,
    contains_classical,
    format_permutation,
    machine_patterns,
    parse_pattern,
    parse_permutation,
    pattern_name,
)

if TYPE_CHECKING:
    from .machine import StackTrace


def _load(layer: str) -> None:
    # Each handler binds the layers it calls as module globals before it
    # calls them, and attribute access (module __getattr__) binds them on
    # demand.  Both use setdefault, so a value already set on this module,
    # such as a test's monkeypatch or a tracing wrapper, is the one the
    # handlers call.
    for name in stacksort._EXPORTS[layer]:
        globals().setdefault(name, getattr(stacksort, name))


def __getattr__(name: str):
    if name not in stacksort._HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(stacksort._HOME[name])
    return globals()[name]


FORMATS = ("text", "json", "csv")

#: Most pattern subsets a trace's push tests may check: a pattern of length k
#: checks up to C(L - 1, k - 1) subsets of the stack on a --perm of length L.
#: This is two length-4 patterns on a --perm of PERM_LENGTH_LIMIT entries.
TRACE_COST_LIMIT = 2 * math.comb(PERM_LENGTH_LIMIT - 1, 3)


def _parse_perm(token: str) -> Permutation:
    # a blank --perm is most likely an unset shell variable, not a request
    if not token.strip():
        raise ValueError("--perm is blank; the empty permutation is -")
    x = parse_permutation(token)
    if len(x) > PERM_LENGTH_LIMIT:
        raise LengthTooLarge(
            f"--perm has length {len(x)}, above the limit {PERM_LENGTH_LIMIT}"
        )
    return x


class Answer(NamedTuple):
    """What a handler found, in every form its --format choices offer."""

    text: str
    payload: dict
    #: CSV header and rows, for the subcommands that offer --format csv.
    rows: list[list] | None = None
    code: int = 0


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _render_trace_steps(trace: StackTrace) -> list[str]:
    lines = []
    for step in trace.steps:
        stack = " ".join(str(v) for v in step.stack_top_to_bottom) or "-"
        out = " ".join(str(v) for v in step.output_so_far) or "-"
        lines.append(f"  {step.action:<11} {step.moved_value:>3} | stack: {stack:<12} | out: {out}")
    return lines


# ---- subcommand handlers --------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> Answer:
    x = _parse_perm(args.perm)
    sigma = parse_pattern(args.sigma)
    tau = parse_pattern(args.tau)
    sizes = [len(p) for p in (sigma, tau)]
    cost = sum(math.comb(max(len(x) - 1, 0), max(k - 1, 0)) for k in sizes)
    if cost > TRACE_COST_LIMIT:
        raise LengthTooLarge(
            f"patterns of length {sizes[0]} and {sizes[1]} on a --perm of length {len(x)}"
            f" may test {cost} stack subsets a push, above the limit {TRACE_COST_LIMIT}"
        )
    _load("machine")
    mid, first = pattern_stack_pass(x, machine_patterns(sigma, tau), want_trace=True)
    out, second = west_pass(mid, want_trace=True)
    sorted_ok = out.is_identity
    name = f"({pattern_name(sigma)}, {pattern_name(tau)})"
    lines = [f"{name} machine on {format_permutation(x)}"]
    lines.append(f"pass 1: stack avoiding {name}")
    lines.extend(_render_trace_steps(first))
    lines.append(f"  intermediate: {format_permutation(mid)}")
    lines.append("pass 2: increasing stack")
    lines.extend(_render_trace_steps(second))
    lines.append(f"output: {format_permutation(out)}")
    lines.append(f"sorted: {'yes' if sorted_ok else 'no'}")
    return Answer(
        "\n".join(lines),
        {
            "input": list(x.entries),
            "machine": [pattern_name(sigma), pattern_name(tau)],
            "pattern_pass": first.to_json_dict(),
            "intermediate": list(mid.entries),
            "west_pass": second.to_json_dict(),
            "output": list(out.entries),
            "sorted": sorted_ok,
        },
    )


def _cmd_enumerate(args: argparse.Namespace) -> Answer:
    sigma = parse_pattern(args.sigma)
    tau = None if args.tau is None else parse_pattern(args.tau)
    _load("harness")
    # A cache entry that cannot be trusted or stored warns; it prints as one
    # line that names no source file, before the note on how it was answered,
    # whatever warning filters the caller has set.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, from_cache = enumerate_cached(
            args.n, sigma, tau, workers=args.workers, cache_dir=args.cache_dir
        )
    for warning in caught:
        _note(f"warning: {warning.message}")
    _note("cache hit" if from_cache else f"scanned in {result.worker_partitions} blocks")
    label = "+".join(result.machine)
    return Answer(
        f"machine {label}, n={result.n}: {result.count} sortable permutations",
        result.to_json_dict(),
        [["machine", "n", "count"], [label, result.n, result.count]],
    )


def _cmd_verify(args: argparse.Namespace) -> Answer:
    names = list(SUITE_CAPS) if args.suite == "all" else [args.suite]
    _load("harness")
    reports = run_suites(names, args.n_max, workers=args.workers)
    passed = all(r.passed for r in reports)
    blocks = [r.render_text() for r in reports]
    failing = [r.suite for r in reports if not r.passed]
    blocks.append(
        "all suites passed" if passed else "failing suites: " + ", ".join(failing)
    )
    return Answer(
        "\n\n".join(blocks),
        {
            "n_max": args.n_max,
            "suites": [r.to_json_dict() for r in reports],
            "passed": passed,
        },
        code=0 if passed else 1,
    )


def _cmd_signature(args: argparse.Namespace) -> Answer:
    x = _parse_perm(args.perm)
    y = parse_pattern(args.sigma)
    if pattern_name(y) not in ("123", "132"):
        raise ValueError(f"--sigma takes 123 or 132, got {args.sigma!r}")
    if contains_classical(x, y):
        raise ValueError(f"{x} contains {pattern_name(y)}")
    _load("signatures")
    sig = signature(x, y)
    plateau = has_plateau(sig)
    lines = [format_signature(sig)]
    if plateau:
        lines.append("has a plateau (sig_i = sig_{i+1} <= sig_{i+2})")
    return Answer(
        "\n".join(lines),
        {
            "perm": list(x.entries),
            "pattern": pattern_name(y),
            "signature": list(sig),
            "plateau": plateau,
        },
    )


def _cmd_west_map(args: argparse.Namespace) -> Answer:
    x = _parse_perm(args.perm)
    source = parse_pattern(args.sigma)
    target = parse_pattern(args.tau)
    _load("signatures")
    image = west_map(x, source, target)
    sig = signature(x, source)
    return Answer(
        f"{format_permutation(image)}\nshared signature: {format_signature(sig)}",
        {
            "perm": list(x.entries),
            "source": pattern_name(source),
            "target": pattern_name(target),
            "image": list(image.entries),
            "signature": list(sig),
        },
    )


def _cmd_dyck(args: argparse.Namespace) -> Answer:
    _load("dyck")
    if args.perm is not None:
        x = _parse_perm(args.perm)
        b = rotem_b_sequence(x)
        path = rotem_map(x)
        dudu = contains_factor(path, FACTOR_DUDU)
        return Answer(
            f"b: {' '.join(str(v) for v in b.b) or '-'}\n"
            f"path: {path.word or '-'}\n"
            f"dudu factor: {'yes' if dudu else 'no'}",
            {
                "perm": list(x.entries),
                "b_sequence": list(b.b),
                "path": path.word,
                "contains_dudu": dudu,
            },
        )
    n = args.n
    avoiding = count_dyck_avoiding(n, FACTOR_DUDU)  # refuses n < 0 and n >= 69 first
    _load("sequences")
    total = catalan(n)[n]
    return Answer(
        f"Dyck paths of semilength {n}: {total}, avoiding dudu: {avoiding}",
        {"n": n, "paths": total, "avoiding_dudu": avoiding},
    )


def _sequence_tables(n_max: int) -> list[SequenceTable]:
    tables = [
        g_sequence(n_max),
        catalan(n_max),
        schroder_large(n_max),
        binomial_transform_catalan(n_max),
        powers_2_shifted(n_max),
        SequenceTable(
            "sort-123-321",
            1,
            tuple(sort_123_321_closed(n) for n in range(1, n_max + 1)),
        ),
        gf_coefficients(n_max),
    ]
    if n_max >= 2:
        tables.insert(1, f_sequence(n_max))
    return tables


def _cmd_sequences(args: argparse.Namespace) -> Answer:
    _load("sequences")
    tables = _sequence_tables(args.n_max)
    lines = [
        f"{t.name} (from n={t.offset}): {' '.join(str(v) for v in t.terms) or '-'}"
        for t in tables
    ]
    return Answer(
        "\n".join(lines),
        {"tables": [t.to_json_dict() for t in tables]},
        [["table", "n", "value"]]
        + [[t.name, t.offset + i, term] for t in tables for i, term in enumerate(t.terms)],
    )


def _cmd_conjecture(args: argparse.Namespace) -> Answer:
    _load("harness")
    table_a, table_b, report = conjecture_tables(args.n, workers=args.workers)
    return Answer(
        "\n".join(t.render_text() for t in (table_a, table_b, report)),
        {
            "machine_a": table_a.to_json_dict(),
            "machine_b": table_b.to_json_dict(),
            "report": report.to_json_dict(),
        },
        code=0 if report.passed else 1,
    )


# ---- parser ----------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksort",
        description="Pattern-avoiding two-stack sorting machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "trace",
        help="step-by-step run of the two-stack machine",
        description="Step-by-step run of the two-stack machine. A pattern of length k may"
        " test up to C(L - 1, k - 1) stack subsets a push on a --perm of length L (a star"
        " pattern counts as length 3); trace refuses a pair whose two counts sum to more"
        f" than {TRACE_COST_LIMIT:,}. A pass runs one test before every push and every blocked"
        " pop, so an accepted trace can still take about 20 s, for example --sigma 2134"
        " --tau 1324 on the decreasing --perm of length 100.",
    )
    p.add_argument("--sigma", required=True, help="first forbidden pattern")
    p.add_argument("--tau", required=True, help="second forbidden pattern")
    p.add_argument("--perm", required=True, help="input permutation")
    _add_format(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("enumerate", help="count sortable permutations of length n")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    _add_format(p, FORMATS)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run brute-force verification suites")
    p.add_argument(
        "--suite",
        choices=sorted(SUITE_CAPS) + ["all"],
        required=True,
    )
    p.add_argument(
        "--n-max",
        type=int,
        default=8,
        help=f"largest length to scan (clamped per suite, caps {dict(sorted(SUITE_CAPS.items()))})",
    )
    p.add_argument("--workers", type=int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("signature", help="active-site signature of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--sigma", required=True, help="reference pattern, 123 or 132")
    _add_format(p)
    p.set_defaults(handler=_cmd_signature)

    p = sub.add_parser(
        "west-map", help="signature-matching bijection between avoider classes"
    )
    p.add_argument("--perm", required=True)
    p.add_argument("--sigma", required=True, help="pattern the input avoids")
    p.add_argument("--tau", required=True, help="pattern the image avoids")
    _add_format(p)
    p.set_defaults(handler=_cmd_west_map)

    p = sub.add_parser(
        "dyck", help="staircase encoding of a 123-avoider, or path counts"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", default=None)
    group.add_argument("--n", type=int, default=None, help="semilength to count")
    _add_format(p)
    p.set_defaults(handler=_cmd_dyck)

    p = sub.add_parser("sequences", help="print the counting sequences side by side")
    p.add_argument("--n-max", type=int, default=8)
    _add_format(p, FORMATS)
    p.set_defaults(handler=_cmd_sequences)

    p = sub.add_parser(
        "conjecture", help="refined distribution tables for the open equinumerosity"
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_conjecture)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        answer = args.handler(args)
        if args.format == "json":
            import json

            out = json.dumps(answer.payload, indent=2)
        elif args.format == "csv":
            import csv
            import io

            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(answer.rows)
            out = buf.getvalue()
        else:
            out = answer.text
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return answer.code
    except ValueError as exc:
        _note(f"error: {exc}")
        return 2
    except Exception as exc:
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        _note(
            f"internal error: {type(exc).__name__}: {exc} "
            f"({Path(where.filename).name}:{where.lineno} in {where.name})"
        )
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
