"""Command line front end.

One subcommand per capability: trace a machine run, enumerate sortable
permutations, run verification suites, and query the bijections and
counting sequences directly.  Data goes to stdout, diagnostics to stderr,
and output bytes are deterministic: nothing here consults a clock, a
random source, or unordered iteration.

Importing this module loads only ``perms``.  Each subcommand then loads
the layers it calls (COMMAND_LAYERS) and nothing else, binding each layer's
public names here from the package's one export table (``stacksort._EXPORTS``):

    trace                         machine
    signature, west-map           machine, signatures
    dyck                          dyck, sequences
    sequences                     sequences
    enumerate (cache hit)         harness
    enumerate (scan), conjecture  harness, machine
    verify                        harness, suites (which load every layer)

Modules that only one branch needs, such as ``csv`` for ``--format csv``
and ``traceback`` for an internal error, are imported in that branch.

Each handler returns an ``Answer``: its text, its JSON payload, its CSV rows
where ``--format csv`` is offered, and its exit code.  ``run`` renders the
form ``--format`` asks for and is the only code here that writes to stdout.
Handlers name no statistic: ``conjecture`` joins each table's own
``render_text``.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (argparse's own convention, which covers ``--workers``
below 1) and on refused inputs, 3 on any other exception,
which is a bug in the package and is reported as one "internal error:"
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import stacksort

from .perms import (
    STAR_123,
    STAR_132,
    SUITE_CAPS,
    BivincularPattern,
    LengthTooLarge,
    MalformedToken,
    Permutation,
    format_permutation,
    parse_permutation,
    pattern_name,
)

if TYPE_CHECKING:
    from .machine import StackTrace

#: The layers each subcommand calls into.
COMMAND_LAYERS = {
    "trace": ("machine",),
    "signature": ("machine", "signatures"),
    "west-map": ("machine", "signatures"),
    "dyck": ("dyck", "sequences"),
    "sequences": ("sequences",),
    "enumerate": ("harness",),
    "verify": ("harness",),
    "conjecture": ("harness",),
}


def _load(layer: str) -> None:
    # run() binds a command's layers as module globals before its handler
    # runs, and attribute access (module __getattr__) binds them on demand.
    # Both use setdefault, so a value already set on this module, such as a
    # test's monkeypatch or a tracing wrapper, is the one the handlers call.
    for name in stacksort._EXPORTS[layer]:
        globals().setdefault(name, getattr(stacksort, name))


def __getattr__(name: str):
    if name not in stacksort._HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(stacksort._HOME[name])
    return globals()[name]


FORMATS = ("text", "json", "csv")

#: Longest --perm that trace, signature, west-map and dyck --perm accept.
#: The slowest of them, signature of the decreasing permutation, takes about
#: 1.5 s at length 100 and 18 s at length 200.
PERM_LENGTH_LIMIT = 100

#: Largest --n-max for sequences.  Every printed table fits in 128 bits up to
#: here; the first term that does not is the large Schroder number S_54.
SEQUENCES_N_MAX = 53

#: Keyword tokens for the two bivincular patterns the machines care about.
STAR_TOKENS = {"132-star": STAR_132, "123-star": STAR_123}


def _parse_pattern(token: str) -> Permutation | BivincularPattern:
    if token in STAR_TOKENS:
        return STAR_TOKENS[token]
    if token.isdecimal():
        return Permutation.from_digits(token)
    return parse_permutation(token)


def _parse_perm(token: str) -> Permutation:
    x = Permutation.from_digits(token) if token.isdecimal() else parse_permutation(token)
    if len(x) > PERM_LENGTH_LIMIT:
        raise LengthTooLarge(
            f"--perm has length {len(x)}, above the limit {PERM_LENGTH_LIMIT}"
        )
    return x


def _classical_pattern(token: str, flag: str) -> Permutation:
    p = _parse_pattern(token)
    if isinstance(p, BivincularPattern):
        raise MalformedToken(f"{flag} takes a classical pattern, got {token!r}")
    return p


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
    sigma = _parse_pattern(args.sigma)
    tau = _parse_pattern(args.tau)
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
    sigma = _classical_pattern(args.sigma, "--sigma")
    tau = _classical_pattern(args.tau, "--tau") if args.tau else None
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    # A cache entry that cannot be trusted or stored warns; it prints as one
    # line that names no source file, before the note on how it was answered.
    with warnings.catch_warnings(record=True) as caught:
        result, from_cache = enumerate_cached(
            args.n, sigma, tau, workers=args.workers, cache_dir=cache_dir
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
    y = _classical_pattern(args.sigma, "--sigma")
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
    source = _classical_pattern(args.sigma, "--sigma")
    target = _classical_pattern(args.tau, "--tau")
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
    if args.perm is not None:
        x = _parse_perm(args.perm)
        b = rotem_b_sequence(x)
        path = rotem_map(x)
        dudu = contains_factor(path, FACTOR_DUDU)
        return Answer(
            f"b: {' '.join(str(v) for v in b.b)}\n"
            f"path: {path.word}\n"
            f"dudu factor: {'yes' if dudu else 'no'}",
            {
                "perm": list(x.entries),
                "b_sequence": list(b.b),
                "path": path.word,
                "contains_dudu": dudu,
            },
        )
    n = args.n
    avoiding = count_dyck_avoiding(n, FACTOR_DUDU)  # refuses n outside 0..cap first
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
    if not 0 <= args.n_max <= SEQUENCES_N_MAX:
        raise ValueError(
            f"sequences runs for n_max in 0..{SEQUENCES_N_MAX}, where every table"
            f" fits in 128 bits; got {args.n_max}"
        )
    tables = _sequence_tables(args.n_max)
    lines = [
        f"{t.name} (from n={t.offset}): {' '.join(str(v) for v in t.terms)}"
        for t in tables
    ]
    return Answer(
        "\n".join(lines),
        {"tables": [t.to_json_dict() for t in tables]},
        [["table", "n", "value"]]
        + [[t.name, t.offset + i, term] for t in tables for i, term in enumerate(t.terms)],
    )


def _cmd_conjecture(args: argparse.Namespace) -> Answer:
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


class _AtLeastOne(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksort",
        description="Pattern-avoiding two-stack sorting machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="step-by-step run of the two-stack machine")
    p.add_argument("--sigma", required=True, help="first forbidden pattern")
    p.add_argument("--tau", required=True, help="second forbidden pattern")
    p.add_argument("--perm", required=True, help="input permutation")
    _add_format(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("enumerate", help="count sortable permutations of length n")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1, action=_AtLeastOne)
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
    p.add_argument("--workers", type=int, default=1, action=_AtLeastOne)
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
    p.add_argument("--workers", type=int, default=1, action=_AtLeastOne)
    _add_format(p)
    p.set_defaults(handler=_cmd_conjecture)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for layer in COMMAND_LAYERS[args.command]:
            _load(layer)
        answer = args.handler(args)
        if args.format == "json":
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
    except (ValueError, LookupError, OverflowError, ArithmeticError) as exc:
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
