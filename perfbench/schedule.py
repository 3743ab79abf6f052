"""The three workloads as lists of CLI operations, built from a seed.

scan     S_n scans through `stacksort enumerate`, every one into a fresh,
         empty --cache-dir: the 8 pair machines of the tables suite at
         n=8 (witnesses kept, large cache entries) and (132,321) at n=9
         without witnesses, once with --workers 1 and once with
         --workers 2.  Nearly all the time is the machine pass and the
         enumeration engine; the cache only sees writes.  The seed sets
         only the order of the operations.
verify   `stacksort verify --suite all --n-max 8 --workers 1`, the job that
         rechecks the paper.  It mixes machine scans with avoider
         generation, signatures and Dyck paths, and exits 1 by design.
         The seed does not change it.
queries  50 single-permutation commands, each its own process: mostly
         process start and CLI import, with a tail of signature index
         builds (west-map) and Dyck path generation.  The enumerate
         commands read a cache that set-up fills.  The seed picks only
         which permutation of each listed length is used, so the kind x
         length schedule, and with it the cost profile, is the same for
         every seed.

Run as a script, this module is one repetition of the benchmark's set-up:
it imports the package, builds the schedule, fills the read cache of the
queries workload, and prints the schedule as JSON.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict, dataclass, field

import oracles

#: The 8 pair machines of the tables suite, with their sortable counts at
#: n=7 and n=8, recorded from the engine at the benchmark's baseline and
#: matching the reference rows the tables suite aligns them with.
PAIR_COUNTS = {
    ("123", "213"): (429, 1430),
    ("132", "312"): (429, 1430),
    ("231", "321"): (429, 1430),
    ("123", "132"): (429, 1430),
    ("123", "231"): (1252, 5168),
    ("132", "231"): (1806, 8558),
    ("123", "312"): (731, 2950),
    ("132", "321"): (206, 606),
}
#: (132,321) at n=9, also the g sequence term g(9).
G9 = 1820

QUERY_LENGTHS = {
    "trace": (9, 10, 11, 12),
    "signature": (10, 11, 12),
    "west-map": (7, 8),
    "dyck-perm": (10, 11, 12),
    "dyck-n": (10, 11),
    "sequences": (20, 24, 28, 32, 36, 40),
}
TRACE_MACHINES = (("132", "321"), ("132-star", "321"), ("123", "132-star"))
ENUMERATE_JSON = (("132", "321"), ("132", "231"))
QUERY_N = 7


@dataclass
class Op:
    """One CLI invocation and what its answer is checked against."""

    op_id: str
    kind: str
    argv: list[str]
    expect_exit: int = 0
    #: per-kind facts the answer check needs (the input, the machine, ...)
    check: dict = field(default_factory=dict)
    #: an op whose --perm is the image printed by the op named here
    perm_from: str | None = None
    #: scan ops run in a fresh cache directory, queries read the shared one
    cache: str | None = None


def fmt(word) -> str:
    return ",".join(str(v) for v in word)


def scan_ops(seed: int) -> list[Op]:
    ops = []
    for (sigma, tau), (_, count) in PAIR_COUNTS.items():
        ops.append(Op(
            f"enumerate-{sigma}-{tau}-n8", "enumerate",
            ["enumerate", "--sigma", sigma, "--tau", tau, "--n", "8", "--format", "json"],
            check={"machine": [sigma, tau], "n": 8, "count": count, "witnesses": True},
            cache="fresh",
        ))
    for workers in (1, 2):
        ops.append(Op(
            f"enumerate-132-321-n9-w{workers}", "enumerate",
            ["enumerate", "--sigma", "132", "--tau", "321", "--n", "9",
             "--workers", str(workers), "--format", "json"],
            check={"machine": ["132", "321"], "n": 9, "count": G9, "witnesses": False,
                   "same_stdout_as": "enumerate-132-321-n9-w1" if workers == 2 else None},
            cache="fresh",
        ))
    random.Random(seed).shuffle(ops)
    return ops


#: Suites that fail by design at this length; every other suite passes.
VERIFY_FAILING = {
    "tables": ["row-123+231-matches-A006318"],
    "conjecture": ["max-position-distributions-agree"],
}


def verify_ops(seed: int) -> list[Op]:
    return [Op(
        "verify-all-n8", "verify",
        ["verify", "--suite", "all", "--n-max", "8", "--workers", "1"],
        expect_exit=1, check={"failing": VERIFY_FAILING},
    )]


def query_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in QUERY_LENGTHS["trace"]:
        x = oracles.random_permutation(rng, n)
        for sigma, tau in TRACE_MACHINES:
            ops.append(Op(
                f"trace-{sigma}-{tau}-n{n}", "trace",
                ["trace", "--sigma", sigma, "--tau", tau, "--perm", fmt(x)],
                check={"perm": x, "machine": [sigma, tau]},
            ))
    for n in QUERY_LENGTHS["signature"]:
        for pattern, draw in (("132", oracles.random_132_avoider),
                              ("123", oracles.random_123_avoider)):
            x = draw(rng, n)
            ops.append(Op(
                f"signature-{pattern}-n{n}", "signature",
                ["signature", "--perm", fmt(x), "--sigma", pattern],
                check={"perm": x, "pattern": pattern},
            ))
    for n in QUERY_LENGTHS["west-map"]:
        for source, target, draw in (("132", "123", oracles.random_132_avoider),
                                     ("123", "132", oracles.random_123_avoider)):
            x = draw(rng, n)
            there = f"west-map-{source}-{target}-n{n}"
            ops.append(Op(
                there, "west-map",
                ["west-map", "--perm", fmt(x), "--sigma", source, "--tau", target],
                check={"perm": x, "source": source, "target": target},
            ))
            ops.append(Op(
                f"{there}-back", "west-map",
                ["west-map", "--perm", "{perm}", "--sigma", target, "--tau", source],
                check={"source": target, "target": source, "image": x},
                perm_from=there,
            ))
    for n in QUERY_LENGTHS["dyck-perm"]:
        for i in range(2):
            x = oracles.random_123_avoider(rng, n)
            ops.append(Op(
                f"dyck-perm-n{n}-{i}", "dyck-perm", ["dyck", "--perm", fmt(x)],
                check={"perm": x},
            ))
    for n in QUERY_LENGTHS["dyck-n"]:
        ops.append(Op(f"dyck-n{n}", "dyck-n", ["dyck", "--n", str(n)],
                      check={"n": n}))
    for n_max in QUERY_LENGTHS["sequences"]:
        ops.append(Op(f"sequences-{n_max}", "sequences",
                      ["sequences", "--n-max", str(n_max)]))
    for (sigma, tau), (count, _) in PAIR_COUNTS.items():
        ops.append(Op(
            f"enumerate-hit-{sigma}-{tau}", "enumerate-hit",
            ["enumerate", "--sigma", sigma, "--tau", tau, "--n", str(QUERY_N)],
            check={"count": count}, cache="shared",
        ))
    for sigma, tau in ENUMERATE_JSON:
        ops.append(Op(
            f"enumerate-hit-{sigma}-{tau}-json", "enumerate-hit",
            ["enumerate", "--sigma", sigma, "--tau", tau, "--n", str(QUERY_N),
             "--format", "json"],
            check={"count": PAIR_COUNTS[(sigma, tau)][0], "machine": [sigma, tau],
                   "n": QUERY_N, "witnesses": True},
            cache="shared",
        ))
    return ops


WORKLOADS = {"scan": scan_ops, "verify": verify_ops, "queries": query_ops}


def cross_check_counts() -> None:
    """The pinned counts agree with the package's closed-form g sequence."""
    from stacksort.sequences import g_sequence

    g = g_sequence(9)
    pinned = (PAIR_COUNTS[("132", "321")][0], PAIR_COUNTS[("132", "321")][1], G9)
    if (g[7], g[8], g[9]) != pinned:
        raise SystemExit(f"pinned (132,321) counts {pinned} disagree with g: {g.terms}")


def fill_read_cache(cache_dir: str) -> None:
    """What the queries workload reads: every pair machine at n=7."""
    from stacksort.harness import enumerate_cached
    from stacksort.perms import Permutation

    for sigma, tau in PAIR_COUNTS:
        result, _ = enumerate_cached(
            QUERY_N, Permutation.from_digits(sigma), Permutation.from_digits(tau),
            cache_dir=cache_dir,
        )
        if result.count != PAIR_COUNTS[(sigma, tau)][0]:
            raise SystemExit(f"({sigma},{tau}) n={QUERY_N}: counted {result.count}")


def main(argv: list[str]) -> None:
    workload, seed, cache_dir, source = argv[0], int(argv[1]), argv[2], argv[3]
    import stacksort.cli

    if not stacksort.cli.__file__.startswith(source):
        raise SystemExit(f"imported {stacksort.cli.__file__}, not the checkout's {source}")
    cross_check_counts()
    ops = WORKLOADS[workload](seed)
    if workload == "queries":
        fill_read_cache(cache_dir)
    json.dump([asdict(op) for op in ops], sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
