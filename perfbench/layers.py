"""Per-layer timings: each layer's public functions on fixed inputs.

Run as a script with one JSON argument (the queries' trace inputs and
sequences lengths, and the cache directories the traced scan wrote), it
times each call in a span and prints the spans, counts and cross-checks as
one JSON object.  Every input is fixed except the trace inputs, which come
from the seed's queries schedule.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys

import oracles
from checks import dyck_avoiding
from schedule import PAIR_COUNTS
from spans import Recorder, as_dicts, cache_hits


def main(spec: dict) -> dict:
    dyck, harness, machine, perms, sequences, signatures = (
        importlib.import_module(f"stacksort.{name}")
        for name in ("dyck", "harness", "machine", "perms", "sequences", "signatures")
    )
    rec = Recorder("layers")
    span = rec.span
    P = perms.Permutation
    p = P.from_digits
    stars = {"132-star": perms.STAR_132, "123-star": perms.STAR_123}
    pairs = [(p(sigma), p(tau)) for sigma, tau in PAIR_COUNTS]
    counts: dict[str, int] = {}
    problems: list[str] = []

    s8 = [P(w) for w in itertools.permutations(range(1, 9))]
    sets = [perms.PatternSet.of(*pair) for pair in pairs]
    with span("machine.pass"):
        mids = [machine.pattern_stack_pass(x, ps) for ps in sets for x in s8]
    with span("machine.west_pass"):
        for mid in mids:
            machine.west_pass(mid)
    with span("machine.is_sortable"):
        sortable = [[x for x in s8 if machine.is_sortable(x, *pair)] for pair in pairs]
    counts["sortable"] = sum(map(len, sortable))
    if [len(s) for s in sortable] != [n8 for _, n8 in PAIR_COUNTS.values()]:
        problems.append("is_sortable disagrees with the pinned n=8 counts")
    counts["scanned"] = len(s8) * len(pairs)

    s7 = [P(w) for w in itertools.permutations(range(1, 8))]
    blocked = 0
    for ps in sets:
        for x in s7:
            _, trace = machine.pattern_stack_pass(x, ps, want_trace=True)
            blocked += sum(step.action == machine.POP_BLOCKED for step in trace.steps)
    counts["blocked_pops"] = blocked

    with span("machine.trace"):
        for word, (sigma, tau) in spec["trace_inputs"]:
            pats = perms.PatternSet.of(*(stars.get(t) or p(t) for t in (sigma, tau)))
            mid, first = machine.pattern_stack_pass(P(tuple(word)), pats, want_trace=True)
            machine.validate_trace(first)
            _, second = machine.west_pass(mid, want_trace=True)
            machine.validate_trace(second)

    pattern_sets = {
        "123": [signatures.PATTERN_123],
        "132": [signatures.PATTERN_132],
        "123+132-star": [signatures.PATTERN_123, perms.STAR_132],
        "132+123-star": [signatures.PATTERN_132, perms.STAR_123],
    }
    av: dict[str, list] = {}
    with span("perms.avoiders"):
        for name, pats in pattern_sets.items():
            av[name] = list(perms.avoiders(8, pats))
    counts["avoiders_emitted"] = sum(map(len, av.values()))
    with span("perms.contains"):
        hits = [(perms.contains_classical(x, signatures.PATTERN_132),
                 perms.contains_bivincular(x, perms.STAR_132)) for x in av["123"]]
    if any(star and not plain for plain, star in hits) or sum(
        star for _, star in hits
    ) != len(av["123"]) - len(av["123+132-star"]):
        problems.append("contains_bivincular(132-star) disagrees with avoiders")
    if len(av["123+132-star"]) != PAIR_COUNTS[("132", "321")][1]:
        problems.append("Av_8(123, 132-star) is not the (132,321)-sortable count")

    with span("signatures.signature"):
        for name in ("132", "123"):
            for x in av[name]:
                signatures.signature(x, pattern_sets[name][0])
    images = []
    for source, target in (("132", "123"), ("123", "132")):
        xs = av[source][:: len(av[source]) // 20][:21]
        with span("signatures.west_map.cold"):
            images.append((xs[0], signatures.west_map(xs[0], p(source), p(target)),
                           source, target))
        for x in xs[1:]:
            with span("signatures.west_map.warm"):
                signatures.west_map(x, p(source), p(target))
    for x, image, source, target in images:
        if signatures.west_map(image, p(target), p(source)) != x:
            problems.append(f"west_map {source}->{target} is not inverted")

    with span("dyck.rotem_map"):
        paths = {dyck.rotem_map(x).word for x in av["123"]}
    with span("dyck.paths"):
        counts["dyck_paths_11"] = sum(1 for _ in dyck.dyck_paths(11))
    with span("dyck.count_avoiding"):
        counts["dyck_avoiding_11"] = dyck.count_dyck_avoiding(11, dyck.FACTOR_DUDU)
    if len(paths) != len(av["123"]):
        problems.append("rotem_map is not injective on Av_8(123)")
    if (counts["dyck_paths_11"], counts["dyck_avoiding_11"]) != (
        oracles.catalan(11), dyck_avoiding(11, "dudu")
    ):
        problems.append("Dyck path counts at semilength 11 are wrong")

    with span("sequences.tables"):
        for n_max in spec["sequences_n_max"]:
            for table in (sequences.g_sequence, sequences.f_sequence, sequences.catalan,
                          sequences.schroder_large, sequences.binomial_transform_catalan,
                          sequences.powers_2_shifted, sequences.gf_coefficients):
                table(n_max)
            for n in range(1, n_max + 1):
                sequences.sort_123_321_closed(n)

    with span("harness.cache_load"):
        loaded = [harness.cache_load(m, n, d) for m, n, d in spec["scan_cache"]]
    if any(r is None for r in loaded):
        problems.append("a stored scan result did not load")

    return {"spans": as_dicts(rec.spans), "counts": counts, "problems": problems,
            "cache_hits": cache_hits()}


if __name__ == "__main__":
    json.dump(main(json.loads(sys.argv[1])), sys.stdout)
