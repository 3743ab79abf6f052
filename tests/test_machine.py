import os
import random
import subprocess
import sys
from itertools import combinations
from itertools import permutations as iter_perms
from pathlib import Path

import pytest

import oracles
import stacksort
from stacksort.machine import (
    EmptyPatternSet,
    InvalidTrace,
    StackTrace,
    _compile,
    _feed,
    _finish,
    _sortable_word,
    is_sortable,
    machine,
    pattern_name,
    pattern_stack_pass,
    validate_trace,
    west_pass,
)
from stacksort.perms import (
    STAR_123,
    STAR_132,
    BivincularPattern,
    DegeneratePair,
    PatternSet,
    Permutation,
    identity,
    parse_pattern,
    parse_permutation,
)

P = Permutation.from_digits


def all_perms(n):
    return (Permutation(p) for p in iter_perms(range(1, n + 1)))


PAIRS = [
    (P("132"), P("321")),
    (P("123"), P("321")),
    (P("132"), P("213")),
    (P("213"), P("312")),
    (P("123"), P("231")),
]

THREES = [P(d) for d in ("123", "132", "213", "231", "312", "321")]


def test_golden_figures():
    # the worked examples: one pass sends 2314 to 3412, the full machine
    # then yields 3124; the (132,321) pass alone fully sorts 4213
    assert pattern_stack_pass(P("2314"), PatternSet.of(P("132"), P("321"))) == P("3412")
    assert machine(P("2314"), P("132"), P("321")) == P("3124")
    mid = pattern_stack_pass(P("4213"), PatternSet.of(P("132"), P("321")))
    assert west_pass(mid) == identity(4)
    assert is_sortable(P("4213"), P("132"), P("321"))
    assert not is_sortable(P("2314"), P("132"), P("321"))


def test_pass_against_naive_engine_exhaustively():
    # the fast pass decides pushes from the new top alone; the oracle
    # rechecks the whole stack content every time.  The extra sets reach
    # the length-2, the longer and the mixed-length branches of the test.
    extra = [(P("12"),), (P("21"),), (P("1324"),), (P("231"), P("1324"))]
    for patterns in PAIRS + extra:
        for n in range(7):
            for x in all_perms(n):
                fast = pattern_stack_pass(x, PatternSet.of(*patterns))
                slow = oracles.stack_pass(x.entries, classical=[p.entries for p in patterns])
                assert fast.entries == slow, (x, patterns)


def test_pass_and_sortability_against_naive_engine_on_random_sets():
    # forbidden sets of mixed lengths, as enumerate takes them: 300 sets of
    # 1-3 classical patterns of length 2-5, each on 30 random words
    rng = random.Random(0)

    def shuffled(n):
        return tuple(rng.sample(range(1, n + 1), n))

    for _ in range(300):
        ps = [shuffled(rng.randint(2, 5)) for _ in range(rng.randint(1, 3))]
        pset = PatternSet.of(*map(Permutation, ps))
        compiled = _compile(pset)
        for _ in range(30):
            w = shuffled(rng.randint(0, 7))
            assert pattern_stack_pass(Permutation(w), pset).entries == oracles.stack_pass(
                w, classical=ps), (w, ps)
            assert _sortable_word(w, compiled) == oracles.machine_sorts(w, *ps), (w, ps)


def test_star_pass_against_naive_engine():
    patterns = PatternSet.of(P("123"), STAR_132)
    for n in range(7):
        for x in all_perms(n):
            fast = pattern_stack_pass(x, patterns)
            slow = oracles.stack_pass(
                x.entries, classical=((1, 2, 3),), stars=((1, 3, 2),)
            )
            assert fast.entries == slow, x


def test_west_pass_matches_recursive_description():
    for x in all_perms(8):
        assert west_pass(x).entries == oracles.west(x.entries)


def test_machine_output_is_permutation():
    for x in all_perms(8):
        out = machine(x, P("132"), P("321"))
        assert sorted(out.entries) == list(range(1, 9))


def test_sortable_iff_intermediate_avoids_231():
    # the sortability test checks the second stack's pops as the first
    # stack's output reaches it, with no second pass; the increasing stack
    # sorts exactly the 231-avoiders, and the oracle reruns both stacks from
    # scratch.  Every pair of distinct 3-patterns and every single 3-pattern.
    machines = list(combinations(THREES, 2)) + [(p,) for p in THREES]
    for patterns in machines:
        first_stack = PatternSet.of(*patterns)
        compiled = _compile(first_stack)
        entries = [p.entries for p in patterns]
        for n in range(7):
            for x in all_perms(n):
                mid = pattern_stack_pass(x, first_stack)
                sortable = _sortable_word(x.entries, compiled)
                assert sortable == (not oracles.contains(mid.entries, (2, 3, 1))), (x, patterns)
                assert sortable == oracles.machine_sorts(x.entries, *entries)
                assert sortable == (west_pass(mid) == identity(n))
                if len(patterns) == 2:
                    assert sortable == is_sortable(x, *patterns)
                    assert sortable == (machine(x, *patterns) == identity(n))


def test_sortable_word_reads_no_input_past_the_first_value_out_of_order():
    # the (132, 321) stack sends the identity's 2 out when 3 arrives and its
    # 3 out when 4 arrives; 2 then leaves the second stack ahead of 1, so the
    # test answers after reading four entries of a longer input
    read = []

    def entries():
        for v in range(1, 21):
            read.append(v)
            yield v

    assert not _sortable_word(entries(), _compile(PatternSet.of(P("132"), P("321"))))
    assert read == [1, 2, 3, 4]


def _standardize(values):
    rank = {v: k for k, v in enumerate(sorted(values), 1)}
    return [rank[v] for v in values]


def test_the_pass_state_can_be_copied_at_every_prefix():
    # a walk over the words grown one entry at a time keeps the state
    # (stack, held, expected) after each prefix and feeds copies of it.  A
    # copy fed the rest of the word decides the word and leaves the original
    # as it was; a live state with its output dropped and its values
    # standardized finishes as the standardized prefix does.
    machines = list(combinations(THREES, 2)) + [(p,) for p in THREES]
    for patterns in machines:
        compiled = _compile(PatternSet.of(*patterns))
        blocked, data = compiled
        for n in range(7):
            for w in iter_perms(range(1, n + 1)):
                want = _sortable_word(w, compiled)
                stack, held, expected = [], [], 1
                for i in range(n + 1):
                    before = (stack[:], held[:], expected)
                    copy_stack, copy_held, e = stack[:], held[:], expected
                    for v in w[i:]:
                        e = e and _feed(copy_stack, copy_held, e, v, blocked, data)
                    assert bool(e and _finish(copy_stack, copy_held, e)) == want, (w, i, patterns)
                    assert (stack, held, expected) == before
                    std = _standardize(stack + held)
                    prefix = _standardize(w[:i])
                    std_finish = _finish(std[: len(stack)], std[len(stack):], 1)
                    assert std_finish == _sortable_word(prefix, compiled), (w, i, patterns)
                    if i == n:
                        break
                    expected = _feed(stack, held, expected, w[i], blocked, data)
                    if not expected:
                        assert not want, (w, i, patterns)
                        break


def test_degenerate_and_empty_pattern_sets():
    with pytest.raises(DegeneratePair):
        machine(P("132"), P("132"), P("132"))
    with pytest.raises(EmptyPatternSet):
        pattern_stack_pass(P("21"), PatternSet.of())


def test_empty_input_passes_through():
    empty = Permutation(())
    assert pattern_stack_pass(empty, PatternSet.of(P("132"), P("321"))) == empty
    assert west_pass(empty) == empty


def test_traced_output_matches_untraced():
    # traces are rebuilt from the pop order, so check every one of them up
    # to a length where the starred sets stay cheap to recheck
    traced_sets = [
        (PatternSet.of(P("132"), P("321")), {"classical": ((1, 3, 2), (3, 2, 1))}, 7),
        (PatternSet.of(P("123"), STAR_132), {"classical": ((1, 2, 3),), "stars": ((1, 3, 2),)}, 6),
        (PatternSet.of(STAR_123, P("321")), {"classical": ((3, 2, 1),), "stars": ((1, 2, 3),)}, 6),
    ]
    for patterns, oracle_args, n_max in traced_sets:
        for n in range(n_max + 1):
            for x in all_perms(n):
                plain = pattern_stack_pass(x, patterns)
                traced, trace = pattern_stack_pass(x, patterns, want_trace=True)
                assert plain == traced == trace.output
                assert plain.entries == oracles.stack_pass(x.entries, **oracle_args), x
                validate_trace(trace)


def test_west_trace_validates():
    for n in range(8):
        for x in all_perms(n):
            out, trace = west_pass(x, want_trace=True)
            assert out.entries == oracles.west(x.entries), x
            validate_trace(trace)


def test_validate_trace_rejects_tampering():
    _, trace = pattern_stack_pass(
        P("2314"), PatternSet.of(P("132"), P("321")), want_trace=True
    )
    # swap two steps: conservation still holds, greediness does not
    steps = list(trace.steps)
    broken = StackTrace(trace.machine, trace.input, tuple(steps[::-1]), trace.output)
    with pytest.raises(AssertionError):
        validate_trace(broken)


def test_validate_trace_checks_the_stack_against_star_patterns():
    # the 123 pass of 2 3 1 stacks 1 3 2, which contains 132-star
    _, trace = pattern_stack_pass(P("231"), PatternSet.of(P("123")), want_trace=True)
    relabelled = trace._replace(machine=PatternSet.of(P("123"), STAR_132))
    with pytest.raises(InvalidTrace) as exc:
        validate_trace(relabelled)
    assert str(exc.value) == "stack holds a forbidden pattern"


def test_validate_trace_rejects_tampering_under_python_O():
    # python -O strips assert statements; the trace checks must not be them
    script = """
from stacksort.machine import InvalidTrace, StackTrace, pattern_stack_pass, validate_trace
from stacksort.perms import PatternSet, Permutation
P = Permutation.from_digits
_, trace = pattern_stack_pass(P("2314"), PatternSet.of(P("132"), P("321")), want_trace=True)
broken = StackTrace(trace.machine, trace.input, trace.steps[::-1], trace.output)
try:
    validate_trace(broken)
except InvalidTrace as error:
    print("refused:", error)
"""
    src = str(Path(stacksort.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert done.stdout.startswith("refused: "), done.stdout


def test_trace_json_shape():
    _, trace = pattern_stack_pass(
        P("2314"), PatternSet.of(P("132"), P("321")), want_trace=True
    )
    doc = trace.to_json_dict()
    assert doc["machine"] == ["132", "321"]
    assert doc["input"] == [2, 3, 1, 4]
    assert doc["output"] == [3, 4, 1, 2]
    assert doc["steps"][0] == {
        "action": "PUSH",
        "moved_value": 2,
        "input_rest": [3, 1, 4],
        "stack": [2],
        "output": [],
    }

def test_pattern_names():
    assert pattern_name(P("132")) == "132"
    assert pattern_name(STAR_132) == "132-star"
    # from 11 entries on, digits alone gave both of these 1112345678910
    ones = Permutation((1, 11, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    elevens = Permutation((11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    assert pattern_name(ones) == "1,11,2,3,4,5,6,7,8,9,10"
    assert pattern_name(elevens) == "11,1,2,3,4,5,6,7,8,9,10"
    rng = random.Random(2020)
    longer = [tuple(rng.sample(range(1, k + 1), k)) for k in range(10, 15) for _ in range(200)]
    patterns = {
        *(p for n in range(8) for p in all_perms(n)),
        STAR_123,
        STAR_132,
        ones,
        elevens,
        *map(Permutation, longer),
    }
    names = set()
    for p in patterns:
        name = pattern_name(p)
        assert parse_pattern(name) == p, name
        names.add(name)
    assert len(names) == len(patterns)
    # no other bivincular pattern has a name, not even one on a length-3
    # base with the stars' constraints, nor one with position constraints alone
    for p in (BivincularPattern(P("213"), {2}, {2}), BivincularPattern(P("132"), {2})):
        with pytest.raises(ValueError, match="^only 123-star and 132-star have names, got "):
            pattern_name(p)


def test_deleting_the_last_entry_keeps_a_word_sortable():
    # the lemma behind growing the sortable set at its last entry: the
    # standardized prefix of a sortable word is sortable, for all 21 machines
    # of length-3 patterns: the 15 pairs and the 6 single patterns
    machines = list(combinations(THREES, 2)) + [(p,) for p in THREES]
    for patterns in machines:
        entries = [p.entries for p in patterns]
        shorter = {()}
        for n in range(1, 7):
            sortable = set()
            for x in all_perms(n):
                sorts = oracles.machine_sorts(x.entries, *entries)
                mid = pattern_stack_pass(x, PatternSet.of(*patterns))
                assert sorts == west_pass(mid).is_identity, (x, patterns)
                if sorts:
                    sortable.add(x.entries)
                    assert oracles.rank_word(x.entries[:-1]) in shorter, (x, patterns)
            shorter = sortable


def test_machine_counts_at_small_lengths():
    # |Sort_n(132, 321)| for n = 1..6, recomputed with the naive engine
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26), (6, 72)]:
        naive = sum(
            1
            for x in all_perms(n)
            if oracles.machine_sorts(x.entries, (1, 3, 2), (3, 2, 1))
        )
        fast = sum(1 for x in all_perms(n) if is_sortable(x, P("132"), P("321")))
        assert naive == fast == want
