"""Right-greedy stack passes where the stack content must avoid a pattern set.

One pass reads the input left to right through a single stack.  Before each
push the stack is read top to bottom as a word; if pushing the next input
value on top would make that word contain a forbidden pattern, the top is
popped to the output instead and the test runs again.  When the input is
exhausted the stack is flushed.

The generator ``_pops`` is the only implementation of that pass; it yields
values in the order they leave the stack.  West's classical stack sort is the
pass with the single forbidden pattern 21, and the two-stack machine chains
the pass for {sigma, tau} into it.  A trace is rebuilt from the pop order,
and the sortability test stops at the first value that leaves the second
stack out of order.

The push test lives in ``perms``: ``_ends_at`` is the same new-entry test
the avoider generator runs on its prefix.  The stack is kept as a list from
bottom to top, the reverse of the word it must avoid, so ``_compile`` hands
it the reversed classical patterns; bivincular patterns are checked on the
whole top-to-bottom word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .perms import (
    PATTERN_21,
    BivincularPattern,
    PatternSet,
    Permutation,
    _compile_classical,
    _ends_at,
    _word_contains,
    _word_contains_bivincular,
    pattern_name,
)


class EmptyPatternSet(ValueError):
    """A stack pass needs at least one forbidden pattern."""


class DegeneratePair(ValueError):
    """The two-stack machine needs two distinct patterns."""


PUSH = "PUSH"
POP_BLOCKED = "POP_BLOCKED"
POP_FLUSH = "POP_FLUSH"

WEST_PATTERNS = PatternSet.of(PATTERN_21)


@dataclass(frozen=True)
class StackStep:
    """State right after one machine action.

    ``stack_top_to_bottom`` is the stack read from its top; a push consumes
    the head of the input, either pop moves the old stack top to the output.
    """

    action: str
    moved_value: int
    input_rest: tuple[int, ...]
    stack_top_to_bottom: tuple[int, ...]
    output_so_far: tuple[int, ...]


@dataclass(frozen=True)
class StackTrace:
    machine: PatternSet
    input: Permutation
    steps: tuple[StackStep, ...]
    output: Permutation

    def to_json_dict(self) -> dict:
        return {
            "machine": pattern_set_names(self.machine),
            "input": list(self.input.entries),
            "steps": [
                {
                    "action": s.action,
                    "moved_value": s.moved_value,
                    "input_rest": list(s.input_rest),
                    "stack": list(s.stack_top_to_bottom),
                    "output": list(s.output_so_far),
                }
                for s in self.steps
            ],
            "output": list(self.output.entries),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def pattern_set_names(patterns: PatternSet) -> list[str]:
    return [pattern_name(p) for p in patterns.classical] + [
        pattern_name(p) for p in patterns.bivincular
    ]


# ---- the pass itself ---------------------------------------------------


@lru_cache(maxsize=None)
def _compile(patterns: PatternSet):
    """Compile a forbidden set for ``_pops``.

    The stack is a list from bottom to top, so the word it must avoid, read
    top to bottom, is that list reversed, and a push appends to the list.
    The classical patterns are therefore reversed and tested on the list by
    ``perms._ends_at``; bivincular patterns add a whole-word check.  Returns
    the push test and the data it takes.
    """
    if patterns.is_empty():
        raise EmptyPatternSet("need at least one forbidden pattern")
    if min(map(len, patterns.classical + tuple(b.base for b in patterns.bivincular))) < 2:
        raise ValueError("forbidden patterns must have length >= 2")
    classical = _compile_classical(tuple(p.entries[::-1] for p in patterns.classical))
    if not patterns.bivincular:
        return _ends_at, classical
    return _blocked_with_bivincular, (classical, patterns.bivincular)


def _blocked_with_bivincular(stack: list[int], v: int, compiled) -> bool:
    """The push test with bivincular patterns: a pop can complete one by making
    two stack values adjacent, so they are checked on the whole stack word."""
    classical, bivincular = compiled
    word = (v, *reversed(stack))
    return _ends_at(stack, v, classical) or any(
        _word_contains_bivincular(word, b) for b in bivincular
    )


_WEST_COMPILED = _compile(WEST_PATTERNS)


def _pops(word: Iterable[int], compiled) -> Iterator[int]:
    """The right-greedy pass, yielding values in the order they leave the stack.

    This loop is the only definition of the machine: both stacks, traced or
    not, run through it, and a consumer may stop at any value.
    """
    blocked, data = compiled
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for v in word:
        while stack and blocked(stack, v, data):
            yield pop()
        push(v)
    while stack:
        yield pop()


def _replay(entries: tuple[int, ...], popped: tuple[int, ...]) -> tuple[StackStep, ...]:
    """Rebuild the steps of a pass from its input and its pop order.

    A value leaves only from the top, so every input ahead of it is pushed
    first and nothing after it is; a pop is blocked while input is pending
    and a flush once the input has run out.
    """
    steps: list[StackStep] = []
    stack: list[int] = []
    i = 0
    for k, t in enumerate(popped):
        while not stack or stack[-1] != t:
            stack.append(entries[i])
            i += 1
            steps.append(
                StackStep(PUSH, entries[i - 1], entries[i:], tuple(reversed(stack)), popped[:k])
            )
        stack.pop()
        action = POP_BLOCKED if i < len(entries) else POP_FLUSH
        steps.append(
            StackStep(action, t, entries[i:], tuple(reversed(stack)), popped[: k + 1])
        )
    return tuple(steps)


def _sortable_word(word: Sequence[int], compiled) -> bool:
    """Does the {sigma, tau} pass followed by the 21 pass output 1, 2, ..., n?"""
    out = _pops(_pops(word, compiled), _WEST_COMPILED)
    return all(v == expected for expected, v in enumerate(out, start=1))


def machine_patterns(
    sigma: Permutation | BivincularPattern, tau: Permutation | BivincularPattern
) -> PatternSet:
    """The first stack's forbidden set; the machine needs two distinct patterns."""
    if sigma == tau:
        raise DegeneratePair(f"need two distinct patterns, got {sigma} twice")
    return PatternSet.of(sigma, tau)


@lru_cache(maxsize=None)
def _compile_pair(sigma: Permutation, tau: Permutation):
    return _compile(machine_patterns(sigma, tau))


# ---- public operations -------------------------------------------------


def pattern_stack_pass(
    x: Permutation,
    patterns: PatternSet,
    want_trace: bool = False,
) -> "Permutation | tuple[Permutation, StackTrace]":
    """One right-greedy pass of x through a pattern-avoiding stack.

    Returns the output permutation, or with ``want_trace`` the pair of
    output and a full step-by-step trace.
    """
    patterns = PatternSet.coerce(patterns)
    output = tuple(_pops(x.entries, _compile(patterns)))
    if not want_trace:
        return Permutation(output)
    trace = StackTrace(patterns, x, _replay(x.entries, output), Permutation(output))
    return trace.output, trace


def west_pass(x: Permutation, want_trace: bool = False):
    """The classical stack-sorting pass: the stack stays increasing top down.

    This is ``pattern_stack_pass`` with the single forbidden pattern 21.

    >>> str(west_pass(Permutation.from_digits("3412")))
    '3 1 2 4'
    """
    return pattern_stack_pass(x, WEST_PATTERNS, want_trace)


def machine(x: Permutation, sigma: Permutation, tau: Permutation) -> Permutation:
    """The two-stack machine: a {sigma, tau}-avoiding pass, then the 21 pass.

    >>> p = Permutation.from_digits
    >>> str(pattern_stack_pass(p("2314"), PatternSet.of(p("132"), p("321"))))
    '3 4 1 2'
    >>> str(machine(p("2314"), p("132"), p("321")))
    '3 1 2 4'
    >>> str(machine(p("4213"), p("132"), p("321")))
    '1 2 3 4'
    """
    return west_pass(pattern_stack_pass(x, machine_patterns(sigma, tau)))


def is_sortable(x: Permutation, sigma: Permutation, tau: Permutation) -> bool:
    """Does the (sigma, tau)-machine sort x to the identity?

    Runs both passes as one chain and answers False at the first value that
    leaves the second stack out of order.

    >>> p = Permutation.from_digits
    >>> [is_sortable(p(w), p("132"), p("321")) for w in ("4213", "2314")]
    [True, False]
    """
    return _sortable_word(x.entries, _compile_pair(sigma, tau))


def validate_trace(trace: StackTrace) -> None:
    """Assert the mechanical invariants of a recorded pass.

    Checks conservation (input, stack and output always partition the
    entries), stack legality after every step, and greediness: every blocked
    pop is justified because pushing the pending value would have created a
    forbidden occurrence, and flush pops happen only on empty input.
    """
    patterns = trace.machine
    full = sorted(trace.input.entries)

    def stack_legal(word: tuple[int, ...]) -> bool:
        return not (
            any(_word_contains(word, p.entries) for p in patterns.classical)
            or any(_word_contains_bivincular(word, b) for b in patterns.bivincular)
        )

    prev_rest = trace.input.entries
    prev_stack: tuple[int, ...] = ()
    prev_out: tuple[int, ...] = ()
    for step in trace.steps:
        combined = sorted(step.input_rest + step.stack_top_to_bottom + step.output_so_far)
        assert combined == full, "conservation violated"
        assert stack_legal(step.stack_top_to_bottom), "stack holds a forbidden pattern"
        if step.action == PUSH:
            assert prev_rest and step.moved_value == prev_rest[0]
            assert step.input_rest == prev_rest[1:]
            assert step.stack_top_to_bottom == (step.moved_value,) + prev_stack
            assert step.output_so_far == prev_out
        else:
            assert prev_stack and step.moved_value == prev_stack[0]
            assert step.stack_top_to_bottom == prev_stack[1:]
            assert step.output_so_far == prev_out + (step.moved_value,)
            assert step.input_rest == prev_rest
            if step.action == POP_BLOCKED:
                assert prev_rest, "blocked pop with no pending input"
                assert not stack_legal((prev_rest[0],) + prev_stack), "pop not justified"
            else:
                assert step.action == POP_FLUSH and not prev_rest, "flush before input ran out"
        prev_rest = step.input_rest
        prev_stack = step.stack_top_to_bottom
        prev_out = step.output_so_far
    assert prev_rest == () and prev_stack == ()
    assert prev_out == trace.output.entries
