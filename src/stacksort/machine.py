"""Right-greedy stack passes where the stack content must avoid a pattern set.

One pass reads the input left to right through a single stack.  Before each
push the stack is read top to bottom as a word; if pushing the next input
value on top would make that word contain a forbidden pattern, the top is
popped to the output instead and the test runs again.  When the input is
exhausted the stack is flushed.

``_pops`` runs one pass and returns the values in the order they leave the
stack.  West's classical stack sort is the pass with the single forbidden
pattern 21, and the two-stack machine is the pass for {sigma, tau} followed
by it.  A trace is rebuilt from the pop order.  West's pass sorts exactly
the 231-avoiding words (Knuth, TAOCP Vol. 1, 2.2.1), so the sortability test
runs no second pass: it holds the first stack's output on a plain list in
place of the second stack and stops at the first value that would leave it
out of order, the 2 of a 231.

The sortability test runs in steps on explicit state, which a caller may
copy after any prefix: ``stack`` and ``held``, the two stacks as lists from
bottom to top, and ``expected``, the next value the output needs.  ``_feed``
pushes one value through both stacks, ``_finish`` flushes them, and
``_hold`` is the second stack's one rule.

The push test lives in ``perms``: ``_ends_at`` is the same new-entry test
the avoider generator runs on its prefix.  The stack is kept as a list from
bottom to top, the reverse of the word it must avoid, so ``_compile`` hands
it the reversed classical patterns; bivincular patterns are checked on the
whole top-to-bottom word by ``perms._word_contains``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .perms import (
    PATTERN_21,
    PatternSet,
    Permutation,
    _compile_classical,
    _ends_at,
    _word_contains,
    machine_patterns,
    pattern_name,
)


class EmptyPatternSet(ValueError):
    """A stack pass needs at least one forbidden pattern."""


class InvalidTrace(AssertionError):
    """A recorded pass breaks an invariant; raised even under ``python -O``."""


PUSH = "PUSH"
POP_BLOCKED = "POP_BLOCKED"
POP_FLUSH = "POP_FLUSH"

WEST_PATTERNS = PatternSet.of(PATTERN_21)


class StackStep(NamedTuple):
    """State right after one machine action.

    ``stack_top_to_bottom`` is the stack read from its top; a push consumes
    the head of the input, either pop moves the old stack top to the output.
    """

    action: str
    moved_value: int
    input_rest: tuple[int, ...]
    stack_top_to_bottom: tuple[int, ...]
    output_so_far: tuple[int, ...]


class StackTrace(NamedTuple):
    machine: PatternSet
    input: Permutation
    steps: tuple[StackStep, ...]
    output: Permutation

    def to_json_dict(self) -> dict:
        return {
            "machine": [pattern_name(p) for p in self.machine],
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


# ---- the pass itself ---------------------------------------------------


@lru_cache(maxsize=None)
def _compile(patterns: PatternSet):
    """Compile a forbidden set for ``_pops`` and ``_feed``.

    The stack is a list from bottom to top, so the word it must avoid, read
    top to bottom, is that list reversed, and a push appends to the list.
    The classical patterns are therefore reversed and tested on the list by
    ``perms._ends_at``; bivincular patterns add a whole-word check.  Returns
    the push test and the data it takes.
    """
    if patterns.is_empty():
        raise EmptyPatternSet("need at least one forbidden pattern")
    classical = _compile_classical(tuple(p.entries[::-1] for p in patterns.classical))
    if not patterns.bivincular:
        return _ends_at, classical
    return _blocked_with_bivincular, (classical, patterns.bivincular)


def _blocked_with_bivincular(stack: list[int], v: int, compiled) -> bool:
    """The push test with bivincular patterns: a pop can complete one by making
    two stack values adjacent, so they are checked on the whole stack word."""
    classical, bivincular = compiled
    word = (v, *reversed(stack))
    return _ends_at(stack, v, classical) or any(_word_contains(word, b) for b in bivincular)


def _pops(word: Iterable[int], compiled) -> tuple[int, ...]:
    """One pass: the values of word in the order they leave the stack.
    ``_feed`` repeats its pop loop; a generator shared by both slowed the scan."""
    blocked, data = compiled
    stack: list[int] = []
    out: list[int] = []
    for v in word:
        while stack and blocked(stack, v, data):
            out.append(stack.pop())
        stack.append(v)
    return (*out, *reversed(stack))


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


def _hold(held: list[int], expected: int, u: int) -> int:
    """The second stack's one rule: before u is held, every smaller held value
    leaves, and each must be the next expected one.  Returns the next
    expected value, or 0 when a value would leave out of order."""
    while held and held[-1] < u:
        if held.pop() != expected:
            return 0
        expected += 1
    held.append(u)
    return expected


def _feed(stack: list[int], held: list[int], expected: int, v: int, blocked, data) -> int:
    """Push v through both stacks: each blocked pop of the first stack goes
    to ``_hold``.  Returns the next expected value, or 0 as ``_hold`` does."""
    while stack and blocked(stack, v, data):
        expected = _hold(held, expected, stack.pop())
        if not expected:
            return 0
    stack.append(v)
    return expected


def _finish(stack: list[int], held: list[int], expected: int) -> bool:
    """Flush both stacks: does the rest leave as expected, expected + 1, ...?
    Only the first stack's values can fail: ``_hold`` keeps ``held`` decreasing
    from the bottom, and on a word of 1..n it ends holding expected..n."""
    for u in reversed(stack):
        expected = _hold(held, expected, u)
        if not expected:
            return False
    return True


def _sortable_word(word: Iterable[int], compiled) -> bool:
    """Does the {sigma, tau} pass followed by the 21 pass output 1, 2, ..., n?

    The 21 pass is checked, not run: ``_feed`` sends each value the first
    stack pops to the second stack's rule, and the test stops reading at the
    first value that would leave out of order.
    """
    blocked, data = compiled
    stack: list[int] = []
    held: list[int] = []
    expected = 1
    for v in word:
        expected = _feed(stack, held, expected, v, blocked, data)
        if not expected:
            return False
    return _finish(stack, held, expected)


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
    output = _pops(x.entries, _compile(patterns))
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

    Runs the first pass and answers False at the first value that would
    leave the second stack out of order.

    >>> p = Permutation.from_digits
    >>> [is_sortable(p(w), p("132"), p("321")) for w in ("4213", "2314")]
    [True, False]
    """
    return _sortable_word(x.entries, _compile_pair(sigma, tau))


def validate_trace(trace: StackTrace) -> None:
    """Raise InvalidTrace unless a recorded pass keeps the machine's invariants.

    Checks conservation (input, stack and output always partition the
    entries), stack legality after every step, and greediness: every blocked
    pop is justified because pushing the pending value would have created a
    forbidden occurrence, and flush pops happen only on empty input.
    """
    patterns = trace.machine
    full = sorted(trace.input.entries)

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise InvalidTrace(what)

    def stack_legal(word: tuple[int, ...]) -> bool:
        return not any(_word_contains(word, p) for p in patterns)

    prev_rest = trace.input.entries
    prev_stack: tuple[int, ...] = ()
    prev_out: tuple[int, ...] = ()
    for step in trace.steps:
        moved, rest = step.moved_value, step.input_rest
        stack, out = step.stack_top_to_bottom, step.output_so_far
        require(sorted(rest + stack + out) == full, "conservation violated")
        require(stack_legal(stack), "stack holds a forbidden pattern")
        if step.action == PUSH:
            require(prev_rest and moved == prev_rest[0], "pushed value is not the next input")
            require(rest == prev_rest[1:], "push did not consume its input")
            require(stack == (moved,) + prev_stack, "push did not land on the stack")
            require(out == prev_out, "push changed the output")
        else:
            require(prev_stack and moved == prev_stack[0], "popped value is not the stack top")
            require(stack == prev_stack[1:], "pop did not leave the stack")
            require(out == prev_out + (moved,), "pop did not reach the output")
            require(rest == prev_rest, "pop changed the input")
            if step.action == POP_BLOCKED:
                require(prev_rest, "blocked pop with no pending input")
                require(not stack_legal((prev_rest[0],) + prev_stack), "pop not justified")
            else:
                require(step.action == POP_FLUSH and not prev_rest, "flush before input ran out")
        prev_rest, prev_stack, prev_out = rest, stack, out
    require(prev_rest == () and prev_stack == (), "input or stack left over")
    require(prev_out == trace.output.entries, "output differs from the recorded output")
