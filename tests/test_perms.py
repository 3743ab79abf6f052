import pickle
from itertools import combinations
from itertools import permutations as iter_perms

import pytest

import oracles
from stacksort.dyck import BSequence, DyckPath
from stacksort.harness import EnumerationResult, VerificationReport
from stacksort.perms import (
    STAR_123,
    STAR_132,
    BivincularPattern,
    KOutOfRange,
    LengthTooLarge,
    MalformedToken,
    NotABijection,
    PatternSet,
    Permutation,
    SiteOutOfRange,
    TooShort,
    avoiders,
    contains_bivincular,
    contains_classical,
    format_permutation,
    identity,
    index_of,
    insert_max_at,
    insert_one_at,
    ltr_minima,
    parse_permutation,
    smallest_k,
    swap12,
)
from stacksort.sequences import SequenceTable

def all_perms(n):
    return (Permutation(p) for p in iter_perms(range(1, n + 1)))


def test_parse_and_format_round_trip():
    for text in ("1", "2 3 1 4", "8 11 6 10 4 9 7 5 3 1 2"):
        assert format_permutation(parse_permutation(text)) == text


def test_every_separator_form_reads_the_same_entries():
    for text, entries in (
        ("2, 3, 1, 4", (2, 3, 1, 4)),
        ("2314", (2, 3, 1, 4)),
        ("1 2,3", (1, 2, 3)),
        ("10,9,8,7,6,5,4,3,2,1", tuple(range(10, 0, -1))),
    ):
        assert parse_permutation(text).entries == entries


def test_the_empty_permutation_prints_and_reads_back_as_a_dash():
    empty = Permutation(())
    assert format_permutation(empty) == str(empty) == "-"
    assert parse_permutation("-") == parse_permutation(" - ") == empty
    # the form cache entries once held
    assert parse_permutation("") == parse_permutation("  ") == empty
    with pytest.raises(MalformedToken):
        parse_permutation("1 - 2")


def test_parse_rejects_garbage():
    with pytest.raises(MalformedToken):
        parse_permutation("1 x 2")
    with pytest.raises(MalformedToken):
        parse_permutation("0 1 2")
    with pytest.raises(NotABijection):
        parse_permutation("1 3 3")
    with pytest.raises(NotABijection):
        parse_permutation("1 5 2")
    # an empty comma field is refused, not dropped into a shorter permutation
    for text in ("3,,1,2", ",2,1", "2,1,", ","):
        with pytest.raises(MalformedToken, match="empty entry"):
            parse_permutation(text)


def test_from_digits():
    assert Permutation.from_digits("45231").entries == (4, 5, 2, 3, 1)
    assert parse_permutation("45231") == Permutation.from_digits("45231")
    for digits in ("1a2", "²", "1²"):  # "²".isdigit() holds, but int() refuses it
        with pytest.raises(MalformedToken):
            Permutation.from_digits(digits)
        with pytest.raises(MalformedToken):
            parse_permutation(digits)


def test_identity():
    assert identity(0).entries == ()
    assert identity(4).entries == (1, 2, 3, 4)
    assert identity(4).is_identity


def test_index_of():
    x = parse_permutation("2 3 1 4")
    assert index_of(x, 3) == 2
    assert index_of(x, 4) == 4
    with pytest.raises(ValueError, match=r"value 5 not in 1\.\.4"):
        index_of(x, 5)


def test_ltr_minima():
    x = parse_permutation("4 5 2 3 1")
    assert ltr_minima(x) == ((1, 4), (3, 2), (5, 1))


def test_smallest_k_matches_oracle():
    for x in all_perms(6):
        for k in range(len(x) + 1):
            assert smallest_k(x, k).entries == oracles.smallest(x.entries, k)


def test_smallest_k_range():
    with pytest.raises(KOutOfRange):
        smallest_k(identity(3), 4)


def test_swap12():
    assert swap12(parse_permutation("3 1 4 2")).entries == (3, 2, 4, 1)
    with pytest.raises(TooShort):
        swap12(identity(1))


def test_insert_one_at_relabels_upward():
    # inserting a new smallest value bumps every existing entry by one
    x = parse_permutation("1 2 5 4 3")
    assert insert_one_at(x, 2).entries == (2, 1, 3, 6, 5, 4)
    assert insert_one_at(x, 6).entries == (2, 3, 6, 5, 4, 1)
    with pytest.raises(SiteOutOfRange):
        insert_one_at(x, 7)


def test_insert_max_at():
    x = parse_permutation("2 1 3")
    assert insert_max_at(x, 1).entries == (4, 2, 1, 3)
    assert insert_max_at(x, 4).entries == (2, 1, 3, 4)


def test_insert_operators_are_sections_of_deletion():
    for x in all_perms(6):
        for site in range(1, 8):
            grown = insert_max_at(x, site)
            assert smallest_k(grown, 6) == x
            grown = insert_one_at(x, site)
            # removing the inserted 1 and shifting down recovers x
            back = tuple(v - 1 for v in grown.entries if v != 1)
            assert back == x.entries


def test_classical_containment_matches_oracle_exhaustively():
    # every length but 3 runs the generic search, the empty pattern included
    patterns = [(), (1,), (1, 2), (2, 1), (1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1), (2, 1, 3, 4)]
    for n in range(6):
        for x in all_perms(n):
            for p in patterns:
                assert contains_classical(x, Permutation(p)) == oracles.contains(
                    x.entries, p
                ), (x, p)


def test_bivincular_containment_matches_oracle_exhaustively():
    for n in range(7):
        for x in all_perms(n):
            assert contains_bivincular(x, STAR_132) == oracles.contains_star(
                x.entries, (1, 3, 2)
            ), x
            assert contains_bivincular(x, STAR_123) == oracles.contains_star(
                x.entries, (1, 2, 3)
            ), x


def test_star_examples():
    # one containment function, under the name each pattern kind reads best by
    assert contains_bivincular is contains_classical
    # 1 3 2 is itself tight; separating 2 and 3 by value kills the occurrence
    assert contains_bivincular(parse_permutation("1 3 2"), STAR_132)
    assert not contains_bivincular(parse_permutation("2 4 1 3"), STAR_132)
    # positional adjacency: 1 3 4 2 has 134 but the 3,4 occurrence needs
    # positions 2,3 which land adjacent, so it is contained
    assert contains_bivincular(parse_permutation("1 3 4 2"), STAR_123)
    # 1 3 2 4 contains 123 but every occurrence is loose: 1,2,4 puts 3
    # between the top two values, 1,3,4 splits them by position
    assert not contains_bivincular(parse_permutation("1 3 2 4"), STAR_123)


@pytest.mark.parametrize("digits", ["123", "132", "213", "231", "312", "321", "2134"])
def test_unconstrained_bivincular_degenerates_to_classical(digits):
    # length 3 takes the triple loop, length 4 the generic search
    base = Permutation.from_digits(digits)
    plain = BivincularPattern(base, frozenset(), frozenset())
    for n in range(6):
        for x in all_perms(n):
            assert contains_bivincular(x, plain) == oracles.contains(x.entries, base.entries), x


def test_bivincular_pattern_refuses_a_base_that_is_not_a_permutation():
    with pytest.raises(TypeError) as exc:
        BivincularPattern((1, 3, 2), {2}, {2})
    assert str(exc.value) == "not a permutation: (1, 3, 2)"


def test_avoiders_counts_catalan():
    for n in range(8):
        got = sum(1 for _ in avoiders(n, [Permutation.from_digits("132")]))
        assert got == oracles.catalan(n)


THREE = ("123", "132", "213", "231", "312", "321")
#: every classical pattern of length 2 and 3, every pair of 3-patterns, one
#: 4-pattern for the generic branch of the new-entry test, and the 4-pattern
#: compiled together with a 3-pattern
AVOIDER_SETS = (
    [(p,) for p in ("12", "21") + THREE]
    + list(combinations(THREE, 2))
    + [("1324",), ("231", "1324")]
)


def test_avoiders_streams_lexicographically():
    # the generator must emit exactly the lexicographic filter of S_n
    for n in range(8):
        words = list(iter_perms(range(1, n + 1)))
        containers = {
            p: {w for w in words if oracles.contains(w, tuple(map(int, p)))}
            for p in {p for s in AVOIDER_SETS for p in s}
        }
        for s in AVOIDER_SETS:
            want = [w for w in words if not any(w in containers[p] for p in s)]
            got = [x.entries for x in avoiders(n, [Permutation.from_digits(p) for p in s])]
            assert got == want, (n, s)


def test_avoiders_with_star_pattern():
    # full-length filtering only: count against the oracle
    for n in range(7):
        got = sum(1 for _ in avoiders(n, PatternSet.of(Permutation.from_digits("123"), STAR_132)))
        want = sum(
            1
            for x in all_perms(n)
            if not oracles.contains(x.entries, (1, 2, 3))
            and not oracles.contains_star(x.entries, (1, 3, 2))
        )
        assert got == want


def test_avoiders_refuses_past_the_generation_cap_before_yielding():
    # the refusal comes from the call itself, not from the first next()
    with pytest.raises(LengthTooLarge) as exc:
        avoiders(13, [Permutation.from_digits("123")])
    assert str(exc.value) == "n=13 above the generation cap 12"
    assert sum(1 for _ in avoiders(12, [Permutation.from_digits("12")])) == 1


@pytest.mark.parametrize(
    "n, pattern", [(1, (1,)), (0, ()), (2, ())], ids=["1-in-S1", "empty-in-S0", "empty-in-S2"]
)
def test_avoiders_refuses_patterns_shorter_than_two_before_yielding(n, pattern):
    # the length rule is PatternSet's, so avoiders refuses what the stack refuses
    with pytest.raises(ValueError) as exc:
        avoiders(n, [Permutation(pattern)])
    assert str(exc.value) == "forbidden patterns must have length >= 2"


def test_pattern_set_deduplicates():
    p = Permutation.from_digits("132")
    s = PatternSet.of(p, p, STAR_132, STAR_132)
    assert len(s.classical) == 1
    assert len(s.bivincular) == 1


P132 = Permutation((1, 3, 2))
#: Two equal builds of each immutable value type, a different value of the
#: same type, one field name, and the repr text of the first.
VALUE_TYPES = [
    (lambda: Permutation((2, 3, 1)), Permutation((2, 1, 3)), "entries", "Permutation((2, 3, 1))"),
    (
        lambda: BivincularPattern(P132, {2}, [2]),
        BivincularPattern(P132, {2}),
        "adjacent_values",
        "BivincularPattern(base=Permutation((1, 3, 2)), adjacent_positions=frozenset({2}),"
        " adjacent_values=frozenset({2}))",
    ),
    (
        lambda: PatternSet.of(P132, STAR_123),
        PatternSet.of(P132),
        "bivincular",
        "PatternSet(classical=(Permutation((1, 3, 2)),), bivincular=(BivincularPattern("
        "base=Permutation((1, 2, 3)), adjacent_positions=frozenset({2}),"
        " adjacent_values=frozenset({2})),))",
    ),
    (lambda: DyckPath("udud"), DyckPath("uudd"), "word", "DyckPath(word='udud')"),
    (lambda: BSequence((3, 2, 2)), BSequence((3, 3, 3)), "b", "BSequence(b=(3, 2, 2))"),
    (
        lambda: SequenceTable("g", 0, (1, 1, 2)),
        SequenceTable("g", 1, (1, 1, 2)),
        "terms",
        "SequenceTable(name='g', offset=0, terms=(1, 1, 2))",
    ),
    (
        lambda: EnumerationResult(("132",), 1, 1, (Permutation((1,)),)),
        EnumerationResult(("132",), 1, 1, None),
        "count",
        "EnumerationResult(machine=('132',), n=1, count=1, witnesses=(Permutation((1,)),))",
    ),
    (
        lambda: VerificationReport("c", (1, 2)),
        VerificationReport("c", (2, 1)),
        "n_range",
        "VerificationReport(claim_id='c', n_range=(1, 2), counterexamples=(), detail='')",
    ),
]


@pytest.mark.parametrize(
    "build,other,field,text",
    VALUE_TYPES,
    ids=[type(other).__name__ for _, other, _, _ in VALUE_TYPES],
)
def test_value_types_compare_hash_print_and_pickle_by_their_fields(build, other, field, text):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    # the scan's worker processes receive the compiled push test, not these
    # types, but a value sent to any other process travels by pickle
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a and repr(copy) == text


def test_equal_fields_do_not_make_values_of_different_types_equal():
    assert Permutation((1,)) != BSequence((1,))
    assert Permutation((1,)) != ((1,),)
