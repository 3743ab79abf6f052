from itertools import permutations as iter_perms

import pytest

import oracles
from stacksort.dyck import (
    FACTOR_DUDU,
    BSequence,
    DyckPath,
    InvalidBSequence,
    Not123Avoider,
    SemilengthTooLarge,
    b_to_dyck,
    cell_capacity_ok,
    contains_factor,
    count_dyck_avoiding,
    dyck_paths,
    grid_cells,
    rotem_b_sequence,
    rotem_map,
)
from stacksort.perms import STAR_132, Permutation, avoiders, contains_bivincular

P = Permutation.from_digits
P123 = P("123")


def all_perms(n):
    return (Permutation(p) for p in iter_perms(range(1, n + 1)))


def test_dyck_path_validation():
    DyckPath("uudd")
    with pytest.raises(ValueError):
        DyckPath("uud")  # unbalanced
    with pytest.raises(ValueError):
        DyckPath("du")  # dips below zero
    with pytest.raises(ValueError):
        DyckPath("uxud")


def test_semilength():
    assert DyckPath("").semilength == 0
    assert DyckPath("uududd").semilength == 3


def test_golden_staircase():
    x = Permutation((8, 11, 6, 10, 4, 9, 7, 5, 3, 1, 2))
    assert rotem_b_sequence(x).b == (11, 10, 10, 9, 9, 8, 6, 4, 4, 4, 1)
    assert rotem_map(x).word == "uduuduududdudduuudddud"


def test_small_staircase_values():
    assert rotem_b_sequence(P("231")).b == (3, 2, 2)
    assert rotem_map(P("4321")).word == "uuuudddd"
    assert rotem_map(Permutation(())).word == ""


def test_b_sequence_validation():
    with pytest.raises(InvalidBSequence):
        BSequence((2, 3))  # must start at n and never increase
    with pytest.raises(InvalidBSequence):
        BSequence((3, 1, 1))  # b_j >= n+1-j floor violated


def test_rejects_123_containers():
    # the staircase sequence and the capacity predicate are only defined on
    # Av(123); the bare grid decomposition is total
    with pytest.raises(Not123Avoider):
        rotem_b_sequence(P("123"))
    with pytest.raises(Not123Avoider):
        cell_capacity_ok(P("1234"))
    assert grid_cells(P("1234")).occupancy(1, 1) == 3


def test_staircase_is_a_bijection_onto_paths():
    for n in range(8):
        images = {rotem_map(x).word for x in avoiders(n, [P123])}
        paths = set(oracles.dyck_words(n))
        assert images == paths
        assert len(images) == oracles.catalan(n)


def test_b_to_dyck_inverts_cleanly():
    # each path determines its b-sequence: heights after each up step
    for x in avoiders(6, [P123]):
        b = rotem_b_sequence(x)
        assert b_to_dyck(b) == rotem_map(x)


def test_dudu_marks_tight_132():
    for n in range(1, 8):
        for x in avoiders(n, [P123]):
            assert contains_factor(rotem_map(x), FACTOR_DUDU) == contains_bivincular(
                x, STAR_132
            ), x


def test_grid_capacity_marks_tight_132():
    for n in range(1, 8):
        for x in avoiders(n, [P123]):
            assert cell_capacity_ok(x) == (not contains_bivincular(x, STAR_132)), x


def test_golden_grid():
    grid = grid_cells(P("132"))
    assert grid.minima == (1,)
    assert grid.vertical_strips == ((3, 2),)
    assert grid.occupancy(1, 1) == 2


def test_contains_factor():
    assert contains_factor(DyckPath("uududd"), "dud")
    assert not contains_factor(DyckPath("uuuddd"), "dud")
    assert contains_factor(DyckPath("uudd"), "")


def test_dyck_paths_generation():
    for n in range(8):
        words = [p.word for p in dyck_paths(n)]
        # lexicographic with u ranked before d
        assert words == sorted(words, key=lambda w: [c == "d" for c in w])
        assert set(words) == set(oracles.dyck_words(n))


def test_count_avoiding_matches_filter():
    # self-overlapping factors exercise the automaton's fallback states
    factors = (FACTOR_DUDU, "udu", "ud", "uu", "dd", "uudd", "dudd", "")
    for n in range(11):
        words = list(oracles.dyck_words(n))
        for w in factors:
            want = sum(1 for word in words if w not in word)
            assert count_dyck_avoiding(n, w) == want, (n, w)


def test_generation_cap():
    with pytest.raises(SemilengthTooLarge):
        list(dyck_paths(40))
    with pytest.raises(SemilengthTooLarge):
        count_dyck_avoiding(40, FACTOR_DUDU)
