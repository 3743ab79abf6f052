import json

import pytest

import oracles
from stacksort.perms import (
    STAR_123,
    Permutation,
    avoiders,
    contains_bivincular,
    index_of,
    smallest_k,
)
from stacksort.sequences import (
    GF_RADICAND,
    INT128_MAX,
    NonIntegerCoefficient,
    Overflow,
    SequenceTable,
    binomial_transform_catalan,
    catalan,
    f_sequence,
    g_sequence,
    gf_coefficients,
    powers_2_shifted,
    schroder_large,
    sort_123_321_closed,
    _schroder_brute,
)

P132 = Permutation.from_digits("132")

G_PREFIX = (1, 1, 2, 4, 10, 26, 72, 206, 606, 1820)


def test_g_prefix():
    assert g_sequence(9).terms == G_PREFIX


def test_g_equals_brute_force_avoider_count():
    for n in range(9):
        want = sum(
            1
            for x in avoiders(n, [P132])
            if not contains_bivincular(x, STAR_123)
        )
        assert g_sequence(n).terms[-1] == want


def test_f_is_difference_of_g():
    g = g_sequence(40).terms
    f = f_sequence(40)
    assert f.offset == 2
    for n in range(2, 41):
        assert f[n] == g[n - 1] - g[n - 2]


def test_f_counts_its_defining_set():
    # f_n counts the 132-avoiders where n-1 sits directly left of n, away
    # from the front, and the word minus n avoids the tight 123
    for n in range(2, 10):
        want = 0
        for x in avoiders(n, [P132]):
            if index_of(x, n) - 1 == index_of(x, n - 1) > 1 and not contains_bivincular(
                smallest_k(x, n - 1), STAR_123
            ):
                want += 1
        assert f_sequence(n)[n] == want


def test_convolution_identity():
    # sum g_i g_{n-1-i} = g_n + f_n, the engine behind the closed form
    g = g_sequence(40).terms
    f = f_sequence(40)
    for n in range(2, 41):
        conv = sum(g[i] * g[n - 1 - i] for i in range(n))
        assert conv == g[n] + f[n]


def test_series_matches_recurrence():
    assert gf_coefficients(40).terms == g_sequence(40).terms


def test_radicand_constant():
    # the square root in the closed form is over 1 - 2z - 5z^2 - 2z^3 + z^4;
    # the series extraction divides exactly at every order, so the division
    # guard cannot fire for this polynomial
    assert GF_RADICAND == (1, -2, -5, -2, 1)
    assert issubclass(NonIntegerCoefficient, ArithmeticError)


def test_catalan_matches_formula():
    got = catalan(12).terms
    assert got == tuple(oracles.catalan(n) for n in range(13))


def test_schroder_matches_formula_and_walks():
    got = schroder_large(10).terms
    assert got == tuple(oracles.schroder(n) for n in range(11))
    assert got[:9] == tuple(_schroder_brute(k) for k in range(9))


def test_binomial_transform():
    assert binomial_transform_catalan(8).terms == (
        1, 2, 5, 15, 51, 188, 731, 2950, 12235,
    )


def test_powers():
    table = powers_2_shifted(8)
    assert table.offset == 1
    assert table.terms == (1, 2, 4, 8, 16, 32, 64, 128)


def test_closed_form_values():
    assert [sort_123_321_closed(n) for n in range(1, 11)] == [
        1, 2, 4, 7, 14, 28, 56, 112, 224, 448,
    ]


def test_closed_form_doubles_from_four():
    for n in range(4, 30):
        assert sort_123_321_closed(n + 1) == 2 * sort_123_321_closed(n)


def test_overflow_guards():
    with pytest.raises(Overflow):
        schroder_large(60)
    with pytest.raises(Overflow):
        binomial_transform_catalan(60)
    # the slower-growing tables stay comfortably inside 128 bits
    assert g_sequence(60).terms[-1] <= INT128_MAX
    assert catalan(60).terms[-1] <= INT128_MAX


def test_table_indexing_and_json():
    table = f_sequence(6)
    assert table[2] == 0 and table[6] == 16
    with pytest.raises(IndexError):
        table[1]
    doc = table.to_json_dict()
    # terms serialize as decimal strings so 128-bit values survive readers
    # that parse numbers as doubles
    assert doc["terms"] == ["0", "1", "2", "6", "16"]
    assert SequenceTable.from_json_dict(doc) == table
    json.dumps(doc)  # round-trips through the stdlib encoder


def test_table_rejects_bad_terms():
    with pytest.raises(ValueError):
        SequenceTable("bad", 0, (1, -1))
    with pytest.raises(Overflow):
        SequenceTable("big", 0, (INT128_MAX + 1,))
