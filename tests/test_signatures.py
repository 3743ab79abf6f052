from functools import lru_cache
from itertools import permutations as iter_perms

import pytest

import oracles
from stacksort.perms import STAR_123, STAR_132, PatternSet, Permutation, avoiders
from stacksort.signatures import (
    DuplicateSignature,
    NoMatch,
    SourceNotAvoider,
    _signature_index,
    active_sites,
    avoider_with_signature,
    format_signature,
    has_plateau,
    parse_signature,
    signature,
    west_map,
)

P = Permutation.from_digits
P123 = P("123")
P132 = P("132")


def all_perms(n):
    return (Permutation(p) for p in iter_perms(range(1, n + 1)))


def test_golden_signature():
    assert signature(P("45231"), P132) == (4, 4, 3, 3, 2)
    assert format_signature((4, 4, 3, 3, 2)) == "4.4.3.3.2"
    assert parse_signature("4.4.3.3.2") == (4, 4, 3, 3, 2)


def test_golden_pair_maps_both_ways():
    assert west_map(P("45231"), P132, P123) == P("42153")
    assert west_map(P("42153"), P123, P132) == P("45231")
    assert signature(P("42153"), P123) == (4, 4, 3, 3, 2)


def test_active_sites_match_oracle():
    for n in range(6):
        for x in all_perms(n):
            for y in (P123, P132):
                assert active_sites(x, y) == oracles.active_sites(x.entries, y.entries)


def test_signature_matches_oracle():
    for n in range(6):
        for x in all_perms(n):
            for y in (P123, P132):
                assert signature(x, y) == oracles.signature(x.entries, y.entries)


def test_direction_validation():
    with pytest.raises(ValueError):
        west_map(P("321"), P132, P132)
    with pytest.raises(SourceNotAvoider):
        west_map(P("132"), P132, P123)
    with pytest.raises(SourceNotAvoider):
        west_map(P("123"), P123, P132)


def test_every_avoider_has_a_partner(monkeypatch):
    # the oracle's signature peels maxima off one at a time, so every
    # shorter avoider's site set is asked for again and again; remember them
    monkeypatch.setattr(oracles, "active_sites", lru_cache(maxsize=None)(oracles.active_sites))
    # the signature map is a bijection between the two avoidance classes,
    # and mapping there and back is the identity, since both directions pick
    # the partner with the same oracle signature.  The generating-tree
    # decoder agrees with the exhaustive index.
    for n in range(9):
        oracle = {
            t: {x: oracles.signature(x.entries, t.entries) for x in avoiders(n, [t])}
            for t in (P123, P132)
        }
        for source, target in ((P132, P123), (P123, P132)):
            owner = {sig: y for y, sig in oracle[target].items()}
            assert len(owner) == oracles.catalan(n)
            for x, sig in oracle[source].items():
                y = west_map(x, source, target)
                assert y == owner[sig] == _signature_index(n, target)[sig]
                assert avoider_with_signature(sig, target) == y


def test_decoder_refuses_what_no_single_avoider_has():
    with pytest.raises(NoMatch):
        avoider_with_signature((5, 2), P123)
    with pytest.raises(NoMatch):
        avoider_with_signature((1,), P132)
    # 12 and 21 both leave three sites free for a new maximum under 1234
    with pytest.raises(DuplicateSignature):
        _signature_index(2, P("1234"))
    with pytest.raises(DuplicateSignature):
        avoider_with_signature((3, 2), P("1234"))


def test_signature_index_is_total_and_injective():
    # the lookup table raises on any signature clash while it is built, so
    # its mere construction certifies injectivity; totality is the count.
    # Its signatures come from the class one shorter, so compare the whole
    # table with signatures recomputed from scratch.
    for n in range(8):
        for target in (P123, P132):
            index = _signature_index(n, target)
            assert len(index) == oracles.catalan(n)
            want = {
                oracles.signature(w, target.entries): Permutation(w)
                for w in iter_perms(range(1, n + 1))
                if not oracles.contains(w, target.entries)
            }
            assert dict(index) == want, (n, target)


def test_signatures_end_in_final_active_count():
    # last entry of the signature is the site count of the one-letter word
    for x in all_perms(4):
        assert signature(x, P132)[-1] == 2
        assert signature(x, P123)[-1] == 2


def test_plateau_detector():
    assert has_plateau((4, 4, 3, 3, 3))
    assert has_plateau((2, 2, 2))
    assert not has_plateau((4, 4, 3, 3, 2))
    assert not has_plateau((3, 2, 2))
    assert not has_plateau((2, 2))
    assert not has_plateau(())


def test_plateau_matches_star_containment():
    from stacksort.perms import contains_bivincular

    for n in range(1, 7):
        for x in avoiders(n, [P123]):
            assert has_plateau(signature(x, P123)) == contains_bivincular(x, STAR_132)
        for x in avoiders(n, [P132]):
            assert has_plateau(signature(x, P132)) == contains_bivincular(x, STAR_123)


def test_parse_signature_rejects_garbage():
    with pytest.raises(ValueError):
        parse_signature("4.x.2")
