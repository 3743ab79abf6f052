import importlib.util
import random
import tracemalloc
from functools import lru_cache
from itertools import permutations as iter_perms
from pathlib import Path

import pytest

import oracles
from stacksort import signatures
from stacksort.perms import (
    PERM_LENGTH_LIMIT,
    STAR_123,
    STAR_132,
    LengthTooLarge,
    PatternSet,
    Permutation,
    avoiders,
    insert_max_at,
    smallest_k,
)
from stacksort.signatures import (
    DuplicateSignature,
    NoMatch,
    SourceNotAvoider,
    _open_sites,
    _signature_index,
    _signatures,
    active_sites,
    avoider_with_signature,
    format_signature,
    has_plateau,
    signature,
    west_map,
)

P = Permutation.from_digits
P123 = P("123")
P132 = P("132")

BENCH_ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def all_perms(n):
    return (Permutation(p) for p in iter_perms(range(1, n + 1)))


def test_golden_signature():
    assert signature(P("45231"), P132) == (4, 4, 3, 3, 2)
    assert format_signature((4, 4, 3, 3, 2)) == "4.4.3.3.2"
    assert format_signature(()) == "-"


def test_signature_refuses_a_perm_past_the_length_limit_before_any_work(monkeypatch):
    def no_work(word, y):
        raise AssertionError("_open_sites called on a refused input")

    monkeypatch.setattr(signatures, "_open_sites", no_work)
    decreasing = Permutation(tuple(range(PERM_LENGTH_LIMIT + 1, 0, -1)))
    with pytest.raises(LengthTooLarge) as exc:
        signature(decreasing, P132)
    assert str(exc.value) == "n=101 above the signature limit 100"
    # at the limit the same call reaches its first active-site count
    with pytest.raises(AssertionError):
        signature(Permutation(decreasing.entries[1:]), P132)


def test_golden_pair_maps_both_ways():
    assert west_map(P("45231"), P132, P123) == P("42153")
    assert west_map(P("42153"), P123, P132) == P("45231")
    assert signature(P("42153"), P123) == (4, 4, 3, 3, 2)


def test_active_sites_match_oracle():
    for n in range(6):
        for x in all_perms(n):
            for y in (P123, P132):
                assert active_sites(x, y) == oracles.active_sites(x.entries, y.entries)


def test_open_sites_follow_the_definition_on_avoiders():
    for n in range(9):
        for y in (P123, P132):
            for x in avoiders(n, [y]):
                assert _open_sites(x.entries, y) == active_sites(x, y), (x, y)


def test_signature_matches_oracle(monkeypatch):
    # the oracle asks again for every level's sites; remember them
    monkeypatch.setattr(oracles, "active_sites", lru_cache(maxsize=None)(oracles.active_sites))
    # every word, so a level that contains the pattern is read as well
    for n in range(8):
        for x in all_perms(n):
            for y in (P123, P132):
                assert signature(x, y) == oracles.signature(x.entries, y.entries), (x, y)


def test_class_signatures_match_the_map_built_level_by_level():
    # removing the maximum of an avoider leaves an avoider one shorter whose
    # signature is the tail of the longer one's
    for y in (P123, P132):
        shorter = {Permutation(()): ()}
        assert dict(_signatures(0, y)) == shorter
        for n in range(1, 9):
            built = {
                x: (len(active_sites(x, y)),) + shorter[smallest_k(x, n - 1)]
                for x in avoiders(n, [y])
            }
            assert list(_signatures(n, y).items()) == list(built.items()), (n, y)
            shorter = built


def test_west_map_maps_long_random_avoiders_back_to_themselves():
    spec = importlib.util.spec_from_file_location("bench_oracles", BENCH_ORACLES)
    bench_oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_oracles)
    rng = random.Random(0)
    for n in range(13, PERM_LENGTH_LIMIT + 1):
        for source, target, draw in (
            (P132, P123, bench_oracles.random_132_avoider),
            (P123, P132, bench_oracles.random_123_avoider),
        ):
            x = Permutation(draw(rng, n))
            assert west_map(west_map(x, source, target), target, source) == x, (n, x)


def test_west_map_keeps_no_state_between_calls():
    # two round trips at the length limit leave less than 1 MB allocated
    decreasing = Permutation(tuple(range(100, 0, -1)))
    layered = Permutation(tuple(range(100, 50, -1)) + tuple(range(1, 51)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert west_map(west_map(decreasing, P123, P132), P132, P123) == decreasing
        assert west_map(west_map(layered, P132, P123), P123, P132) == layered
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000


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


def test_children_follow_wests_rule_by_the_definition():
    # the k children of an avoider with k sites have 2, ..., k+1 sites, one
    # each, counted from the definition; the decoder picks the child whose
    # count comes first in its signature
    for target in (P123, P132):
        for n in range(9):
            for y in avoiders(n, [target]):
                sites = oracles.active_sites(y.entries, target.entries)
                children = {
                    len(oracles.active_sites(child.entries, target.entries)): child
                    for child in (insert_max_at(y, site) for site in sites)
                }
                assert sorted(children) == list(range(2, len(sites) + 2)), (y, target)
                for count, child in children.items():
                    assert avoider_with_signature((count, *signature(y, target)), target) == child


def test_decoder_refuses_what_no_single_avoider_has():
    # each message names the pattern as pattern_name does
    with pytest.raises(NoMatch, match="^no 123-avoider of length 2 has signature 5.2$"):
        avoider_with_signature((5, 2), P123)
    with pytest.raises(NoMatch, match="^no 132-avoider of length 1 has signature 1$"):
        avoider_with_signature((1,), P132)
    # 12 and 21 both leave three sites free for a new maximum under 1234
    shared = "^2 1 and 1 2 share the 1234 signature 3.2$"
    with pytest.raises(DuplicateSignature, match=shared):
        _signature_index(2, P("1234"))
    # the decoder reads sites by West's rule, which holds for 123 and 132 only
    with pytest.raises(ValueError, match="^West's rule decodes 123-avoiders and 132-avoiders only$"):
        avoider_with_signature((3, 2), P("1234"))


def test_signature_index_is_total_and_injective():
    # the lookup table raises on any signature clash while it is built, so
    # its mere construction certifies injectivity; totality is the count.
    # Its signatures come from the active-site rule, so compare the whole
    # table with the oracle's brute-force signatures.
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
