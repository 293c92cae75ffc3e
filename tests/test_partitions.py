import random
import tracemalloc
from collections import Counter
from math import factorial

import pytest

from posetcones import (
    IntPolynomial,
    NotTransverse,
    ParseError,
    Permutation,
    SetPartition,
    antichain,
    chain,
    count_linear_extensions,
    enumerate_transverse,
    grid,
    is_antichain,
    is_transverse,
    opposite,
    ordinal_sum,
    parse_partition,
    partition_to_text,
    poset_from_relations,
    random_poset,
    union_of_chains,
)
from posetcones import bijections, partitions
from posetcones.bijections import transverse_permutations
from posetcones.partitions import (
    _min_mask,
    _quotient_peel,
    check_transverse,
    transverse_poly_coeffs,
)
from posetcones.polynomials import stirling_first_kind_row
from posetcones.whitney import poincare_via_transverse

from common import (
    all_labeled_posets,
    all_partitions,
    brute_force_transverse,
    layer_weight,
    multinomial,
    packed_kernel_corpus,
    quotient_preposet,
    rescan_quotient_peel,
    singleton_partition,
    transitive_closure_pairs,
    transverse_count_check,
    unpruned_layer_choices,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


def test_set_partition_canonical_form():
    pi = SetPartition(4, [(4, 2), (3, 1)])
    assert pi.blocks == ((1, 3), (2, 4))
    assert len(pi) == 2
    assert pi == SetPartition(4, [[1, 3], [2, 4]])
    with pytest.raises(ParseError):
        SetPartition(3, [(1, 2)])
    with pytest.raises(ParseError):
        SetPartition(3, [(1, 2), (2, 3)])


def test_mobius_weight():
    assert SetPartition(1, [(1,)]).mobius_abs() == 1
    assert SetPartition(4, [(1, 2, 3, 4)]).mobius_abs() == 6
    assert SetPartition(4, [(1, 3), (2,), (4,)]).mobius_abs() == 1
    # product of (|B|-1)! over blocks
    pi = SetPartition(6, [(1, 2, 3), (4, 5), (6,)])
    assert pi.mobius_abs() == 2


def test_partition_text_round_trip():
    pi = SetPartition(4, [(1, 3), (2, 4)])
    assert partition_to_text(pi) == "1,3|2,4"
    assert parse_partition("1,3|2,4") == pi
    assert parse_partition(" 1 , 3 | 2 , 4 ", n=4) == pi
    # blocks read integers as every label list does: spaces or commas
    assert parse_partition("1 3|2|4") == parse_partition("1,3|2|4")
    assert parse_partition("2,4|3,1") == pi
    with pytest.raises(ParseError):
        parse_partition("1,3|2", n=4)
    with pytest.raises(ParseError):
        parse_partition("1,x")
    assert parse_partition("") == SetPartition(0, [])


@pytest.mark.parametrize("text, n", [("1,1|2", 2), ("1|1,2", None)])
def test_repeated_element_is_named_wherever_it_repeats(text, n):
    with pytest.raises(ParseError, match="^element 1 appears more than once$"):
        parse_partition(text, n=n)


@pytest.mark.parametrize("text", [",", " , "])
def test_partition_without_elements_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_partition(text)


def test_all_partitions_counts_and_order():
    for n in range(0, 7):
        parts = list(all_partitions(n))
        assert len(parts) == BELL[n]
        assert len(set(parts)) == len(parts)
    # restricted-growth order: singleton-coarsening comes out lex by block string
    three = [partition_to_text(p) for p in all_partitions(3)]
    assert three[0] == "1,2,3"
    assert three[-1] == "1|2|3"


def test_quotient_preposet():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    Q = quotient_preposet(P, SetPartition(4, [(1, 3), (2, 4)]))
    assert Q.leq(1, 1) and Q.leq(2, 2)
    assert Q.leq(1, 2) and not Q.leq(2, 1)
    assert Q.is_antisymmetric()
    # merging comparable elements collapses the quotient into a loop
    Q2 = quotient_preposet(P, SetPartition(4, [(1, 4), (2, 3)]))
    assert not Q2.is_antisymmetric()


def test_transverse_recognition_examples():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    assert is_transverse(P, parse_partition("1,3|2,4"))
    assert not is_transverse(P, parse_partition("1,2|3|4"))
    assert not is_transverse(P, parse_partition("1,4|2,3"))
    check_transverse(P, parse_partition("1,3|2,4"))
    with pytest.raises(NotTransverse):
        check_transverse(P, parse_partition("1,2|3|4"))


def _closure_levels(P, pi):
    """The reference the quotient peel replaces: None unless every block is
    an antichain and the closed quotient is antisymmetric, else each block's
    longest-chain height in the closed quotient rows and each level's mask."""
    if any(not is_antichain(P, set(blk)) for blk in pi.blocks):
        return None
    Q = quotient_preposet(P, pi)
    if not Q.is_antisymmetric():
        return None
    below = [[a for a in range(Q.k) if a != b and Q.rel[a] >> b & 1]
             for b in range(Q.k)]
    height = [0] * Q.k
    # in a closed order, a block below b has fewer blocks below it than b
    for b in sorted(range(Q.k), key=lambda b: len(below[b])):
        height[b] = 1 + max((height[a] for a in below[b]), default=0)
    level_masks = [0] * (1 + max(height, default=0))
    for blk, h in zip(pi.blocks, height):
        for x in blk:
            level_masks[h] |= 1 << (x - 1)
    return height, level_masks


def test_quotient_peel_matches_the_closure():
    posets = [P for n in range(5) for P in all_labeled_posets(n)]
    rng = random.Random(19)
    for _ in range(100):
        posets.append(random_poset(rng.choice([5, 6]), rng.choice([0.2, 0.4, 0.6]), rng))
    seen = Counter()
    for P in posets:
        for pi in all_partitions(P.n):
            got = _quotient_peel(P, pi.blocks, pi.n)
            want = _closure_levels(P, pi)
            assert got == want, (P.relations(), partition_to_text(pi))
            seen[got is not None] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def test_quotient_peel_matches_the_rescan_peel():
    # random blocks in random order, transverse or not, on random posets
    rng = random.Random(32)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(1, 9)
        P = random_poset(n, rng.choice([0.1, 0.3, 0.5]), rng)
        owner = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        blocks = [tuple(x for x in range(1, n + 1) if owner[x - 1] == b) for b in set(owner)]
        rng.shuffle(blocks)
        got = _quotient_peel(P, blocks, n)
        assert got == rescan_quotient_peel(P, blocks, n), (P.relations(), blocks)
        seen[got is not None] += 1
    assert seen[True] > 500 and seen[False] > 500


def test_transverse_ten_element_example():
    P = union_of_chains((2, 3, 2, 3))
    pi = parse_partition("1,4,7|2,5,10|3,6,8|9")
    assert is_transverse(P, pi)
    assert pi.mobius_abs() == 8


def test_enumerate_transverse_worked_example():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    got = {partition_to_text(pi) for pi in enumerate_transverse(P)}
    assert got == {
        "1|2|3|4", "1,3|2|4", "1|2,3|4", "1|2,4|3", "1,4|2|3", "1,3|2,4",
    }


def test_enumerate_transverse_extremes():
    assert list(enumerate_transverse(antichain(0))) == [SetPartition(0, [])]
    for n in range(1, 6):
        assert len(list(enumerate_transverse(antichain(n)))) == BELL[n]
        assert list(enumerate_transverse(chain(n))) == [singleton_partition(n)]


def _unpruned_enumerate_transverse(P):
    """The level recursion over every layer choice, in the order the pruned
    enumeration must keep (oracle)."""
    down = P._down

    def rec(alive, forbidden):
        if not alive:
            yield ()
            return
        mm = _min_mask(down, alive)
        for s_mask, blocks in unpruned_layer_choices(mm, forbidden):
            for tail in rec(alive & ~s_mask, mm & ~s_mask):
                yield blocks + tail

    for blocks in rec((1 << P.n) - 1, 0):
        yield SetPartition(P.n, blocks)


def _ordered_oracle_corpus():
    out = [P for n in range(6) for P in all_labeled_posets(n)]
    rng = random.Random(9)
    for _ in range(300):
        out.append(random_poset(rng.randint(0, 8),
                                rng.choice([0.05, 0.1, 0.2, 0.35, 0.5, 0.7]), rng))
    out += [grid(2, 4), grid(3, 3)]
    out += [union_of_chains(a) for a in ((2, 2, 2), (3, 2, 1, 1), (1,) * 6, (4, 3))]
    return out


def test_enumeration_matches_unpruned_oracle_in_order():
    for P in _ordered_oracle_corpus():
        assert list(enumerate_transverse(P)) == list(_unpruned_enumerate_transverse(P)), \
            P.relations()


def test_transverse_permutations_keep_their_order(monkeypatch):
    rng = random.Random(10)
    posets = [random_poset(rng.randint(0, 6), rng.choice([0.1, 0.3, 0.5]), rng)
              for _ in range(60)]
    got = [list(transverse_permutations(P)) for P in posets]
    monkeypatch.setattr(bijections, "enumerate_transverse", _unpruned_enumerate_transverse)
    assert got == [list(transverse_permutations(P)) for P in posets]


def test_enumeration_builds_no_dead_layer(monkeypatch):
    # each state derives its targets once, and each layer set S other than
    # its minima mm that leaves something alive derives the child's minima
    # once; the layer S = mm reuses the targets.  An antichain is one state
    # with no target, so its only layer set takes every point: one call,
    # for the root's targets.  A chain's n states each take their one
    # minimum, S = mm, so only their targets are derived: n calls.  A dead
    # layer would add states, and so calls, that yield nothing.
    calls = []
    step = partitions._minima_after

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(partitions, "_minima_after", counted)
    for n in range(1, 8):
        calls.clear()
        assert sum(1 for _ in enumerate_transverse(antichain(n))) == BELL[n]
        assert len(calls) == 1, n
        calls.clear()
        assert sum(1 for _ in enumerate_transverse(chain(n))) == 1
        assert len(calls) == n, n


def test_enumeration_streams_its_first_partition_at_once():
    # antichain 10 has Bell(10) = 115 975 root layer choices; building them
    # all before the first yield peaks near 50 MB
    tracemalloc.start()
    try:
        first = next(enumerate_transverse(antichain(10)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == SetPartition(10, [tuple(range(1, 11))])
    assert peak < 1 << 20, peak


def test_layer_choice_oracle_streams_its_first_choice_at_once():
    # 9 minima have Bell(10) - 1 = 115 974 layer choices; listing them all
    # before the first yield peaks near 43 MB
    tracemalloc.start()
    try:
        first = next(iter(unpruned_layer_choices((1 << 9) - 1, 0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (1 << 8, ((9,),))
    assert peak < 1 << 20, peak


def test_transverse_permutations_stream_their_first_permutation_at_once():
    # the first partition of antichain 10 is one block, whose 9! = 362 880
    # cyclic arrangements peak near 48 MB if they are listed before the
    # first yield
    tracemalloc.start()
    try:
        first = next(transverse_permutations(antichain(10)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == Permutation(list(range(2, 11)) + [1])
    assert peak < 1 << 20, peak


def test_enumeration_matches_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        P = random_poset(n, rng.choice([0.15, 0.35, 0.6, 0.85]), rng)
        fast = sorted(enumerate_transverse(P), key=lambda p: p.blocks)
        slow = sorted(brute_force_transverse(P), key=lambda p: p.blocks)
        assert fast == slow
        assert len(set(fast)) == len(fast)


def test_alternative_condition_closure_check():
    """Merging a partition into the order relation must never create a
    reversed strict pair; cross-check against the quotient route on every
    partition of small random posets."""
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 5)
        P = random_poset(n, rng.choice([0.2, 0.5, 0.8]), rng)
        strict = set(P.relations())
        for pi in all_partitions(n):
            pairs = set(strict)
            for blk in pi.blocks:
                for a in blk:
                    for b in blk:
                        if a != b:
                            pairs.add((a, b))
            closure = transitive_closure_pairs(n, pairs)
            alt = not any((j, i) in closure for (i, j) in strict)
            assert alt == is_transverse(P, pi)


def test_transversality_is_self_dual():
    rng = random.Random(47)
    for _ in range(40):
        P = random_poset(rng.randint(1, 6), 0.4, rng)
        forward = set(enumerate_transverse(P))
        backward = set(enumerate_transverse(opposite(P)))
        assert forward == backward


def test_ordinal_sum_splits_blocks():
    # no block of a transverse partition may straddle the two summands
    P = ordinal_sum(antichain(2), antichain(2))
    for pi in enumerate_transverse(P):
        for blk in pi.blocks:
            assert set(blk) <= {1, 2} or set(blk) <= {3, 4}


def test_poly_coeffs_accumulate_weights():
    for P in (
        poset_from_relations(4, [(3, 4)]),
        poset_from_relations(4, [(1, 2), (3, 4)]),
        antichain(4),
        chain(5),
        grid(2, 3),
    ):
        coeffs = transverse_poly_coeffs(P)
        by_hand = [0] * (P.n + 1)
        for pi in enumerate_transverse(P):
            by_hand[P.n - len(pi)] += pi.mobius_abs()
        while by_hand and by_hand[-1] == 0:
            by_hand.pop()
        assert list(coeffs) == by_hand


def test_weight_sum_equals_extension_count():
    rng = random.Random(53)
    for _ in range(80):
        P = random_poset(rng.randint(0, 6), rng.choice([0.2, 0.5, 0.8]), rng)
        assert transverse_count_check(P)
        total = sum(pi.mobius_abs() for pi in enumerate_transverse(P))
        assert total == count_linear_extensions(P)
    assert sum(pi.mobius_abs() for pi in enumerate_transverse(antichain(5))) == factorial(5)


def _enumerated_coeffs(P):
    coeffs = [0] * (P.n + 1)
    for pi in enumerate_transverse(P):
        coeffs[P.n - len(pi)] += pi.mobius_abs()
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_layer_weight_matches_partition_sum():
    for size in range(1, 7):
        full = (1 << size) - 1
        for f in range(size + 1):
            a = size - f
            forbidden = full >> a << a  # the top f labels
            brute = [0] * size
            for s_mask, blocks in unpruned_layer_choices(full, forbidden):
                if s_mask != full:
                    continue
                w = 1
                for blk in blocks:
                    w *= factorial(len(blk) - 1)
                brute[size - len(blocks)] += w
            if a == 0:
                assert not any(brute)
                continue
            while brute[-1] == 0:
                brute.pop()
            assert list(layer_weight(a, f)) == brute, (a, f)


def test_dp_matches_enumeration_on_all_small_posets():
    for n in range(5):
        for P in all_labeled_posets(n):
            assert transverse_poly_coeffs(P) == _enumerated_coeffs(P)


def test_dp_matches_enumeration_on_random_posets():
    rng = random.Random(2)
    for _ in range(300):
        P = random_poset(rng.randint(0, 9), rng.choice([0.2, 0.3, 0.5, 0.7]), rng)
        assert transverse_poly_coeffs(P) == _enumerated_coeffs(P)


def test_dp_reaches_large_antichains():
    for n in range(12, 17):
        want = IntPolynomial.one()
        for k in range(1, n):
            want = want * IntPolynomial([1, k])
        assert poincare_via_transverse(antichain(n)) == want


def _list_transverse_coeffs(P):
    """The transverse DP on coefficient lists, one small int at a time, as
    it ran before its memo values were packed into ints (oracle)."""
    down = P._down
    memo = {}

    def rec(alive, forbidden):
        if not alive:
            return (1,)
        key = (alive, forbidden)
        if key in memo:
            return memo[key]
        mm = _min_mask(down, alive)
        free = mm & ~forbidden
        if not free:
            return (0,)
        forb = mm & forbidden
        acc = [0] * (alive.bit_count() + 1)
        sa = free
        while sa:
            a = sa.bit_count()
            sf = forb
            while True:
                s = sa | sf
                tail = rec(alive & ~s, mm & ~s)
                for j, w in enumerate(layer_weight(a, sf.bit_count())):
                    for d, c in enumerate(tail):
                        acc[d + j] += w * c
                if not sf:
                    break
                sf = (sf - 1) & forb
            sa = (sa - 1) & free
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        memo[key] = tuple(acc)
        return memo[key]

    return list(rec((1 << P.n) - 1, 0))


def test_packed_dp_matches_list_oracle():
    for P in packed_kernel_corpus():
        assert transverse_poly_coeffs(P) == _list_transverse_coeffs(P), P.relations()


def test_packed_dp_slots_at_antichain_boundary():
    # prod (1 + kt) sums to n!, the largest total the slot width must hold
    want = IntPolynomial.one()
    for n in range(1, 21):
        want = want * IntPolynomial([1, n - 1])
        got = transverse_poly_coeffs(antichain(n))
        assert got == list(want.coeffs), n
        assert sum(got) == factorial(n)


def test_dp_answers_one_on_the_empty_poset():
    # the empty up-set is the memo's seed, and no state may overwrite it
    assert transverse_poly_coeffs(antichain(0)) == [1]
    assert poincare_via_transverse(antichain(0)).coeffs == (1,)


def test_dp_weights_grow_only_to_the_widest_state():
    # each state of a chain has one minimum, so no weight past w_1 is
    # needed; weight tables built to degree n - 1 peaked at 59 MB here
    P = chain(400)
    tracemalloc.start()
    try:
        got = transverse_poly_coeffs(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [1]
    assert peak < 1 << 20, peak
    assert transverse_poly_coeffs(antichain(200)) == stirling_first_kind_row(200)[:0:-1]


def test_packed_dp_on_chain_unions_sums_to_multinomial():
    for a in ([1] * 8, [2] * 6, [3] * 5, [4, 4, 4], [7, 1, 1, 1, 1], [5, 3, 2, 1]):
        assert sum(transverse_poly_coeffs(union_of_chains(a))) == multinomial(a), a
