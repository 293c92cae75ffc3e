import random
from collections import Counter
from itertools import islice, permutations
from math import factorial

import pytest

from posetcones import (
    ChainDecomposition,
    IndexOutOfRange,
    NotLinearExtension,
    NotTransverse,
    ParseError,
    Permutation,
    Poset,
    SetPartition,
    antichain,
    chain,
    chain_cover_width2,
    count_linear_extensions,
    des_p1p2,
    enumerate_transverse,
    grid,
    is_antichain,
    is_linear_extension,
    is_transverse,
    level_decompose,
    levels_of_permutation,
    linear_extensions,
    lrmax_count,
    omega,
    omega_inv,
    parse_permutation,
    permutation_to_text,
    phi,
    poset_from_relations,
    psi,
    random_poset,
    transverse_permutations,
    union_of_chains,
    width,
)
from posetcones import PosetconesError, WidthExceeded, bijections, partitions
from posetcones.foata import foata_phi_inv
from posetcones.partitions import check_transverse

from common import all_labeled_posets, all_partitions, mutant, outcome, quotient_preposet

EX_PHI_RELATIONS = [
    (13, 6), (1, 6), (1, 7), (9, 7), (9, 2), (11, 2),
    (11, 5), (4, 12), (7, 3), (3, 10), (2, 10),
]


def ex_phi_poset():
    return poset_from_relations(13, EX_PHI_RELATIONS)


def test_permutation_basics():
    p = Permutation([2, 3, 1])
    assert p(1) == 2 and p(3) == 1
    assert p.cycles() == [(1, 2, 3)]
    assert p.cycle_count() == 1
    assert p.cycle_partition() == SetPartition(3, [(1, 2, 3)])
    assert Permutation.identity(4).cycles() == [(1,), (2,), (3,), (4,)]
    q = Permutation.from_cycles(4, [(1, 3), (2,), (4,)])
    assert q.images == (3, 2, 1, 4)
    assert Permutation.from_cycles(4, [(1, 3)], implicit_fixed=True) == q
    with pytest.raises(ParseError):
        Permutation([1, 1, 2])
    with pytest.raises(ParseError):
        Permutation.from_cycles(3, [(1, 2)])
    with pytest.raises(ParseError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])
    with pytest.raises(IndexOutOfRange):
        Permutation.from_cycles(2, [(1, 5)])
    with pytest.raises(IndexOutOfRange):
        p(9)


def test_permutation_text_forms():
    p = Permutation([3, 1, 2, 4])
    assert permutation_to_text(p) == "[3,1,2,4]"
    assert permutation_to_text(p, cycles=True) == "(1,3,2)(4)"
    assert parse_permutation("[3,1,2,4]") == p
    assert parse_permutation("3,1,2,4") == p
    assert parse_permutation("(1,3,2)(4)") == p
    assert parse_permutation("(1,3,2)", n=4, implicit_fixed=True) == p
    assert parse_permutation("()") == Permutation(())
    assert parse_permutation("[]") == parse_permutation(" ") == Permutation(())
    with pytest.raises(ParseError):
        parse_permutation("(1,3,2)", n=4)
    with pytest.raises(ParseError):
        parse_permutation("(1,2", n=2)
    with pytest.raises(ParseError):
        parse_permutation("[1,2,2]")
    with pytest.raises(ParseError):
        parse_permutation("[1,2]", n=3)


@pytest.mark.parametrize("text, n, label", [
    ("(1,1)", 3, 1), ("(1,2,1)(3)", None, 1), ("(1,2)(2,3)", None, 2),
])
def test_repeated_cycle_label_is_named_wherever_it_repeats(text, n, label):
    with pytest.raises(ParseError, match=f"^label {label} appears more than once$"):
        parse_permutation(text, n=n, implicit_fixed=True)


def test_transverse_permutation_counts():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    perms = list(transverse_permutations(P))
    assert len(perms) == 6
    assert len(set(perms)) == 6
    assert len(list(transverse_permutations(antichain(4)))) == factorial(4)
    rng = random.Random(61)
    for _ in range(40):
        Q = random_poset(rng.randint(0, 6), rng.choice([0.2, 0.5, 0.8]), rng)
        assert len(list(transverse_permutations(Q))) == count_linear_extensions(Q)


def test_levels_of_permutation_example():
    P = ex_phi_poset()
    tau = parse_permutation("(4)(6,3)(9)(10)(11,7)(12,5,8,2)(13,1)")
    lv = levels_of_permutation(P, tau)
    assert lv == {
        (1, 13): 1, (9,): 1, (4,): 1,
        (7, 11): 2,
        (3, 6): 3, (2, 5, 8, 12): 3,
        (10,): 4,
    }
    with pytest.raises(NotTransverse):
        levels_of_permutation(chain(2), Permutation([2, 1]))
    flat = levels_of_permutation(antichain(4), Permutation([2, 1, 4, 3]))
    assert set(flat.values()) == {1}


def test_phi_worked_examples():
    P = ex_phi_poset()
    tau = parse_permutation("(4)(6,3)(9)(10)(11,7)(12,5,8,2)(13,1)")
    assert phi(P, tau) == (4, 9, 13, 1, 7, 11, 3, 6, 5, 8, 2, 12, 10)
    assert phi(antichain(9), Permutation([7, 5, 9, 4, 2, 8, 3, 6, 1])) == (
        4, 5, 2, 8, 6, 9, 1, 7, 3)
    assert phi(chain(5), Permutation.identity(5)) == (1, 2, 3, 4, 5)


def test_level_decompose_worked_example():
    P = ex_phi_poset()
    word = (4, 9, 13, 1, 7, 11, 3, 6, 5, 8, 2, 12, 10)
    le = level_decompose(P, word)
    assert le.levels == ((4, 9, 13, 1), (7, 11), (3, 6, 5, 8, 2, 12), (10,))
    assert le.essential == frozenset({4, 9, 13, 1, 7, 3, 5, 2, 10})
    assert le.plr_max == (4, 9, 13, 7, 3, 5, 10)
    assert le.level_of[10] == 4 and le.level_of[11] == 2
    with pytest.raises(NotLinearExtension):
        level_decompose(P, tuple(range(1, 14)))


def test_level_decompose_extremes():
    le = level_decompose(antichain(4), (2, 4, 1, 3))
    assert le.levels == ((2, 4, 1, 3),)
    assert le.essential == frozenset({1, 2, 3, 4})
    assert le.plr_max == (2, 4)  # classical left-to-right maxima
    assert level_decompose(chain(4), (1, 2, 3, 4)).levels == ((1,), (2,), (3,), (4,))


def test_psi_worked_example():
    P = ex_phi_poset()
    word = (4, 9, 13, 1, 7, 11, 3, 6, 5, 8, 2, 12, 10)
    tau = psi(P, word)
    assert tau == parse_permutation("(4)(9)(13,1)(7,11)(3,6)(5,8,2,12)(10)")
    assert lrmax_count(P, word) == 7
    assert tau.cycle_count() == 7


def test_lrmax_extremes():
    assert lrmax_count(antichain(5), (1, 2, 3, 4, 5)) == 5
    assert lrmax_count(antichain(5), (5, 4, 3, 2, 1)) == 1
    assert lrmax_count(chain(5), (1, 2, 3, 4, 5)) == 5


def test_round_trips_and_statistic_transport():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(0, 6)
        P = random_poset(n, rng.choice([0.15, 0.4, 0.7]), rng)
        exts = list(linear_extensions(P))
        seen = set()
        for tau in transverse_permutations(P):
            w = phi(P, tau)
            assert psi(P, w) == tau
            assert tau.cycle_count() == lrmax_count(P, w)
            seen.add(w)
        assert seen == set(exts)
        for w in exts:
            assert phi(P, psi(P, w)) == w


def test_level_maps_agree_across_the_bijection():
    rng = random.Random(71)
    for _ in range(40):
        P = random_poset(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng)
        for tau in transverse_permutations(P):
            by_block = levels_of_permutation(P, tau)
            le = level_decompose(P, phi(P, tau))
            for blk, lv in by_block.items():
                for x in blk:
                    assert le.level_of[x] == lv
            # each level class is an antichain; each cycle holds an essential
            for level_word in le.levels:
                assert is_antichain(P, set(level_word))
            for blk in by_block:
                assert any(x in le.essential for x in blk)


def test_des_worked_values():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    d = chain_cover_width2(P)
    assert set(d.p1) == {1, 2} and set(d.p2) == {3, 4}
    assert des_p1p2(P, d, (3, 4, 1, 2)) == 1
    dist = sorted(des_p1p2(P, d, w) for w in linear_extensions(P))
    assert dist == [0, 1, 1, 1, 1, 2]
    with pytest.raises(NotLinearExtension):
        des_p1p2(P, d, (2, 1, 3, 4))


def test_omega_worked_examples():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    d = chain_cover_width2(P)
    images = {}
    for w in linear_extensions(P):
        images[w] = omega(P, d, w)
    assert len(set(images.values())) == 6
    assert set(images.values()) == set(enumerate_transverse(P))
    pair_counts = Counter(
        sum(1 for b in pi.blocks if len(b) == 2) for pi in images.values()
    )
    assert pair_counts == Counter({0: 1, 1: 4, 2: 1})
    assert omega(chain(4), chain_cover_width2(chain(4)), (1, 2, 3, 4)).blocks == (
        (1,), (2,), (3,), (4,))


def test_omega_round_trip_random():
    rng = random.Random(73)
    done = 0
    while done < 50:
        P = random_poset(rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]), rng)
        try:
            d = chain_cover_width2(P)
        except WidthExceeded:
            continue
        done += 1
        for dd in (d, ChainDecomposition(P, d.p2, d.p1)):
            for w in linear_extensions(P):
                pi = omega(P, dd, w)
                assert pi.mobius_abs() >= 1
                assert omega_inv(P, dd, pi) == w
                pairs = sum(1 for b in pi.blocks if len(b) == 2)
                assert pairs == des_p1p2(P, dd, w)


def test_omega_inv_rejects_foreign_partitions():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    with pytest.raises(IndexOutOfRange):
        omega_inv(P, chain_cover_width2(P), SetPartition(3, [(1,), (2,), (3,)]))
    # each pair the merge cannot honour, with chains 1 < 2 and 3 < 4, ends
    # in check_transverse's error, never ValueError or NotLinearExtension
    below = poset_from_relations(4, [(1, 2), (3, 4), (3, 2)])
    above = poset_from_relations(4, [(1, 2), (3, 4), (1, 4)])
    cases = [
        (P, [(1, 2), (3,), (4,)]),  # 1's partner is on chain 1
        (P, [(1, 4), (2, 3)]),  # 2's partner 3 is written before 2 is reached
        (below, [(2, 3), (1,), (4,)]),  # 2's partner lies below it
        (above, [(1, 4), (2,), (3,)]),  # 1's partner lies above it
        (P, [(1, 3, 4), (2,)]),  # a block of three labels
    ]
    for Q, blocks in cases:
        pi = SetPartition(4, blocks)
        error = outcome(check_transverse, Q, pi)
        assert error[0] is NotTransverse
        assert outcome(omega_inv, Q, ChainDecomposition(Q, [1, 2], [3, 4]), pi) == error


def _relabeled_width2_posets(count, n_max, seed):
    """Seeded random posets of width <= 2 under a random relabeling, so
    that the chains need not run up the labels."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, n_max)
        P = random_poset(n, rng.choice([0.3, 0.5, 0.8]), rng)
        if width(P) > 2:
            continue
        s = rng.sample(range(1, n + 1), n)
        out.append(poset_from_relations(n, [(s[i - 1], s[j - 1]) for i, j in P.relations()]))
    return out


def _chain_splits(P):
    """Every ordered split of 1..n into two chains that `ChainDecomposition`
    accepts."""
    for mask in range(1 << P.n):
        part1 = [x for x in range(1, P.n + 1) if mask >> (x - 1) & 1]
        part2 = [x for x in range(1, P.n + 1) if not mask >> (x - 1) & 1]
        try:
            yield ChainDecomposition(P, part1, part2)
        except WidthExceeded:
            pass


def _first_broken_round_trip(inverse, posets):
    """The first (P, d, pi) on which `inverse` raises a library error or
    returns no linear extension that `omega` maps back to pi, or None."""
    for P in posets:
        family = list(enumerate_transverse(P))
        for d in _chain_splits(P):
            for pi in family:
                try:
                    w = inverse(P, d, pi)
                    broken = not is_linear_extension(P, w) or omega(P, d, w) != pi
                except PosetconesError:
                    broken = True
                if broken:
                    return P.relations(), d, pi
    return None


def test_omega_inv_inverts_omega_on_every_split_and_transverse_partition():
    # on a transverse partition the partners alone decide the merge's word;
    # without the jump to each partner the merge misses it
    posets = [P for n in range(6) for P in all_labeled_posets(n) if width(P) <= 2]
    posets += _relabeled_width2_posets(300, 7, seed=27)
    assert _first_broken_round_trip(omega_inv, posets) is None
    no_jump = mutant(bijections, "omega_inv", ("k = after.get(partner.get(h), 0)", "k = 0"))
    assert _first_broken_round_trip(no_jump, posets) is not None


def test_omega_inv_accepts_exactly_the_transverse_partitions():
    # every set partition, under both chain orders: the preimage iff the
    # partition is transverse, and otherwise check_transverse's error, with
    # no ValueError or NotLinearExtension from the walk on the way
    posets = [P for n in range(6) for P in all_labeled_posets(n) if width(P) <= 2]
    posets += _relabeled_width2_posets(40, 7, seed=32)
    seen = Counter()
    for P in posets:
        d = chain_cover_width2(P)
        splits = (d, ChainDecomposition(P, d.p2, d.p1))
        preimages = [{omega(P, dd, w): w for w in linear_extensions(P)} for dd in splits]
        for pi in all_partitions(P.n):
            error = None if is_transverse(P, pi) else outcome(check_transverse, P, pi)
            for dd, preimage in zip(splits, preimages):
                assert (pi in preimage) == (error is None)
                want = error or preimage[pi]
                assert outcome(omega_inv, P, dd, pi) == want, (P.relations(), dd, pi)
                seen[error is None] += 1
    assert seen[True] > 10_000 and seen[False] > 100_000


# -- the mask core against per-pair versions ------------------------------------

def _pairwise_level_decompose(P, word):
    """level_decompose spelled out with one P.less call per pair."""
    if not is_linear_extension(P, word):
        raise NotLinearExtension(word)
    levels, cur = [], []
    for x in word:
        if any(P.less(y, x) for y in cur):
            levels.append(tuple(cur))
            cur = [x]
        else:
            cur.append(x)
    if cur:
        levels.append(tuple(cur))
    level_of = {x: li for li, lv in enumerate(levels, start=1) for x in lv}
    essential = {
        x for li, lv in enumerate(levels, start=1) for x in lv
        if li == 1 or any(P.less(y, x) for y in levels[li - 2])
    }
    plr_max = []
    for lv in levels:
        runm = 0
        for x in lv:
            if x in essential and x > runm:
                plr_max.append(x)
                runm = x
    return tuple(levels), level_of, frozenset(essential), tuple(plr_max)


def _pairwise_is_transverse(P, pi):
    """Pairwise antichain blocks plus a quotient built from P.relations()."""
    blocks = pi.blocks
    for blk in blocks:
        if any(P.comparable(x, y) for x in blk for y in blk):
            return False
    owner = {x: b for b, blk in enumerate(blocks) for x in blk}
    rel = {(b, b) for b in range(len(blocks))}
    rel |= {(owner[i], owner[j]) for i, j in P.relations()}
    changed = True
    while changed:
        extra = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        changed = bool(extra)
        rel |= extra
    return all(a == b or (b, a) not in rel for a, b in rel)


def _pairwise_phi(P, tau):
    """phi spelled out: quotient levels by longest chains of the relation
    built from P.relations(), essential elements by P.less."""
    cycles = tau.cycles()
    pi = SetPartition(tau.n, cycles)
    if not _pairwise_is_transverse(P, pi):
        raise NotTransverse(cycles)
    owner = {x: b for b, blk in enumerate(pi.blocks) for x in blk}
    below = {b: set() for b in range(len(cycles))}
    for i, j in P.relations():
        if owner[i] != owner[j]:
            below[owner[j]].add(owner[i])

    def height(b):
        return 1 + max((height(a) for a in below[b]), default=0)

    level = {x: height(owner[x]) for x in owner}
    keyed = []
    for cyc in cycles:
        ess = [x for x in cyc if level[x] == 1 or any(
            level[y] == level[x] - 1 and P.less(y, x) for y in owner)]
        if not ess:
            raise NotTransverse(cyc)
        lead = max(ess)
        at = cyc.index(lead)
        keyed.append(((level[lead], lead), cyc[at:] + cyc[:at]))
    keyed.sort(key=lambda kw: kw[0])
    return tuple(x for _, word in keyed for x in word)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotLinearExtension, NotTransverse) as exc:
        return type(exc)


def _check_against_pairwise(P, words):
    for w in words:
        le = level_decompose(P, w)
        assert (le.levels, le.level_of, le.essential, le.plr_max) == \
            _pairwise_level_decompose(P, w)
        assert le.word == w
        tau = psi(P, w)
        assert phi(P, tau) == _pairwise_phi(P, tau) == w
        assert is_transverse(P, tau.cycle_partition())
        assert lrmax_count(P, w) == len(le.plr_max) == tau.cycle_count()


def test_mask_core_matches_pairwise_versions_on_random_posets():
    rng = random.Random(79)
    for _ in range(210):
        n = rng.randint(0, 8)
        P = random_poset(n, rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]), rng)
        _check_against_pairwise(P, list(islice(linear_extensions(P), 60)))


def test_mask_core_matches_pairwise_versions_on_every_permutation():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(0, 5)
        P = random_poset(n, rng.choice([0.1, 0.3, 0.5, 0.7]), rng)
        for images in permutations(range(1, n + 1)):
            tau = Permutation(images)
            assert _outcome(phi, P, tau) == _outcome(_pairwise_phi, P, tau)
            pi = tau.cycle_partition()
            assert is_transverse(P, pi) == _pairwise_is_transverse(P, pi)
            # the one-line images read as a word: extension or not
            got = _outcome(level_decompose, P, images)
            want = _outcome(_pairwise_level_decompose, P, images)
            if got is NotLinearExtension:
                assert want is NotLinearExtension
            else:
                assert (got.levels, got.level_of, got.essential, got.plr_max) == want


def test_transverse_check_sees_a_cycle_through_three_blocks():
    # 1 < 2, 5 < 3, 6 < 4: blocks {1,4} -> {2,5} -> {3,6} -> {1,4}, each an
    # antichain, and no two blocks related both ways before closure
    P = poset_from_relations(6, [(1, 2), (5, 3), (6, 4)])
    tau = parse_permutation("(1,4)(2,5)(3,6)")
    pi = tau.cycle_partition()
    assert not _pairwise_is_transverse(P, pi)
    assert not is_transverse(P, pi)
    assert quotient_preposet(P, pi).rel == (0b111, 0b111, 0b111)
    with pytest.raises(NotTransverse):
        phi(P, tau)
    with pytest.raises(NotTransverse):
        levels_of_permutation(P, tau)


# -- work guard: the hot path asks no pairwise queries --------------------------

def test_bijection_core_makes_no_pairwise_queries(monkeypatch):
    P = ex_phi_poset()
    P212 = poset_from_relations(4, [(1, 2), (3, 4)])
    W2 = poset_from_relations(5, [(1, 2), (3, 4), (1, 4), (4, 5)])

    def refuse(*args):
        raise AssertionError("pairwise poset query on the mask path")

    monkeypatch.setattr(Poset, "less", refuse)
    monkeypatch.setattr(Poset, "comparable", refuse)

    word = (4, 9, 13, 1, 7, 11, 3, 6, 5, 8, 2, 12, 10)
    tau = parse_permutation("(4)(6,3)(9)(10)(11,7)(12,5,8,2)(13,1)")
    le = level_decompose(P, word)
    assert le.levels == ((4, 9, 13, 1), (7, 11), (3, 6, 5, 8, 2, 12), (10,))
    assert le.plr_max == (4, 9, 13, 7, 3, 5, 10)
    assert psi(P, word) == parse_permutation("(4)(9)(13,1)(7,11)(3,6)(5,8,2,12)(10)")
    assert phi(P, tau) == word
    assert lrmax_count(P, word) == 7
    assert is_transverse(P, tau.cycle_partition())
    assert not is_transverse(P, SetPartition(13, [(1, 6)] + [(x,) for x in
                                                            range(2, 14) if x != 6]))
    with pytest.raises(NotTransverse):
        phi(chain(2), Permutation([2, 1]))

    d = chain_cover_width2(P212)
    assert sorted(des_p1p2(P212, d, w) for w in linear_extensions(P212)) == [
        0, 1, 1, 1, 1, 2]
    d = chain_cover_width2(W2)
    exts = list(linear_extensions(W2))
    assert len(exts) == 7
    partitions = set()
    for w in exts:
        pi = omega(W2, d, w)
        assert omega_inv(W2, d, pi) == w
        assert sum(1 for b in pi.blocks if len(b) == 2) == des_p1p2(W2, d, w)
        partitions.add(pi)
    assert partitions == set(enumerate_transverse(W2))


# -- work guard: transversality and quotient levels need no closure -------------

def _refuse(*args):
    raise AssertionError("built on the quotient peel's path")


def _phi_answers():
    P = ex_phi_poset()
    tau = parse_permutation("(4)(6,3)(9)(10)(11,7)(12,5,8,2)(13,1)")
    assert phi(P, tau) == (4, 9, 13, 1, 7, 11, 3, 6, 5, 8, 2, 12, 10)
    assert phi(antichain(9), Permutation([7, 5, 9, 4, 2, 8, 3, 6, 1])) == (
        4, 5, 2, 8, 6, 9, 1, 7, 3)
    assert phi(chain(5), Permutation.identity(5)) == (1, 2, 3, 4, 5)


def test_transversality_callers_answer_on_the_quotient_peel():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    good = SetPartition(4, [(1, 3), (2, 4)])
    assert is_transverse(P, good)
    assert not is_transverse(P, SetPartition(4, [(1, 2), (3,), (4,)]))
    assert not is_transverse(P, SetPartition(4, [(1, 4), (2, 3)]))
    assert check_transverse(P, good) == ([1, 2], [0, 0b0101, 0b1010])
    with pytest.raises(NotTransverse, match=r"^1,4\|2,3 is not transverse$"):
        check_transverse(P, SetPartition(4, [(1, 4), (2, 3)]))

    _phi_answers()
    with pytest.raises(NotTransverse, match="^1,2 is not transverse$"):
        phi(chain(2), Permutation([2, 1]))
    with pytest.raises(NotTransverse, match=r"^1,4\|2,5\|3,6 is not transverse$"):
        phi(poset_from_relations(6, [(1, 2), (5, 3), (6, 4)]),
            parse_permutation("(1,4)(2,5)(3,6)"))

    tau = parse_permutation("(4)(6,3)(9)(10)(11,7)(12,5,8,2)(13,1)")
    assert levels_of_permutation(ex_phi_poset(), tau)[(2, 5, 8, 12)] == 3
    with pytest.raises(NotTransverse):
        levels_of_permutation(chain(2), Permutation([2, 1]))

    d = chain_cover_width2(P)
    for w in linear_extensions(P):
        assert omega_inv(P, d, omega(P, d, w)) == w
    with pytest.raises(NotTransverse):
        omega_inv(P, d, SetPartition(4, [(1, 2), (3,), (4,)]))

    a = (2, 3, 2, 3)
    tau = Permutation.from_cycles(10, [(3, 8, 6), (1, 4, 7), (9,), (2, 10, 5)])
    assert foata_phi_inv(a, tau) == (3, 8, 9, 6, 1, 4, 2, 7, 10, 5)
    with pytest.raises(NotTransverse):
        foata_phi_inv((2, 2), Permutation([2, 1, 3, 4]))


def test_omega_round_trips_make_no_quotient_peel(monkeypatch):
    # omega_inv checks by mapping back; a planted check_transverse, the
    # negative control, peels once per round trip
    real = partitions._quotient_peel
    calls = Counter()

    def counted(*args):
        calls["peel"] += 1
        return real(*args)

    monkeypatch.setattr("posetcones.partitions._quotient_peel", counted)
    P = grid(2, 10)
    d = chain_cover_width2(P)
    words = list(islice(linear_extensions(P), 64))

    def round_trips(inverse):
        for w in words:
            assert inverse(P, d, omega(P, d, w)) == w

    def planted(P, d, pi):
        check_transverse(P, pi)
        return omega_inv(P, d, pi)

    round_trips(omega_inv)
    assert calls["peel"] == 0
    round_trips(planted)
    assert calls["peel"] == 64


def test_phi_builds_no_set_partition(monkeypatch):
    monkeypatch.setattr("posetcones.bijections.SetPartition", _refuse)
    _phi_answers()
