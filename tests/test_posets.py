import random
from itertools import permutations
from math import factorial

import pytest

from posetcones import (
    ChainDecomposition,
    CycleDetected,
    IndexOutOfRange,
    NotDisjointChains,
    ParseError,
    Poset,
    WidthExceeded,
    antichain,
    chain,
    chain_cover_width2,
    count_linear_extensions,
    disjoint_chain_lengths,
    grid,
    is_antichain,
    is_linear_extension,
    linear_extensions,
    opposite,
    ordinal_sum,
    parse_poset,
    poset_from_relations,
    poset_to_text,
    random_poset,
    union_of_chains,
    width,
)
from posetcones import posets
from posetcones.posets import _components, _induced

from common import (
    all_labeled_posets,
    brute_force_width,
    compositions,
    induced,
    rescan_count_linear_extensions,
)


EX_PHI_RELATIONS = [
    (13, 6), (1, 6), (1, 7), (9, 7), (9, 2), (11, 2),
    (11, 5), (4, 12), (7, 3), (3, 10), (2, 10),
]


def test_closure_and_errors():
    P = poset_from_relations(3, [(1, 2), (2, 3)])
    assert P.less(1, 3)
    assert P.relations() == [(1, 2), (1, 3), (2, 3)]
    assert P.covers() == [(1, 2), (2, 3)]
    with pytest.raises(CycleDetected):
        poset_from_relations(2, [(1, 2), (2, 1)])
    with pytest.raises(CycleDetected):
        poset_from_relations(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(IndexOutOfRange):
        poset_from_relations(3, [(1, 4)])
    with pytest.raises(IndexOutOfRange):
        poset_from_relations(2, [(0, 1)])
    with pytest.raises(IndexOutOfRange, match="^n must be nonnegative$"):
        poset_from_relations(-1, [])
    with pytest.raises(CycleDetected, match="^self-relation at 1$"):
        poset_from_relations(2, [(1, 1)])
    assert poset_from_relations(3, []).relations() == []
    assert poset_from_relations(2, [(1, 2), (1, 2)]).relations() == [(1, 2)]


def test_closure_is_idempotent_on_random_inputs():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 8)
        P = random_poset(n, rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
        again = poset_from_relations(n, P.relations())
        assert again == P


def _chain_union_by_closure(a):
    pairs, base = [], 0
    for ai in a:
        pairs += [(base + k, base + k + 1) for k in range(1, ai)]
        base += ai
    return poset_from_relations(base, pairs)


def test_chain_union_rows_equal_the_closure_build():
    supports = [a for total in range(10) for a in compositions(total)]
    supports += [(0,), (0, 0), (1, 0), (0, 1), (2, 0, 1), (0, 3, 0)]
    for a in supports:
        got, want = union_of_chains(a), _chain_union_by_closure(a)
        assert (got.n, got._up, got._down) == (want.n, want._up, want._down), a
    for a in [(-1,), (2, -1), (1, 0, -1)]:
        with pytest.raises(IndexOutOfRange, match="^chain lengths must be nonnegative$"):
            union_of_chains(a)


def test_constructors():
    assert chain(3).relations() == [(1, 2), (1, 3), (2, 3)]
    assert antichain(4).relations() == []
    assert opposite(chain(3)).relations() == [(2, 1), (3, 1), (3, 2)]
    # standardized labels: chain i gets the next a_i consecutive labels
    U = union_of_chains((2, 3, 2, 3))
    assert U.covers() == [(1, 2), (3, 4), (4, 5), (6, 7), (8, 9), (9, 10)]
    assert disjoint_chain_lengths(U) == (2, 3, 2, 3)
    assert union_of_chains((1, 1, 1)) == antichain(3)
    assert union_of_chains((4,)) == chain(4)
    assert union_of_chains(()) == antichain(0)
    G = grid(2, 2)
    assert G.relations() == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]


def test_opposite_is_an_involution():
    rng = random.Random(3)
    for _ in range(60):
        P = random_poset(rng.randint(0, 7), 0.4, rng)
        assert opposite(opposite(P)) == P
    assert opposite(antichain(5)) == antichain(5)


def test_ordinal_sum():
    assert ordinal_sum(chain(1), chain(1)) == chain(2)
    Q = ordinal_sum(antichain(2), antichain(2))
    assert Q.relations() == [(1, 3), (1, 4), (2, 3), (2, 4)]
    rng = random.Random(5)
    for _ in range(40):
        P1 = random_poset(rng.randint(0, 4), 0.5, rng)
        P2 = random_poset(rng.randint(0, 4), 0.5, rng)
        S = ordinal_sum(P1, P2)
        assert count_linear_extensions(S) == (
            count_linear_extensions(P1) * count_linear_extensions(P2)
        )


def test_induced_relabels_in_order():
    assert induced(chain(4), [2, 3, 4]) == chain(3)
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    assert induced(P, [1, 2, 3]).relations() == [(1, 2)]


def test_linear_extensions_worked_example():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    words = list(linear_extensions(P))
    assert words == [
        (1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
        (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2),
    ]
    assert count_linear_extensions(P) == 6


def test_linear_extensions_edge_cases():
    assert list(linear_extensions(antichain(0))) == [()]
    assert count_linear_extensions(antichain(0)) == 1
    assert list(linear_extensions(chain(3))) == [(1, 2, 3)]
    assert len(list(linear_extensions(antichain(3)))) == 6


def test_linear_extensions_stream_properties():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 6)
        P = random_poset(n, rng.choice([0.2, 0.4, 0.7]), rng)
        words = list(linear_extensions(P))
        assert words == sorted(words), "stream must be lexicographic"
        assert len(set(words)) == len(words)
        for w in words:
            assert is_linear_extension(P, w)
        # brute-force filter over all n! words as the oracle
        oracle = [w for w in permutations(range(1, n + 1)) if is_linear_extension(P, w)]
        assert words == oracle
        assert count_linear_extensions(P) == len(words)
        assert count_linear_extensions(opposite(P)) == len(words)


def test_is_linear_extension_rejections():
    P = chain(3)
    assert not is_linear_extension(P, (3, 2, 1))
    assert not is_linear_extension(P, (1, 2))
    assert not is_linear_extension(P, (1, 2, 2))
    assert not is_linear_extension(P, (1, 2, 4))
    assert is_linear_extension(antichain(0), ())


def test_grid_counts():
    # 2 x n grids count standard Young tableaux of shape (n, n)
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert count_linear_extensions(grid(2, n)) == catalan[n]
    assert count_linear_extensions(union_of_chains((2, 3))) == 10


def test_linear_extension_count_splits_by_components(monkeypatch):
    # e(P) = multinomial(9; 3, 3, 1, 1, 1) * 1 * 2: one sweep per component,
    # on its induced subposet, and none on the whole poset
    P = poset_from_relations(9, [(7, 2), (2, 5), (4, 9), (4, 1)])
    sizes = []
    sweep = posets._count_sweep

    def counted(Q):
        sizes.append(Q.n)
        return sweep(Q)

    monkeypatch.setattr(posets, "_count_sweep", counted)
    assert count_linear_extensions(P) == factorial(9) // 36 * 2
    assert rescan_count_linear_extensions(P) == factorial(9) // 36 * 2
    assert sorted(sizes) == [1, 1, 1, 3, 3]
    sizes.clear()
    assert count_linear_extensions(antichain(40)) == factorial(40)
    assert sizes == [1] * 40


def test_components_and_induced_subposets_match_the_oracles():
    # the components against a label-merging oracle over comparable pairs
    for n in range(6):
        for P in all_labeled_posets(n):
            root = list(range(n + 1))
            for i, j in P.relations():
                a, b = root[i], root[j]
                root = [a if r == b else r for r in root]
            want = {}
            for x in range(1, n + 1):
                want[root[x]] = want.get(root[x], 0) | 1 << (x - 1)
            parts = list(_components(P))
            assert parts == sorted(want.values(), key=lambda m: m & -m), P.relations()
            for part in parts:
                labels = [v + 1 for v in range(n) if part >> v & 1]
                assert _induced(P, part) == induced(P, labels)


def test_width():
    assert width(antichain(6)) == 6
    assert width(chain(6)) == 1
    assert width(antichain(0)) == 0
    assert width(grid(2, 5)) == 2
    assert width(union_of_chains((2, 3, 2, 3))) == 4
    P = poset_from_relations(13, EX_PHI_RELATIONS)
    assert width(P) == 6
    assert brute_force_width(P) == 6
    assert is_antichain(P, {1, 4, 8, 9, 11, 13})
    rng = random.Random(23)
    for _ in range(60):
        Q = random_poset(rng.randint(0, 7), rng.choice([0.2, 0.5, 0.8]), rng)
        assert width(Q) == brute_force_width(Q)


def test_is_antichain():
    P = poset_from_relations(4, [(1, 2), (3, 4)])
    assert is_antichain(P, {1, 3})
    assert not is_antichain(P, {1, 2})
    assert is_antichain(P, {2})
    assert is_antichain(P, set())


@pytest.mark.parametrize("labels", [{99}, {0}, {1, 99}, {-1}, [4, 4]])
def test_is_antichain_rejects_out_of_range_labels(labels):
    with pytest.raises(IndexOutOfRange):
        is_antichain(chain(3), labels)


def test_is_antichain_counts_a_repeated_label_once():
    assert is_antichain(chain(3), [2, 2])
    assert not is_antichain(chain(3), [2, 2, 3])


def _pairwise_chain_decomposition(P, part1, part2):
    """The chain test and chain order spelled out with P.comparable / P.less."""
    s1, s2 = frozenset(part1), frozenset(part2)
    for part in (s1, s2):
        for i in part:
            for j in part:
                if i < j and not P.comparable(i, j):
                    return f"part is not a chain: {i} and {j} incomparable"
    return tuple(
        tuple(sorted(part, key=lambda x: sum(1 for y in part if y != x and P.less(y, x))))
        for part in (s1, s2))


def test_chain_decomposition_matches_pairwise_version():
    for n in range(5):
        for P in all_labeled_posets(n):
            for split in range(1 << n):
                part1 = [x for x in range(1, n + 1) if split >> (x - 1) & 1]
                part2 = [x for x in range(1, n + 1) if not split >> (x - 1) & 1]
                want = _pairwise_chain_decomposition(P, part1, part2)
                try:
                    d = ChainDecomposition(P, part1, part2)
                except WidthExceeded as exc:
                    assert str(exc) == want
                else:
                    assert (d.p1, d.p2) == want


def test_chain_cover_width2():
    for P in (grid(2, 4), union_of_chains((2, 3)), chain(5), antichain(2)):
        d = chain_cover_width2(P)
        labels = sorted(d.p1 + d.p2)
        assert labels == list(range(1, P.n + 1))
        for part in (d.p1, d.p2):
            for a, b in zip(part, part[1:]):
                assert P.less(a, b)
        # deterministic: same input gives the same cover
        d2 = chain_cover_width2(P)
        assert (d2.p1, d2.p2) == (d.p1, d.p2)
    with pytest.raises(WidthExceeded):
        chain_cover_width2(antichain(3))
    with pytest.raises(WidthExceeded):
        ChainDecomposition(antichain(3), [1, 2], [3])
    with pytest.raises(WidthExceeded):
        ChainDecomposition(chain(3), [1, 2], [2, 3])


def test_disjoint_chain_lengths_requires_standardized_labels():
    assert disjoint_chain_lengths(antichain(3)) == (1, 1, 1)
    assert disjoint_chain_lengths(chain(4)) == (4,)
    assert disjoint_chain_lengths(poset_from_relations(4, [(2, 3)])) == (1, 2, 1)
    with pytest.raises(NotDisjointChains):
        disjoint_chain_lengths(poset_from_relations(3, [(1, 3)]))
    with pytest.raises(NotDisjointChains):
        disjoint_chain_lengths(grid(2, 2))
    with pytest.raises(NotDisjointChains):
        # a chain, but labeled downward
        disjoint_chain_lengths(poset_from_relations(2, [(2, 1)]))



def test_disjoint_chain_lengths_inverts_union_of_chains():
    # every composition of total <= 8, as it is and with a zero part put in
    # at each place: zero parts build no chain and read back as nothing
    for total in range(9):
        for a in compositions(total):
            for k in range(len(a) + 1):
                for parts in (a, a[:k] + (0,) + a[k:]):
                    assert disjoint_chain_lengths(union_of_chains(parts)) == a, parts


def test_disjoint_chain_lengths_refuses_what_union_of_chains_does_not_build():
    # the lengths read off the up rows are (3, 1, 2), (1, 2) and (4,):
    # only the comparison with union_of_chains refuses them
    relabeled = poset_from_relations(6, [(1, 5), (5, 6), (2, 3), (3, 4)])
    for P in (relabeled, opposite(chain(3)), grid(2, 2)):
        with pytest.raises(NotDisjointChains):
            disjoint_chain_lengths(P)

def test_text_round_trip():
    for P in (chain(4), antichain(3), grid(3, 3), union_of_chains((2, 3, 2, 3))):
        assert parse_poset(poset_to_text(P)) == P
    text = "# comment\nn 4\nrel 3 4\n\n# more\n"
    P = parse_poset(text)
    assert P.n == 4 and P.relations() == [(3, 4)]
    assert poset_to_text(P) == "n 4\nrel 3 4\n"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_poset("n 3\nrel 1 2\nrel 2 x\n")
    assert "3" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poset("rel 1 2\n")
    with pytest.raises(ParseError):
        parse_poset("n 2\nrel 1 2\nrel 2 1\n")
    with pytest.raises(ParseError):
        parse_poset("n 2\nrel 1 5\n")
    with pytest.raises(ParseError):
        parse_poset("n -1\n")
    with pytest.raises(ParseError):
        parse_poset("")
    with pytest.raises(ParseError, match=r"^line 3: duplicate n line$"):
        parse_poset("n 2\n# again\nn 2\n")
    # one integer grammar: no `_` separators, no non-ASCII digits
    for text, line in (("n 12\nrel 1_0 2\n", 2), ("n 4\nrel 1 \u0664\n", 2),
                       ("# c\nn \u0661\n", 2), ("n 3\nrel 1,2\n", 2)):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_poset(text)


def test_size_guard_is_on_parsed_text_only():
    assert parse_poset("n 64\n").n == 64
    with pytest.raises(ParseError, match=r"^n=65 exceeds the size guard 64$"):
        parse_poset("n 65\n")
    P = random_poset(70, 0.1, random.Random(1))
    assert P.n == 70 and all(i < j for i, j in P.relations())
    assert grid(9, 8).n == 72 and ordinal_sum(chain(40), antichain(30)).n == 70


def test_random_poset_is_closed_and_upward():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 10)
        P = random_poset(n, 0.5, rng)
        assert isinstance(P, Poset)
        for i, j in P.relations():
            assert i < j, "generator only points upward in label order"
        assert poset_from_relations(n, P.relations()) == P


def test_all_labeled_poset_counts():
    # 1, 1, 3, 19, 219 partial orders on 0..4 labeled points
    assert len(all_labeled_posets(0)) == 1
    assert len(all_labeled_posets(1)) == 1
    assert len(all_labeled_posets(2)) == 3
    assert len(all_labeled_posets(3)) == 19
    assert len(all_labeled_posets(4)) == 219
