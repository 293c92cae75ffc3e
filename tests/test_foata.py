import random
from itertools import permutations
from math import factorial

import pytest

from posetcones import (
    IndexOutOfRange,
    MultisetPermutation,
    NotLinearExtension,
    NotTransverse,
    ParseError,
    Permutation,
    SupportMismatch,
    antichain,
    count_linear_extensions,
    dependence_poset,
    enumerate_multiset_perms,
    factorization_count,
    fcyc,
    foata_phi,
    foata_phi_inv,
    intercalation,
    is_prime,
    linear_extensions,
    multiset_decode,
    multiset_encode,
    multiset_perm_to_text,
    parse_multiset_perm,
    prime_decompose,
    transverse_permutations,
    union_of_chains,
)
from posetcones.foata import _decompose_indexed, fcyc_distribution, intercalate_all
from posetcones.whitney import poincare_via_foata

from common import compositions

RUNNING_TOP = [1, 1, 2, 2, 2, 3, 3, 4, 4, 4]
RUNNING_BOT = [2, 4, 4, 3, 1, 2, 1, 3, 4, 2]


def running_sigma():
    return MultisetPermutation.from_rows(RUNNING_TOP, RUNNING_BOT)


def test_construction_and_support():
    s = running_sigma()
    assert s.n == 10
    assert s.ell == 4
    assert s.support() == (2, 3, 2, 3)
    assert s.top_row() == tuple(RUNNING_TOP)
    assert s.bottom_row() == tuple(RUNNING_BOT)
    w = MultisetPermutation.from_word([2, 1, 1])
    assert w.top_row() == (1, 1, 2)
    assert w.bottom_row() == (2, 1, 1)
    with pytest.raises(SupportMismatch):
        MultisetPermutation.from_rows([1, 2], [1, 1])
    with pytest.raises(SupportMismatch):
        MultisetPermutation.from_word([2, 1], support=[2, 1])
    # a word over fewer letters than the support is padded with zero counts
    with pytest.raises(SupportMismatch,
                       match=r"^support \(1, 1, 0\) differs from required \(1, 1, 1\)$"):
        multiset_decode((1, 1, 1), MultisetPermutation.from_word([1, 2]))


def test_text_forms():
    s = running_sigma()
    text = "1,1,2,2,2,3,3,4,4,4;2,4,4,3,1,2,1,3,4,2"
    assert multiset_perm_to_text(s) == text
    assert parse_multiset_perm(text) == s
    assert parse_multiset_perm("2,4,4,3,1,2,1,3,4,2", support=(2, 3, 2, 3)) == s
    assert parse_multiset_perm("2 4 4 3 1 2 1 3 4 2") == s
    with pytest.raises(ParseError):
        parse_multiset_perm("1,2;1")
    with pytest.raises(ParseError):
        parse_multiset_perm("a;b")


def test_intercalation_worked_product():
    left = parse_multiset_perm("2,3,4;4,2,3")
    right = parse_multiset_perm("1,1,2,2,3,4,4;2,4,3,1,1,4,2")
    assert intercalation(left, right) == running_sigma()


def test_intercalation_identity_and_noncommutativity():
    eps = MultisetPermutation.from_word([])
    s = running_sigma()
    assert intercalation(eps, s) == s
    assert intercalation(s, eps) == s
    a = parse_multiset_perm("1,2;2,1")
    b = parse_multiset_perm("1,3;3,1")
    assert intercalation(a, b) != intercalation(b, a)
    assert intercalation(a, b) == parse_multiset_perm("1,1,2,3;2,3,1,1")


def test_intercalation_associativity_and_disjoint_commutation():
    rng = random.Random(83)
    for _ in range(60):
        ell = rng.randint(1, 4)
        words = []
        for _ in range(3):
            w = [rng.randint(1, ell) for _ in range(rng.randint(0, 4))]
            words.append(MultisetPermutation.from_word(w, support=None))
        a, b, c = words
        assert intercalation(intercalation(a, b), c) == intercalation(a, intercalation(b, c))
    x = MultisetPermutation.from_word([2, 1, 1])
    y = MultisetPermutation.from_word([3, 4, 4, 3])
    assert intercalation(x, y) == intercalation(y, x)


def test_is_prime():
    assert is_prime(parse_multiset_perm("2,4,5,7;5,7,4,2"))
    assert not is_prime(parse_multiset_perm("1,1,2,3;2,3,1,1"))
    assert not is_prime(parse_multiset_perm("2,4,5,7;5,7,2,4"))
    assert is_prime(parse_multiset_perm("3;3"))
    assert not is_prime(MultisetPermutation.from_word([]))


def test_prime_decompose_worked_example():
    factors = prime_decompose(running_sigma())
    assert [multiset_perm_to_text(f) for f in factors] == [
        "2,3,4;4,2,3",
        "1,2,3;2,3,1",
        "4;4",
        "1,2,4;4,1,2",
    ]
    assert all(is_prime(f) for f in factors)
    assert fcyc(running_sigma()) == 4


def test_prime_decompose_round_trip_random():
    rng = random.Random(89)
    for _ in range(150):
        ell = rng.randint(1, 4)
        w = [rng.randint(1, ell) for _ in range(rng.randint(0, 8))]
        s = MultisetPermutation.from_word(w)
        factors = prime_decompose(s)
        assert all(is_prime(f) for f in factors)
        assert intercalate_all(factors) == s
    one = parse_multiset_perm("2;2")
    assert prime_decompose(one) == [one]


def test_fcyc_statistics():
    ident = MultisetPermutation.from_rows([1, 1, 2, 3], [1, 1, 2, 3])
    assert fcyc(ident) == 4
    # multiplicity-free words reduce to classical cycle counting
    for n in range(1, 6):
        for images in permutations(range(1, n + 1)):
            p = Permutation(images)
            s = MultisetPermutation.from_rows(range(1, n + 1), images)
            assert fcyc(s) == p.cycle_count()


def test_dependence_poset_and_factorization_count():
    factors = prime_decompose(running_sigma())
    dep = dependence_poset(factors)
    assert dep.n == 4
    assert dep.relations() == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    assert count_linear_extensions(dep) == 2
    assert factorization_count(running_sigma()) == 2
    disjoint = MultisetPermutation.from_word([1, 2, 3])
    assert factorization_count(disjoint) == factorial(3)


def test_factorization_count_matches_brute_force():
    rng = random.Random(97)
    for _ in range(80):
        ell = rng.randint(1, 4)
        w = [rng.randint(1, ell) for _ in range(rng.randint(1, 6))]
        s = MultisetPermutation.from_word(w)
        factors = prime_decompose(s)
        orders = set()
        for idxs in permutations(range(len(factors))):
            seq = tuple(factors[i] for i in idxs)
            if intercalate_all(seq) == s:
                orders.add(seq)
        assert factorization_count(s) == len(orders)


def test_encode_decode():
    a = (2, 3, 2, 3)
    lam = (3, 8, 9, 6, 1, 4, 2, 7, 10, 5)
    sigma = multiset_encode(a, lam)
    assert sigma.bottom_row() == (2, 4, 4, 3, 1, 2, 1, 3, 4, 2)
    assert multiset_decode(a, sigma) == lam
    assert multiset_encode((4,), (1, 2, 3, 4)).bottom_row() == (1, 1, 1, 1)
    with pytest.raises(NotLinearExtension):
        multiset_encode(a, (9, 8, 3, 6, 1, 4, 2, 7, 10, 5))
    rng = random.Random(113)
    for _ in range(60):
        parts = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        if sum(parts) > 8:
            continue
        P = union_of_chains(parts)
        for w in linear_extensions(P):
            assert multiset_decode(parts, multiset_encode(parts, w)) == w


def test_foata_phi_running_example():
    a = (2, 3, 2, 3)
    lam = (3, 8, 9, 6, 1, 4, 2, 7, 10, 5)
    tau = foata_phi(a, lam)
    assert tau == Permutation.from_cycles(10, [(3, 8, 6), (1, 4, 7), (9,), (2, 10, 5)])
    assert foata_phi_inv(a, tau) == lam
    with pytest.raises(NotLinearExtension):
        foata_phi(a, (9, 8, 3, 6, 1, 4, 2, 7, 10, 5))


def test_foata_phi_is_a_bijection_with_statistic_transport():
    rng = random.Random(127)
    cases = [(1, 1), (2, 2), (3, 1, 2), (2, 2, 2), (1, 1, 1, 1)]
    for _ in range(10):
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        if sum(parts) <= 7:
            cases.append(parts)
    for a in cases:
        P = union_of_chains(a)
        image = set()
        for lam in linear_extensions(P):
            tau = foata_phi(a, lam)
            image.add(tau)
            assert tau.cycle_count() == fcyc(multiset_encode(a, lam))
            assert foata_phi_inv(a, tau) == lam
        assert image == set(transverse_permutations(P))
    with pytest.raises(NotTransverse):
        foata_phi_inv((2, 2), Permutation([2, 1, 3, 4]))
    with pytest.raises(IndexOutOfRange, match="^permutation size 3 differs from 4$"):
        foata_phi_inv((2, 2), Permutation([1, 2, 3]))


def test_single_chain_collapses():
    assert foata_phi((4,), (1, 2, 3, 4)) == Permutation.identity(4)
    assert foata_phi_inv((4,), Permutation.identity(4)) == (1, 2, 3, 4)


def test_enumerate_multiset_perms():
    assert len(list(enumerate_multiset_perms((1, 1)))) == 2
    assert len(list(enumerate_multiset_perms((2, 2)))) == 6
    assert len(list(enumerate_multiset_perms((2, 3)))) == 10
    words = [s.bottom_row() for s in enumerate_multiset_perms((2, 1))]
    assert words == sorted(words)
    assert len(list(enumerate_multiset_perms(()))) == 1
    # stream agrees with the transverse count on the standardized chains
    for a in [(2, 2), (1, 1, 2), (3, 2)]:
        assert len(list(enumerate_multiset_perms(a))) == count_linear_extensions(
            union_of_chains(a))


# -- oracles for the circuit walker ------------------------------------------

def _all_words(a):
    """Every bottom word with support a, from itertools, not from the library."""
    letters = [j for j, m in enumerate(a, start=1) for _ in range(m)]
    return sorted(set(permutations(letters)))


def _reference_circuits(sigma):
    """The factorization walk spelled out: restart at the smallest letter with
    columns left, follow the leftmost unused column of each letter, cut the
    first circuit that closes."""
    cols = sigma.columns
    used = [False] * len(cols)
    circuits = []
    while not all(used):
        start = min(t for (t, _), u in zip(cols, used) if not u)
        path, steps, v = [start], [], start
        while True:
            idx = next(i for i, (t, _) in enumerate(cols) if t == v and not used[i])
            steps.append(idx)
            v = cols[idx][1]
            if v in path:
                circuit = steps[path.index(v):]
                for i in circuit:
                    used[i] = True
                circuits.append(circuit)
                break
            path.append(v)
    return circuits


def test_every_small_word_factors_into_primes_that_intercalate_back():
    for total in range(7):
        for a in compositions(total):
            for w in _all_words(a):
                sigma = MultisetPermutation.from_word(w, support=a)
                factors = prime_decompose(sigma)
                assert all(is_prime(f) for f in factors), w
                assert intercalate_all(factors) == sigma, w


def test_walker_matches_the_spelled_out_walk():
    for total in range(7):
        for a in compositions(total):
            for w in _all_words(a):
                sigma = MultisetPermutation.from_word(w, support=a)
                assert _decompose_indexed(sigma) == _reference_circuits(sigma), w


def test_large_and_sparse_letters_factor_like_their_ranks():
    rng = random.Random(131)
    for _ in range(200):
        ell = rng.randint(1, 5)
        w = [rng.randint(1, ell) for _ in range(rng.randint(1, 8))]
        letters = set()
        while len(letters) < ell:
            letters.add(rng.randrange(1, 10**21))
        letters = sorted(letters)
        big = MultisetPermutation.from_word([letters[x - 1] for x in w])
        assert _decompose_indexed(big) == _reference_circuits(big)
        assert fcyc(big) == fcyc(MultisetPermutation.from_word(w))
    assert fcyc(parse_multiset_perm("99999999999999999999")) == 1


def test_route_reversed_is_the_fcyc_distribution():
    for total in range(8):
        for a in compositions(total):
            route = poincare_via_foata(a)
            assert route.reversed_to_degree(total) == fcyc_distribution(a), a


@pytest.mark.parametrize("a", [(-1,), (2, -1), (-2, 3), (1, 0, -1)])
@pytest.mark.parametrize("route", [poincare_via_foata, fcyc_distribution])
def test_negative_chain_length_is_a_typed_error(route, a):
    with pytest.raises(IndexOutOfRange, match="nonnegative"):
        route(a)
