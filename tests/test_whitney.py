import random
from fractions import Fraction
from math import comb

import pytest

from posetcones import (
    ChainDecomposition,
    IntPolynomial,
    NotDisjointChains,
    NotNaturallyLabeled,
    ParseError,
    WidthExceeded,
    antichain,
    chain,
    chain_cover_width2,
    count_linear_extensions,
    des_p1p2,
    grid,
    is_linear_extension,
    linear_extensions,
    lrmax_count,
    opposite,
    ordinal_sum,
    p_eulerian,
    poincare,
    poincare_via_foata,
    poincare_via_lrmax,
    poincare_via_transverse,
    poincare_via_width2,
    poset_from_relations,
    random_poset,
    union_of_chains,
    whitney_numbers,
    width,
)
from posetcones import whitney
from posetcones.whitney import auto_method

from common import (
    CHAIN_UNIONS,
    all_labeled_posets,
    live_cut_lrmax_step,
    multinomial,
    packed_kernel_corpus,
)


def poly(*coeffs):
    return IntPolynomial(coeffs)


def test_worked_examples():
    assert poincare_via_transverse(poset_from_relations(4, [(3, 4)])) == poly(1, 5, 6)
    assert poincare_via_transverse(poset_from_relations(4, [(1, 2), (3, 4)])) == poly(1, 4, 1)
    assert poincare_via_transverse(antichain(3)) == poly(1, 3, 2)
    assert poincare_via_transverse(grid(3, 3)) == poly(1, 9, 19, 11, 2)
    assert poincare_via_transverse(chain(7)) == poly(1)
    assert poincare_via_transverse(antichain(0)) == poly(1)


def test_antichain_rows_are_rising_factorials():
    for n in range(0, 15):
        want = IntPolynomial.one()
        for k in range(1, n):
            want = want * poly(1, k)
        assert poincare_via_lrmax(antichain(n)) == want


def test_cross_method_agreement_random():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(0, 7)
        P = random_poset(n, rng.choice([0.15, 0.35, 0.6, 0.85]), rng)
        dp = poincare_via_transverse(P)
        assert dp == poincare_via_lrmax(P)
        try:
            d = chain_cover_width2(P)
        except WidthExceeded:
            d = None
        if d is not None:
            assert dp == poincare_via_width2(P, d)
            swapped = ChainDecomposition(P, d.p2, d.p1)
            assert dp == poincare_via_width2(P, swapped)


def test_foata_route_on_chain_unions():
    for a in [(), (3,), (1, 1), (2, 2), (2, 3), (1, 1, 1), (2, 2, 2), (2, 1, 3)]:
        assert poincare_via_foata(a) == poincare_via_transverse(union_of_chains(a))
    assert poincare_via_foata((2, 2, 2)) == poly(1, 12, 43, 30, 4)
    assert poincare_via_foata((2, 2)) == poly(1, 4, 1)


def test_two_chain_binomial_identity():
    # coefficient of t^k for two chains is C(a,k) C(b,k); t=1 gives C(a+b,a)
    for a in range(0, 7):
        for b in range(0, 13 - a):
            got = poincare_via_transverse(union_of_chains([x for x in (a, b) if x]))
            want = [comb(a, k) * comb(b, k) for k in range(min(a, b) + 1)]
            assert got == IntPolynomial(want)
            assert got(1) == comb(a + b, a)


def test_narayana_rows():
    for n in range(1, 11):
        got = poincare_via_width2(grid(2, n))
        want = [comb(n, k - 1) * comb(n, k) // n for k in range(1, n + 1)]
        assert got == IntPolynomial(want)
        assert got(1) == comb(2 * n, n) // (n + 1)


def test_zaslavsky_and_duality():
    rng = random.Random(103)
    for _ in range(80):
        P = random_poset(rng.randint(0, 7), rng.choice([0.2, 0.5, 0.8]), rng)
        p = poincare_via_transverse(P)
        assert p(1) == count_linear_extensions(P)
        assert p == poincare_via_transverse(opposite(P))
        if P.n:
            assert p.coefficient(0) == 1


def test_ordinal_sum_multiplies():
    rng = random.Random(107)
    for _ in range(50):
        P1 = random_poset(rng.randint(0, 4), 0.4, rng)
        P2 = random_poset(rng.randint(0, 4), 0.4, rng)
        assert poincare_via_transverse(ordinal_sum(P1, P2)) == (
            poincare_via_transverse(P1) * poincare_via_transverse(P2)
        )


def test_whitney_numbers_are_padded():
    assert whitney_numbers(poset_from_relations(4, [(3, 4)])) == [1, 5, 6, 0, 0]
    assert whitney_numbers(antichain(3)) == [1, 3, 2, 0]
    assert whitney_numbers(chain(2)) == [1, 0, 0]
    assert whitney_numbers(antichain(0)) == [1]


DISPATCH_POSETS = (antichain(6), chain(6), grid(2, 5), grid(3, 3))


def test_dispatch():
    for P in DISPATCH_POSETS:
        method = auto_method(P)
        assert method in ("transverse", "lrmax")
        assert poincare(P) == poincare_via_transverse(P)
    assert poincare(grid(2, 4), method="width2") == poincare_via_transverse(grid(2, 4))
    assert poincare(union_of_chains((2, 2)), method="foata") == poly(1, 4, 1)
    with pytest.raises(WidthExceeded):
        poincare(antichain(3), method="width2")
    with pytest.raises(NotDisjointChains):
        poincare(grid(2, 2), method="foata")
    with pytest.raises(ParseError):
        poincare(chain(2), method="nope")
    with pytest.raises(ParseError):
        whitney_numbers(chain(2), method="nope")


def test_p_eulerian():
    assert p_eulerian(antichain(3)) == poly(1, 4, 1)
    assert p_eulerian(chain(5)) == poly(1)
    with pytest.raises(NotNaturallyLabeled):
        p_eulerian(poset_from_relations(2, [(2, 1)]))
    # when the lower chain takes labels 1..a, plain descents match the
    # chain-crossing statistic
    for P in (grid(2, 3), grid(2, 5), union_of_chains((3, 4)), union_of_chains((2, 2))):
        d = chain_cover_width2(P)
        assert p_eulerian(P) == poincare_via_width2(P, d)


def test_extension_routes_match_brute_force_sums():
    # oracle: each route against its per-word statistic summed over every
    # linear extension
    rng = random.Random(113)
    for _ in range(150):
        n = rng.randint(0, 8)
        P = random_poset(n, rng.choice([0.1, 0.25, 0.4, 0.6, 0.85]), rng)
        try:
            d = chain_cover_width2(P)
        except WidthExceeded:
            d = None
        lr, w2, des = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        for w in linear_extensions(P):
            lr[n - lrmax_count(P, w)] += 1
            des[sum(1 for i in range(n - 1) if w[i] > w[i + 1])] += 1
            if d is not None:
                w2[des_p1p2(P, d, w)] += 1
        assert poincare_via_lrmax(P) == IntPolynomial(lr)
        assert p_eulerian(P) == IntPolynomial(des)
        if d is not None:
            assert poincare_via_width2(P, d) == IntPolynomial(w2)


def test_auto_method_sends_antichain_17_to_transverse():
    assert auto_method(antichain(17)) == "transverse"


def test_auto_method_sends_antichains_18_to_20_to_transverse():
    assert auto_method(antichain(18)) == "transverse"
    assert auto_method(antichain(20)) == "transverse"


def test_auto_method_sends_wide_and_deep_posets_to_transverse():
    # chain-cover bounds 10 321 920 and 2^21: under a 1.5 GB cap the lrmax DP
    # crashed on the first and took ten times as long on the second
    assert auto_method(grid(8, 8)) == "transverse"
    assert auto_method(antichain(21)) == "transverse"


def test_auto_dispatch_never_runs_the_lrmax_dp(monkeypatch):
    def forbidden(P):
        raise AssertionError("poincare(auto) reached the lrmax DP")

    monkeypatch.setattr(whitney, "poincare_via_lrmax", forbidden)
    for P in DISPATCH_POSETS:
        assert poincare(P) == poincare_via_transverse(P)
    # four stacked 10-antichains: a chain-cover bound of 5^10, far above
    # 2^20, yet cheap for the transverse DP
    stacked = antichain(10)
    for _ in range(3):
        stacked = ordinal_sum(stacked, antichain(10))
    row = IntPolynomial.one()
    for k in range(1, 10):
        row = row * poly(1, k)
    assert poincare(stacked) == row * row * row * row


def _list_extension_dp(n, down, start, step):
    """The extension automaton on coefficient lists, one small int at a
    time, as it ran before its memo values were packed into ints (oracle).
    The number of memo states of its last run is kept in `.states`."""
    full = (1 << n) - 1
    memo = {}

    def rec(placed, state):
        if placed == full:
            return [1]
        key = (placed, state)
        if key in memo:
            return memo[key]
        acc = [0] * (n + 1)
        for v in range(n):
            b = 1 << v
            if placed & b or down[v] & ~placed:
                continue
            nxt, e = step(placed | b, state, v)
            for k, c in enumerate(rec(placed | b, nxt)):
                if c:
                    acc[k + e] += c
        memo[key] = acc
        return acc

    out = IntPolynomial(rec(0, start))
    _list_extension_dp.states = len(memo)
    return out


def _unmasked_lrmax_step(P):
    """The lrmax step on the full state (cur, prev, first, runm), with no
    bit dropped: the oracle for the masked state of `poincare_via_lrmax`."""
    down = P._down

    def step(_placed, state, v):
        cur, prev, first, runm = state
        b = 1 << v
        if down[v] & cur:
            return (b, cur, False, v), 0
        if (first or down[v] & prev) and v > runm:
            return (cur | b, prev, first, v), 0
        return (cur | b, prev, first, runm), 1

    return step


def _prevless_lrmax_step(P):
    """`_unmasked_lrmax_step` with prev dropped from the state, so a deeper
    element is never an LR maximum (negative control)."""
    step = _unmasked_lrmax_step(P)

    def forgetful(placed, state, v):
        (cur, _, first, runm), e = step(placed, state, v)
        return (cur, 0, first, runm), e

    return forgetful


def _lrmax_oracle(P, make_step=_unmasked_lrmax_step):
    return whitney._extension_dp(P.n, P._down, (0, 0, True, -1), make_step(P))


def _automaton_routes(P):
    """lrmax always, width2 when the width is at most 2, Eulerian when the
    labeling is natural; None marks a route that does not apply."""
    return (
        poincare_via_lrmax(P),
        poincare_via_width2(P) if width(P) <= 2 else None,
        p_eulerian(P) if is_linear_extension(P, range(1, P.n + 1)) else None,
    )


def test_packed_automaton_matches_list_oracle(monkeypatch):
    corpus = packed_kernel_corpus()
    packed = [_automaton_routes(P) for P in corpus]
    assert sum(r[1] is not None for r in packed) > 1000
    assert sum(r[2] is not None for r in packed) > 500
    for P, (lr, _, _) in zip(corpus, packed):
        assert lr == poincare_via_transverse(P), P.relations()
    monkeypatch.setattr(whitney, "_extension_dp", _list_extension_dp)
    for P, want in zip(corpus, packed):
        assert _automaton_routes(P) == want, P.relations()


def test_packed_automaton_on_chain_unions_sums_to_multinomial():
    for a in CHAIN_UNIONS:
        want = multinomial(a)
        P = union_of_chains(a)
        assert poincare_via_lrmax(P)(1) == want, a
        assert p_eulerian(P)(1) == want, a
        if len(a) <= 2:
            assert poincare_via_width2(P)(1) == want, a


def test_masked_lrmax_state_matches_unmasked_oracle():
    corpus = packed_kernel_corpus()
    for P in corpus:
        assert poincare_via_lrmax(P) == _lrmax_oracle(P), P.relations()
    for a in CHAIN_UNIONS:
        P = union_of_chains(a)
        assert poincare_via_lrmax(P) == _lrmax_oracle(P), a
    # negative control: the oracle comparison sees a state that forgets prev
    assert any(_lrmax_oracle(P, _prevless_lrmax_step) != _lrmax_oracle(P) for P in corpus)


def _three_mask_lrmax_step(P):
    """The lrmax step with `live` kept as its two parts: state (over_cur,
    over_prev, above), read only as over_prev & above (negative control
    for the state pins)."""
    up = P._up
    full = (1 << P.n) - 1

    def step(placed, state, v):
        over_cur, over_prev, above = state
        b = 1 << v
        if over_cur & b:
            return (up[v], over_cur & ~b, full & ~placed & -(b << 1)), 0
        after = (over_cur | up[v], over_prev & ~b)
        if over_prev & above & b:
            return (*after, above & -(b << 1)), 0
        return (*after, above & ~b), 1

    return (0, full, full), step


LRMAX_STATE_PINS = [
    # states unmasked, with live_cut_lrmax_step and with _three_mask_lrmax_step:
    # 317 384, 5 277 and 4 717; 7 172, 1 781 and 1 781; 1 567, 1 567 and 835
    (random_poset(14, 0.15, random.Random(2)), 3711),
    (union_of_chains([2] * 5), 1096),
    (grid(4, 5), 589),
]


@pytest.mark.parametrize("P, most", LRMAX_STATE_PINS)
def test_masked_lrmax_state_bounds_the_work(monkeypatch, P, most):
    monkeypatch.setattr(whitney, "_extension_dp", _list_extension_dp)
    assert poincare_via_lrmax(P) == poincare_via_transverse(P)
    assert _list_extension_dp.states <= most


def test_three_mask_lrmax_state_exceeds_every_pin():
    # negative control: the state that keeps over_prev and above apart gives
    # the same polynomial in more states than each pin allows
    for P, most in LRMAX_STATE_PINS:
        start, step = _three_mask_lrmax_step(P)
        got = _list_extension_dp(P.n, P._down, start, step)
        assert got == poincare_via_lrmax(P)
        assert _list_extension_dp.states > most, P.relations()


def test_level_masks_merge_at_least_the_live_cut_states(monkeypatch):
    monkeypatch.setattr(whitney, "_extension_dp", _list_extension_dp)

    def states(P):
        """(lrmax polynomial, states) of the level masks, then of the live cut."""
        got = poincare_via_lrmax(P), _list_extension_dp.states
        start, step = live_cut_lrmax_step(P)
        return got, (_list_extension_dp(P.n, P._down, start, step), _list_extension_dp.states)

    for P in packed_kernel_corpus() + tuple(union_of_chains(a) for a in CHAIN_UNIONS):
        (got, ours), (want, theirs) = states(P)
        assert got == want and ours <= theirs, P.relations()
    (got, ours), (want, theirs) = states(grid(4, 5))
    assert got == want and ours < theirs


def test_level_one_reads_every_unplaced_element(monkeypatch):
    # negative control: with live empty on level one, no element there is
    # ever an LR maximum, and the oracle comparison sees it
    corpus = packed_kernel_corpus()
    want = [_lrmax_oracle(P) for P in corpus]
    extension_dp = whitney._extension_dp

    def levelless(n, down, start, step):
        over_cur, _ = start
        return extension_dp(n, down, (over_cur, 0), step)

    monkeypatch.setattr(whitney, "_extension_dp", levelless)
    assert any(poincare_via_lrmax(P) != w for P, w in zip(corpus, want))


# -- the peel inside poincare(auto) --------------------------------------------

def _relabeled(P, order):
    return poset_from_relations(P.n, [(order[i - 1], order[j - 1]) for i, j in P.relations()])


def test_auto_peel_matches_the_transverse_route_on_every_small_poset():
    for n in range(6):
        for P in all_labeled_posets(n):
            assert poincare(P) == poincare_via_transverse(P), P.relations()


def test_auto_peel_matches_the_transverse_route_on_relabeled_posets():
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(0, 9)
        P = random_poset(n, rng.choice([0.05, 0.1, 0.2, 0.35, 0.6]), rng)
        P = _relabeled(P, rng.sample(range(1, n + 1), n))
        assert poincare(P) == poincare_via_transverse(P), P.relations()


def _value_at_root(poly, k):
    """Poly at t = -1/k, zero iff (1 + k t) divides it."""
    return sum(Fraction(c, (-k) ** d) for d, c in enumerate(poly.coeffs))


def test_an_element_failing_the_peel_condition_stays():
    # negative control: the N poset 1 < 2, 3 < 4, 1 < 4 beside an isolated
    # point 5.  Point 5 peels with k = 4; in N, 3 fails on 2 (up(3) = {4} is
    # not within up(2)), and so does every other point, and no (1 + k t)
    # with k the point's incomparable count divides Poin
    P = poset_from_relations(5, [(1, 2), (3, 4), (1, 4)])
    assert whitney._fibre_peel(P) == ([4], 0b1111)
    got = poincare(P)
    assert got == poly(1, 4) * poly(1, 3, 1)
    for x in range(4):
        k = P.n - 1 - (P._up[x] | P._down[x]).bit_count()
        assert _value_at_root(got, k) != 0, x + 1


@pytest.mark.parametrize("P, peeled, left", [
    (random_poset(19, 0.02, random.Random(1)), 12, 7),
    (random_poset(20, 0.05, random.Random(4)), 5, 15),
    (antichain(40), 40, 0),
    (chain(30), 30, 0),
    (union_of_chains([1, 3, 1, 2, 1]), 3, 5),
], ids=["random-19-.02-s1", "random-20-.05-s4", "antichain-40", "chain-30", "chains-13121"])
def test_peel_leaves_the_measured_residue(P, peeled, left):
    ks, residue = whitney._fibre_peel(P)
    assert (len(ks), residue.bit_count()) == (peeled, left)
