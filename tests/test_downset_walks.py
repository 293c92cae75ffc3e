"""The down-set walks (the transverse DP, the linear-extension count, the
extension automaton and the two streams `linear_extensions` and
`enumerate_transverse`) carry each state's minima from its parent's, and the
width-2 bijections `omega`/`omega_inv` read positions in the word and the
chains.  Here they are compared with the rescanning walks of `common`,
which find every state's minima from scratch; the count and the automaton
are level sweeps, and those oracles are recursive memo walks.  The routes
are also compared with `common.descending_runs_poly`, which sums over the
linear extensions by their descending runs.  `psi` writes each letter's
image in one scan of the word and `phi` runs on plain lists; they are
compared with `common`'s versions built on the `level_decompose` record
and on generators."""

import gc
import random
import sys
import tracemalloc
from functools import lru_cache
from itertools import islice, permutations

import pytest

from posetcones import (
    ChainDecomposition,
    IndexOutOfRange,
    IntPolynomial,
    MultisetPermutation,
    NotLinearExtension,
    NotTransverse,
    Permutation,
    SetPartition,
    antichain,
    chain,
    chain_cover_width2,
    count_linear_extensions,
    enumerate_transverse,
    foata_phi,
    foata_phi_inv,
    grid,
    is_linear_extension,
    linear_extensions,
    multiset_decode,
    multiset_encode,
    omega,
    omega_inv,
    ordinal_sum,
    p_eulerian,
    parse_partition,
    partition_to_text,
    phi,
    poincare,
    poincare_via_lrmax,
    poincare_via_width2,
    poset_from_relations,
    prime_decompose,
    psi,
    random_poset,
    transverse_permutations,
    transverse_poly_coeffs,
    union_of_chains,
    width,
)
from posetcones import bijections, partitions, posets, whitney

import common
from common import (
    CHAIN_UNIONS,
    all_labeled_posets,
    all_partitions,
    compositions,
    descending_runs_poly,
    keyed_phi,
    kuhn_chain_cover,
    outcome,
    product_transverse_permutations,
    record_psi,
    rescan_count_linear_extensions,
    rescan_enumerate_transverse,
    rescan_extension_dp,
    rescan_linear_extensions,
    rescan_omega,
    rescan_omega_inv,
    rescan_transverse_poly_coeffs,
    set_cycles,
    signed_upset_poly,
)


@lru_cache(maxsize=None)
def walk_corpus():
    """Every labeled poset with n <= 5, seeded random posets with n <= 12 at
    p = 0.1, 0.3 and 0.6, grids 3x2..3x6 and 4x4, ladders 2x3..2x8, the
    chain unions of `common` and antichains 0..10."""
    out = [P for n in range(6) for P in all_labeled_posets(n)]
    rng = random.Random(12)
    for p in (0.1, 0.3, 0.6):
        out += [random_poset(rng.randint(6, 12), p, rng) for _ in range(25)]
    out += [grid(3, k) for k in range(2, 7)] + [grid(4, 4)]
    out += [grid(2, k) for k in range(3, 9)]
    out += [union_of_chains(a) for a in CHAIN_UNIONS]
    out += [antichain(n) for n in range(11)]
    return tuple(out)


def _automaton_routes(P):
    """lrmax always, width2 when the width is at most 2, Eulerian when the
    labeling is natural; None marks a route that does not apply."""
    return (
        poincare_via_lrmax(P),
        poincare_via_width2(P) if width(P) <= 2 else None,
        p_eulerian(P) if is_linear_extension(P, range(1, P.n + 1)) else None,
    )


@lru_cache(maxsize=None)
def dp_corpus():
    """`walk_corpus()`, 200 seeded random posets with n <= 10 and the grids
    up to 5x6."""
    rng = random.Random(20)
    extra = [random_poset(rng.randint(0, 10), rng.choice([0.1, 0.25, 0.4, 0.6]), rng)
             for _ in range(200)]
    extra += [grid(rows, cols) for rows in range(1, 6) for cols in range(rows, 7)]
    return walk_corpus() + tuple(extra)


def test_transverse_dp_matches_rescan_oracle():
    # the forbidden-level DP the signed recursion replaced
    for P in dp_corpus():
        assert transverse_poly_coeffs(P) == rescan_transverse_poly_coeffs(P), P.relations()


def test_transverse_dp_matches_signed_upset_recursion():
    # the same recursion on coefficient lists, with a minima scan per state
    for P in dp_corpus():
        assert transverse_poly_coeffs(P) == signed_upset_poly(P), P.relations()


def test_linear_extension_count_matches_rescan_oracle():
    for P in walk_corpus():
        assert count_linear_extensions(P) == rescan_count_linear_extensions(P), P.relations()


def test_extension_automaton_matches_rescan_oracle(monkeypatch):
    for P in walk_corpus():
        got = _automaton_routes(P)
        with monkeypatch.context() as patched:
            patched.setattr(whitney, "_extension_dp", rescan_extension_dp)
            assert _automaton_routes(P) == got, P.relations()


@lru_cache(maxsize=None)
def _run_corpus():
    """The corpus members with at most 7! linear extensions."""
    return tuple(P for P in walk_corpus() if count_linear_extensions(P) <= 5040)


def test_routes_match_descending_runs_oracle():
    corpus = _run_corpus()
    assert len(corpus) > 4500
    for P in corpus:
        want = descending_runs_poly(P)
        assert IntPolynomial(transverse_poly_coeffs(P)) == want, P.relations()
        assert poincare_via_lrmax(P) == want, P.relations()
        if width(P) <= 2:
            assert poincare_via_width2(P) == want, P.relations()


@pytest.mark.parametrize("mutation", [{"descending": False}, {"const": 1}],
                         ids=["ascending-runs", "plus-jt"])
def test_descending_runs_oracle_mutations_fail(mutation):
    # negative controls: each mutated oracle disagrees with the DP somewhere
    assert any(descending_runs_poly(P, **mutation) != IntPolynomial(transverse_poly_coeffs(P))
               for P in _run_corpus())


STREAM_CAP = 500  # antichain 10 has 10! extensions and Bell(10) partitions


@pytest.mark.parametrize("stream, oracle", [
    (linear_extensions, rescan_linear_extensions),
    (enumerate_transverse, rescan_enumerate_transverse),
    (transverse_permutations, product_transverse_permutations),
], ids=["linear_extensions", "enumerate_transverse", "transverse_permutations"])
def test_streams_match_rescan_oracles_in_order(stream, oracle):
    for P in walk_corpus():
        got = list(islice(stream(P), STREAM_CAP))
        assert got == list(islice(oracle(P), STREAM_CAP)), P.relations()


def _width2_decompositions():
    """Each width-2 member of the corpus with its chain cover, in both
    chain orders."""
    for P in walk_corpus():
        if width(P) <= 2:
            d = chain_cover_width2(P)
            yield P, d
            yield P, ChainDecomposition(P, d.p2, d.p1)


def test_width2_bijections_match_rescan_oracles():
    for P, d in _width2_decompositions():
        for w in linear_extensions(P):
            pi = omega(P, d, w)
            assert pi == rescan_omega(P, d, w), (P.relations(), d, w)
            assert omega_inv(P, d, pi) == rescan_omega_inv(P, d, pi) == w


def test_width2_bijections_raise_as_the_rescan_oracles():
    # every word and every partition of the small members, good or bad
    for P, d in _width2_decompositions():
        if P.n > 4:
            continue
        for w in permutations(range(1, P.n + 1)):
            assert outcome(omega, P, d, w) == outcome(rescan_omega, P, d, w)
        for pi in all_partitions(P.n):
            assert outcome(omega_inv, P, d, pi) == outcome(rescan_omega_inv, P, d, pi)
        short = tuple(range(1, P.n))
        assert outcome(omega, P, d, short) == outcome(rescan_omega, P, d, short)


@lru_cache(maxsize=None)
def _cover_corpus():
    """`walk_corpus()` and 2 000 seeded random posets with n <= 14, each
    relabeled by a drawn permutation."""
    rng = random.Random(25)
    out = list(walk_corpus())
    for _ in range(2000):
        n = rng.randint(1, 14)
        P = random_poset(n, 0.6 * rng.random(), rng)
        order = rng.sample(range(1, n + 1), n)
        out.append(poset_from_relations(n, [(order[i - 1], order[j - 1])
                                            for i, j in P.relations()]))
    return tuple(out)


def test_chain_cover_matches_the_kuhn_oracle():
    # the default width-2 cover, which omega, omega_inv and selfcheck read
    for P in _cover_corpus():
        assert posets._matching_chain_cover(P) == kuhn_chain_cover(P), P.relations()


def test_kuhn_oracle_depends_on_the_scan_order():
    # negative control: scanning the right vertices downward changes the
    # cover somewhere in the corpus, so the test above pins the order
    assert any(kuhn_chain_cover(P, descending=True) != kuhn_chain_cover(P)
               for P in _cover_corpus())


PSI_CAP = 200  # extensions per corpus member; all of them when n <= 5


def test_psi_and_phi_match_the_record_oracles():
    for P in walk_corpus():
        for w in islice(linear_extensions(P), PSI_CAP):
            tau = psi(P, w)
            assert tau == record_psi(P, w), (P.relations(), w)
            assert tau.cycles() == set_cycles(tau)
            assert phi(P, tau) == keyed_phi(P, tau) == w


def test_psi_and_phi_raise_as_the_record_oracles():
    # every word and every permutation of the small members, good or bad
    for P in walk_corpus():
        if P.n > 4:
            continue
        for images in permutations(range(1, P.n + 1)):
            assert outcome(psi, P, images) == outcome(record_psi, P, images)
            tau = Permutation(images)
            assert outcome(phi, P, tau) == outcome(keyed_phi, P, tau)
        short = tuple(range(1, P.n))
        assert outcome(psi, P, short) == outcome(record_psi, P, short)
        big = Permutation.identity(P.n + 1)
        assert outcome(phi, P, big) == outcome(keyed_phi, P, big)


def test_psi_reads_no_record_and_builds_no_cycles(monkeypatch):
    P = antichain(9)
    rng = random.Random(16)
    words = list(islice(linear_extensions(P), PSI_CAP))
    words += [tuple(rng.sample(range(1, 10), 9)) for _ in range(PSI_CAP)]
    want = [record_psi(P, w) for w in words]

    def refuse(*args, **kwargs):
        raise AssertionError("psi went through the record or the cycles")

    monkeypatch.setattr(bijections, "level_decompose", refuse)
    monkeypatch.setattr(Permutation, "from_cycles", refuse)
    assert [psi(P, w) for w in words] == want


def _psi_probes(n):
    """Every order of 1..n, and for each: the word less its last letter, the
    word with n + 1 appended, and its last letter replaced by 0, by n + 1
    and by its first letter."""
    for w in permutations(range(1, n + 1)):
        yield w
        if w:
            yield w[:-1]
            yield w + (n + 1,)
            yield w[:-1] + (0,)
            yield w[:-1] + (n + 1,)
            yield w[:-1] + (w[0],)


def test_psi_refuses_exactly_the_words_that_are_no_linear_extension():
    # psi folds the down-row test into its scan; is_linear_extension is the
    # one definition it must keep
    for n in range(5):
        for P in all_labeled_posets(n):
            for w in _psi_probes(n):
                got = outcome(psi, P, w)
                if is_linear_extension(P, w):
                    assert got == record_psi(P, w), (P.relations(), w)
                else:
                    assert got == (NotLinearExtension,
                                   f"{list(w)} is not a linear extension"), (P.relations(), w)


def test_phi_walks_the_images_once_and_raises_as_before(monkeypatch):
    # phi finds its cycles and levels them in one loop: it builds no
    # Permutation.cycles list and runs no quotient peel, on transverse and
    # on refused permutations alike
    rng = random.Random(34)
    posets = [antichain(8), grid(3, 3), random_poset(10, 0.2, rng), random_poset(9, 0.4, rng)]
    good, bad = [], []
    for P in posets:
        good += [(P, psi(P, w)) for w in islice(linear_extensions(P), 60)]
        for _ in range(60):
            tau = Permutation(rng.sample(range(1, P.n + 1), P.n))
            if not partitions.is_transverse(P, tau.cycle_partition()):
                bad.append((P, tau, outcome(partitions.check_transverse, P,
                                            tau.cycle_partition())))
    assert len(bad) > 100
    want = [keyed_phi(P, tau) for P, tau in good]
    assert all(refused[0] is NotTransverse for _, _, refused in bad)

    def refuse(*args):
        raise AssertionError("phi went through the cycles or the peel")

    monkeypatch.setattr(Permutation, "cycles", refuse)
    monkeypatch.setattr(partitions, "_quotient_peel", refuse)
    assert [phi(P, tau) for P, tau in good] == want
    for P, tau, refused in bad:
        assert outcome(phi, P, tau) == refused, (P.relations(), tau)
    for P in posets:
        for size in (P.n - 1, P.n + 1):
            assert outcome(phi, P, Permutation.identity(size)) == (
                IndexOutOfRange, "partition size differs from poset size")


def test_built_objects_equal_their_validated_forms():
    # enumerate_transverse, psi and transverse_permutations skip the
    # constructors' checks; what they build must be what a caller's
    # validated input would have made
    for P in walk_corpus():
        for pi in islice(enumerate_transverse(P), STREAM_CAP):
            assert pi == SetPartition(P.n, pi.blocks), (P.relations(), pi)
            assert pi == parse_partition(partition_to_text(pi), P.n), (P.relations(), pi)
        for w in islice(linear_extensions(P), PSI_CAP):
            tau = psi(P, w)
            assert tau == Permutation(tau.images), (P.relations(), w)
        for tau in islice(transverse_permutations(P), 200):
            assert tau == Permutation.from_cycles(P.n, tau.cycles()), (P.relations(), tau)
    # so do multiset_encode, prime_decompose and foata_phi, and foata_phi_inv
    # decodes without `_check_support`
    supports = [a for total in range(7) for a in compositions(total)]
    supports += [tuple(a) for a in CHAIN_UNIONS] + [(2, 0, 1), (0, 3, 0), (0,)]
    for a in supports:
        top = [j for j, aj in enumerate(a, start=1) for _ in range(aj)]
        for lam in islice(linear_extensions(union_of_chains(a)), PSI_CAP):
            sigma = multiset_encode(a, lam)
            assert sigma == MultisetPermutation.from_word(sigma.bottom_row(), support=a), lam
            for f in prime_decompose(sigma):
                assert f == MultisetPermutation(f.columns, ell=f.ell), (lam, f)
            tau = foata_phi(a, lam)
            assert tau == Permutation(tau.images), (a, lam)
            checked = MultisetPermutation.from_word([top[j - 1] for j in tau.images], support=a)
            assert foata_phi_inv(a, tau) == multiset_decode(a, checked) == lam


def test_cover_rows_match_the_definition():
    for P in walk_corpus():
        labels = range(1, P.n + 1)
        want = [(i, j) for i in labels for j in labels if P.less(i, j)
                and not any(P.less(i, k) and P.less(k, j) for k in labels)]
        assert P.covers() == want, P.relations()


def _counting(monkeypatch, module):
    calls = []
    scan = module._min_mask

    def counted(down, alive):
        calls.append(alive)
        return scan(down, alive)

    monkeypatch.setattr(module, "_min_mask", counted)
    return calls


def _consumed(stream):
    return lambda P: sum(1 for _ in stream(P))


@pytest.mark.parametrize("module, walk, P", [
    (partitions, transverse_poly_coeffs, grid(4, 6)),
    (posets, count_linear_extensions, grid(4, 6)),
    (posets, poincare_via_lrmax, grid(4, 6)),
    (partitions, _consumed(enumerate_transverse), grid(3, 4)),
    (posets, _consumed(linear_extensions), grid(3, 4)),
], ids=["posetcones.partitions-transverse_poly_coeffs",
        "posetcones.posets-count_linear_extensions",
        "posetcones.posets-poincare_via_lrmax",
        "posetcones.partitions-enumerate_transverse",
        "posetcones.posets-linear_extensions"])
def test_walks_scan_for_minima_only_at_the_root(monkeypatch, module, walk, P):
    calls = _counting(monkeypatch, module)
    walk(P)
    assert calls == [(1 << P.n) - 1]


def test_width2_bijections_scan_no_minima(monkeypatch):
    P = grid(2, 6)
    d = chain_cover_width2(P)
    words = list(linear_extensions(P))

    def refuse(down, alive):
        raise AssertionError("minima scan in a width-2 bijection")

    # bijections no longer imports the scan; raising=False still plants the
    # refusal there, so a re-import would trip it
    for module in (posets, partitions, bijections):
        monkeypatch.setattr(module, "_min_mask", refuse, raising=False)
    for dd in (d, ChainDecomposition(P, d.p2, d.p1)):
        for w in words:
            assert omega_inv(P, dd, omega(P, dd, w)) == w


def _held_kib(walk, P):
    """KiB still allocated after a second call of walk(P), with the cyclic
    collector off.  The first call refills CPython's spare-tuple free lists
    (2 000 tuples of each small size, about 250 KiB after lrmax), which the
    second call only reuses, so the second call shows what a walk keeps."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        walk(P)
        mark = tracemalloc.get_traced_memory()[0]
        walk(P)
        return (tracemalloc.get_traced_memory()[0] - mark) / 1024
    finally:
        tracemalloc.stop()
        gc.enable()


def _self_referencing_walk(P):
    """Negative control: a memo walk whose rec keeps itself, and so its
    memo, alive until a cyclic collection."""
    memo = {}

    def rec(placed):
        if placed not in memo:
            memo[placed] = 1 + sum(rec(placed | 1 << v) for v in range(P.n)
                                   if not placed >> v & 1)
        return memo[placed]

    return rec(0)


@pytest.mark.parametrize("walk, P", [
    (transverse_poly_coeffs, union_of_chains([2] * 5)),
    (poincare_via_lrmax, grid(3, 5)),
    (count_linear_extensions, ordinal_sum(chain(1), antichain(10))),
], ids=["transverse_poly_coeffs", "poincare_via_lrmax", "count_linear_extensions"])
def test_memo_walks_free_their_memo_on_return(walk, P):
    assert _held_kib(walk, P) < 4


def _peak_kib(walk, P):
    """KiB allocated at the peak of a second call of walk(P), over what was
    allocated before it, with the cyclic collector off (see `_held_kib`)."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        walk(P)
        mark = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        walk(P)
        return (tracemalloc.get_traced_memory()[1] - mark) / 1024
    finally:
        tracemalloc.stop()
        gc.enable()


def test_lrmax_sweep_holds_two_levels_at_its_peak():
    # the whole memo of a recursive walk peaked near 1.2 MiB here
    assert _peak_kib(poincare_via_lrmax, grid(4, 6)) < 700


def test_sweeps_need_no_recursion_depth():
    # a chain longer than the recursion limit has one linear extension, one
    # transverse partition and one transverse permutation; `poincare` peels
    # every point with k = 0, so it never reaches the transverse DP, which
    # still recurses once per level
    P = union_of_chains([sys.getrecursionlimit() + 100])
    assert count_linear_extensions(P) == 1
    one = IntPolynomial([1])
    assert (poincare_via_lrmax(P), poincare_via_width2(P), p_eulerian(P)) == (one, one, one)
    assert poincare(P) == one
    for stream in (linear_extensions, enumerate_transverse, transverse_permutations):
        assert sum(1 for _ in stream(P)) == 1, stream.__name__
    # an antichain that wide is one state whose layer choices decide one
    # minimum per step; the first choice puts every point in one block
    A = antichain(P.n)
    assert next(enumerate_transverse(A)) == SetPartition(A.n, [tuple(range(1, A.n + 1))])
    assert next(transverse_permutations(A)) == Permutation(list(range(2, A.n + 1)) + [1])


def test_self_referencing_walk_keeps_its_memo():
    assert _held_kib(_self_referencing_walk, antichain(10)) > 40


def test_rescan_oracle_scans_once_per_state(monkeypatch):
    # negative control: the counter sees a walk that rescans every state
    calls = _counting(monkeypatch, common)
    rescan_transverse_poly_coeffs(grid(4, 6))
    assert len(calls) > 100


@pytest.mark.parametrize("P, want", [
    (antichain(12), 0),
    (antichain(16), 0),
    (grid(4, 6), 208),
    (grid(5, 6), 460),
    (union_of_chains([2] * 9), 19171),
    (random_poset(19, 0.02, random.Random(1)), 24),
], ids=["antichain-12", "antichain-16", "grid-4x6", "grid-5x6", "chains-2x9", "sparse-19"])
def test_transverse_dp_steps_no_dead_antichain_child(monkeypatch, P, want):
    # the DP is memoized on the up-set alone and steps once to each up-set
    # it reaches through a layer, deriving that up-set's minima: a state
    # whose minima hold a maximal point of P closes those points on sight
    # and steps nowhere, so only states with no such minimum step.  Grids
    # have one maximum, reached only as a state's sole minimum: one step
    # per up-set other than P and the empty set (210 and 462 up-sets).  In
    # nine 2-chains, a chain cut to its top is such a minimum, so only the
    # states whose chains are all whole or gone step: one with a whole
    # chains steps to its 2^a - 1 children, each an up-set no other state
    # steps to, in all sum_a C(9, a) (2^a - 1) = 3^9 - 2^9 = 19 171 steps
    # (3^9 - 2 = 19 681, every up-set but P and the empty set, without the
    # closure).  An antichain is one state closed on sight: no step at all.
    # The sparse poset has 12 isolated points among its 16 minima: without
    # the closure its first state alone sums 2^16 layer sets, and the DP
    # ran for about a minute.
    calls = []
    step = partitions._minima_after

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(partitions, "_minima_after", counted)
    transverse_poly_coeffs(P)
    assert len(calls) == want


def test_enumeration_derives_minima_once_per_layer_set(monkeypatch):
    # 190 states visited, each deriving its targets once, and 70 distinct
    # layer sets S (of 465 layer choices) other than the state's minima mm
    # that leave something alive in their state, each deriving the child's
    # minima once however many block arrangements S has: 190 + 70 = 260
    # calls.  The 40 layer sets S = mm that leave something alive reuse
    # the targets, the minima of alive - mm.  A walk that takes a dead or
    # an empty layer may never end, so the count is refused past that
    P = random_poset(7, 0.2, random.Random(2))
    calls = []
    step = partitions._minima_after

    def counted(*args):
        calls.append(args)
        if len(calls) > 260:
            raise AssertionError("more than 260 minima derivations")
        return step(*args)

    monkeypatch.setattr(partitions, "_minima_after", counted)
    assert sum(1 for _ in enumerate_transverse(P)) == 276
    assert len(calls) == 260
