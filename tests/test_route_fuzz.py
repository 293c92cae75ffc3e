"""Hypothesis property: every route and oracle gives the same polynomial.

Posets come as seeded random draws with n <= 8, relabeled by a drawn
permutation, and as relabeled chain unions.  On each one the transverse
DP, the lrmax DP, `poincare` (which peels first), the forbidden-level DP
and the list form of the signed recursion of `common`, and the descending
runs oracle agree; so do the width2 route when the width is at most 2 and
the foata route when every comparability component is a chain.  Runs are
derandomized, keep no example database and draw a fixed number of
examples, so the suite stays reproducible and fast.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from posetcones import (
    IntPolynomial,
    poincare,
    poincare_via_foata,
    poincare_via_lrmax,
    poincare_via_width2,
    poset_from_relations,
    random_poset,
    transverse_poly_coeffs,
    union_of_chains,
    width,
)
from posetcones.posets import _components

from common import descending_runs_poly, rescan_transverse_poly_coeffs, signed_upset_poly

ROUTES = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def relabel(draw, P):
    order = draw(st.permutations(range(1, P.n + 1)))
    return poset_from_relations(P.n, [(order[i - 1], order[j - 1]) for i, j in P.relations()])


@st.composite
def random_posets(draw):
    n = draw(st.integers(0, 8))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.8]))
    return relabel(draw, random_poset(n, p, draw(st.randoms(use_true_random=False))))


@st.composite
def chain_unions(draw):
    parts = draw(st.lists(st.integers(1, 4), max_size=4).filter(lambda a: sum(a) <= 8))
    return relabel(draw, union_of_chains(parts))


def chain_lengths(P):
    """The component sizes when every component is a chain, else None."""
    lengths = []
    for part in _components(P):
        size = part.bit_count()
        for v in range(P.n):
            if part >> v & 1 and (P._up[v] | P._down[v]).bit_count() != size - 1:
                return None
        lengths.append(size)
    return lengths


@ROUTES
@given(st.one_of(random_posets(), chain_unions()))
def test_routes_and_oracles_agree(P):
    want = IntPolynomial(transverse_poly_coeffs(P))
    assert poincare_via_lrmax(P) == want
    assert poincare(P) == want
    assert IntPolynomial(rescan_transverse_poly_coeffs(P)) == want
    assert IntPolynomial(signed_upset_poly(P)) == want
    assert descending_runs_poly(P) == want
    if width(P) <= 2:
        assert poincare_via_width2(P) == want
    lengths = chain_lengths(P)
    if lengths is not None:
        assert poincare_via_foata(lengths) == want


def test_chain_lengths_sees_chain_unions_only():
    # negative control for the foata branch: a relabeled union of chains is
    # seen, and a poset with one non-chain component is not
    P = poset_from_relations(6, [(4, 1), (1, 6), (5, 2)])
    assert chain_lengths(P) == [3, 2, 1]
    assert chain_lengths(poset_from_relations(3, [(1, 2), (1, 3)])) is None
