import random
from itertools import product

import pytest

from posetcones import (
    DegreeExceeded,
    IntPolynomial,
    TruncatedSeries,
    antichain,
    chains_gf_rhs,
    coefficient,
    elementary_symmetric,
    falling_bracket,
    fcyc_distribution,
    mmt_bracket,
    poincare_via_lrmax,
    stirling_first_kind_row,
    stirling_row_check,
    tmmt_rhs,
    verify_chains_gf,
)
from posetcones.genfun import _compositions_upto


def poly(*coeffs):
    return IntPolynomial(coeffs)


def test_series_arithmetic():
    one = TruncatedSeries.one(2, 4)
    x1 = TruncatedSeries.monomial(2, 4, (1, 0))
    x2 = TruncatedSeries.monomial(2, 4, (0, 1))
    s = x1 + x2
    sq = s * s
    assert sq.coefficient((2, 0)) == poly(1)
    assert sq.coefficient((1, 1)) == poly(2)
    assert (sq - sq).coefficient((1, 1)) == poly()
    assert (one + x1.scaled(poly(0, 1))).coefficient((1, 0)) == poly(0, 1)
    # truncation discards overflow monomials
    cube = sq * sq
    assert cube.coefficient((4, 0)) == poly(1)
    assert (cube * sq).cap == 4


def test_series_inverse_is_exact():
    for ell, cap in [(1, 6), (2, 5), (3, 6)]:
        body = TruncatedSeries.one(ell, cap)
        for j in range(1, ell + 1):
            body = body - elementary_symmetric(ell, j, cap).scaled(falling_bracket(j))
        inv = body.inverse()
        assert body * inv == TruncatedSeries.one(ell, cap)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(2, 3).inverse()


def test_elementary_symmetric():
    e1 = elementary_symmetric(2, 1, 3)
    assert e1.coefficient((1, 0)) == poly(1)
    assert e1.coefficient((0, 1)) == poly(1)
    assert e1.coefficient((1, 1)) == poly()
    e3 = elementary_symmetric(3, 3, 5)
    assert e3.coefficient((1, 1, 1)) == poly(1)
    assert len(e3.terms) == 1
    e2 = elementary_symmetric(2, 2, 4)
    assert e2.coefficient((1, 1)) == poly(1)


def test_brackets():
    assert falling_bracket(1) == poly(1)
    assert falling_bracket(2) == poly(-1, 1)
    assert falling_bracket(3) == poly(1, -3, 2)
    assert mmt_bracket(1) == poly(0, -1)
    assert mmt_bracket(2) == poly(0, -1, 1)


def test_rhs_coefficients():
    one_var = chains_gf_rhs(1, 6)
    for a in range(0, 7):
        assert one_var.coefficient((a,)) == poly(1)
    assert chains_gf_rhs(2, 4).coefficient((1, 1)) == poly(1, 1)
    assert chains_gf_rhs(3, 4).coefficient((1, 1, 1)) == poly(1, 3, 2)
    assert chains_gf_rhs(3, 6).coefficient((2, 2, 2)) == poly(1, 12, 43, 30, 4)
    assert chains_gf_rhs(2, 4).coefficient((2, 2)) == poly(1, 4, 1)


def test_coefficient_accessor():
    S = chains_gf_rhs(2, 4)
    assert coefficient(S, (0, 0)) == poly(1)
    assert coefficient(S, (2, 2)) == poly(1, 4, 1)
    with pytest.raises(DegreeExceeded):
        coefficient(S, (3, 3))
    with pytest.raises(DegreeExceeded):
        coefficient(S, (1, 1, 1))


def test_verify_reports():
    for ell, cap in [(1, 5), (2, 6)]:
        report = verify_chains_gf(ell, cap)
        assert all(ok for _, _, ok in report)
        labels = [a for a, _, _ in report]
        assert labels == sorted(labels)
        assert labels == _compositions_upto(ell, cap)
    ones = verify_chains_gf(1, 5)
    assert all(polyval == poly(1) for _, polyval, _ in ones)


def test_compositions_match_the_product_filter_in_order():
    for ell in range(5):
        for cap in range(6):
            want = [e for e in product(range(cap + 1), repeat=ell) if sum(e) <= cap]
            assert _compositions_upto(ell, cap) == want, (ell, cap)


def test_compositions_cost_what_they_return():
    # the product filter would walk 3^20 tuples here to keep C(22, 2)
    assert len(_compositions_upto(20, 2)) == 231


def test_tmmt_specialization_counts_prime_factors():
    # coefficient of x^a in the inverted bracket series is the fcyc
    # distribution over words with support a; checked term by term
    for ell, cap in [(1, 5), (2, 6), (3, 7)]:
        rhs = tmmt_rhs(ell, cap)
        for a in _compositions_upto(ell, cap):
            assert rhs.coefficient(a) == fcyc_distribution(a)


def test_substitution_links_the_two_series():
    # replacing t by 1/t and scaling each x by t turns the factor-count
    # series into the cone polynomial series: reverse to degree |a|
    for ell, cap in [(1, 5), (2, 6), (3, 6)]:
        src = tmmt_rhs(ell, cap)
        dst = chains_gf_rhs(ell, cap)
        for a in _compositions_upto(ell, cap):
            assert src.coefficient(a).reversed_to_degree(sum(a)) == dst.coefficient(a)


def test_all_ones_recursion():
    # the square-free coefficient picks up one new factor per added variable
    prev = chains_gf_rhs(1, 1).coefficient((1,))
    assert prev == poly(1)
    for ell in range(1, 6):
        cur = chains_gf_rhs(ell + 1, ell + 1).coefficient((1,) * (ell + 1))
        assert cur == prev * poly(1, ell)
        prev = cur


def test_stirling_rows():
    assert stirling_first_kind_row(0) == [1]
    assert stirling_first_kind_row(3) == [0, 2, 3, 1]
    assert stirling_first_kind_row(4) == [0, 6, 11, 6, 1]
    for n in range(1, 9):
        assert stirling_row_check(n)
    assert poincare_via_lrmax(antichain(3)) == poly(1, 3, 2)


def test_fcyc_distribution_small():
    assert fcyc_distribution((1,)) == poly(0, 1)
    assert fcyc_distribution(()) == poly(1)
    # two letters: words 12, 21; 12 has two unit factors, 21 one pair
    assert fcyc_distribution((1, 1)) == poly(0, 1, 1)


def geometric_inverse(series):
    """The cap-fold inverse that the one-pass inverse replaced: with
    s = 1 - series, acc <- 1 + s * acc, cap times."""
    one = TruncatedSeries.one(series.ell, series.cap)
    s = one - series
    acc = one
    for _ in range(series.cap):
        acc = one + s * acc
    return acc


def rhs_bodies(ell, cap):
    """The series that chains_gf_rhs and tmmt_rhs invert."""
    chains = tmmt = TruncatedSeries.one(ell, cap)
    for j in range(1, min(ell, cap) + 1):
        e_j = elementary_symmetric(ell, j, cap)
        chains = chains - e_j.scaled(falling_bracket(j))
        tmmt = tmmt + e_j.scaled(mmt_bracket(j))
    return chains, tmmt


def test_inverse_matches_geometric_oracle_on_rhs_bodies():
    for ell in range(5):
        for cap in range(9):
            chains, tmmt = rhs_bodies(ell, cap)
            want_chains = geometric_inverse(chains)
            assert chains.inverse() == want_chains == chains_gf_rhs(ell, cap), (ell, cap)
            want_tmmt = geometric_inverse(tmmt)
            assert tmmt.inverse() == want_tmmt == tmmt_rhs(ell, cap), (ell, cap)


def test_inverse_matches_geometric_oracle_on_random_series():
    """Constant 1, lower terms at exponents up to 2 in each variable and
    coefficients in {-1, 0, 1}, so that many integer coefficients of the
    inverse cancel to 0."""
    rng = random.Random(1967)
    cancelled = 0
    for _ in range(300):
        ell, cap = rng.randint(1, 3), rng.randint(1, 6)
        series = TruncatedSeries.one(ell, cap)
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 2) for _ in range(ell))
            if any(exps):
                coeffs = [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]
                series = series + TruncatedSeries.monomial(ell, cap, exps, IntPolynomial(coeffs))
        inv = series.inverse()
        assert inv == geometric_inverse(series)
        assert series * inv == TruncatedSeries.one(ell, cap)
        # with every lower coefficient made -|c| nothing cancels: count the
        # coefficients that are nonzero there and 0 in the inverse
        unsigned = TruncatedSeries(ell, cap, {
            e: p if not any(e) else IntPolynomial([-abs(c) for c in p.coeffs])
            for e, p in series.terms.items()})
        cancelled += sum(inv.coefficient(e).coefficient(k) == 0
                         for e, p in unsigned.inverse().terms.items()
                         for k in range(len(p.coeffs)))
    assert cancelled >= 100


@pytest.mark.parametrize("const", [(), (2,), (-1,), (1, 1), (0, 1)])
def test_inverse_needs_unit_constant(const):
    series = TruncatedSeries.monomial(2, 3, (1, 0)) + TruncatedSeries(
        2, 3, {(0, 0): IntPolynomial(const)})
    with pytest.raises(ValueError):
        series.inverse()


@pytest.mark.parametrize("build", [chains_gf_rhs, tmmt_rhs, verify_chains_gf])
@pytest.mark.parametrize("ell, cap", [(-1, 3), (2, -1), (-2, -2)])
def test_negative_sizes_raise_degree_exceeded(build, ell, cap):
    with pytest.raises(DegreeExceeded):
        build(ell, cap)
