import random
from itertools import combinations, product
from math import comb

import pytest

from posetcones import (
    DegreeExceeded,
    IntPolynomial,
    TruncatedSeries,
    antichain,
    chains_gf_rhs,
    falling_bracket,
    fcyc_distribution,
    genfun,
    mmt_bracket,
    poincare_via_lrmax,
    stirling_first_kind_row,
    stirling_row_check,
    tmmt_rhs,
    verify_chains_gf,
)
from posetcones.genfun import _compositions_upto

from common import multinomial


def poly(*coeffs):
    return IntPolynomial(coeffs)


# -- the series ring (oracle) -----------------------------------------------------
#
# The truncated-series arithmetic that computed chains_gf_rhs and tmmt_rhs
# before the coefficient recursion replaced it: the master identity built
# as a series and inverted one coefficient at a time.


class Series(TruncatedSeries):
    """TruncatedSeries with addition, scaling, products and the inverse."""

    __slots__ = ()

    @classmethod
    def zero(cls, ell, cap):
        return cls(ell, cap)

    @classmethod
    def one(cls, ell, cap):
        return cls(ell, cap, {(0,) * ell: IntPolynomial.one()})

    @classmethod
    def monomial(cls, ell, cap, exps, poly=None):
        return cls(ell, cap, {tuple(exps): poly if poly is not None else IntPolynomial.one()})

    def __add__(self, other):
        out = dict(self.terms)
        for exps, poly in other.terms.items():
            got = out.get(exps)
            s = poly if got is None else got + poly
            if s:
                out[exps] = s
            elif got is not None:
                del out[exps]
        return Series(self.ell, self.cap, out)

    def __sub__(self, other):
        return self + other.scaled(IntPolynomial([-1]))

    def scaled(self, poly: IntPolynomial):
        return Series(
            self.ell, self.cap,
            {exps: p * poly for exps, p in self.terms.items()},
        )

    def __mul__(self, other):
        out = {}
        for e1, p1 in self.terms.items():
            d1 = sum(e1)
            for e2, p2 in other.terms.items():
                if d1 + sum(e2) > self.cap:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = p1 * p2
                got = out.get(key)
                s = prod if got is None else got + prod
                if s:
                    out[key] = s
                elif got is not None:
                    del out[key]
        return Series(self.ell, self.cap, out)

    def inverse(self):
        """Inverse in one pass; the constant coefficient must be exactly 1.

        With s = 1 - self, g_0 = 1 and g_e = sum_{e' != 0} s_e' g_{e - e'};
        lex order puts every e - e' before e.
        """
        zero = (0,) * self.ell
        if self.terms.get(zero) != IntPolynomial.one():
            raise ValueError("inverse needs constant coefficient 1")
        s = [(e, [-c for c in p.coeffs]) for e, p in self.terms.items() if e != zero]
        g = {zero: [1]}
        for e in _compositions_upto(self.ell, self.cap)[1:]:
            acc = []
            for e1, c1 in s:
                c2 = g.get(tuple(x - y for x, y in zip(e, e1)))
                if c2:
                    acc.extend([0] * (len(c1) + len(c2) - 1 - len(acc)))
                    for i, x in enumerate(c1):
                        for j, y in enumerate(c2):
                            acc[i + j] += x * y
            while acc and acc[-1] == 0:
                acc.pop()
            g[e] = acc
        return Series(self.ell, self.cap,
                      {e: IntPolynomial(c) for e, c in g.items()})


def elementary_symmetric(ell, j, cap) -> Series:
    terms = {}
    if 0 <= j <= ell and j <= cap:
        for subset in combinations(range(ell), j):
            exps = [0] * ell
            for i in subset:
                exps[i] = 1
            terms[tuple(exps)] = IntPolynomial.one()
    return Series(ell, cap, terms)


def geometric_inverse(series):
    """The cap-fold inverse that the one-pass inverse replaced: with
    s = 1 - series, acc <- 1 + s * acc, cap times."""
    one = Series.one(series.ell, series.cap)
    s = one - series
    acc = one
    for _ in range(series.cap):
        acc = one + s * acc
    return acc


def rhs_bodies(ell, cap):
    """The series that chains_gf_rhs and tmmt_rhs invert."""
    chains = tmmt = Series.one(ell, cap)
    for j in range(1, min(ell, cap) + 1):
        e_j = elementary_symmetric(ell, j, cap)
        chains = chains - e_j.scaled(falling_bracket(j))
        tmmt = tmmt + e_j.scaled(mmt_bracket(j))
    return chains, tmmt


def test_series_arithmetic():
    one = Series.one(2, 4)
    x1 = Series.monomial(2, 4, (1, 0))
    x2 = Series.monomial(2, 4, (0, 1))
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
        body = Series.one(ell, cap)
        for j in range(1, ell + 1):
            body = body - elementary_symmetric(ell, j, cap).scaled(falling_bracket(j))
        inv = body.inverse()
        assert body * inv == Series.one(ell, cap)
    with pytest.raises(ValueError):
        Series.zero(2, 3).inverse()


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
    assert S.coefficient((0, 0)) == poly(1)
    assert S.coefficient((2, 2)) == poly(1, 4, 1)
    with pytest.raises(DegreeExceeded):
        S.coefficient((3, 3))
    with pytest.raises(DegreeExceeded):
        S.coefficient((1, 1, 1))


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


def _recursive_compositions(ell, cap):
    """The order oracle: the first part runs 0..cap, the rest recurse on
    what is left."""
    if not ell:
        return [()]
    return [(first,) + rest for first in range(cap + 1)
            for rest in _recursive_compositions(ell - 1, cap - first)]


def test_compositions_match_the_recursion_in_order():
    grid = [(ell, cap) for ell in range(6) for cap in range(7)]
    for ell, cap in grid + [(3, 7), (4, 8), (8, 8)]:
        assert _compositions_upto(ell, cap) == _recursive_compositions(ell, cap), (ell, cap)


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


def test_inverse_matches_geometric_oracle_on_rhs_bodies():
    for ell in range(5):
        for cap in range(9):
            chains, tmmt = rhs_bodies(ell, cap)
            want_chains = geometric_inverse(chains)
            assert chains.inverse() == want_chains == chains_gf_rhs(ell, cap), (ell, cap)
            want_tmmt = geometric_inverse(tmmt)
            assert tmmt.inverse() == want_tmmt == tmmt_rhs(ell, cap), (ell, cap)


@pytest.mark.parametrize("ell, cap", [(5, 6), (6, 6), (13, 2), (0, 12), (12, 0)])
def test_recursion_matches_series_oracle_beyond_the_grid(ell, cap):
    chains, tmmt = rhs_bodies(ell, cap)
    assert chains_gf_rhs(ell, cap) == chains.inverse()
    assert tmmt_rhs(ell, cap) == tmmt.inverse()


def test_recursion_reaches_eight_variables_to_degree_eight():
    # 12 870 terms, where the series ring's inverse took seconds
    S = chains_gf_rhs(8, 8)
    assert set(S.terms) == set(_compositions_upto(8, 8))
    for a, p in S.terms.items():
        parts = [x for x in a if x]
        assert p(1) == multinomial(parts), a
        if len(parts) == 2:
            x, y = parts
            assert p == IntPolynomial([comb(x, k) * comb(y, k) for k in range(min(parts) + 1)]), a


def test_inverse_matches_geometric_oracle_on_random_series():
    """Constant 1, lower terms at exponents up to 2 in each variable and
    coefficients in {-1, 0, 1}, so that many integer coefficients of the
    inverse cancel to 0."""
    rng = random.Random(1967)
    cancelled = 0
    for _ in range(300):
        ell, cap = rng.randint(1, 3), rng.randint(1, 6)
        series = Series.one(ell, cap)
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 2) for _ in range(ell))
            if any(exps):
                coeffs = [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]
                series = series + Series.monomial(ell, cap, exps, IntPolynomial(coeffs))
        inv = series.inverse()
        assert inv == geometric_inverse(series)
        assert series * inv == Series.one(ell, cap)
        # with every lower coefficient made -|c| nothing cancels: count the
        # coefficients that are nonzero there and 0 in the inverse
        unsigned = Series(ell, cap, {
            e: p if not any(e) else IntPolynomial([-abs(c) for c in p.coeffs])
            for e, p in series.terms.items()})
        cancelled += sum(inv.coefficient(e).coefficient(k) == 0
                         for e, p in unsigned.inverse().terms.items()
                         for k in range(len(p.coeffs)))
    assert cancelled >= 100


@pytest.mark.parametrize("const", [(), (2,), (-1,), (1, 1), (0, 1)])
def test_inverse_needs_unit_constant(const):
    series = Series.monomial(2, 3, (1, 0)) + Series(
        2, 3, {(0, 0): IntPolynomial(const)})
    with pytest.raises(ValueError):
        series.inverse()


def test_entry_bound_is_ell_times_the_number_of_tuples(monkeypatch):
    monkeypatch.setattr(genfun, "MAX_EXPONENT_ENTRIES", 60)
    for ell in range(8):
        for cap in range(8):
            entries = comb(ell + cap, cap) * ell
            if entries > 60:
                with pytest.raises(DegreeExceeded):
                    chains_gf_rhs(ell, cap)
            else:
                assert len(chains_gf_rhs(ell, cap).terms) == comb(ell + cap, cap)


@pytest.mark.parametrize("build", [chains_gf_rhs, tmmt_rhs])
@pytest.mark.parametrize("ell, cap", [(10**9, 10**9), (1, 10**9), (3 * 10**8, 0)])
def test_entry_bound_refuses_before_any_work(build, ell, cap, monkeypatch):
    # the beta list alone would loop min(ell, cap) times
    def forbidden(*args):
        raise AssertionError("work started past the entry bound")

    for name in ("falling_bracket", "mmt_bracket", "_compositions_upto"):
        monkeypatch.setattr(genfun, name, forbidden)
    with pytest.raises(DegreeExceeded, match="exponent entries"):
        build(ell, cap)


@pytest.mark.parametrize("build", [chains_gf_rhs, tmmt_rhs, verify_chains_gf])
@pytest.mark.parametrize("ell, cap", [(-1, 3), (2, -1), (-2, -2)])
def test_negative_sizes_raise_degree_exceeded(build, ell, cap):
    with pytest.raises(DegreeExceeded):
        build(ell, cap)
