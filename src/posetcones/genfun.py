"""Multivariate generating function for disjoint-chain cone polynomials.

Series live in Z[t][[x_1..x_ell]] truncated at a total degree cap, stored
sparsely as exponent tuple -> coefficient polynomial.  The master identity
inverts 1 minus a bracket-weighted sum of elementary symmetric polynomials,
one coefficient at a time in lex order of the exponents: each coefficient of
the inverse is a sum over coefficients already found.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegreeExceeded
from .polynomials import IntPolynomial


class TruncatedSeries:
    """Sparse truncated series; terms map exponent tuples to polynomials."""

    __slots__ = ("ell", "cap", "terms")

    def __init__(self, ell, cap, terms=None):
        self.ell = ell
        self.cap = cap
        self.terms = {}
        if terms:
            for exps, poly in terms.items():
                if sum(exps) <= cap and poly:
                    self.terms[tuple(exps)] = poly

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
        return TruncatedSeries(self.ell, self.cap, out)

    def __sub__(self, other):
        return self + other.scaled(IntPolynomial([-1]))

    def scaled(self, poly: IntPolynomial):
        return TruncatedSeries(
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
        return TruncatedSeries(self.ell, self.cap, out)

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
        return TruncatedSeries(self.ell, self.cap,
                               {e: IntPolynomial(c) for e, c in g.items()})

    def coefficient(self, exps) -> IntPolynomial:
        exps = tuple(exps)
        if len(exps) != self.ell:
            raise DegreeExceeded(f"expected {self.ell} exponents, got {len(exps)}")
        if sum(exps) > self.cap:
            raise DegreeExceeded(f"total degree {sum(exps)} beyond cap {self.cap}")
        return self.terms.get(exps, IntPolynomial.zero())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ell, self.cap, self.terms) == (other.ell, other.cap, other.terms)

    def __repr__(self):
        return f"TruncatedSeries(ell={self.ell}, cap={self.cap}, nterms={len(self.terms)})"


def elementary_symmetric(ell, j, cap) -> TruncatedSeries:
    terms = {}
    if 0 <= j <= ell and j <= cap:
        for subset in combinations(range(ell), j):
            exps = [0] * ell
            for i in subset:
                exps[i] = 1
            terms[tuple(exps)] = IntPolynomial.one()
    return TruncatedSeries(ell, cap, terms)


def falling_bracket(j) -> IntPolynomial:
    """prod_{i=1}^{j-1} (i t - 1); empty product for j = 1."""
    out = IntPolynomial.one()
    for i in range(1, j):
        out = out * IntPolynomial([-1, i])
    return out


def mmt_bracket(j) -> IntPolynomial:
    """prod_{i=0}^{j-1} (i - t)."""
    out = IntPolynomial.one()
    for i in range(j):
        out = out * IntPolynomial([i, -1])
    return out


def _check_size(ell, cap):
    if ell < 0 or cap < 0:
        raise DegreeExceeded(f"ell and cap must be nonnegative, got ell={ell}, cap={cap}")


def chains_gf_rhs(ell, cap) -> TruncatedSeries:
    """(1 - sum_j falling_bracket(j) e_j)^{-1}; the x^a coefficient is the
    cone polynomial of disjoint chains with multiplicities a."""
    _check_size(ell, cap)
    body = TruncatedSeries.one(ell, cap)
    for j in range(1, min(ell, cap) + 1):
        body = body - elementary_symmetric(ell, j, cap).scaled(falling_bracket(j))
    return body.inverse()


def tmmt_rhs(ell, cap) -> TruncatedSeries:
    """(1 + sum_j mmt_bracket(j) e_j)^{-1}; the x^a coefficient is the factor
    count distribution sum_sigma t^fcyc over words with support a."""
    _check_size(ell, cap)
    body = TruncatedSeries.one(ell, cap)
    for j in range(1, min(ell, cap) + 1):
        body = body + elementary_symmetric(ell, j, cap).scaled(mmt_bracket(j))
    return body.inverse()


def _compositions_upto(ell, cap):
    """All exponent tuples with nonnegative parts and total at most cap, in
    lex order: the first part runs 0..cap, the rest share what is left."""
    if not ell:
        return [()]
    return [(first,) + rest for first in range(cap + 1)
            for rest in _compositions_upto(ell - 1, cap - first)]


def coefficient(S: TruncatedSeries, a) -> IntPolynomial:
    return S.coefficient(a)


def verify_chains_gf(ell, cap):
    """Compare every coefficient of the inverted series against the transverse
    route on the matching disjoint-chain poset; zero parts just drop chains.

    Returns (a, coefficient, matches) triples in lex order of a.
    """
    from .posets import union_of_chains
    from .whitney import poincare_via_transverse

    rhs = chains_gf_rhs(ell, cap)
    report = []
    for a in _compositions_upto(ell, cap):
        got = rhs.coefficient(a)
        want = poincare_via_transverse(union_of_chains([x for x in a if x]))
        report.append((a, got, got == want))
    return report


def fcyc_distribution(a) -> IntPolynomial:
    """sum over words with support a of t^(number of prime factors)."""
    from .foata import _fcyc_counts

    return IntPolynomial(_fcyc_counts(a))


def stirling_first_kind_row(n):
    """Unsigned Stirling numbers c(n, 0..n) by the standard recurrence."""
    row = [1]
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        for k in range(m):
            nxt[k] += (m - 1) * row[k]
            nxt[k + 1] += row[k]
        row = nxt
    return row


def _cycle_count_census(n):
    """Row c(n, 0..n) counted directly over all n! permutations."""
    from itertools import permutations

    row = [0] * (n + 1)
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for s in range(n):
            if seen[s]:
                continue
            cycles += 1
            x = s
            while not seen[x]:
                seen[x] = True
                x = perm[x]
        row[cycles] += 1
    return row


def stirling_row_check(n) -> bool:
    """`stirling_row_matches` on the lrmax DP's antichain polynomial."""
    from .posets import antichain
    from .whitney import poincare_via_lrmax

    return stirling_row_matches(poincare_via_lrmax(antichain(n)), n)


def stirling_row_matches(got: IntPolynomial, n) -> bool:
    """True when `got` equals prod (1 + kt) and its reversed coefficients
    match the cycle-count row (census up to n = 7, the two-term recurrence
    beyond)."""
    prod = IntPolynomial.one()
    for k in range(1, n):
        prod = prod * IntPolynomial([1, k])
    row = _cycle_count_census(n) if n <= 7 else stirling_first_kind_row(n)
    want = [0] * (n + 1)
    for k in range(n + 1):
        want[n - k] = row[k]
    return got == prod and got == IntPolynomial(want)
