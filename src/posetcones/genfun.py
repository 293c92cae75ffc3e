"""Multivariate generating function for disjoint-chain cone polynomials.

The paper's master identity g = (1 - sum_j beta_j e_j)^{-1}, with e_j the
elementary symmetric polynomials in x_1..x_ell, reads coefficient-wise as

    g_0 = 1,    g_a = sum over nonempty S in supp a of beta_|S| g_(a - 1_S).

With beta_j = falling_bracket(j), g_a is the cone polynomial of disjoint
chains with multiplicities a; with beta_j = -mmt_bracket(j), the factor
count distribution of the words with support a.  g is symmetric, so it is
memoized on the sorted positive parts of a: for each distinct part of
multiplicity m the step decrements k of them, a choice taken C(m, k) ways,
and the choices with sum k = j take beta_j.  `TruncatedSeries` holds the
coefficients up to a total degree cap.

Series arithmetic only: the checks that run routes against the series
live in `whitney`, and `fcyc_distribution` in `foata`.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import DegreeExceeded
from .polynomials import IntPolynomial

# Cap on ell times the number of exponent tuples, C(ell + cap, cap): the
# entries `_compositions_upto` would hold.  Five times Tier-1's largest
# case (ell 2000, cap 1: 4 002 000 entries, about 44 MB).
MAX_EXPONENT_ENTRIES = 2 * 10**7


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


def _symmetric_series(ell, cap, beta) -> TruncatedSeries:
    """(1 - sum_j beta(j) e_j)^{-1} by the recursion of the module docstring.
    Compositions come in lex order and each a - 1_S precedes a, so every
    key a step reads is already in the memo."""
    if ell < 0 or cap < 0:
        raise DegreeExceeded(f"ell and cap must be nonnegative, got ell={ell}, cap={cap}")
    _check_entries(ell, cap)
    betas = [beta(j).coeffs for j in range(min(ell, cap) + 1)]
    memo = {(): IntPolynomial.one()}
    terms = {}
    for a in _compositions_upto(ell, cap):
        key = tuple(sorted(x for x in a if x))
        if key not in memo:
            memo[key] = IntPolynomial(_coefficient(key, memo, betas))
        terms[a] = memo[key]
    return TruncatedSeries(ell, cap, terms)


def _check_entries(ell, cap):
    """Raise before allocating when ell * C(ell + cap, cap) passes the bound.
    The binomial is built as C(big + m, m) with m = min(ell, cap) and
    big = max(ell, cap), one factor (big + k) / k >= 2 at a time, so the
    loop stops within about 25 steps on any input."""
    big = max(ell, cap)
    count = 1
    for k in range(1, min(ell, cap) + 1):
        count = count * (big + k) // k
        if count * ell > MAX_EXPONENT_ENTRIES:
            break
    if count * ell > MAX_EXPONENT_ENTRIES:
        raise DegreeExceeded(
            f"ell={ell}, cap={cap} needs more than {MAX_EXPONENT_ENTRIES} "
            f"exponent entries")


def _coefficient(parts, memo, betas):
    """g at the sorted positive parts, as a coefficient list; its degree
    is at most the total of the parts."""
    groups = [(v, parts.count(v)) for v in sorted(set(parts))]
    out = [0] * (sum(parts) + 1)
    for ks in product(*(range(m + 1) for _, m in groups)):
        j = sum(ks)
        if not j:
            continue
        weight = 1
        child = []
        for (v, m), k in zip(groups, ks):
            weight *= comb(m, k)
            if v > 1:
                child += [v - 1] * k
            child += [v] * (m - k)
        for d, c in enumerate(memo[tuple(child)].coeffs):
            c *= weight
            for i, b in enumerate(betas[j], d):
                out[i] += b * c
    return out


def chains_gf_rhs(ell, cap) -> TruncatedSeries:
    """(1 - sum_j falling_bracket(j) e_j)^{-1}; the x^a coefficient is the
    cone polynomial of disjoint chains with multiplicities a."""
    return _symmetric_series(ell, cap, falling_bracket)


def tmmt_rhs(ell, cap) -> TruncatedSeries:
    """(1 + sum_j mmt_bracket(j) e_j)^{-1}; the x^a coefficient is the factor
    count distribution sum_sigma t^fcyc over words with support a."""
    return _symmetric_series(ell, cap, lambda j: -mmt_bracket(j))


def _compositions_upto(ell, cap):
    """All exponent tuples with nonnegative parts and total at most cap, in
    lex order: the first part runs 0..cap, the rest share what is left.

    Built without recursion, so ell may be in the thousands.  The successor
    of a raises its last part while the total is below cap; at the cap it
    clears the last nonzero part and raises the part before it.
    """
    a = [0] * ell
    out = [tuple(a)]
    if not (ell and cap):
        return out
    total = 0
    while True:
        if total < cap:
            a[-1] += 1
            total += 1
        else:
            j = ell - 1
            while not a[j]:
                j -= 1
            if not j:
                return out
            total -= a[j] - 1
            a[j] = 0
            a[j - 1] += 1
        out.append(tuple(a))
