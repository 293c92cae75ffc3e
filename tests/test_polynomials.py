import random
from fractions import Fraction
from math import comb

import pytest

from posetcones import (
    DegreeExceeded,
    IntPolynomial,
    ParseError,
    ZeroPolynomial,
    count_real_roots,
    grid,
    poincare,
)
from posetcones.polynomials import poly_from_machine, unpack_slots


def test_trimming_and_degree():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()
    assert IntPolynomial([]).degree == -1
    assert IntPolynomial([5]).degree == 0
    assert IntPolynomial([0, 0, 3]).degree == 2


def test_arithmetic():
    p = IntPolynomial([1, 1])
    q = IntPolynomial([-1, 1])
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).coeffs == ()
    assert (p * IntPolynomial.zero()).coeffs == ()
    assert (-p).coeffs == (-1, -1)


@pytest.mark.parametrize("op", [
    lambda p: p + 1, lambda p: 1 + p, lambda p: p - 1,
    lambda p: 1 - p, lambda p: 2 * p, lambda p: p * 2,
], ids=["p+1", "1+p", "p-1", "1-p", "2*p", "p*2"])
def test_arithmetic_takes_polynomial_operands_only(op):
    with pytest.raises(TypeError):
        op(IntPolynomial([1, 1]))


def test_equality_still_reads_an_int_as_a_constant():
    assert IntPolynomial([1]) == 1
    assert IntPolynomial.zero() == 0
    assert IntPolynomial([1, 1]) != 1


def test_evaluation_is_exact_on_big_integers():
    p = IntPolynomial([10**30, 0, 1])
    assert p(10**15) == 2 * 10**30
    assert p(1) == 10**30 + 1
    assert IntPolynomial.zero()(7) == 0


def test_shift_reverse_pad():
    p = IntPolynomial([1, 2, 3])
    assert p.reversed_to_degree(2).coeffs == (3, 2, 1)
    assert p.reversed_to_degree(4).coeffs == (0, 0, 3, 2, 1)
    assert p.padded(5) == [1, 2, 3, 0, 0]
    assert p.coefficient(1) == 2
    assert p.coefficient(9) == 0
    with pytest.raises(DegreeExceeded):
        p.reversed_to_degree(1)


def test_text_forms():
    p = IntPolynomial([1, 9, 19, 11, 2])
    assert p.machine_str() == "1 9 19 11 2"
    assert p.human_str() == "1 + 9*t + 19*t^2 + 11*t^3 + 2*t^4"
    assert IntPolynomial([1, -1]).human_str() == "1 - t"
    assert IntPolynomial([1, 0, -2]).human_str() == "1 - 2*t^2"
    assert IntPolynomial([0, 0, 1]).human_str() == "t^2"
    assert IntPolynomial.zero().human_str() == "0"
    assert poly_from_machine("1 9 19 11 2") == p
    assert poly_from_machine("1,9,19,11,2") == p
    with pytest.raises(ParseError):
        poly_from_machine("1 x 2")


@pytest.mark.parametrize("text", ["1,,2", ",1,2", "1,2,", "1, ,2", ",", "1 2,", "", " ", "\t\n"])
def test_empty_coefficient_field_is_a_parse_error(text):
    with pytest.raises(ParseError):
        poly_from_machine(text)


def test_unpack_slots():
    assert unpack_slots(0, 5) == []
    assert unpack_slots(1, 5) == [1]
    assert unpack_slots(3 | 31 << 10 | 1 << 15, 5) == [3, 0, 31, 1]


def test_commas_with_spaces_still_parse():
    p = IntPolynomial([1, 2, 3])
    assert poly_from_machine("1, 2, 3") == p
    assert poly_from_machine(" 1 ,2 , 3 ") == p
    assert poly_from_machine("1  2\t3") == p


def test_machine_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 9))]
        p = IntPolynomial(coeffs)
        assert poly_from_machine(p.machine_str()) == p


def test_real_roots_cited_quartics():
    assert count_real_roots(IntPolynomial([1, 12, 43, 30, 4])) == 2
    assert count_real_roots(IntPolynomial([1, 9, 19, 11, 2])) == 2


def test_real_roots_linear_factor_products():
    # prod_{k=1}^{n-1} (1 + k t) has n-1 distinct real roots
    for n in range(1, 9):
        p = IntPolynomial.one()
        for k in range(1, n):
            p = p * IntPolynomial([1, k])
        assert count_real_roots(p) == n - 1


def test_real_roots_counts_without_multiplicity():
    sq = IntPolynomial([1, 1]) * IntPolynomial([1, 1])
    assert count_real_roots(sq) == 1
    cube = sq * IntPolynomial([1, 1]) * IntPolynomial([-3, 1])
    assert count_real_roots(cube) == 2
    assert count_real_roots(IntPolynomial([4])) == 0
    assert count_real_roots(IntPolynomial([0, 1])) == 1
    with pytest.raises(ZeroPolynomial):
        count_real_roots(IntPolynomial.zero())


def test_real_roots_random_factor_structure():
    """Assemble polynomials from known linear and irreducible quadratic
    factors, then count."""
    rng = random.Random(20240817)
    for _ in range(150):
        roots = set()
        p = IntPolynomial([rng.randint(1, 4)])
        for _ in range(rng.randint(0, 4)):
            r = rng.randint(-6, 6)
            mult = rng.randint(1, 2)
            roots.add(r)
            for _ in range(mult):
                p = p * IntPolynomial([-r, 1])
        for _ in range(rng.randint(0, 2)):
            # t^2 + bt + c with b^2 < 4c keeps the roots complex
            b = rng.randint(-3, 3)
            c = (b * b) // 4 + rng.randint(1, 5)
            p = p * IntPolynomial([c, b, 1])
        assert count_real_roots(p) == len(roots)


# The Sturm count over Fraction that the integer chain replaced: Euclid over Q
# on the square-free part p / gcd(p, p'), every member scaled by 1/|lead|.

def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fraction_deriv(cs):
    return _trim([Fraction(k) * cs[k] for k in range(1, len(cs))])


def _fraction_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _trim(a):
        da = len(a) - 1
        q = a[-1] / lb
        out[da - db] = q
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        a.pop()
        _trim(a)
    return out, a


def _fraction_gcd(a, b):
    a, b = list(a), list(b)
    while _trim(b):
        a, b = b, _fraction_divmod(a, b)[1]
    return a


def _fraction_normalized(cs):
    lc = abs(cs[-1])
    return [c / lc for c in cs]


def fraction_sturm_count(p):
    cs = [Fraction(c) for c in p.coeffs]
    if len(cs) == 1:
        return 0
    g = _fraction_gcd(cs, _fraction_deriv(cs))
    if len(g) > 1:
        cs = _fraction_normalized(_fraction_divmod(cs, g)[0])
    chain = [cs, _fraction_deriv(cs)]
    while _trim(list(chain[-1])) and len(chain[-1]) > 1:
        r = _fraction_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_fraction_normalized([-c for c in r]))
    signs_pos = []
    signs_neg = []
    for q in chain:
        if not q:
            continue
        s = 1 if q[-1] > 0 else -1
        signs_pos.append(s)
        signs_neg.append(s if (len(q) - 1) % 2 == 0 else -s)
    var = lambda ss: sum(1 for x, y in zip(ss, ss[1:]) if x != y)
    return var(signs_neg) - var(signs_pos)


def test_real_roots_match_fraction_oracle_on_random_products():
    """Products of repeated linear factors, some irreducible quadratics, signs
    of every lead mixed: a chain that scaled by a signed lead would flip a
    sign somewhere in here."""
    rng = random.Random(1967)
    units = [-3, -2, -1, 1, 2, 3]
    negative_leads = 0
    for _ in range(2000):
        p = IntPolynomial([rng.choice(units)])
        for _ in range(rng.randint(1, 4)):
            factor = IntPolynomial([rng.randint(-5, 5), rng.choice(units)])
            for _ in range(rng.randint(1, 3)):
                p = p * factor
        if rng.random() < 0.3:
            b = rng.randint(-3, 3)
            p = p * IntPolynomial([(b * b) // 4 + rng.randint(1, 5), b, 1])
        negative_leads += p.coeffs[-1] < 0
        assert count_real_roots(p) == fraction_sturm_count(p), p
    assert negative_leads >= 500


def test_real_roots_match_fraction_oracle_on_grid_rows():
    for rows, cols in [(3, c) for c in range(2, 9)] + [(4, 6), (5, 6)]:
        p = poincare(grid(rows, cols))
        assert count_real_roots(p) == fraction_sturm_count(p), (rows, cols)


def test_real_roots_match_fraction_oracle_on_narayana_rows():
    for k in range(1, 11):
        p = IntPolynomial([comb(k, j) * comb(k, j - 1) // k for j in range(1, k + 1)])
        assert count_real_roots(p) == fraction_sturm_count(p) == k - 1


def test_real_roots_on_stirling_rows():
    """prod_{k<n} (1 + k t) has the n - 1 roots -1/k.  The Fraction oracle
    takes seconds from n = 30 on (12 s at n = 40), so it checks n <= 22; the
    closed count checks n <= 30 and the rows 40, 50 and 60."""
    p = IntPolynomial.one()
    for n in range(1, 61):
        if n > 1:
            p = p * IntPolynomial([1, n - 1])
        if n <= 30 or n % 10 == 0:
            assert count_real_roots(p) == n - 1, n
        if n <= 22:
            assert fraction_sturm_count(p) == n - 1, n
