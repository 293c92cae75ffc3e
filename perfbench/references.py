"""Answers the benchmark knows without asking posetcones.

Closed forms and published rows, written here from their definitions, so
that a wrong route cannot also be the reference it is checked against.
"""

from __future__ import annotations

from math import comb, factorial

# Cone polynomials of the 3 x n grid, n = 2..8 (the paper's table; the n = 6
# row ends 404, 16, which the extension count 87516 forces).
GRID3_ROWS = {
    2: (1, 3, 1),
    3: (1, 9, 19, 11, 2),
    4: (1, 18, 92, 174, 133, 40, 4),
    5: (1, 30, 280, 1091, 1987, 1746, 731, 132, 8),
    6: (1, 45, 665, 4383, 14603, 25957, 25064, 12965, 3413, 404, 16),
    7: (1, 63, 1351, 13475, 71305, 213539, 373651, 385578, 232310, 79023,
        14174, 1168, 32),
    8: (1, 84, 2464, 34608, 266470, 1206826, 3343958, 5782699, 6275503,
        4240489, 1743730, 417622, 53884, 3232, 64),
}

# The paper's ten-letter factorization example and its four prime factors,
# in the order the factorization walk discovers them.
FOATA_EXAMPLE = "1,1,2,2,2,3,3,4,4,4;2,4,4,3,1,2,1,3,4,2"
FOATA_EXAMPLE_FACTORS = ("2,3,4;4,2,3", "1,2,3;2,3,1", "4;4", "1,2,4;4,1,2")
FOATA_PRIME = "1,2,3;2,3,1"

# A real-root example from the paper: Poin of three disjoint 2-chains has
# exactly two distinct real roots.
ROOTS_EXAMPLE = ((1, 12, 43, 30, 4), 2)


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def stirling_poly(n):
    """Poin of the n-antichain: prod_{k=1}^{n-1} (1 + k t), whose
    coefficients are the unsigned Stirling numbers c(n, n - d)."""
    out = (1,)
    for k in range(1, n):
        out = mul(out, (1, k))
    return out


def narayana(k):
    """Poin of the 2 x k ladder: the Narayana row N(k, 1..k)."""
    return tuple(comb(k, j - 1) * comb(k, j) // k for j in range(1, k + 1))


def two_chains(a, b):
    """Poin of two disjoint chains of lengths a, b: sum_k C(a,k) C(b,k) t^k."""
    return tuple(comb(a, k) * comb(b, k) for k in range(min(a, b) + 1))


def multinomial(a):
    """Number of linear extensions of disjoint chains with lengths a."""
    out = factorial(sum(a))
    for x in a:
        out //= factorial(x)
    return out


def compositions(total_max):
    """Every tuple of positive parts with sum <= total_max, () included."""
    out = [()]
    for a in out:
        room = total_max - sum(a)
        out.extend(a + (k,) for k in range(1, room + 1))
    return out


def weak_compositions(ell, cap):
    """Exponent tuples of length ell with sum <= cap, lexicographic."""
    if ell == 0:
        return [()]
    return [(v,) + rest for v in range(cap + 1)
            for rest in weak_compositions(ell - 1, cap - v)]


def real_root_floor(coeffs, steps=8):
    """Sign changes of the polynomial at x = -(1 + i/steps) 2^j, i < steps,
    over every octave that can hold a root.

    Each change brackets a distinct real root, so this bounds a root count
    from below. Every root of a polynomial with nonnegative coefficients is
    negative. Samples are evaluated in floating point and skipped unless
    |p(x)| exceeds Horner's rounding error bound, so every sign used is
    exact; skipping a sample can only lose changes, never invent one.
    """
    low = min(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[low:]
    d = len(coeffs) - 1
    if d < 1:
        return 0
    # every root modulus lies between 1 / rev and cauchy (Cauchy's bound)
    cauchy = 1 + -(-max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1]))
    rev = 1 + -(-max(abs(c) for c in coeffs[1:]) // abs(coeffs[0]))
    fc = [float(c) for c in reversed(coeffs)]
    slack = (4 * d + 4) * 2.0 ** -53
    changes, last = 0, 0.0
    for j in range(-rev.bit_length() - 1, cauchy.bit_length() + 1):
        for i in range(steps):
            x = -(1 + i / steps) * 2.0 ** j
            v = size = 0.0
            for c in fc:
                v = v * x + c
                size = size * -x + abs(c)
            if not abs(v) > slack * size:    # also skips inf and nan
                continue
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def closure(n, pairs):
    """Transitive closure of strict pairs on 1..n, as up-sets (bit masks)."""
    up = [0] * (n + 1)
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def width_at_most_two(n, pairs):
    """No three pairwise incomparable labels, by brute force over triples."""
    up = closure(n, pairs)

    def comparable(x, y):
        return bool(up[x] >> y & 1 or up[y] >> x & 1)

    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            if comparable(x, y):
                continue
            for z in range(y + 1, n + 1):
                if not comparable(x, z) and not comparable(y, z):
                    return False
    return True


def human(coeffs):
    """The CLI's human polynomial form, for nonnegative coefficients."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(c)
        else:
            power = "t" if k == 1 else f"t^{k}"
            body = power if c == 1 else f"{c}*{power}"
        parts.append(body)
    return " + ".join(parts) if parts else "0"


def machine(coeffs):
    return " ".join(str(c) for c in coeffs) if coeffs else "0"


def cycles_text(images):
    """Cycle form of a permutation given by its images of 1..n: each cycle
    from its smallest label, cycles by that label."""
    seen = set()
    out = []
    for s in range(1, len(images) + 1):
        if s in seen:
            continue
        orbit = [s]
        seen.add(s)
        x = images[s - 1]
        while x != s:
            orbit.append(x)
            seen.add(x)
            x = images[x - 1]
        out.append("(" + ",".join(map(str, orbit)) + ")")
    return "".join(out) or "()"
