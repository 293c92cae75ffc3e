"""Dense univariate polynomials in t over arbitrary-precision signed integers.

Coefficient lists are index = power of t, trailing zeros trimmed, so equality
is structural.  The exact real-root counter (a Sturm chain of integer
pseudo-remainders) and the unsigned Stirling row of the first kind, the
coefficients of t(t+1)...(t+n-1), live here too since they are pure
polynomial arithmetic.
"""

from __future__ import annotations

from math import factorial, gcd

from .errors import DegreeExceeded, ParseError, ZeroPolynomial


class IntPolynomial:
    """Immutable polynomial in t with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def reversed_to_degree(self, d: int) -> "IntPolynomial":
        """t**d * p(1/t), as a polynomial; requires deg p <= d."""
        if self.degree > d:
            raise DegreeExceeded("degree exceeds reversal bound")
        padded = list(self.coeffs) + [0] * (d + 1 - len(self.coeffs))
        return IntPolynomial(padded[::-1])

    def padded(self, length: int):
        """Coefficient list extended with zeros to the given length."""
        return list(self.coeffs) + [0] * (length - len(self.coeffs))

    def machine_str(self) -> str:
        """Space-separated coefficients, degree ascending; '0' for zero."""
        if not self.coeffs:
            return "0"
        return " ".join(str(c) for c in self.coeffs)

    def human_str(self) -> str:
        """E.g. '1 + 9*t + 19*t^2'; minus signs folded into the joiner."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({self.human_str()})"


def parse_int_list(text: str, what: str) -> list:
    """Integers separated by spaces or commas, the one grammar for integers
    in caller text: a token is an optional sign and ASCII digits (no `_`,
    no other digits), and an empty field between commas or at either end
    is an error.  `what` names the list in the message."""
    if "," in text and not all(f.strip() for f in text.split(",")):
        raise ParseError(f"empty field in {what} {text!r}")
    toks = text.replace(",", " ").split()
    for tok in toks:
        digits = tok[1:] if tok[0] in "+-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"bad {what} {text!r}")
    try:
        return [int(tok) for tok in toks]
    except ValueError:  # past the interpreter's digit limit
        raise ParseError(f"{what} has too many digits") from None


def poly_from_machine(text: str) -> IntPolynomial:
    """Inverse of machine_str (`parse_int_list`); no coefficient at all is
    an error too (machine_str writes zero as '0')."""
    coeffs = parse_int_list(text, "coefficient list")
    if not coeffs:
        raise ParseError(f"no coefficient in {text!r}")
    return IntPolynomial(coeffs)


def slot_width(n: int) -> int:
    """Bits per slot of a packed vector whose nonnegative coefficients sum
    to at most n!: each slot stays below 2^w, so none carries."""
    return factorial(n).bit_length()


def unpack_slots(x: int, w: int) -> list:
    """Coefficients of a nonnegative int that holds coefficient d in bits
    [d*w, (d+1)*w), lowest first, without trailing zeros.  The transverse
    DP of `partitions` and the extension sweep of `posets` keep their
    values packed this way.  A negative x, which only a faulty signed sum
    can give, unpacks to [] instead of shifting forever."""
    mask = (1 << w) - 1
    out = []
    while x > 0:
        out.append(x & mask)
        x >>= w
    return out


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


# ---------------------------------------------------------------------------
# Exact real-root counting (Sturm) on plain ints.  Each chain member is a
# pseudo-remainder scaled by a positive power and divided by its positive
# content, so its signs match the Sturm chain over Q.

def _sturm_next(a, b):
    """-(|lead b|^k * a mod b) divided by its content; [] when b divides a."""
    db, m = len(b) - 1, abs(b[-1])
    sb = 1 if b[-1] > 0 else -1
    while len(a) > db:
        q, shift = a[-1] * sb, len(a) - 1 - db
        a = [c * m for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    g = gcd(*a)
    return [-c // g for c in a]


def count_real_roots(p: IntPolynomial) -> int:
    """Number of distinct real roots of p, over all of R.

    Sturm chain p, p', ... down to gcd(p, p'); sign variations at -inf minus
    +inf.  Dividing every member by that gcd changes no variation at +-inf,
    so a repeated root counts once.
    """
    if not p:
        raise ZeroPolynomial("cannot count roots of the zero polynomial")
    a = list(p.coeffs)
    b = [k * c for k, c in enumerate(a)][1:]
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, _sturm_next(a, b)
    signs_pos = [1 if q[-1] > 0 else -1 for q in chain]
    signs_neg = [s if len(q) % 2 else -s for q, s in zip(chain, signs_pos)]
    var = lambda ss: sum(1 for x, y in zip(ss, ss[1:]) if x != y)
    return var(signs_neg) - var(signs_pos)
