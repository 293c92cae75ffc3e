"""Dense univariate polynomials in t over arbitrary-precision signed integers.

Coefficient lists are index = power of t, trailing zeros trimmed, so equality
is structural.  The exact real-root counter (Sturm chains over Fraction) lives
here too since it is pure polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, ZeroPolynomial


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

    @classmethod
    def term(cls, coeff: int, power: int) -> "IntPolynomial":
        """coeff * t**power"""
        return cls((0,) * power + (coeff,))

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
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
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

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by t**k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def reversed_to_degree(self, d: int) -> "IntPolynomial":
        """t**d * p(1/t), as a polynomial; requires deg p <= d."""
        if self.degree > d:
            raise ValueError("degree exceeds reversal bound")
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


def poly_from_machine(text: str) -> IntPolynomial:
    """Inverse of machine_str; commas tolerated as separators."""
    try:
        return IntPolynomial([int(tok) for tok in text.replace(",", " ").split()])
    except ValueError:
        raise ParseError(f"bad coefficient list {text!r}") from None


# ---------------------------------------------------------------------------
# Exact real-root counting (Sturm).  All arithmetic over Fraction; the chain
# is built on the square-free part so roots are counted without multiplicity.

def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _deriv(cs):
    return _trim([Fraction(k) * cs[k] for k in range(1, len(cs))])


def _divmod(a, b):
    """Quotient and remainder of a by b, both nonzero Fraction coefficient
    lists."""
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


def _gcd(a, b):
    a, b = list(a), list(b)
    while _trim(b):
        a, b = b, _divmod(a, b)[1]
    return a


def _normalized(cs):
    """Scale by 1/|lead| to keep Fractions small; positive scaling only, the
    Sturm sign pattern must survive."""
    lc = abs(cs[-1])
    return [c / lc for c in cs]


def count_real_roots(p: IntPolynomial) -> int:
    """Number of distinct real roots of p, over all of R.

    Sturm chain on p/gcd(p, p'); sign variations at -inf minus +inf.
    """
    if not p:
        raise ZeroPolynomial("cannot count roots of the zero polynomial")
    cs = [Fraction(c) for c in p.coeffs]
    if len(cs) == 1:
        return 0
    g = _gcd(cs, _deriv(cs))
    if len(g) > 1:
        cs = _normalized(_divmod(cs, g)[0])
    chain = [cs, _deriv(cs)]
    while _trim(list(chain[-1])) and len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_normalized([-c for c in r]))
    signs_pos = []
    signs_neg = []
    for q in chain:
        if not q:
            continue
        lc = q[-1]
        s = 1 if lc > 0 else -1
        signs_pos.append(s)
        signs_neg.append(s if (len(q) - 1) % 2 == 0 else -s)
    var = lambda ss: sum(1 for x, y in zip(ss, ss[1:]) if x != y)
    return var(signs_neg) - var(signs_pos)
