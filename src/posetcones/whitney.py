"""Whitney numbers of the poset cone: four independent evaluation routes.

Poin(P,t) = sum over chambers t^(codim of shared face), coefficients are the
unsigned Whitney numbers.  Routes:

  transverse  weighted count of transverse partitions (signed up-set DP)
  lrmax       cycle statistic counted over linear extensions
  foata       multiset-word factorization count (disjoint chains only)
  width2      descent statistic over a 2-chain decomposition

`poincare(P)` (method `auto`) means: peel, then the transverse route on the
residue.  An element x peels when every remaining y incomparable to x has
down(x) within down(y) and up(x) within up(y), both taken in what remains;
with k such y, Poin(P) = (1 + k t) Poin(P - x) (Terao's fibre-type
factorization, Adv. Math. 1986): over a point of the cone of P - x, the
coordinate x ranges over an interval holding exactly the k incomparable
coordinates.  Induced subposets inherit peelability, so the greedy order
does not matter.  The peel is a reduction inside `auto`, not a fifth route:
a named method runs its route on the whole poset.

The lrmax, width2 and Eulerian statistics are counted by one automaton over
linear extensions, the level sweep `posets._extension_dp`: each route
supplies its own step function, so the count needs states, not words.  Like
the transverse DP, the sweep keeps each count vector as one packed int.

The lrmax state keeps only what a later step can read.  Later steps read
the current and previous level only as `down[v] & level`, and the running
maximum only as `v > runm`, each for an unplaced v.  The first is nonzero
iff v lies in the union of the level's up rows, so each level becomes that
union, and runm becomes the unplaced elements with a larger label.  The
last two are read only together, and every step ANDs both with masks that
clear v except a level opening, which resets both, so the state keeps
their AND.  No mask keeps a placed element.

Keeping the routes separate is the point: cross-checking them is the main
correctness instrument, so none of them may delegate to another.  The
checks against outside references sit at the end: `verify_chains_gf`
compares the chain generating function of `genfun` with the transverse
route, and `stirling_row_check` the lrmax route's antichain polynomial
with a census of permutations by cycle count.
"""

from __future__ import annotations

from itertools import permutations

from .errors import NotNaturallyLabeled, ParseError
from .foata import _fcyc_counts
from .genfun import _compositions_upto, chains_gf_rhs
from .partitions import transverse_poly_coeffs
from .polynomials import IntPolynomial, stirling_first_kind_row
from .posets import (
    SIZE_GUARD,
    Poset,
    _bits,
    _extension_dp,
    _induced,
    antichain,
    chain_cover_width2,
    disjoint_chain_lengths,
    is_linear_extension,
    union_of_chains,
)


def poincare_via_transverse(P: Poset) -> IntPolynomial:
    return IntPolynomial(transverse_poly_coeffs(P))


# -- extension automaton routes -----------------------------------------------

def poincare_via_lrmax(P: Poset) -> IntPolynomial:
    """Sum of t^(n - #LR maxima) over all linear extensions.

    State (over_cur, live) of unplaced-element masks: over_cur is the union
    of the current level's up rows, and `live` the elements in the previous
    level's union (every element on level one) with a label larger than
    the running maximum.  An element in over_cur opens the next level as
    its LR maximum; any other is an LR maximum iff it lies in `live`.
    Every placed element that is not an LR maximum scores t.  Other steps
    AND both parts of `live` with masks clearing v; an opening sets `live`
    to over_cur above v, since over_cur holds no placed element.
    """
    up = P._up

    def step(_placed, state, v):
        over_cur, live = state
        b = 1 << v
        if over_cur & b:
            return (up[v], over_cur & -(b << 1)), 0
        if live & b:
            return (over_cur | up[v], live & -(b << 1)), 0
        return (over_cur | up[v], live & ~b), 1

    return _extension_dp(P.n, P._down, (0, (1 << P.n) - 1), step)


def poincare_via_foata(a) -> IntPolynomial:
    """Disjoint chains with multiplicities a: sum of t^(n - #prime factors)
    over all multiset words."""
    return IntPolynomial(_fcyc_counts(a)[::-1])


def poincare_via_width2(P: Poset, d=None) -> IntPolynomial:
    """Sum of t^(chain-crossing descents) over linear extensions; needs a
    2-chain decomposition.  A descent is a chain-2 element followed by an
    incomparable chain-1 element; the state is the last element placed."""
    if d is None:
        d = chain_cover_width2(P)
    n = P.n
    on2 = [d.side(v + 1) == 2 for v in range(n)]
    comp = [P._up[v] | P._down[v] for v in range(n)]

    def step(_placed, last, v):
        crossing = last >= 0 and on2[last] and not on2[v] and not comp[last] >> v & 1
        return v, int(crossing)

    return _extension_dp(n, P._down, -1, step)


# -- dispatch -----------------------------------------------------------------

def auto_method(P: Poset) -> str:
    """The route `poincare(P)` runs after its peel: always the transverse
    DP, on the residue (module docstring).  The lrmax DP runs only by name,
    on the whole poset."""
    return "transverse"


def _fibre_peel(P: Poset):
    """(k of each peeled element, label mask of the residue), peeling until
    no remaining element satisfies the condition of the module docstring."""
    up, down = P._up, P._down
    left = (1 << P.n) - 1
    ks = []
    peeled = True
    while peeled:
        peeled = False
        for x in _bits(left):
            below = down[x] & left
            above = up[x] & left
            others = left & ~(below | above | 1 << x)
            if all(not (below & ~down[y] or above & ~up[y]) for y in _bits(others)):
                ks.append(others.bit_count())
                left ^= 1 << x
                peeled = True
    return ks, left


def poincare(P: Poset, method: str = "auto") -> IntPolynomial:
    """`auto` peels, then runs the transverse DP on the residue; a named
    method runs its route on the whole poset."""
    if method == "auto":
        ks, residue = _fibre_peel(P)
        poly = poincare_via_transverse(_induced(P, residue))
        for k in ks:
            poly = poly * IntPolynomial([1, k])
        return poly
    if method == "transverse":
        return poincare_via_transverse(P)
    if method == "lrmax":
        return poincare_via_lrmax(P)
    if method == "width2":
        return poincare_via_width2(P)
    if method == "foata":
        return poincare_via_foata(disjoint_chain_lengths(P))
    raise ParseError(f"unknown method {method!r}")


def whitney_numbers(P: Poset, method: str = "auto"):
    """Coefficient list c_0..c_n (length n+1, zero padded)."""
    return poincare(P, method=method).padded(P.n + 1)


def p_eulerian(P: Poset) -> IntPolynomial:
    """Descent generating polynomial; requires the identity word to be an
    extension (natural labeling).  The state is the last label placed."""
    n = P.n
    ident = tuple(range(1, n + 1))
    if not is_linear_extension(P, ident):
        raise NotNaturallyLabeled("identity word is not a linear extension")
    return _extension_dp(n, P._down, -1, lambda _placed, last, v: (v, int(last > v)))


# -- checks against the series and the Stirling row ---------------------------

def verify_chains_gf(ell, cap):
    """Compare every coefficient of the inverted series against the transverse
    route on the matching disjoint-chain poset; zero parts just drop chains.

    Returns (a, coefficient, matches) triples in lex order of a.  A cap
    past `posets.SIZE_GUARD` is refused as `parse_poset` refuses n, after
    the series' own bound.
    """
    rhs = chains_gf_rhs(ell, cap)
    if cap > SIZE_GUARD:
        raise ParseError(f"cap={cap} exceeds the size guard {SIZE_GUARD}")
    report = []
    for a in _compositions_upto(ell, cap):
        got = rhs.coefficient(a)
        want = poincare_via_transverse(union_of_chains([x for x in a if x]))
        report.append((a, got, got == want))
    return report


def _cycle_count_census(n):
    """Row c(n, 0..n) counted directly over all n! permutations."""
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
