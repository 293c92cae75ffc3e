"""Whitney numbers of the poset cone: four independent evaluation routes.

Poin(P,t) = sum over chambers t^(codim of shared face), coefficients are the
unsigned Whitney numbers.  Routes:

  transverse  weighted count of transverse partitions (level DP on masks)
  lrmax       cycle statistic swept over linear extensions
  foata       multiset-word factorization count (disjoint chains only)
  width2      descent statistic over a 2-chain decomposition

Keeping the routes separate is the point: cross-checking them is the main
correctness instrument, so none of them may delegate to another.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .errors import NotDisjointChains, NotNaturallyLabeled
from .polynomials import IntPolynomial, count_real_roots  # noqa: F401
from .posets import (
    Poset,
    _matching_chain_cover,
    chain_cover_width2,
    linear_extensions,
    poset_from_relations,
)
from .partitions import transverse_poly_coeffs


def poincare_via_transverse(P: Poset) -> IntPolynomial:
    return IntPolynomial(transverse_poly_coeffs(P))


# -- linear-extension sweep ---------------------------------------------------

def _lrmax_counts(n, down, state):
    """counts[c] = number of extensions below `state` finishing with c
    poset-left-to-right maxima; state = (placed, cur, prev, first, runm, depth).
    Levels break when a new element dominates the current level; an element is
    essential on level one always, deeper iff it dominates the previous level."""
    counts = [0] * (n + 1)

    def rec(placed, cur, prev, first, runm, lr, depth):
        if depth == n:
            counts[lr] += 1
            return
        for v in range(n):
            b = 1 << v
            if placed & b or down[v] & ~placed:
                continue
            if down[v] & cur:
                rec(placed | b, b, cur, False, v, lr + 1, depth + 1)
            elif (first or down[v] & prev) and v > runm:
                rec(placed | b, cur | b, prev, first, v, lr + 1, depth + 1)
            else:
                rec(placed | b, cur | b, prev, first, runm, lr, depth + 1)

    placed, cur, prev, first, runm, lr, depth = state
    rec(placed, cur, prev, first, runm, lr, depth)
    return counts


def _replay(down, word):
    """Run the level/LR automaton over a 1-based prefix word."""
    placed, cur, prev, first, runm, lr, depth = 0, 0, 0, True, -1, 0, 0
    for x in word:
        v = x - 1
        b = 1 << v
        if down[v] & cur:
            placed, cur, prev, first = placed | b, b, cur, False
            runm, lr = v, lr + 1
        elif (first or down[v] & prev) and v > runm:
            placed, cur, runm, lr = placed | b, cur | b, v, lr + 1
        else:
            placed, cur = placed | b, cur | b
        depth += 1
    return placed, cur, prev, first, runm, lr, depth


def _valid_prefixes(P, length):
    out = [()]
    for _ in range(length):
        nxt = []
        for pre in out:
            placed = 0
            for x in pre:
                placed |= 1 << (x - 1)
            for v in range(P.n):
                b = 1 << v
                if placed & b or P._down[v] & ~placed:
                    continue
                nxt.append(pre + (v + 1,))
        out = nxt
    return out


def _lrmax_task(arg):
    n, rels, prefix = arg
    P = poset_from_relations(n, rels, max_n=None)
    return _lrmax_counts(n, P._down, _replay(P._down, prefix))


def poincare_via_lrmax(P: Poset, workers: int = 1) -> IntPolynomial:
    """Sum of t^(n - #LR maxima) over all linear extensions."""
    n = P.n
    if n == 0:
        return IntPolynomial([1])
    if workers <= 1 or n < 4:
        counts = _lrmax_counts(n, P._down, (0, 0, 0, True, -1, 0, 0))
    else:
        prefixes = _valid_prefixes(P, 2)
        rels = P.relations()
        counts = [0] * (n + 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(
                _lrmax_task, [(n, rels, pre) for pre in prefixes], chunksize=8
            ):
                for k, c in enumerate(part):
                    counts[k] += c
    coeffs = [0] * (n + 1)
    for lr, c in enumerate(counts):
        if c:
            coeffs[n - lr] = c
    return IntPolynomial(coeffs)


def poincare_via_foata(a) -> IntPolynomial:
    """Disjoint chains with multiplicities a: sum of t^(n - #prime factors)
    over all multiset words."""
    from .foata import enumerate_multiset_perms, fcyc

    n = sum(a)
    coeffs = [0] * (n + 1)
    for sigma in enumerate_multiset_perms(a):
        coeffs[n - fcyc(sigma)] += 1
    return IntPolynomial(coeffs)


def poincare_via_width2(P: Poset, d=None) -> IntPolynomial:
    """Sum of t^(chain-crossing descents) over linear extensions; needs a
    2-chain decomposition."""
    if d is None:
        d = chain_cover_width2(P)
    n = P.n
    coeffs = [0] * (n + 1)
    for word in linear_extensions(P):
        k = 0
        for i in range(n - 1):
            x, y = word[i], word[i + 1]
            if d.side(x) == 2 and d.side(y) == 1 and not P.comparable(x, y):
                k += 1
        coeffs[k] += 1
    return IntPolynomial(coeffs)


# -- dispatch -----------------------------------------------------------------

def _dp_cost_bound(P: Poset) -> int:
    bound = 1
    for c in _matching_chain_cover(P):
        bound *= len(c) + 1
        if bound > 10 ** 9:
            return bound
    return bound


def auto_method(P: Poset) -> str:
    """Transverse DP when the up-set bound stays small, else the sweep."""
    chains = _matching_chain_cover(P)
    if len(chains) <= 16 and _dp_cost_bound(P) <= 200_000:
        return "transverse"
    return "lrmax"


def poincare(P: Poset, method: str = "auto", workers: int = 1) -> IntPolynomial:
    if method == "auto":
        method = auto_method(P)
    if method == "transverse":
        return poincare_via_transverse(P)
    if method == "lrmax":
        return poincare_via_lrmax(P, workers=workers)
    if method == "width2":
        return poincare_via_width2(P)
    if method == "foata":
        from .posets import disjoint_chain_lengths

        return poincare_via_foata(disjoint_chain_lengths(P))
    raise ValueError(f"unknown method {method!r}")


def whitney_numbers(P: Poset, method: str = "auto"):
    """Coefficient list c_0..c_n (length n+1, zero padded)."""
    return poincare(P, method=method).padded(P.n + 1)


def p_eulerian(P: Poset) -> IntPolynomial:
    """Descent generating polynomial; requires the identity word to be an
    extension (natural labeling)."""
    n = P.n
    ident = tuple(range(1, n + 1))
    from .posets import is_linear_extension

    if not is_linear_extension(P, ident):
        raise NotNaturallyLabeled("identity word is not a linear extension")
    coeffs = [0] * (n + 1)
    for word in linear_extensions(P):
        k = sum(1 for i in range(n - 1) if word[i] > word[i + 1])
        coeffs[k] += 1
    return IntPolynomial(coeffs)

