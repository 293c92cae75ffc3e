"""Shared generators for the test suite."""

import random
from functools import lru_cache
from itertools import product
from math import factorial

from posetcones import grid, poset_from_relations, random_poset


def is_transitive(rel):
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                return False
    return True


def all_labeled_posets(n):
    """Every strict partial order on labels 1..n, one Poset per relation set.

    Each unordered pair is oriented one of three ways (none, up, down); the
    transitivity filter keeps exactly the partial orders.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for choice in product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for c, (i, j) in zip(choice, pairs):
            if c == 1:
                rel.add((i, j))
            elif c == 2:
                rel.add((j, i))
        if is_transitive(rel):
            out.append(poset_from_relations(n, sorted(rel)))
    return out


def transitive_closure_pairs(n, pairs):
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for a, b in pairs:
        reach[a][b] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(1, n + 1):
                    if row_k[j]:
                        row_i[j] = True
    return {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if reach[i][j]}


@lru_cache(maxsize=None)
def packed_kernel_corpus():
    """Posets on which the packed-int DPs are compared with list oracles:
    every labeled poset with n <= 5, 200 seeded random posets with n <= 9,
    and the grids 3x8, 4x7 and 5x6."""
    out = [P for n in range(6) for P in all_labeled_posets(n)]
    rng = random.Random(8)
    for _ in range(200):
        out.append(random_poset(rng.randint(0, 9), rng.choice([0.2, 0.35, 0.5, 0.7]), rng))
    out += [grid(3, 8), grid(4, 7), grid(5, 6)]
    return tuple(out)


def multinomial(a):
    """Linear extensions of the disjoint union of chains of lengths a."""
    out = factorial(sum(a))
    for k in a:
        out //= factorial(k)
    return out
