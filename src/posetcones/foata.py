"""Multiset permutations as two-line arrays and their prime factorizations.

A multiset permutation is stored column-wise with the top row weakly
increasing (canonical form); the implicit subscripts 1..n are the canonical
column positions.  Intercalation stably merges columns by top letter.  The
factorization walk repeatedly starts at the smallest letter with columns
left, steps top -> bottom through the leftmost unused column of each letter,
and cuts out the first revisited circuit; tail arcs stay for later factors.

One list-based walker, `_circuits`, does this on raw bottom words.  The object
API ranks the letters first, `foata_phi` passes chain letters, already ranks,
and `fcyc_distribution` (which the foata route reverses) one list rearranged
in place, each against column bounds from `_column_bounds`.

Caller input is validated once and library-built objects are not:
`MultisetPermutation(...)`, `from_word`, `from_rows` and
`parse_multiset_perm` check every column, while three functions build
through `MultisetPermutation._built` or `Permutation._built`.
`multiset_encode` does so after its `is_linear_extension` check, since the
chain letters of a linear extension rearrange the sorted top row.
`prime_decompose` takes each factor's columns from a valid sigma in
canonical order, and a circuit visits each letter once.  `foata_phi` maps
each circuit's column positions onto themselves.  `foata_phi_inv` builds
no multiset permutation: after `check_transverse` it decodes the bottom
word, a rearrangement of the top row, without `_check_support`.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    IndexOutOfRange,
    NotLinearExtension,
    ParseError,
    SupportMismatch,
)
from .partitions import check_transverse
from .polynomials import IntPolynomial, parse_int_list
from .posets import count_linear_extensions, is_linear_extension, poset_from_relations, union_of_chains
from .bijections import Permutation


class MultisetPermutation:
    """Two-line array, columns sorted stably by top letter."""

    __slots__ = ("columns", "ell")

    def __init__(self, columns, ell=None):
        cols = sorted(tuple(columns), key=lambda c: c[0])
        for t, b in cols:
            if t < 1 or b < 1:
                raise ParseError("letters must be positive")
        top_counts = Counter(t for t, _ in cols)
        bot_counts = Counter(b for _, b in cols)
        if top_counts != bot_counts:
            raise SupportMismatch(
                f"rows carry different multisets: {dict(top_counts)} vs {dict(bot_counts)}"
            )
        mx = max((t for t, _ in cols), default=0)
        if ell is None:
            ell = mx
        elif ell < mx:
            raise SupportMismatch(f"letter {mx} exceeds declared alphabet 1..{ell}")
        self.columns = tuple(cols)
        self.ell = ell

    @classmethod
    def _built(cls, columns, ell):
        """Unchecked: `columns` must already be a tuple of positive columns in
        canonical order whose rows carry one multiset of letters 1..ell (see
        the module docstring).  Callers' columns go through `__init__`."""
        sigma = cls.__new__(cls)
        sigma.columns = columns
        sigma.ell = ell
        return sigma

    @classmethod
    def from_word(cls, word, support=None):
        """Bottom row against the sorted top row."""
        word = tuple(word)
        top = tuple(sorted(word))
        ell = len(support) if support is not None else None
        sigma = cls(zip(top, word), ell=ell)
        if support is not None:
            _check_support(sigma, support)
        return sigma

    @classmethod
    def from_rows(cls, top, bottom):
        top, bottom = tuple(top), tuple(bottom)
        if len(top) != len(bottom):
            raise ParseError("rows differ in length")
        if any(top[i] > top[i + 1] for i in range(len(top) - 1)):
            raise ParseError("top row must be weakly increasing")
        return cls(zip(top, bottom))

    @property
    def n(self):
        return len(self.columns)

    def support(self):
        """Multiplicity of each letter 1..ell."""
        counts = [0] * self.ell
        for t, _ in self.columns:
            counts[t - 1] += 1
        return tuple(counts)

    def top_row(self):
        return tuple(t for t, _ in self.columns)

    def bottom_row(self):
        return tuple(b for _, b in self.columns)

    def __eq__(self, other):
        if not isinstance(other, MultisetPermutation):
            return NotImplemented
        return self.columns == other.columns and self.ell == other.ell

    def __hash__(self):
        return hash((self.columns, self.ell))

    def __repr__(self):
        return f"MultisetPermutation({multiset_perm_to_text(self)!r})"


def _check_support(sigma, support):
    want = tuple(support)
    got = sigma.support()
    if len(got) < len(want):
        got = got + (0,) * (len(want) - len(got))
    if got != want or sigma.ell != len(want):
        raise SupportMismatch(f"support {got} differs from required {want}")


def multiset_perm_to_text(sigma: MultisetPermutation) -> str:
    """`top;bottom`, comma separated."""
    return (
        ",".join(str(t) for t in sigma.top_row())
        + ";"
        + ",".join(str(b) for b in sigma.bottom_row())
    )


def parse_multiset_perm(text: str, support=None) -> MultisetPermutation:
    """`1,1,2;2,1,1` two-line form, or a bare bottom word `2,1,1`."""
    if ";" in text:
        top_s, bot_s = text.split(";", 1)
        sigma = MultisetPermutation.from_rows(parse_int_list(top_s, "top row"),
                                              parse_int_list(bot_s, "bottom row"))
        if support is not None:
            sigma = MultisetPermutation(sigma.columns, ell=len(support))
            _check_support(sigma, support)
        return sigma
    return MultisetPermutation.from_word(parse_int_list(text, "word"), support=support)


def intercalation(rho: MultisetPermutation, tau: MultisetPermutation) -> MultisetPermutation:
    """Stable merge of columns by top letter; rho's columns go first within a
    letter."""
    return MultisetPermutation(
        rho.columns + tau.columns, ell=max(rho.ell, tau.ell)
    )


def intercalate_all(factors):
    out = MultisetPermutation((), ell=0)
    for f in factors:
        out = intercalation(out, f)
    return out


def is_prime(sigma: MultisetPermutation) -> bool:
    """Multiplicity-free support forming a single cycle."""
    succ = dict(sigma.columns)
    if not succ or len(succ) < sigma.n:
        return False
    start = min(succ)
    x = succ[start]
    steps = 1
    while x != start:
        x = succ[x]
        steps += 1
    return steps == len(succ)


def _column_bounds(a):
    """(first, end) for support a: against the sorted top row, letter u tops
    the columns first[u] .. end[u] - 1 (entry 0 unused)."""
    end = [0]
    for m in a:
        end.append(end[-1] + m)
    return [0] + end[:-1], end


def _circuits(word, first, end):
    """Circuits of canonical column indices, in discovery order, of the bottom
    word `word` against the sorted top row, whose column bounds `first` and
    `end` come from `_column_bounds` of the word's support.  Arcs before a
    circuit stay on the path; an empty path restarts at the smallest letter
    with columns left."""
    ell = len(end) - 1
    ptr = first[:]
    mark = [-1] * (ell + 1)  # position on the path, -1 when off it
    circuits = []
    steps = []
    start = 1
    while True:
        if not steps:
            while start <= ell and ptr[start] == end[start]:
                start += 1
            if start > ell:
                return circuits
            v = start
            mark[v] = 0
        idx = ptr[v]
        steps.append(idx)
        v = word[idx]
        k = mark[v]
        if k < 0:
            mark[v] = len(steps)
            continue
        circuit = steps[k:]
        circuits.append(circuit)
        del steps[k:]
        for c in circuit:
            ptr[word[c]] += 1
            mark[word[c]] = -1
        if k:
            mark[v] = k


def _decompose_indexed(sigma):
    """Circuits of canonical column indices, in discovery order.  Letters are
    ranked first, so the walk's lists never grow with the letters' size."""
    counts = Counter(t for t, _ in sigma.columns)  # in increasing letter order
    rank = {t: r for r, t in enumerate(counts, start=1)}
    return _circuits([rank[b] for _, b in sigma.columns],
                     *_column_bounds(counts.values()))


def prime_decompose(sigma: MultisetPermutation):
    """Unique factorization into primes, in intercalation order."""
    cols = sigma.columns
    return [
        MultisetPermutation._built(tuple(cols[idx] for idx in sorted(circuit)), sigma.ell)
        for circuit in _decompose_indexed(sigma)
    ]


def fcyc(sigma: MultisetPermutation) -> int:
    return len(_decompose_indexed(sigma))


def dependence_poset(factors):
    """Factor i must precede factor j when their letter supports intersect."""
    k = len(factors)
    supports = [set(t for t, _ in f.columns) for f in factors]
    pairs = [
        (i + 1, j + 1)
        for i in range(k)
        for j in range(i + 1, k)
        if supports[i] & supports[j]
    ]
    return poset_from_relations(k, pairs)


def factorization_count(sigma: MultisetPermutation) -> int:
    """Number of distinct orderings of the prime factors whose intercalation
    returns sigma."""
    return count_linear_extensions(dependence_poset(prime_decompose(sigma)))


# -- words of disjoint chains --------------------------------------------------

def _chain_letters(a):
    letters = []
    for j, aj in enumerate(a, start=1):
        letters.extend([j] * aj)
    return letters


def multiset_encode(a, lam) -> MultisetPermutation:
    """Linear extension of standardized disjoint chains -> bottom word of
    chain letters."""
    P = union_of_chains(a)
    lam = tuple(lam)
    if not is_linear_extension(P, lam):
        raise NotLinearExtension(f"{list(lam)} is not a linear extension")
    letter = _chain_letters(a)
    return MultisetPermutation._built(
        tuple(zip(letter, [letter[x - 1] for x in lam])), len(a)
    )


def multiset_decode(a, sigma: MultisetPermutation):
    """k-th occurrence of letter j in the bottom row -> k-th label of chain j."""
    _check_support(sigma, tuple(a))
    return _decode(a, sigma.bottom_row())


def _decode(a, bottom):
    """`multiset_decode` of a bottom word already known to have support a."""
    last = _column_bounds(a)[0]  # last[j]: label most recently given to chain j
    word = []
    for b in bottom:
        last[b] += 1
        word.append(last[b])
    return tuple(word)


def _words(a):
    """Every bottom word with support a, in lex order, as one list that is
    rearranged in place (next permutation) between yields."""
    word = _chain_letters(a)
    n = len(word)
    while True:
        yield word
        i = n - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def enumerate_multiset_perms(a):
    """All multiset permutations with the given support, bottom rows in lex
    order."""
    support = tuple(a)
    for word in _words(support):
        yield MultisetPermutation.from_word(word, support=support)


def _fcyc_counts(a):
    """counts[k] = number of words with support a that have k prime factors."""
    if any(k < 0 for k in a):
        raise IndexOutOfRange("chain lengths must be nonnegative")
    counts = [0] * (sum(a) + 1)
    first, end = _column_bounds(a)
    for word in _words(a):
        counts[len(_circuits(word, first, end))] += 1
    return counts


def fcyc_distribution(a) -> IntPolynomial:
    """sum over words with support a of t^(number of prime factors)."""
    return IntPolynomial(_fcyc_counts(a))


# -- the cycle bijection --------------------------------------------------------

def foata_phi(a, lam) -> Permutation:
    """Permutation of canonical column positions: position i maps to the
    position, within its prime factor, of the column topped by i's bottom
    letter."""
    word = multiset_encode(a, lam).bottom_row()  # chain letters, ranks already
    top = _chain_letters(a)
    images = [0] * len(word)
    for circuit in _circuits(word, *_column_bounds(a)):
        pos_of_top = {top[idx]: idx + 1 for idx in circuit}
        for idx in circuit:
            images[idx] = pos_of_top[word[idx]]
    return Permutation._built(images)


def foata_phi_inv(a, tau: Permutation):
    """Inverse: the canonical top row is the sorted chain-letter word, so
    column i of the preimage has bottom letter top(tau(i))."""
    n = sum(a)
    if tau.n != n:
        raise IndexOutOfRange(f"permutation size {tau.n} differs from {n}")
    P = union_of_chains(a)
    check_transverse(P, tau.cycle_partition())
    top = _chain_letters(a)  # sorted already
    return _decode(a, [top[j - 1] for j in tau.images])
