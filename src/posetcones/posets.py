"""Finite strict posets on labels {1..n}.

Relation rows are bit-packed into Python ints (bit j of up[i] set iff i < j in
P, 0-based internally; every public surface speaks 1-based labels).  Closure
is Warshall on masks.  `parse_poset`, the door for outside input, refuses
more than SIZE_GUARD = 64 points, the word-size cap a C implementation would
have; the constructors take any size, since Python masks are not bounded.

Linear extensions are counted by forward sweeps over the down-set masks, one
level at a time (`count_linear_extensions`, one sweep per comparability
component, and `_extension_dp` for the lrmax, width2 and Eulerian routes of
`whitney`), and listed by a backtracking walk on an explicit stack; nothing
recurses.
"""

from __future__ import annotations

from math import comb

from .errors import (
    CycleDetected,
    IndexOutOfRange,
    NotDisjointChains,
    ParseError,
    WidthExceeded,
)
from .polynomials import IntPolynomial, parse_int_list, slot_width, unpack_slots

SIZE_GUARD = 64


class Poset:
    """Immutable transitively-closed strict partial order on {1..n}."""

    __slots__ = ("n", "_up", "_down")

    def __init__(self, n, up_rows, down_rows):
        self.n = n
        self._up = tuple(up_rows)
        self._down = tuple(down_rows)

    # -- queries (1-based) --------------------------------------------------

    def less(self, i: int, j: int) -> bool:
        """True iff i <_P j (strict)."""
        self._check_label(i)
        self._check_label(j)
        return bool(self._up[i - 1] >> (j - 1) & 1)

    def comparable(self, i: int, j: int) -> bool:
        return i != j and (self.less(i, j) or self.less(j, i))

    def relations(self):
        """All strict pairs (i, j) with i <_P j, sorted."""
        return [(i + 1, j + 1) for i, row in enumerate(self._up) for j in _bits(row)]

    def covers(self):
        """Cover pairs (i, j): i <_P j with nothing strictly between, sorted."""
        return [(i + 1, j + 1) for i, row in enumerate(_cover_rows(self._down))
                for j in _bits(row)]

    def minimal_elements(self):
        return [i + 1 for i in range(self.n) if not self._down[i]]

    def _check_label(self, i):
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"label {i} outside 1..{self.n}")

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self._up == other._up

    def __hash__(self):
        return hash((self.n, self._up))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- down-set mask walks ------------------------------------------------------

def _cover_rows(down):
    """Upper cover rows from the down rows: bit j of row i is set iff j
    covers i, that is, iff i is a maximum of down[j].  The walk skips what
    a visited down row holds, highest label first, so on a natural labeling
    it visits only those maxima."""
    rows = [0] * len(down)
    for j, left in enumerate(down):
        deeper = 0
        while left:
            k = left.bit_length() - 1
            deeper |= down[k]
            left &= ~(down[k] | 1 << k)
        for i in _bits(down[j] & ~deeper):
            rows[i] |= 1 << j
    return rows


def _min_mask(down, alive):
    """Minima of alive, by a scan of every alive bit.  Every down-set walk
    calls it once, on the full mask at its root, and steps with
    `_minima_after`; the width-2 bijections read positions and need none."""
    m = 0
    x = alive
    while x:
        low = x & -x
        v = low.bit_length() - 1
        if not down[v] & alive:
            m |= low
        x ^= low
    return m


def _minima_after(mins, s, rest, down, cover):
    """Minima of rest = alive - s, where mins are the minima of the up-set
    alive and s is a subset of mins.  A minimum of rest that was not one of
    alive covers an element of s, so besides mins - s only the covers of
    s are tested: each is minimal iff its down row misses rest."""
    new = mins & ~s
    lifted = 0
    while s:
        low = s & -s
        lifted |= cover[low.bit_length() - 1]
        s ^= low
    while lifted:
        low = lifted & -lifted
        if not down[low.bit_length() - 1] & rest:
            new |= low
        lifted ^= low
    return new


def poset_from_relations(n, pairs) -> Poset:
    """Transitive closure of the strict pairs; rejects cycles and bad labels."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    up = [0] * n
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"relation ({i},{j}) outside 1..{n}")
        if i == j:
            raise CycleDetected(f"self-relation at {i}")
        up[i - 1] |= 1 << (j - 1)
    for k in range(n):
        kbit = 1 << k
        krow = up[k]
        for i in range(n):
            if up[i] & kbit:
                up[i] |= krow
    for i in range(n):
        if up[i] >> i & 1:
            raise CycleDetected(f"closure puts {i + 1} below itself")
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    return Poset(n, up, down)


# -- constructors -----------------------------------------------------------

def chain(n: int) -> Poset:
    return poset_from_relations(n, [(i, i + 1) for i in range(1, n)])


def antichain(n: int) -> Poset:
    return poset_from_relations(n, [])


def union_of_chains(a) -> Poset:
    """Disjoint chains; chain i holds labels a1+..+a_{i-1}+1 .. a1+..+a_i,
    increasing bottom-to-top (the standardized labeling).

    The rows are written directly, with no closure: the up row of a label
    is the mask of its chain's labels above it, the down row those below.
    """
    up, down = [], []
    base = 0
    for ai in a:
        if ai < 0:
            raise IndexOutOfRange("chain lengths must be nonnegative")
        top = (1 << (base + ai)) - 1
        below = 0
        for v in range(base, base + ai):
            bit = 1 << v
            up.append(top & -(bit << 1))
            down.append(below)
            below |= bit
        base += ai
    return Poset(base, up, down)


def grid(rows: int, cols: int) -> Poset:
    """Chain(rows) x Chain(cols), labeled row-major so row 1 is 1..cols.

    (r, c) < (r', c') iff r <= r', c <= c', not equal.  With two rows this is
    the natural labeling whose first row is an order ideal.
    """
    n = rows * cols
    pairs = []
    for r in range(rows):
        for c in range(cols):
            lab = r * cols + c + 1
            if c + 1 < cols:
                pairs.append((lab, lab + 1))
            if r + 1 < rows:
                pairs.append((lab, lab + cols))
    return poset_from_relations(n, pairs)


def opposite(P: Poset) -> Poset:
    return Poset(P.n, P._down, P._up)


def ordinal_sum(P1: Poset, P2: Poset) -> Poset:
    """Everything of P1 below everything of P2; P2 labels shifted by n1."""
    n1, n2 = P1.n, P2.n
    pairs = P1.relations()
    pairs += [(i + n1, j + n1) for i, j in P2.relations()]
    pairs += [(i, j + n1) for i in range(1, n1 + 1) for j in range(1, n2 + 1)]
    return poset_from_relations(n1 + n2, pairs)


def random_poset(n: int, p: float, rng) -> Poset:
    """Each upward pair (i,j), i<j, kept with probability p, then closed.
    Upward-only sampling cannot create cycles (biases toward natural labelings).
    `rng` is a `random.Random`; the module does not import `random`, so
    `import posetcones` does not load it."""
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return poset_from_relations(n, pairs)


# -- linear extensions ------------------------------------------------------

def linear_extensions(P: Poset):
    """All linear extensions, lexicographically smallest word first.

    Backtracks over the minima of the unplaced elements in increasing label
    order, carried down as in `count_linear_extensions` (`_minima_after`).
    The backtracking runs on an explicit stack of (placed, its minima, the
    minima not yet tried), one frame per placed letter, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    down = P._down
    cover = _cover_rows(down)
    full = (1 << P.n) - 1
    word = []  # one letter per frame below the top of the stack
    mins = _min_mask(down, full)
    stack = [(0, mins, mins)]
    while stack:
        placed, mins, untried = stack.pop()
        del word[len(stack):]
        if placed == full:
            yield tuple(word)
        elif untried:
            b = untried & -untried
            stack.append((placed, mins, untried ^ b))
            nxt = placed | b
            word.append(b.bit_length())
            after = _minima_after(mins, b, ~nxt, down, cover)
            stack.append((nxt, after, after))


def is_linear_extension(P: Poset, word) -> bool:
    n = P.n
    if len(word) != n or sorted(word) != list(range(1, n + 1)):
        return False
    placed = 0
    for x in word:
        v = x - 1
        if P._down[v] & ~placed:
            return False
        placed |= 1 << v
    return True


def count_linear_extensions(P: Poset) -> int:
    """Exact count, split over the comparability components P_1..P_r:
    e(P) = multinomial(n; n_1, ..., n_r) * prod e(P_i), since a linear
    extension of P is a shuffle of one of each component.  Each e(P_i)
    comes from `_count_sweep`."""
    total = 1
    placed = 0
    for part in _components(P):
        size = part.bit_count()
        placed += size
        total *= comb(placed, size) * _count_sweep(P if size == P.n else _induced(P, part))
    return total


def _count_sweep(P: Poset) -> int:
    """e(P) by a forward sweep over the down-set masks: level k maps each
    down-set `placed` of k elements to [minima of the unplaced, prefix
    count e(P[placed])].  Placing a minimum b moves the count to placed | b,
    whose minima are derived once, when it first appears (`_minima_after`).
    Only two levels are held, and nothing recurses."""
    n = P.n
    down = P._down
    cover = _cover_rows(down)
    level = {0: [_min_mask(down, (1 << n) - 1), 1]}
    for _ in range(n):
        next_level = {}
        for placed, (mins, count) in level.items():
            x = mins
            while x:
                b = x & -x
                x ^= b
                nxt = placed | b
                entry = next_level.get(nxt)
                if entry is None:
                    next_level[nxt] = [_minima_after(mins, b, ~nxt, down, cover), count]
                else:
                    entry[1] += count
        level = next_level
    return level[(1 << n) - 1][1]


def _components(P: Poset):
    """Label masks of the comparability components, lowest label first."""
    rows = [u | d for u, d in zip(P._up, P._down)]
    left = (1 << P.n) - 1
    while left:
        part = frontier = left & -left
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= rows[v]
            frontier = reach & ~part
            part |= frontier
        left &= ~part
        yield part


def _induced(P: Poset, mask) -> Poset:
    """The subposet on the labels of `mask`, relabeled 1..k in increasing
    label order.  Restricted rows of a closed relation stay closed."""
    labels = list(_bits(mask))
    index = {v: i for i, v in enumerate(labels)}

    def restrict(row):
        out = 0
        for v in _bits(row & mask):
            out |= 1 << index[v]
        return out

    return Poset(len(labels), [restrict(P._up[v]) for v in labels],
                 [restrict(P._down[v]) for v in labels])


def _extension_dp(n, down, start, step):
    """coeffs[k] = number of linear extensions whose step exponents sum to k.

    The sweep of `count_linear_extensions` with states: level k maps each
    down-set `placed` of k elements to (minima, counts), where counts maps
    a state to the packed prefix counts of the words reaching it.  Keeping
    the states under their mask saves a (placed, state) key per step.
    step(placed, state, v) returns (next_state, exponent) for placing the
    0-based element v, where placed already includes v.  A step may drop
    from next_state whatever no later step can read; the level then merges
    the states that differ only there, and the counts stay exact.

    Counts are packed ints, coefficient k in bits [k*w, (k+1)*w) with
    w = slot_width(n), so a step adds its prefix count shifted by e*w.  No
    slot carries: each coefficient counts linear extensions of P[placed],
    at most e(P[placed]) <= n! < 2^w, and the last level's sum at most e(P).
    """
    cover = _cover_rows(down)
    w = slot_width(n)
    level = {0: (_min_mask(down, (1 << n) - 1), {start: 1})}
    for _ in range(n):
        next_level = {}
        for placed, (mins, counts) in level.items():
            x = mins
            while x:
                b = x & -x
                x ^= b
                nxt = placed | b
                entry = next_level.get(nxt)
                if entry is None:
                    entry = next_level[nxt] = _minima_after(mins, b, ~nxt, down, cover), {}
                after_counts = entry[1]
                v = b.bit_length() - 1
                for state, count in counts.items():
                    after, e = step(nxt, state, v)
                    after_counts[after] = after_counts.get(after, 0) + (count << (e * w))
        level = next_level
    return IntPolynomial(unpack_slots(sum(level[(1 << n) - 1][1].values()), w))


# -- width and chain covers -------------------------------------------------

def _matching_chain_cover(P: Poset):
    """Minimum chain cover via Kuhn matching on the comparability DAG.

    Left vertices scanned in increasing label; augmenting paths try right
    vertices in increasing label, so the cover is deterministic.  Each
    chain starts at an unmatched right vertex, in increasing label.
    """
    n = P.n
    up = P._up
    below = [-1] * n  # right j -> left i matched to it

    def try_augment(i):
        nonlocal seen
        for j in _bits(up[i]):
            if seen >> j & 1:
                continue
            seen |= 1 << j
            if below[j] < 0 or try_augment(below[j]):
                below[j] = i
                return True
        return False

    for i in range(n):
        seen = 0
        try_augment(i)

    above = {i: j for j, i in enumerate(below) if i >= 0}
    chains = []
    for s in range(n):
        if below[s] < 0:
            c = [s + 1]
            while s in above:
                s = above[s]
                c.append(s + 1)
            chains.append(tuple(c))
    return chains


def width(P: Poset) -> int:
    """Maximum antichain size = minimum chain cover size (Dilworth)."""
    return max(1, len(_matching_chain_cover(P))) if P.n else 0


class ChainDecomposition:
    """Ordered pair of disjoint chains covering {1..n}; either may be empty."""

    __slots__ = ("p1", "p2", "_s1", "_s2")

    def __init__(self, P: Poset, part1, part2):
        s1, s2 = frozenset(part1), frozenset(part2)
        if s1 & s2 or len(s1) + len(s2) != P.n or (s1 | s2) != set(range(1, P.n + 1)):
            raise WidthExceeded("parts must partition {1..n}")
        for part in (s1, s2):
            for i in part:
                comparable = P._up[i - 1] | P._down[i - 1]
                for j in part:
                    if i < j and not comparable >> (j - 1) & 1:
                        raise WidthExceeded(f"part is not a chain: {i} and {j} incomparable")
        self.p1 = _chain_order(P, s1)
        self.p2 = _chain_order(P, s2)
        self._s1, self._s2 = s1, s2

    def side(self, x: int) -> int:
        """1 or 2."""
        return 1 if x in self._s1 else 2

    def __repr__(self):
        return f"ChainDecomposition(p1={self.p1}, p2={self.p2})"


def _chain_order(P, part):
    mask = _label_mask(part)
    return tuple(sorted(part, key=lambda x: (P._down[x - 1] & mask).bit_count()))


def _label_mask(labels):
    """Bit mask of distinct labels."""
    return sum(1 << (x - 1) for x in labels)


def chain_cover_width2(P: Poset) -> ChainDecomposition:
    """Deterministic 2-chain partition; WidthExceeded if width(P) > 2."""
    chains = _matching_chain_cover(P)
    if len(chains) > 2:
        raise WidthExceeded(f"width {len(chains)} > 2")
    while len(chains) < 2:
        chains.append(())
    return ChainDecomposition(P, chains[0], chains[1])


def is_antichain(P: Poset, S) -> bool:
    """No two labels of S comparable; IndexOutOfRange outside 1..n."""
    S = set(S)
    for i in S:
        P._check_label(i)
    mask = _label_mask(S)
    return not any(P._up[i - 1] & mask for i in S)


def disjoint_chain_lengths(P: Poset):
    """Chain lengths when P is a standardized union of chains: each chain
    holds consecutive labels increasing bottom to top, chains in label order.
    Each length is read off its chain bottom's up row, and P must equal
    `union_of_chains` of the lengths; NotDisjointChains otherwise."""
    lengths = []
    v = 0  # 0-based label of the next chain bottom
    while v < P.n:
        lengths.append(P._up[v].bit_count() + 1)
        v += lengths[-1]
    if union_of_chains(lengths) != P:
        raise NotDisjointChains("not a union of chains on consecutive labels")
    return tuple(lengths)


# -- text format --------------------------------------------------------------

def parse_poset(text: str) -> Poset:
    """Lines: `n <count>` then `rel <i> <j>`; '#' starts a comment."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "n":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate n line")
            (n,) = _line_ints(tok, lineno, "count", "n <count>")
            if n < 0:
                raise ParseError(f"line {lineno}: expected `n <count>`")
        elif tok[0] == "rel":
            if n is None:
                raise ParseError(f"line {lineno}: rel before n")
            pairs.append(tuple(_line_ints(tok, lineno, "label", "rel <i> <j>")))
        else:
            raise ParseError(f"line {lineno}: unknown directive {tok[0]!r}")
    if n is None:
        raise ParseError("missing `n <count>` line")
    if n > SIZE_GUARD:
        raise ParseError(f"n={n} exceeds the size guard {SIZE_GUARD}")
    try:
        return poset_from_relations(n, pairs)
    except (CycleDetected, IndexOutOfRange) as exc:
        raise ParseError(str(exc)) from exc


def _line_ints(tok, lineno, what, usage):
    """One integer per token after a line's directive, as many as `usage`
    has fields; tokens are read one by one, so `rel 1,2` is no pair."""
    try:
        vals = [parse_int_list(t, what) for t in tok[1:]]
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None
    if len(tok) != len(usage.split()) or any(len(v) != 1 for v in vals):
        raise ParseError(f"line {lineno}: expected `{usage}`")
    return [v for (v,) in vals]


def poset_to_text(P: Poset) -> str:
    """Canonical form: size line plus cover relations sorted by (i, j)."""
    lines = [f"n {P.n}"]
    lines += [f"rel {i} {j}" for i, j in P.covers()]
    return "\n".join(lines) + "\n"
