"""Shared generators and brute-force oracles for the test suite."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from operator import gt, sub

from posetcones import (
    IndexOutOfRange,
    IntPolynomial,
    NotLinearExtension,
    NotTransverse,
    Permutation,
    Poset,
    PosetconesError,
    SetPartition,
    count_linear_extensions,
    enumerate_transverse,
    grid,
    is_antichain,
    is_linear_extension,
    is_transverse,
    level_decompose,
    linear_extensions,
    poset_from_relations,
    random_poset,
)
from posetcones.partitions import _quotient_peel, check_transverse
from posetcones.polynomials import slot_width, stirling_first_kind_row, unpack_slots
from posetcones.posets import _bits, _label_mask, _min_mask


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


def compositions(total):
    """Every composition of total into positive parts, as tuples."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


CHAIN_UNIONS = ([1] * 8, [2] * 6, [3] * 5, [4, 4, 4], [7, 1, 1, 1, 1], [5, 3, 2, 1], [6, 5])


# -- the signed up-set recursion on lists (oracle for the transverse DP) --------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def signed_upset_poly(P: Poset):
    """Poin(P, t) by the signed recursion over the up-sets A of P that
    `transverse_poly_coeffs` runs, written apart from it: coefficient
    lists instead of packed ints, each state's minima by a scan, and the
    sum over S taken subset by subset:

        f(A) = sum over nonempty S within min A of
               (-1)^(|S|-1) prod_{j=1}^{|S|-1} (1 - j t) * f(A - S),

    with f(empty) = 1 and f(A) = prod_{j<|A|} (1 + j t) on an antichain A.

    Why: a block of a transverse partition of A is minimal in the quotient
    exactly when it lies in min A.  Sum over the nonempty sets T of minimal
    blocks with sign (-1)^(|T|+1), which is 1 for any poset; the blocks of T
    cover a set S within min A, the rest is a transverse partition of A - S,
    and summing (-1)^(#blocks-1) prod (|B|-1)! t^(|B|-1) over the partitions
    of S gives prod_{j=1}^{|S|-1} (j t - 1), the weight below.

    It keeps no isolated-minimum closure: only a whole antichain closes.
    """
    n = P.n
    down = P._down
    weight = [[1]]  # weight[k-1] = prod_{j=1}^{k-1} (j t - 1), for |S| = k
    free = [[1]]    # free[k-1] = prod_{j=1}^{k-1} (1 + j t), an antichain of k
    for j in range(1, n):
        weight.append(_poly_mul(weight[-1], [-1, j]))
        free.append(_poly_mul(free[-1], [1, j]))
    memo = {0: [1]}

    def f(alive):
        got = memo.get(alive)
        if got is not None:
            return got
        mins = [v for v in range(n) if alive >> v & 1 and not down[v] & alive]
        if len(mins) == alive.bit_count():
            out = free[len(mins) - 1]
        else:  # degree at most |A| - 1, kept without trailing zeros
            out = [0] * alive.bit_count()
            for k in range(1, len(mins) + 1):
                for S in combinations(mins, k):
                    rest = alive & ~sum(1 << v for v in S)
                    for d, c in enumerate(_poly_mul(weight[k - 1], f(rest))):
                        out[d] += c
            while len(out) > 1 and not out[-1]:
                out.pop()
        memo[alive] = out
        return out

    return f((1 << n) - 1)


# -- Poin from descending runs (oracle, Stanley's P-partitions) ---------------

@lru_cache(maxsize=None)
def run_weights(n, const=-1):
    """h_0..h_n with h_c = sum over compositions beta of c of prod w_{beta_i},
    w_k = prod_{j=1}^{k-1} (j t + const), by h_c = sum_k w_k h_{c-k}.  With
    const = -1 this is phi of the fundamental quasisymmetric function of a
    run of c letters; `const` exists for the mutation check."""
    weight = [[1]]
    for j in range(1, n):
        weight.append(_poly_mul(weight[-1], [const, j]))
    h = [[1]]
    for c in range(1, n + 1):
        out = [0] * c
        for k in range(1, c + 1):
            for d, x in enumerate(_poly_mul(weight[k - 1], h[c - k])):
                out[d] += x
        h.append(out)
    return tuple(map(tuple, h))


def descending_runs_poly(P: Poset, descending=True, const=-1) -> IntPolynomial:
    """Poin(P, t) as a sum over the linear extensions w of P, relabeled by
    the positions in the first one (a natural labeling), of the product of
    h_|r| over the maximal descending runs r of w (`run_weights`).

    Why: Poin(P) sums over the strictly order-preserving surjections
    f: P -> [m] the weight prod_i w_{|f^-1(i)|}, which is phi of Stanley's
    strict P-partition enumerator in the monomial quasisymmetric basis,
    phi(M_alpha) = prod w_{alpha_i}.  The fundamental lemma writes that
    enumerator as one fundamental quasisymmetric function per linear
    extension, and phi of a fundamental is the run product (Stanley 1972,
    Gessel 1984).  It shares no code with the four routes.  `descending`
    and `const` exist for the mutation checks: ascending runs, or (j t + 1)
    in w_k.
    """
    words = list(linear_extensions(P))
    pos = {x: i for i, x in enumerate(words[0])}
    descents = Counter()  # words per descent pattern of their neighbour pairs
    for word in words:
        u = [pos[x] for x in word]
        descents[tuple(map(gt, u, u[1:]))] += 1
    runs = Counter()  # words per multiset of run lengths
    for pattern, count in descents.items():
        cuts = [0] + [i for i, d in enumerate(pattern, 1) if d != descending] + [P.n]
        runs[tuple(sorted(map(sub, cuts[1:], cuts)))] += count
    h = run_weights(P.n, const)
    total = IntPolynomial([])
    for lengths, count in runs.items():
        poly = [count]
        for r in lengths:
            poly = _poly_mul(poly, h[r])
        total = total + IntPolynomial(poly)
    return total


# -- rescanning down-set walks (oracles) ---------------------------------------
#
# The memoized walks and the streams as they ran before they carried their
# minima (the transverse DP also as it ran before the signed recursion, the
# linear-extension count and the extension automaton also as they ran
# before they became level sweeps, the streams as recursive generators),
# and the width-2 bijections as they ran before they read positions: each
# state finds its minima by scanning every alive bit or every label.

@lru_cache(maxsize=None)
def layer_weight(a, f):
    """W(a, f) = t^f * a^(f) * sum_k c(a, k) t^(a-k) as ascending coefficients,
    with a^(f) = a (a+1) ... (a+f-1) the rising factorial and c(a, k) the
    unsigned Stirling numbers of the first kind: the partitions of a layer
    of a free and f forbidden labels in which every block holds a free
    label, each weighted prod (|B|-1)! t^(|B|-1).

    Why: the weight (|B|-1)! counts the cyclic orders of a block, so the sum
    runs over permutations of the layer whose cycles each hold a free label,
    with t marking size minus cycle count.  Permutations of the free labels
    give the Stirling sum; each forbidden label is then inserted after an
    existing element in cycle notation, with a, a+1, ..., a+f-1 choices in
    turn, which adds one to the size but no cycle."""
    rising = factorial(a + f - 1) // factorial(a - 1)
    row = stirling_first_kind_row(a)
    return (0,) * f + tuple(rising * row[a - j] for j in range(a))


@lru_cache(maxsize=None)
def packed_layer_weight(a, f, w):
    """W(a, f) packed w bits per coefficient."""
    return sum(c << (j * w) for j, c in enumerate(layer_weight(a, f)))


def rescan_transverse_poly_coeffs(P):
    """The forbidden-level DP that `partitions.transverse_poly_coeffs` ran
    before the signed up-set recursion, with `_min_mask` per state.

    It peels P by quotient levels, memoized on (alive, forbidden): minima
    left out of a layer become forbidden, and a layer may hold a forbidden
    minimum only in a block with a free one, so each transverse partition
    is counted once, on its own levels.  A layer of a free and f forbidden
    minima multiplies its tail by `layer_weight(a, f)`, and a state whose
    minima are all forbidden contributes zero.  Values are packed w =
    slot_width(n) bits per coefficient; they are nonnegative and sum to at
    most n!, so no slot carries.  It closes no isolated minimum on sight.
    """
    n = P.n
    down = P._down
    w = slot_width(n)
    memo = {}

    def rec(alive, forbidden):
        if not alive:
            return 1
        key = (alive, forbidden)
        got = memo.get(key)
        if got is not None:
            return got
        mm = _min_mask(down, alive)
        free = mm & ~forbidden
        if not free:
            memo[key] = 0
            return 0
        forb = mm & forbidden
        acc = 0
        sa = free
        while sa:
            a = sa.bit_count()
            sf = forb
            while True:
                s = sa | sf
                tail = rec(alive & ~s, mm & ~s)
                if tail:
                    acc += packed_layer_weight(a, sf.bit_count(), w) * tail
                if not sf:
                    break
                sf = (sf - 1) & forb
            sa = (sa - 1) & free
        memo[key] = acc
        return acc

    return unpack_slots(rec((1 << n) - 1, 0), w)


def rescan_count_linear_extensions(P):
    """`posets.count_linear_extensions` as a recursive memo walk, testing
    every label per state."""
    n = P.n
    down = P._down
    full = (1 << n) - 1
    memo = {full: 1}

    def rec(placed):
        val = memo.get(placed)
        if val is not None:
            return val
        total = 0
        for v in range(n):
            b = 1 << v
            if placed & b or down[v] & ~placed:
                continue
            total += rec(placed | b)
        memo[placed] = total
        return total

    return rec(0)


def rescan_extension_dp(n, down, start, step):
    """`posets._extension_dp` as a recursive memo walk, testing every label
    per state."""
    full = (1 << n) - 1
    w = slot_width(n)
    memo = {}

    def rec(placed, state):
        if placed == full:
            return 1
        key = (placed, state)
        got = memo.get(key)
        if got is not None:
            return got
        acc = 0
        for v in range(n):
            b = 1 << v
            if placed & b or down[v] & ~placed:
                continue
            nxt, e = step(placed | b, state, v)
            acc += rec(placed | b, nxt) << (e * w)
        memo[key] = acc
        return acc

    return IntPolynomial(unpack_slots(rec(0, start), w))


def live_cut_lrmax_step(P: Poset):
    """(start, step) of the lrmax automaton with its levels cut to
    live(placed), the union of the unplaced elements' down rows, and a
    first-level flag: the state `whitney.poincare_via_lrmax` kept before
    its levels became up-row masks, with live(placed) computed per step
    (reference for how many states the sweep merges)."""
    down = P._down
    full = (1 << P.n) - 1

    def step(placed, state, v):
        cur, prev, first, above = state
        live = 0
        for u in _bits(full & ~placed):
            live |= down[u]
        b = 1 << v
        if down[v] & cur:
            return (b & live, cur & live, False, full & ~placed & -(b << 1)), 0
        if (first or down[v] & prev) and above & b:
            return ((cur | b) & live, prev & live, first, above & -(b << 1)), 0
        return ((cur | b) & live, prev & live, first, above & ~b), 1

    return (0, 0, True, full), step


def rescan_linear_extensions(P: Poset):
    """`posets.linear_extensions` testing every label per state."""
    n = P.n
    down = P._down
    word = []
    full = (1 << n) - 1

    def rec(placed):
        if placed == full:
            yield tuple(x + 1 for x in word)
            return
        for v in range(n):
            b = 1 << v
            if placed & b or down[v] & ~placed:
                continue
            word.append(v)
            yield from rec(placed | b)
            word.pop()

    if n == 0:
        yield ()
        return
    yield from rec(0)


def unpruned_layer_choices(min_mask, forbidden, leave_out=True):
    """Every partition of every nonempty subset of min_mask whose blocks
    each hold a label outside `forbidden`, dead branches included, as the
    enumeration built them before it was pruned: (S_mask, blocks) pairs,
    blocks a tuple of ascending label tuples, in the enumeration's order.
    Streamed: each minimum is left out, then joins each block in turn,
    then opens a new one, and a choice is yielded as soon as it is made.
    With `leave_out` false no minimum is left out, so only the choices
    with S = min_mask come, in the same order."""
    elems = list(_bits(min_mask))

    def rec(idx, s, blocks):
        if idx == len(elems):
            if blocks and all(mask & ~forbidden for _, mask in blocks):
                yield s, tuple(labels for labels, _ in blocks)
            return
        label, bit = elems[idx] + 1, 1 << elems[idx]
        if leave_out:
            yield from rec(idx + 1, s, blocks)
        for b, (labels, mask) in enumerate(blocks):
            joined = (labels + (label,), mask | bit)
            yield from rec(idx + 1, s | bit, blocks[:b] + (joined,) + blocks[b + 1:])
        yield from rec(idx + 1, s | bit, blocks + (((label,), bit),))

    return rec(0, 0, ())


def rescan_enumerate_transverse(P: Poset):
    """`partitions.enumerate_transverse` with two `_min_mask` scans per
    state, taking a layer S of the minima mm only if S is mm or S holds
    every minimum below some minimum of alive - mm.  When nothing lies
    above mm, only S = mm is taken, so no choice leaving a minimum out is
    built."""
    n = P.n
    down = P._down

    def rec(alive, forbidden):
        if not alive:
            yield ()
            return
        mm = _min_mask(down, alive)
        targets = list(_bits(_min_mask(down, alive & ~mm)))
        for s_mask, blocks in unpruned_layer_choices(mm, forbidden, bool(targets)):
            if s_mask != mm and all(down[t] & mm & ~s_mask for t in targets):
                continue
            for tail in rec(alive & ~s_mask, mm & ~s_mask):
                yield blocks + tail

    for blocks in rec((1 << n) - 1, 0):
        yield SetPartition(n, blocks)


def product_transverse_permutations(P: Poset):
    """`bijections.transverse_permutations` listing every block's cyclic
    arrangements before `product` combines them."""
    for pi in enumerate_transverse(P):
        per_block = [[blk[:1] + tail for tail in permutations(blk[1:])] for blk in pi.blocks]
        for combo in product(*per_block):
            images = [0] * (P.n + 1)  # slot 0 unused
            for cyc in combo:
                prev = cyc[-1]
                for x in cyc:
                    images[prev] = x
                    prev = x
            yield Permutation(images[1:])


def outcome(f, *args):
    """What `f(*args)` returns, or the type and text of the library error it
    raises; any other exception propagates."""
    try:
        return f(*args)
    except PosetconesError as exc:
        return type(exc), str(exc)


def rescan_omega(P: Poset, d, sigma) -> SetPartition:
    """`bijections.omega` walking the minima, `_min_mask` per step: a pair
    forms only when two minima are alive, from the chain-1 minimum and the
    letter just before it."""
    word = tuple(sigma)
    if not is_linear_extension(P, word):
        raise NotLinearExtension(f"{list(word)} is not a linear extension")
    n = P.n
    side1 = _label_mask(d.p1)
    blocks = []
    alive = (1 << n) - 1
    idx = 0
    while idx < n:
        mins = _min_mask(P._down, alive)
        if not mins & (mins - 1):
            m = word[idx]
            blocks.append((m,))
            alive &= ~(1 << (m - 1))
            idx += 1
            continue
        p1 = (mins & side1).bit_length()
        if word[idx] == p1:
            blocks.append((p1,))
            alive &= ~(1 << (p1 - 1))
            idx += 1
            continue
        j = word.index(p1, idx)
        for k in range(idx, j - 1):
            blocks.append((word[k],))
            alive &= ~(1 << (word[k] - 1))
        blocks.append(tuple(sorted((word[j - 1], p1))))
        alive &= ~(1 << (word[j - 1] - 1))
        alive &= ~(1 << (p1 - 1))
        idx = j + 1
    return SetPartition(n, blocks)


def rescan_omega_inv(P: Poset, d, pi: SetPartition):
    """`bijections.omega_inv` walking the minima, `_min_mask` per step:
    paired blocks force the chain-2 run below the partner, then the partner,
    then the chain-1 minimum.  Its in-loop checks stay, so that as an
    oracle it does not lean on the argument `omega_inv` drops them by."""
    check_transverse(P, pi)
    block_of = {}
    for blk in pi.blocks:
        for x in blk:
            block_of[x] = blk
    side1 = _label_mask(d.p1)
    word = []
    alive = (1 << P.n) - 1

    def emit(x):
        nonlocal alive
        word.append(x)
        alive &= ~(1 << (x - 1))

    while alive:
        mins = _min_mask(P._down, alive)
        if not mins & (mins - 1):
            m = mins.bit_length()
            if block_of[m] != (m,):
                raise NotTransverse(f"block of {m} pairs across a level")
            emit(m)
            continue
        p1 = (mins & side1).bit_length()
        blk = block_of[p1]
        if blk == (p1,):
            emit(p1)
            continue
        x = blk[0] if blk[1] == p1 else blk[1]
        for y in d.p2:
            if y == x:
                break
            if alive >> (y - 1) & 1:
                if block_of[y] != (y,):
                    raise NotTransverse(f"block of {y} conflicts with {blk}")
                emit(y)
        emit(x)
        emit(p1)
    return tuple(word)


def rescan_quotient_peel(P: Poset, blocks, n):
    """`partitions._quotient_peel` with a pass for each level's up rows, a
    pass that levels the free blocks and a comprehension that re-tests every
    block to keep the others."""
    if n != P.n:
        raise IndexOutOfRange("partition size differs from poset size")
    up = P._up
    masks = []
    ups = []
    for blk in blocks:
        m = u = 0
        for x in blk:
            m |= 1 << (x - 1)
            u |= up[x - 1]
        masks.append(m)
        ups.append(u)
    level = [0] * len(masks)
    level_masks = [0]
    rem = range(len(masks))
    while rem:
        above = 0
        for a in rem:
            above |= ups[a]
        layer = 0
        for a in rem:
            if not masks[a] & above:
                level[a] = len(level_masks)
                layer |= masks[a]
        if not layer:
            return None
        level_masks.append(layer)
        rem = [a for a in rem if masks[a] & above]
    return level, level_masks


def set_cycles(tau: Permutation):
    """`Permutation.cycles` marking visited labels in a set."""
    seen = set()
    out = []
    for s in range(1, tau.n + 1):
        if s in seen:
            continue
        orbit = [s]
        seen.add(s)
        x = tau.images[s - 1]
        while x != s:
            orbit.append(x)
            seen.add(x)
            x = tau.images[x - 1]
        out.append(tuple(orbit))
    return out


def record_psi(P: Poset, sigma) -> Permutation:
    """`bijections.psi` read off the `level_decompose` record: the word is
    cut before each LR maximum and the pieces go to `from_cycles`."""
    le = level_decompose(P, sigma)
    ops = set(le.plr_max)
    cycles = []
    cur = []
    for x in le.word:
        if x in ops:
            if cur:
                cycles.append(cur)
            cur = [x]
        else:
            cur.append(x)
    if cur:
        cycles.append(cur)
    return Permutation.from_cycles(P.n, cycles)


def keyed_phi(P: Poset, tau: Permutation):
    """`bijections.phi` on `set_cycles`, each lead the `max` of a generator
    over the essential letters, the words sorted under nested keys.  It
    still raises on a cycle with no essential letter, which `phi` trusts
    its level loop to rule out."""
    cycles = set_cycles(tau)
    level, level_masks = (_quotient_peel(P, cycles, tau.n)
                          or check_transverse(P, tau.cycle_partition()))
    down = P._down
    keyed = []
    for cyc, lv in zip(cycles, level):
        below = level_masks[lv - 1]
        lead = max((x for x in cyc if lv == 1 or down[x - 1] & below), default=0)
        if not lead:
            raise NotTransverse(f"cycle {cyc} has no essential element")
        at = cyc.index(lead)
        keyed.append(((lv, lead), cyc[at:] + cyc[:at]))
    return tuple(x for _, word in sorted(keyed) for x in word)


# -- brute-force oracles -------------------------------------------------------

def all_partitions(n: int):
    """Every set partition, in lex order of restricted growth strings."""
    if n == 0:
        yield SetPartition(0, [])
        return
    rgs = [0] * n

    def rec(k, nblocks):
        if k == n:
            blocks = [[] for _ in range(nblocks)]
            for idx, b in enumerate(rgs):
                blocks[b].append(idx + 1)
            yield SetPartition(n, blocks)
            return
        for b in range(nblocks + 1):
            rgs[k] = b
            yield from rec(k + 1, max(nblocks, b + 1))

    yield from rec(0, 0)


class Preposet:
    """Reflexive transitive relation on k items (quotient of a poset)."""

    __slots__ = ("k", "rel")

    def __init__(self, k, rel_rows):
        self.k = k
        self.rel = tuple(rel_rows)

    def leq(self, a: int, b: int) -> bool:
        """1-based; reflexive."""
        return bool(self.rel[a - 1] >> (b - 1) & 1)

    def is_antisymmetric(self) -> bool:
        for a in range(self.k):
            for b in range(a + 1, self.k):
                if self.rel[a] >> b & 1 and self.rel[b] >> a & 1:
                    return False
        return True


def quotient_preposet(P: Poset, pi: SetPartition) -> Preposet:
    """Blocks related when some representatives are; closed reflexively
    and transitively (Warshall)."""
    if pi.n != P.n:
        raise IndexOutOfRange("partition size differs from poset size")
    up = P._up
    masks = [_label_mask(blk) for blk in pi.blocks]
    rel = [1 << a | sum(1 << b for b, m in enumerate(masks)
                        if any(up[x - 1] & m for x in blk))
           for a, blk in enumerate(pi.blocks)]
    for m in range(len(rel)):
        for a in range(len(rel)):
            if rel[a] >> m & 1:
                rel[a] |= rel[m]
    return Preposet(len(rel), rel)


def brute_force_transverse(P: Poset):
    """Filter the whole partition lattice (oracle; n <= 9 or so)."""
    return [pi for pi in all_partitions(P.n) if is_transverse(P, pi)]


def singleton_partition(n: int) -> SetPartition:
    return SetPartition(n, [[i] for i in range(1, n + 1)])


def transverse_count_check(P: Poset) -> bool:
    """Zaslavsky check: sum of |mu| over transverse partitions equals the
    number of linear extensions."""
    total = sum(pi.mobius_abs() for pi in enumerate_transverse(P))
    return total == count_linear_extensions(P)


def induced(P: Poset, labels) -> Poset:
    """Subposet on the given labels, relabeled 1..k in increasing label order."""
    labs = sorted(labels)
    pos = {lab: idx + 1 for idx, lab in enumerate(labs)}
    pairs = [
        (pos[i], pos[j])
        for i in labs
        for j in labs
        if i != j and P.less(i, j)
    ]
    return poset_from_relations(len(labs), pairs)


def brute_force_width(P: Poset) -> int:
    """Largest pairwise-incomparable subset, by subset enumeration (oracle)."""
    best = 0
    n = P.n
    for mask in range(1 << n):
        S = [i + 1 for i in range(n) if mask >> i & 1]
        if len(S) > best and is_antichain(P, S):
            best = len(S)
    return best


def kuhn_chain_cover(P: Poset, descending=False):
    """Minimum chain cover by Kuhn matching with both match arrays (oracle
    for `posets._matching_chain_cover`): left vertices in increasing label,
    each augmenting path trying right vertices in increasing label, or in
    decreasing label with `descending` (a negative control).  Chains are
    read from the unmatched right vertices and sorted by their bottoms."""
    n = P.n
    up = P._up
    order = range(n - 1, -1, -1) if descending else range(n)
    match_left = [-1] * n   # right j -> left i
    match_right = [-1] * n  # left i -> right j

    def try_augment(i, seen):
        for j in order:
            if not up[i] >> j & 1 or seen & (1 << j):
                continue
            seen |= 1 << j
            if match_left[j] < 0:
                match_left[j] = i
                match_right[i] = j
                return True, seen
            ok, seen = try_augment(match_left[j], seen)
            if ok:
                match_left[j] = i
                match_right[i] = j
                return True, seen
        return False, seen

    for i in range(n):
        try_augment(i, 0)

    chains = []
    for s in (i for i in range(n) if match_left[i] < 0):
        c = [s + 1]
        while match_right[s] >= 0:
            s = match_right[s]
            c.append(s + 1)
        chains.append(tuple(c))
    chains.sort(key=lambda c: c[0])
    return chains
