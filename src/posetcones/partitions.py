"""Set partitions of {1..n} and the transverse family of a poset.

A partition is transverse to P when every block is an antichain and the
quotient preposet P/pi stays antisymmetric (collapsing blocks creates no
directed cycle through distinct blocks).  Enumeration peels the partition by
quotient levels: the blocks lying inside min(P) are exactly the removable
ones, so choosing a partial partition of min(P), deleting it, and forbidding
leftover-minima-only blocks at the next step visits each transverse partition
once.  A state (alive, forbidden) of that walk has a completion iff
nothing is alive or some minimum is free: taking every minimum, each
forbidden one in a block with a free one, leaves nothing forbidden.  So a
layer S is worth taking iff S is all of min(P) or S holds every minimum below
some element of the next level, and the enumeration expands no other.
It is depth first on one stack of frames, each deciding one minimum of one
layer, so the order of the family is that of the recursion over layers.

The weighted count behind the cone polynomial needs no blocks at all.
Over the up-sets A of P, with f(empty) = 1,

    f(A) = sum over nonempty S within min A of w_|S| * f(A - S),
    w_k = prod_{j=1}^{k-1} (j t - 1),

and f(P) = Poin(P, t).  A block of a transverse partition of A is minimal in
the quotient exactly when it lies in min A.  Summing over the nonempty sets
T of minimal blocks with sign (-1)^(|T|+1), which totals 1, each T covers
some S within min A and leaves a transverse partition of A - S; the
partitions of S, each weighted (-1)^(#blocks-1) prod (|B|-1)! t^(|B|-1),
sum to w_|S|.  On an antichain A the recursion closes to
f(A) = prod_{j<|A|} (1 + j t).  More generally, a minimum x of A that is
maximal in P is comparable to nothing in A, so Terao's factorization, the
peel of `whitney._fibre_peel` with k = |A| - 1, gives
f(A) = (1 + (|A| - 1) t) f(A - x); A - x is an up-set with minima
min A - x, since x covers nothing.  An antichain is the case where every
point of A is such a minimum.

Unrolled, Poin(P) sums prod_i w_{|f^-1(i)|} over the strictly
order-preserving surjections f: P -> [m].  That is phi(Gamma(P)), where
Gamma(P) is Stanley's strict P-partition enumerator in the monomial
quasisymmetric basis and phi(M_alpha) = prod_i w_{alpha_i}.  A chain gives
M_{1^l} and a disjoint union the quasi-shuffle product of the parts, so
the chain-union series of `genfun` is this product for chains, the
recursion above is phi taken one layer at a time, and the descending-runs
formula over linear extensions (Stanley's fundamental lemma) is phi of
Gessel's basis: one theory.

The recursion keeps each f(A) as one int, its value at t = 2^w with
w = `polynomials.slot_width(n)` (Kronecker substitution), so a layer size's
weight times the sum of its tails is one big-int multiply.  The weights have
negative coefficients, but the arithmetic is exact and every f(A) has
nonnegative coefficients summing to e(A) <= n! < 2^w, so its value holds
coefficient d in bits [d*w, (d+1)*w) and `unpack_slots` reads it back.

Both walks remove a layer of minima from an up-set, and a minimum of what
remains that was not a minimum before must cover a removed element.  So
each finds a state's minima from its parent's minima and the cover rows of
the layer it took, never by scanning the alive set.

Caller input is validated and library-built partitions are not:
`SetPartition(...)` and `parse_partition` check every block, while
`enumerate_transverse` yields through `SetPartition._built`, which only
sorts the blocks, because its walk takes each label into exactly one
block, in increasing order, and ends only once every label is taken.
"""

from __future__ import annotations

from math import factorial

from .errors import IndexOutOfRange, NotTransverse, ParseError
from .polynomials import parse_int_list, slot_width, unpack_slots
from .posets import SIZE_GUARD, Poset, _cover_rows, _min_mask, _minima_after


class SetPartition:
    """Blocks sorted internally, ordered by smallest element."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        seen = 0
        canon = []
        for blk in blocks:
            b = sorted(blk)
            if not b:
                raise ParseError("empty block")
            for x in b:
                if not 1 <= x <= n:
                    raise IndexOutOfRange(f"element {x} outside 1..{n}")
                if seen >> (x - 1) & 1:
                    raise ParseError(f"element {x} appears more than once")
                seen |= 1 << (x - 1)
            canon.append(tuple(b))
        if seen != (1 << n) - 1:
            raise ParseError("blocks do not cover 1..n")
        canon.sort(key=lambda b: b[0])
        self.n = n
        self.blocks = tuple(canon)

    @classmethod
    def _built(cls, n, blocks):
        """Unchecked: `blocks` must already be disjoint ascending tuples
        covering 1..n (see the module docstring), so only their order is
        restored; for disjoint blocks, tuple order is smallest-element
        order.  Callers' blocks go through `__init__`."""
        pi = cls.__new__(cls)
        pi.n = n
        pi.blocks = tuple(sorted(blocks))
        return pi

    def mobius_abs(self) -> int:
        """|mu(0-hat, pi)| on the partition lattice: prod (|B|-1)!."""
        out = 1
        for blk in self.blocks:
            out *= factorial(len(blk) - 1)
        return out

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"SetPartition({partition_to_text(self)!r})"


def partition_to_text(pi: SetPartition) -> str:
    """`1,3|2,4` form; blocks by smallest element."""
    return "|".join(",".join(str(x) for x in blk) for blk in pi.blocks)


def parse_partition(text: str, n=None) -> SetPartition:
    text = text.strip()
    if not text:
        if n in (None, 0):
            return SetPartition(0, [])
        raise ParseError("empty partition text for n > 0")
    blocks = [parse_int_list(part, "block") for part in text.split("|")]
    size = n if n is not None else max((x for blk in blocks for x in blk), default=0)
    if n is None and size > SIZE_GUARD:  # as parse_poset, before any mask is built
        raise ParseError(f"label {size} exceeds the size guard {SIZE_GUARD}")
    return SetPartition(size, blocks)


def _quotient_peel(P: Poset, blocks, n):
    """Quotient level of each block (1-based) and the label mask of each
    level (index 0 empty); None unless the blocks are transverse to P.

    Each level is every remaining block that no remaining block's up rows
    reach: a vertex with no arc in from the rest is minimal in the closure
    too, so no closure is built.  An empty level means a directed cycle; a
    block that is no antichain reaches itself, so it never peels either.
    One pass per level levels the free blocks and keeps the others, whose
    up rows it gathers for the next level.
    """
    if n != P.n:
        raise IndexOutOfRange("partition size differs from poset size")
    up = P._up
    rem = []
    above = 0
    for a, blk in enumerate(blocks):
        m = u = 0
        for x in blk:
            m |= 1 << (x - 1)
            u |= up[x - 1]
        rem.append((a, m, u))
        above |= u
    level = [0] * len(rem)
    level_masks = [0]
    while rem:
        lv = len(level_masks)
        layer = nxt = 0
        kept = []
        for entry in rem:
            a, m, u = entry
            if m & above:
                kept.append(entry)
                nxt |= u
            else:
                level[a] = lv
                layer |= m
        if not layer:
            return None
        level_masks.append(layer)
        rem, above = kept, nxt
    return level, level_masks


def is_transverse(P: Poset, pi: SetPartition) -> bool:
    """Antichain blocks and an acyclic quotient: the quotient peel ends."""
    return _quotient_peel(P, pi.blocks, pi.n) is not None


def check_transverse(P: Poset, pi: SetPartition):
    """NotTransverse unless pi is transverse; returns the quotient level of
    each block and the label mask of each level (index 0 empty)."""
    levels = _quotient_peel(P, pi.blocks, pi.n)
    if levels is None:
        raise NotTransverse(f"{partition_to_text(pi)} is not transverse")
    return levels


# -- layered enumeration ------------------------------------------------------

def enumerate_transverse(P: Poset):
    """All partitions transverse to P, streamed without storing the family.

    The level walk of the module docstring.  A layer decides the minima mm
    of its state one at a time, lowest label first.  Leaving a minimum out
    drops the targets, the minima of alive - mm, above it; a branch with no
    target left must take every remaining minimum, and one holding more
    forbidden-only blocks than free minima remain to join them is never
    pushed, so no frame of the walk is dead.

    The walk pops frames (left, S, targets, fo, blocks, state) off one
    stack: the minima still to decide, the layer so far, the targets still
    reachable, fo, a mask over the positions in `blocks` marking the blocks
    that hold only forbidden labels, the layer's blocks as label tuples,
    and the record of the state, (alive, forbidden, mm, the labels taken
    above it, and a cache from S to the minima of alive - S), which its
    frames share.  No frame is changed, so siblings share what they leave
    alone.  The frame deciding minimum v pushes v in
    a new block, v joining each block from the last to the first, and v
    left out, so they pop in the reverse order.  A finished layer yields
    its partition if it leaves nothing alive, and otherwise pushes the
    child's first frame above its siblings, so the child's partitions come
    first.  A child's minima depend on S alone, not on how S is split into
    blocks, so a state derives its targets once and the minima after each
    other S that leaves something alive once (`posets._minima_after`): its
    cache starts as {mm: targets}, the minima after S = mm.  The walk
    starts at the child of an empty layer over P, so the root is set up as
    every other state is.  No recursion limit bounds the number of levels
    or of minima.
    """
    n = P.n
    down = P._down
    up = P._up
    cover = _cover_rows(down)
    full = (1 << n) - 1
    stack = [(0, 0, 0, 0, (), (full, 0, 0, (), {0: _min_mask(down, full)}))]
    while stack:
        left, s, targets, fo, blocks, state = stack.pop()
        alive, forbidden, mm, taken, minima = state
        if left:
            bit = left & -left
            left ^= bit
            label = bit.bit_length()
            free = not forbidden & bit
            room = (left & ~forbidden).bit_count()
            short = fo.bit_count()
            if short + (not free) <= room:
                stack.append((left, s | bit, targets, fo | (not free) << len(blocks),
                              blocks + ((label,),), state))
            for b in range(len(blocks) - 1, -1, -1):
                if short - (free and fo >> b & 1) <= room:
                    stack.append((left, s | bit, targets, fo & ~(free << b),
                                  blocks[:b] + (blocks[b] + (label,),) + blocks[b + 1:], state))
            kept = targets & ~up[label - 1]
            if kept and short <= room:
                stack.append((left, s, kept, fo, blocks, state))  # leave this minimum out
            continue
        taken += blocks
        rest = alive & ~s
        if not rest:
            yield SetPartition._built(n, taken)
            continue
        after = minima.get(s)
        if after is None:
            after = minima[s] = _minima_after(mm, s, rest, down, cover)
        targets = _minima_after(after, after, rest & ~after, down, cover)
        stack.append((after, 0, targets, 0, (),
                      (rest, mm & ~s, after, taken, {after: targets})))


def transverse_poly_coeffs(P: Poset):
    """Coefficient list c with c[d] = sum of prod (|B|-1)! over transverse
    partitions having n - d blocks, by the signed recursion of the module
    docstring, memoized on the up-set alone.

    A state first closes its minima that are maximal in P: with i of them
    it is f(A without them) times prod_{|A|-i <= j < |A|} (1 + j t) and
    takes no layer, so an antichain is one state.  Any other state sums its
    children's values by layer size and multiplies each size's sum once by
    w_k, the weights grown only to the widest state summed.  Each call
    carries the minima of its up-set, and a child is looked up in the memo
    before it is called, so a memo hit costs no call and no minima; a
    child's minima are the untaken minima plus the covers of S whose down
    rows miss it (`posets._minima_after`), while closing leaves the other
    minima as they were.  Values are packed at t = 2^w as the module
    docstring says.
    """
    n = P.n
    down = P._down
    cover = _cover_rows(down)
    w = slot_width(n)
    full = (1 << n) - 1
    maxes = sum(1 << x for x in range(n) if not P._up[x])
    weight = [0, 1]  # weight[k] = w_k at t = 2^w
    memo = {0: 1}

    def rec(alive, mm):
        iso = mm & maxes
        if iso:
            rest = alive & ~iso
            acc = memo.get(rest)
            if acc is None:
                acc = rec(rest, mm & ~iso)
            for j in range(rest.bit_count(), alive.bit_count()):
                acc *= (j << w) + 1
        else:
            sums = [0] * (mm.bit_count() + 1)
            s = mm
            while s:
                rest = alive & ~s
                tail = memo.get(rest)
                if tail is None:
                    tail = rec(rest, _minima_after(mm, s, rest, down, cover))
                sums[s.bit_count()] += tail
                s = (s - 1) & mm
            while len(weight) < len(sums):
                weight.append(weight[-1] * (((len(weight) - 1) << w) - 1))
            acc = 0
            for k in range(1, len(sums)):
                acc += weight[k] * sums[k]
        memo[alive] = acc
        return acc

    try:
        return unpack_slots(rec(full, _min_mask(down, full)) if n else 1, w)
    finally:
        del rec  # rec refers to itself: without this the memo outlives the call
