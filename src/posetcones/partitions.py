"""Set partitions of {1..n} and the transverse family of a poset.

A partition is transverse to P when every block is an antichain and the
quotient preposet P/pi stays antisymmetric (collapsing blocks creates no
directed cycle through distinct blocks).  Enumeration peels the partition by
quotient levels: the blocks lying inside min(P) are exactly the removable
ones, so choosing a partial partition of min(P), deleting it, and forbidding
leftover-minima-only blocks at the next step visits each transverse partition
once.  A state (alive, forbidden) of that recursion has a completion iff
nothing is alive or some minimum is free: taking every minimum, each
forbidden one in a block with a free one, leaves nothing forbidden.  So a
layer S is worth taking iff S is all of min(P) or S holds every minimum below
some element of the next level, and the enumeration expands no other.

The weighted count behind the cone polynomial needs no blocks at all.  A
layer that takes a free and f forbidden minima contributes, summed over its
partitions whose blocks each hold a free label and weighted by
prod (|B|-1)! t^(|B|-1),

    W(a, f) = t^f * a^(f) * sum_k c(a, k) t^(a-k),

with a^(f) = a (a+1) ... (a+f-1) the rising factorial and c(a, k) the
unsigned Stirling numbers of the first kind.  The weight (|B|-1)! counts the
cyclic orders of a block, so the sum runs over permutations of the layer
whose cycles each hold a free label, with t marking size minus cycle count.
Permutations of the free labels give the Stirling sum; each forbidden label
is then inserted after an existing element in cycle notation, with a, a+1,
..., a+f-1 choices in turn, which adds one to the size but no cycle.

Both recursions remove a layer of minima from an up-set alive, and a
minimum of what remains that was not a minimum before must cover a removed
element.  So each finds a state's minima from its parent's minima and the
cover rows of the layer it took, never by scanning the alive set.

The DP keeps each coefficient vector as one nonnegative int, coefficient d
in bits [d*w, (d+1)*w) with w from `polynomials.slot_width` (Kronecker
substitution), so adding W(a, f) times a tail is one big-int multiply.

Caller input is validated and library-built partitions are not:
`SetPartition(...)` and `parse_partition` check every block, while
`enumerate_transverse` yields through `SetPartition._built`, which only
sorts the blocks, because its walk takes each label into exactly one
block, in increasing order, and ends only once every label is taken.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import IndexOutOfRange, NotTransverse, ParseError
from .polynomials import parse_int_list, slot_width, stirling_first_kind_row, unpack_slots
from .posets import SIZE_GUARD, Poset, _bits, _cover_rows, _min_mask, _minima_after


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
                    raise ParseError(f"element {x} repeated across blocks")
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
    """
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

def _layer_choices(min_mask, forbidden, up=(), targets=0):
    """Partitions of each nonempty subset S of min_mask whose blocks all
    contain at least one vertex outside `forbidden` and after which the
    enumeration can go on.

    `targets` are the minima of what lies above the layer (bit rows `up`).
    Taking S leaves a state with a free minimum iff S is all of min_mask or
    S holds every minimum below some target, so leaving a vertex out of the
    layer drops the targets above it, and a branch ends once none is left.
    With no targets the layer is all that is alive and S = min_mask.  A
    branch also ends when it holds more forbidden-only blocks than free
    vertices remain to join them.

    Yields (S_mask, blocks), blocks a tuple of ascending label tuples, one
    choice at a time, so a stream over the choices starts at once.
    """
    elems = list(_bits(min_mask))
    free_left = [0] * (len(elems) + 1)  # free vertices at positions >= idx
    for idx in range(len(elems) - 1, -1, -1):
        free_left[idx] = free_left[idx + 1] + (not forbidden >> elems[idx] & 1)
    blocks = []
    masks = []

    def rec(idx, s, targets, short):
        if short > free_left[idx]:
            return
        if idx == len(elems):
            yield s, tuple(map(tuple, blocks))
            return
        v = elems[idx]
        bit = 1 << v
        free = not forbidden & bit
        kept = targets & ~up[v] if targets else 0
        if kept:
            yield from rec(idx + 1, s, kept, short)  # leave v out of the layer
        for b in range(len(blocks)):
            fills = free and not masks[b] & ~forbidden
            blocks[b].append(v + 1)
            masks[b] |= bit
            yield from rec(idx + 1, s | bit, targets, short - fills)
            masks[b] ^= bit
            blocks[b].pop()
        blocks.append([v + 1])
        masks.append(bit)
        yield from rec(idx + 1, s | bit, targets, short + (not free))
        masks.pop()
        blocks.pop()

    return rec(0, 0, targets, 0)


def enumerate_transverse(P: Poset):
    """All partitions transverse to P, streamed without storing the family.

    Level recursion: a block is removable iff it sits inside min(P); blocks
    made only of minima left behind at the previous level can never become a
    deeper level's block, so they are forbidden, which kills double counting.

    A state (alive, forbidden) has a completion iff alive is empty or some
    minimum is free: taking every minimum, each forbidden one in a block with
    a free one, leaves nothing forbidden.  `_layer_choices` keeps only the
    layers that lead to such a state, so no branch of the recursion is dead.

    Each call carries the minima mm of alive; the targets (the minima of
    alive - mm) and a child's minima come from mm and the covers of the
    removed minima (`posets._minima_after`).  A child's minima depend on
    the layer set S alone, not on how S is split into blocks, so each call
    computes them once per S.
    """
    n = P.n
    down = P._down
    up = P._up
    cover = _cover_rows(down)
    full = (1 << n) - 1

    def rec(alive, forbidden, mm):
        if not alive:
            yield ()
            return
        targets = _minima_after(mm, mm, alive & ~mm, down, cover)
        minima = {}  # S -> minima of alive - S
        for s_mask, blocks in _layer_choices(mm, forbidden, up, targets):
            rest = alive & ~s_mask
            after = minima.get(s_mask)
            if after is None:
                after = minima[s_mask] = _minima_after(mm, s_mask, rest, down, cover)
            for tail in rec(rest, mm & ~s_mask, after):
                yield blocks + tail

    for blocks in rec(full, 0, _min_mask(down, full)):
        yield SetPartition._built(n, blocks)


@lru_cache(maxsize=None)
def _layer_weight(a, f):
    """W(a, f) = t^f * a^(f) * sum_k c(a, k) t^(a-k) as ascending coefficients:
    the weighted count of partitions of a free and f forbidden labels in
    which every block holds a free label (see the module docstring)."""
    rising = factorial(a + f - 1) // factorial(a - 1)
    row = stirling_first_kind_row(a)
    return (0,) * f + tuple(rising * row[a - j] for j in range(a))


@lru_cache(maxsize=None)
def _packed_layer_weight(a, f, w):
    """W(a, f) packed w bits per coefficient, as `transverse_poly_coeffs`
    multiplies it into its memo values."""
    return sum(c << (j * w) for j, c in enumerate(_layer_weight(a, f)))


def transverse_poly_coeffs(P: Poset):
    """Coefficient list c with c[d] = sum of prod (|B|-1)! over transverse
    partitions having n - d blocks.

    Memoized on (alive, forbidden) masks, which is what makes large
    chain-product posets feasible.  A layer's weight depends only on the
    numbers a of free and f of forbidden minima it takes, so each layer
    subset multiplies its tail by the closed form W(a, f) of the module
    docstring and no partition is built.  A state whose minima are all
    forbidden has no layer and contributes zero.  A child with rest == left
    (only untaken minima remain, now forbidden, as on an antichain) is one on
    sight and gets no call, no minima and no memo entry; other dead states
    are memoized, since many layer choices lead to them.

    Each call carries the minima of its alive set.  Taking the layer S
    leaves alive - S, whose minima are the untaken minima plus the covers
    of S whose down rows miss alive - S (`posets._minima_after`), since a
    new minimum must cover a removed one.  A child is looked up in the memo
    before the call, so a memo hit costs no call and no minima.

    Memo values are packed ints (module docstring), w = slot_width(n).  No
    slot carries: a state's coefficients are nonnegative and sum to its
    |mu|-weighted count of restricted transverse partitions, at most the
    linear extensions of the alive subposet (Zaslavsky), so at most n! < 2^w.
    """
    n = P.n
    down = P._down
    cover = _cover_rows(down)
    w = slot_width(n)
    full = (1 << n) - 1
    memo = {(0, 0): 1}

    def rec(alive, forbidden, mm):
        free = mm & ~forbidden
        forb = mm & forbidden
        acc = 0
        sa = free
        while sa:
            a = sa.bit_count()
            sf = forb
            while True:
                s = sa | sf
                rest = alive & ~s
                left = mm & ~s
                tail = 0 if rest == left and rest else memo.get((rest, left))
                if tail is None:
                    tail = rec(rest, left, _minima_after(mm, s, rest, down, cover))
                if tail:
                    acc += _packed_layer_weight(a, sf.bit_count(), w) * tail
                if not sf:
                    break
                sf = (sf - 1) & forb
            sa = (sa - 1) & free
        memo[alive, forbidden] = acc
        return acc

    try:
        return unpack_slots(rec(full, 0, _min_mask(down, full)) if n else 1, w)
    finally:
        del rec  # rec refers to itself: without this the memo outlives the call
