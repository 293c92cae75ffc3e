"""Bijections between linear extensions and cycle-type objects.

phi sends a permutation with transverse cycle partition to the linear
extension obtained by writing each cycle from its leading essential element
and concatenating cycles by (quotient level, leading element).  psi inverts
it by cutting a linear extension before its poset-left-to-right maxima, in
one scan of the word that writes each letter's image as it passes;
level_decompose is the explanatory record of the same cut (levels,
essential elements, LR maxima), which lrmax_count reads.  omega is the
width-2 bijection onto transverse partitions: it pairs each chain-crossing
descent of the word into a two-element block.  omega_inv walks the two
chains with one pointer each, so neither needs the minima of what is left.

Comparability is read off the bit-packed rows P._up / P._down, never pair
by pair: psi and level_decompose are one pass over level masks, and psi's
pass also checks that no letter has an unplaced letter below it.  phi walks
tau's images once, collecting each cycle with its label mask and up rows,
and levels the cycles by the rule of the quotient peel of `partitions`,
picking each cycle's lead as it levels it.  omega_inv needs no peel: its
walk writes the one word that can map to its partition, and the partition
is transverse iff omega maps that word back to it, so its check is one
more linear pass.

Caller input is validated and library-built objects are not:
`Permutation(...)` and `parse_permutation` check that the images are a
permutation of 1..n, while `psi` returns `Permutation._built`, because
its check has already proved the word a permutation of 1..n, and the scan
maps each cut segment of the word onto itself as one cycle, so the images
are the word's letters rearranged.  `transverse_permutations` builds the
same way: it writes each image along a cycle of a block of a partition of
1..n.  `omega` returns `SetPartition._built` with each pair sorted: its
word is a linear extension, so a permutation of 1..n, and no two crossing
descents share a letter, so each letter lies in one pair or stands alone.
"""

from __future__ import annotations

from itertools import permutations

from .errors import (
    IndexOutOfRange,
    NotLinearExtension,
    NotTransverse,
    ParseError,
)
from .partitions import (
    SetPartition,
    check_transverse,
    enumerate_transverse,
    partition_to_text,
)
from .polynomials import parse_int_list
from .posets import SIZE_GUARD, Poset, is_linear_extension


class Permutation:
    """Permutation of {1..n}; images[i] is the image of i+1."""

    __slots__ = ("n", "images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ParseError(f"not a permutation of 1..{n}: {images}")
        self.n = n
        self.images = images

    @classmethod
    def _built(cls, images):
        """Unchecked: `images` must already be a permutation of 1..n (see
        the module docstring).  Callers' images go through `__init__`."""
        tau = cls.__new__(cls)
        tau.images = tuple(images)
        tau.n = len(tau.images)
        return tau

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n, cycles, implicit_fixed=False):
        images = [0] * n
        seen = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for x in cyc:
                if not 1 <= x <= n:
                    raise IndexOutOfRange(f"label {x} outside 1..{n}")
                if x in seen:
                    raise ParseError(f"label {x} appears more than once")
                seen.add(x)
            for idx, x in enumerate(cyc):
                images[x - 1] = cyc[(idx + 1) % len(cyc)]
        for x in range(1, n + 1):
            if x not in seen:
                if not implicit_fixed:
                    raise ParseError(f"label {x} missing from cycles")
                images[x - 1] = x
        return cls(images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise IndexOutOfRange(f"label {x} outside 1..{self.n}")
        return self.images[x - 1]

    def cycles(self):
        """Orbits, each starting at its smallest element, sorted by that."""
        images = self.images
        seen = [False] * (self.n + 1)
        out = []
        for s in range(1, self.n + 1):
            if seen[s]:
                continue
            orbit = [s]
            seen[s] = True
            x = images[s - 1]
            while x != s:
                orbit.append(x)
                seen[x] = True
                x = images[x - 1]
            out.append(tuple(orbit))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())

    def cycle_partition(self) -> SetPartition:
        return SetPartition(self.n, self.cycles())

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def permutation_to_text(p: Permutation, cycles: bool = False) -> str:
    if not cycles:
        return "[" + ",".join(str(x) for x in p.images) + "]"
    if p.n == 0:
        return "()"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in p.cycles())


def parse_permutation(text: str, n=None, implicit_fixed=False) -> Permutation:
    """`[3,1,2]` or bare `3,1,2` one-line; `(1,3)(2)` cycle form."""
    s = text.strip()
    if s.startswith("("):
        cycles = []
        rest = s
        while rest:
            if not rest.startswith("("):
                raise ParseError(f"bad cycle text at {rest!r}")
            close = rest.find(")")
            if close < 0:
                raise ParseError("unclosed cycle")
            body = rest[1:close].strip()
            if body:
                cycles.append(parse_int_list(body, "cycle"))
            rest = rest[close + 1:].strip()
        size = n if n is not None else max((x for c in cycles for x in c), default=0)
        if n is None and size > SIZE_GUARD:  # as parse_poset, before any row is built
            raise ParseError(f"label {size} exceeds the size guard {SIZE_GUARD}")
        return Permutation.from_cycles(size, cycles, implicit_fixed=implicit_fixed)
    body = s[1:-1] if s.startswith("[") and s.endswith("]") else s
    images = parse_int_list(body, "one-line permutation")
    if n is not None and len(images) != n:
        raise ParseError(f"expected {n} entries, got {len(images)}")
    return Permutation(images)


# -- the transverse family as permutations ------------------------------------

def transverse_permutations(P: Poset):
    """All permutations whose cycle partition is transverse to P; grouped by
    partition, cyclic arrangements in lex order of the rotated tail.

    Each block's `permutations` iterator over its tail is one wheel of an
    odometer; the wheels turn with the last block fastest, as `product`
    would, so no block's (|B|-1)! arrangements are stored."""
    for pi in enumerate_transverse(P):
        wheels = [permutations(blk[1:]) for blk in pi.blocks]
        tails = [next(wheel) for wheel in wheels]
        while True:
            images = [0] * (P.n + 1)  # slot 0 unused
            for blk, tail in zip(pi.blocks, tails):
                prev = blk[0]
                for x in tail:
                    images[prev] = x
                    prev = x
                images[prev] = blk[0]
            yield Permutation._built(images[1:])
            for i in range(len(wheels) - 1, -1, -1):
                tail = next(wheels[i], None)
                if tail is not None:
                    tails[i] = tail
                    break
                wheels[i] = permutations(pi.blocks[i][1:])
                tails[i] = next(wheels[i])
            else:
                break


def levels_of_permutation(P: Poset, tau: Permutation):
    """Block -> quotient level of the cycle partition; NotTransverse if that
    partition is not transverse."""
    pi = tau.cycle_partition()
    level, _ = check_transverse(P, pi)
    return dict(zip(pi.blocks, level))


def phi(P: Poset, tau: Permutation):
    """Standard-form word: each cycle written from its leading essential
    element, cycles sorted by (level, leading element).  An element is
    essential on level one, or when it lies above something one level down.

    One walk of tau's images collects each cycle with its label mask and
    the union of its up rows.  The level loop is the quotient peel of
    `partitions._quotient_peel`: a level is every remaining cycle whose
    mask misses the up rows of the remaining cycles, and an empty level
    means tau's cycle partition is not transverse.  The peel sets a cycle
    on level lv >= 2 only above a level lv - 1 cycle, so the loop picks its
    lead against the previous level's mask as it levels it."""
    n = P.n
    if tau.n != n:
        raise IndexOutOfRange("partition size differs from poset size")
    images = tau.images
    up, down = P._up, P._down
    cycles = rem = []  # rem is rebound level by level; cycles keeps them all
    above = 0
    left = (1 << n) - 1
    while left:
        s = (left & -left).bit_length()
        cyc = [s]
        m = 1 << (s - 1)
        u = up[s - 1]
        x = images[s - 1]
        while x != s:
            cyc.append(x)
            m |= 1 << (x - 1)
            u |= up[x - 1]
            x = images[x - 1]
        left ^= m
        above |= u
        rem.append((cyc, m, u))
    word = []
    below = 0  # the previous level's labels; 0 while leveling level one
    while rem:
        layer = nxt = 0
        kept = []
        keyed = []
        for entry in rem:
            cyc, m, u = entry
            if m & above:
                kept.append(entry)
                nxt |= u
                continue
            layer |= m
            if below:
                lead = 0
                for x in cyc:
                    if x > lead and down[x - 1] & below:
                        lead = x
            else:
                lead = max(cyc)
            at = cyc.index(lead)
            keyed.append((lead, cyc[at:] + cyc[:at]))
        if not layer:
            # check_transverse's text: cycles are found by smallest label
            text = "|".join(",".join(map(str, sorted(cyc))) for cyc, _, _ in cycles)
            raise NotTransverse(f"{text} is not transverse")
        # the leads are distinct, so the cycles never decide the order
        keyed.sort()
        for _, cyc in keyed:
            word += cyc
        rem, above, below = kept, nxt, layer
    return tuple(word)


class LeveledExtension:
    """Greedy level split of a linear extension with its cycle openers."""

    __slots__ = ("word", "levels", "level_of", "essential", "plr_max")

    def __init__(self, word, levels, level_of, essential, plr_max):
        self.word = word
        self.levels = levels
        self.level_of = level_of
        self.essential = essential
        self.plr_max = plr_max

    def __repr__(self):
        return (
            f"LeveledExtension(word={self.word}, levels={self.levels}, "
            f"plr_max={self.plr_max})"
        )


def level_decompose(P: Poset, sigma) -> LeveledExtension:
    """Levels are maximal antichain prefixes read greedily left to right; an
    element is essential on level one, or when it lies above something one
    level down; the LR maxima are the running maxima of the essential
    subsequence within each level.  One pass, carrying the label masks of the
    current and the previous level."""
    word = _extension_word(P, sigma)
    down = P._down
    levels = []
    level_of = {}
    essential = set()
    plr_max = []
    cur = []
    cur_mask = prev_mask = runm = 0
    for x in word:
        row = down[x - 1]
        if row & cur_mask:
            levels.append(tuple(cur))
            cur = []
            prev_mask, cur_mask, runm = cur_mask, 0, 0
        cur.append(x)
        cur_mask |= 1 << (x - 1)
        level_of[x] = len(levels) + 1
        if not levels or row & prev_mask:
            essential.add(x)
            if x > runm:
                plr_max.append(x)
                runm = x
    if cur:
        levels.append(tuple(cur))
    return LeveledExtension(word, tuple(levels), level_of, frozenset(essential), tuple(plr_max))


def psi(P: Poset, sigma) -> Permutation:
    """Cut the word before each LR maximum; each segment becomes a cycle.

    One scan of the word, carrying the level masks as `level_decompose`
    does: an essential letter above the running maximum of its level opens
    a cycle, so the letter before it maps to the previous opener; every
    other letter is the image of the letter before it, and the last letter
    maps to the last opener.  Slot 0 of `images` takes the write made
    before the first letter.  The word is checked as `is_linear_extension`
    checks it: a permutation of 1..n first, then, in the same scan that
    writes the images, no letter with an unplaced letter below it."""
    word = tuple(sigma)
    n = P.n
    if len(word) != n or sorted(word) != list(range(1, n + 1)):
        raise NotLinearExtension(f"{list(word)} is not a linear extension")
    down = P._down
    images = [0] * (n + 1)
    placed = cur = prev = runm = 0
    opener = before = 0
    for x in word:
        row = down[x - 1]
        if row & ~placed:
            raise NotLinearExtension(f"{list(word)} is not a linear extension")
        bit = 1 << (x - 1)
        placed |= bit
        if row & cur:
            prev, cur, runm = cur, 0, 0
        cur |= bit
        if x > runm and (not prev or row & prev):  # prev is 0 on level one
            runm = x
            images[before] = opener
            opener = x
        else:
            images[before] = x
        before = x
    images[before] = opener
    return Permutation._built(images[1:])


def lrmax_count(P: Poset, sigma) -> int:
    return len(level_decompose(P, sigma).plr_max)


# -- width-2 descent bijection -------------------------------------------------

def _extension_word(P: Poset, sigma):
    """sigma as a tuple; NotLinearExtension unless it is a linear extension."""
    word = tuple(sigma)
    if not is_linear_extension(P, word):
        raise NotLinearExtension(f"{list(word)} is not a linear extension")
    return word


def _crossing_descents(P: Poset, d, word):
    """Adjacent pairs of `word`, a linear extension (unchecked), that fall
    from chain 2 to an incomparable chain-1 element."""
    up, down = P._up, P._down
    s1 = d._s1
    return [(x, y) for x, y in zip(word, word[1:])
            if y in s1 and x not in s1
            and not (up[x - 1] | down[x - 1]) >> (y - 1) & 1]


def des_p1p2(P: Poset, d, sigma) -> int:
    """Descents of sigma that fall from chain 2 to an incomparable chain-1
    element."""
    return len(_crossing_descents(P, d, _extension_word(P, sigma)))


def omega(P: Poset, d, sigma) -> SetPartition:
    """Width-2 bijection from linear extensions onto transverse partitions:
    each chain-crossing descent (chain 2 falling to an incomparable chain-1
    element) becomes a two-element block.  Two such descents never share a
    letter, since the first ends on chain 1 and the second starts on 2."""
    word = _extension_word(P, sigma)
    pairs = _crossing_descents(P, d, word)
    paired = {x for pair in pairs for x in pair}
    blocks = [(x, y) if x < y else (y, x) for x, y in pairs]
    blocks += [(x,) for x in word if x not in paired]
    return SetPartition._built(P.n, blocks)


def omega_inv(P: Poset, d, pi: SetPartition):
    """Rebuild the word with one pointer into each chain.  The chain-1 head
    is free iff the chain-2 head is not below it; a free head goes next,
    after the chain-2 run up to its partner if it has one.  Otherwise the
    chain-2 head goes next.  On a transverse pi the partners alone decide:
    a block pairs h on chain 1 with x on chain 2, and a y in the run is not
    above h (or h < x) and, if paired, its partner h' is placed (and y with
    it) or h < h' while y < x, a 2-cycle of the quotient.  A chain-2 head y
    below h is unpaired, or its unplaced partner h' >= h has y < h'.

    So the walk writes the one candidate preimage, and since omega maps
    L(P) onto the transverse partitions, pi is transverse iff omega maps
    the candidate back to it.  A partner that is not ahead on chain 2, or
    lies above h, ends the walk at once.  Otherwise no letter of a run lies
    above h, the lowest unplaced chain-1 letter, so the candidate is a
    linear extension, and a pi that is not transverse ends in
    `NotTransverse` either way.  omega, unchecked, sends it to pi iff its
    sorted crossing descents are the blocks of pi with two or more labels."""
    if pi.n != P.n:
        raise IndexOutOfRange("partition size differs from poset size")
    partner = {a: b for blk in pi.blocks if len(blk) == 2 for a, b in (blk, blk[::-1])}
    up, down = P._up, P._down
    p1, p2 = d.p1, d.p2
    i = j = 0
    word = []
    while len(word) < P.n:
        h = p1[i] if i < len(p1) else 0
        if h and (j == len(p2) or not down[h - 1] >> (p2[j] - 1) & 1):
            if h in partner:
                x = partner[h]
                try:
                    k = p2.index(x, j) + 1
                except ValueError:  # x is on chain 1 or already placed
                    break
                if up[h - 1] >> (x - 1) & 1:
                    break
                word += p2[j:k]
                j = k
            word.append(h)
            i += 1
        else:
            word.append(p2[j])
            j += 1
    else:
        pairs = {(x, y) if x < y else (y, x) for x, y in _crossing_descents(P, d, word)}
        if pairs == {blk for blk in pi.blocks if len(blk) > 1}:
            return tuple(word)
    raise NotTransverse(f"{partition_to_text(pi)} is not transverse")
