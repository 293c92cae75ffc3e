"""Hypothesis properties of the text parsers.

Every parser of caller text either returns or raises a `PosetconesError`,
on raw text and on valid text with a few characters inserted, deleted or
replaced; and each text form parses back to the object it was written
from.  Runs are derandomized, keep no example database and draw a fixed
number of examples, so the suite stays reproducible and fast.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcones import (
    MultisetPermutation,
    Permutation,
    ParseError,
    PosetconesError,
    SetPartition,
    multiset_perm_to_text,
    parse_multiset_perm,
    parse_partition,
    parse_permutation,
    parse_poset,
    partition_to_text,
    permutation_to_text,
    poly_from_machine,
    poset_from_relations,
    poset_to_text,
)

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)
ROUND_TRIP = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# the characters of every text format, plus characters the integer grammar
# refuses: `_`, Arabic-Indic one, superscript two, fullwidth one
ALPHABET = "0123456789,;|()[] \t\n#-+_nrelx\u0661\u00b2\uff11"
# other spaces and digits, and a character outside the basic plane
ODD = "\u00a0\u2009\u3000\u0e51\U0001d7d9\x00\x0b\r"
# a label far past any size a parser may build rows or masks for
HUGE = "10000000000000"


@st.composite
def posets(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    idx = st.integers(0, max(n - 1, 0))
    pairs = {(min(a, b), max(a, b)) for a, b in draw(st.lists(st.tuples(idx, idx), max_size=12))
             if a != b}
    return poset_from_relations(n, [(order[a], order[b]) for a, b in sorted(pairs)])


@st.composite
def partitions(draw):
    n = draw(st.integers(0, 8))
    blocks = {}
    for x, tag in enumerate(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), 1):
        blocks.setdefault(tag, []).append(x)
    return SetPartition(n, list(blocks.values()))


@st.composite
def permutations(draw):
    n = draw(st.integers(0, 8))
    return Permutation(draw(st.permutations(range(1, n + 1))))


@st.composite
def multiset_perms(draw):
    """Two-line arrays whose alphabet ends at their largest letter."""
    support = draw(st.lists(st.integers(0, 3), max_size=4))
    while support and not support[-1]:
        support.pop()
    top = [u for u, m in enumerate(support, 1) for _ in range(m)]
    return MultisetPermutation.from_rows(top, draw(st.permutations(top)))


@st.composite
def mutated(draw, texts):
    """A valid text with one to three edits, each inserting, deleting or
    replacing one character, or inserting HUGE."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from((*ALPHABET, HUGE)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + (c if edit == "replace" else "") + text[i + 1:]
    return text


def raw_text():
    return st.text(alphabet=ALPHABET, max_size=30) | st.text(alphabet=ALPHABET + ODD, max_size=12)


VALID_TEXT = {
    "poset": posets().map(poset_to_text),
    "partition": partitions().map(partition_to_text),
    "permutation": st.tuples(permutations(), st.booleans()).map(
        lambda pc: permutation_to_text(pc[0], cycles=pc[1])),
    "multiset": multiset_perms().map(multiset_perm_to_text),
    "coefficients": st.lists(st.integers(-50, 50), min_size=1, max_size=6).map(
        lambda cs: ",".join(map(str, cs))),
}

# each parser as a library caller and as the CLI calls it
PARSERS = {
    "poset": [parse_poset],
    "partition": [parse_partition, lambda t: parse_partition(t, n=4)],
    "permutation": [parse_permutation, lambda t: parse_permutation(t, implicit_fixed=True),
                    lambda t: parse_permutation(t, n=4, implicit_fixed=True)],
    "multiset": [parse_multiset_perm, lambda t: parse_multiset_perm(t, support=(1, 2))],
    "coefficients": [poly_from_machine],
}


def answers_or_raises_typed(kind, text):
    for parse in PARSERS[kind]:
        try:
            parse(text)
        except PosetconesError:
            pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_mutated_text_answers_or_raises_typed(kind):
    @FUZZ
    @given(mutated(VALID_TEXT[kind]))
    def check(text):
        answers_or_raises_typed(kind, text)

    check()


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_raw_text_answers_or_raises_typed(kind):
    @FUZZ
    @given(raw_text())
    def check(text):
        answers_or_raises_typed(kind, text)

    check()


@ROUND_TRIP
@given(posets())
def test_poset_text_round_trip(P):
    assert parse_poset(poset_to_text(P)) == P


@ROUND_TRIP
@given(partitions())
def test_partition_text_round_trip(pi):
    assert parse_partition(partition_to_text(pi), pi.n) == pi


@ROUND_TRIP
@given(permutations(), st.booleans())
def test_permutation_text_round_trip(p, cycles):
    assert parse_permutation(permutation_to_text(p, cycles=cycles), p.n) == p


@ROUND_TRIP
@given(multiset_perms())
def test_multiset_perm_text_round_trip(s):
    assert parse_multiset_perm(multiset_perm_to_text(s)) == s


@pytest.mark.parametrize("parse, text", [
    (parse_partition, HUGE),
    (parse_partition, "1|" + HUGE * 2),
    (parse_permutation, f"(1,{HUGE})"),
    (lambda t: parse_permutation(t, implicit_fixed=True), f"({HUGE})"),
], ids=["partition", "partition-past-int64", "cycles", "cycles-implicit-fixed"])
def test_size_read_off_a_huge_label_is_a_parse_error(parse, text):
    # found by the mutated-text property: the parsers sized the object by
    # its largest label and then built a mask or a row of that size
    with pytest.raises(ParseError, match=r"^label \d+ exceeds the size guard 64$"):
        parse(text)
