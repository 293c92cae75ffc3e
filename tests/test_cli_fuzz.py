"""Hypothesis property of the command line.

`main(argv)` runs in-process on every (command, variant) of `CLI_OPTIONS`,
with argv drawn from the options that variant declares (each present or
not, in any order, sometimes next to one it does not declare), poset files
of at most 6 points, and valid or mutated texts as values.  Every run ends
in exit 0, 2, 3 or 4, as `main`'s return value or argparse's `SystemExit`,
and raises nothing else.  Runs are derandomized, keep no example database
and draw a fixed number of examples.
"""

import contextlib
import io
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcones import (
    PosetconesError,
    WidthExceeded,
    chain_cover_width2,
    enumerate_transverse,
    linear_extensions,
    parse_poset,
    partition_to_text,
    permutation_to_text,
    poset_to_text,
    transverse_permutations,
    union_of_chains,
)
from posetcones.cli import build_parser, main

from test_cli import CLI_OPTIONS, variant_parsers
from test_parse_fuzz import VALID_TEXT, mutated, posets, raw_text

CLI_FUZZ = settings(derandomize=True, database=None, max_examples=25, deadline=None)

POSET = object()  # stands for the poset file's path
# numeric options drawn from -1 to these; `genfun stirling --n`, `table
# --n-max` and `selfcheck --n-max` have no work budget, so none is larger
NUMBERS = {"--n": 7, "--n-max": 6, "--trials": 3, "--ell": 3, "--degree": 3,
           "--seed": 9, "--workers": 3}
JUNK = ["", " ", "x", "1_0", "١", "²", "2,3", "+", "1.5", "0x1"]
FLAGS = {"--machine", "--implicit-fixed"}
METHODS = ["auto", "transverse", "lrmax", "foata", "width2"]
# positionals, in order, of each (command, variant) that takes any
POSITIONALS = {
    ("poin", None): ["poset"], ("linext", None): ["poset"],
    ("transverse", None): ["poset"], ("roots", None): ["coeffs"],
    ("foata", "decompose"): ["array"], ("foata", "fcyc"): ["array"],
    ("foata", "intercalate"): ["array", "array"],
}
# options in every draw, as their defaults would run past the ranges above
ALWAYS = {("table", None): {"--n-max"}, ("selfcheck", None): {"--n-max", "--trials"}}
# options in every clean draw: those a variant cannot run without
REQUIRED = {key: {opt for a in p._actions if a.required for opt in a.option_strings}
            for key, p in variant_parsers(build_parser()).items()}


def texts(valid, clean):
    """Valid text; unless clean, valid text with a few edits or raw text too."""
    return valid if clean else st.one_of(valid, mutated(valid), raw_text())


def small(text):
    """A mutated poset file may still parse; linext and transverse have no
    work budget, so keep only those that stay small."""
    try:
        return parse_poset(text).n <= 8
    except PosetconesError:
        return True


def objects(P):
    """Linear extensions, transverse permutations and partitions of P, and
    two chains covering P when its width allows, or else any labels."""
    words = list(islice(linear_extensions(P), 100))
    perms = [permutation_to_text(p, cycles=True)
             for p in islice(transverse_permutations(P), 100)]
    parts = [partition_to_text(pi) for pi in islice(enumerate_transverse(P), 100)]
    try:
        d = chain_cover_width2(P)
        chains = [d.p1, d.p2]
    except WidthExceeded:
        chains = words[:1]
    return words, perms, parts, chains


def labels(words):
    return st.sampled_from(words).map(lambda w: ",".join(map(str, w)))


def fixed_values(clean):
    """Values that do not depend on the drawn poset or chain union.  A
    clean number is valid for every option that takes it."""
    return {
        "poset": st.just(POSET), "--poset": st.just(POSET),
        "coeffs": texts(VALID_TEXT["coefficients"], clean),
        "array": texts(VALID_TEXT["multiset"], clean),
        "--method": st.sampled_from(METHODS if clean else METHODS + ["x"]),
        **{opt: st.integers(2, hi).map(str) if clean else
           st.integers(-1, hi).map(str) | st.sampled_from(JUNK)
           for opt, hi in NUMBERS.items()},
    }


VALUES = {clean: fixed_values(clean) for clean in (True, False)}


@st.composite
def cli_argv(draw, command, variant):
    """(argv, poset file text) for one (command, variant); the text is None
    where no poset file is read.  Half the draws are clean: valid values,
    every required option and no undeclared one."""
    clean = not draw(st.booleans())  # the simplest draw is a clean one
    values = dict(VALUES[clean])
    text = None
    if command in ("poin", "linext", "transverse", "bij"):
        P = draw(posets(max_n=6))
        text = poset_to_text(P)
        if not clean and draw(st.booleans()):
            text = draw(mutated(st.just(text)).filter(small))
    elif variant in ("decompose", "fcyc", "phi", "phi-inv"):
        a = draw(st.lists(st.integers(0, 3), max_size=4).filter(lambda a: sum(a) <= 6))
        values["--support"] = texts(st.just(",".join(map(str, a))), clean)
        P = union_of_chains(a)  # foata's phi and phi-inv run on it
    if command == "bij" or variant in ("phi", "phi-inv"):
        words, perms, parts, chains = objects(P)
        values |= {
            "--word": texts(labels(words), clean),
            "--perm": texts(st.sampled_from(perms), clean),
            "--partition": texts(st.sampled_from(parts), clean),
            "--p1": texts(labels(chains), clean), "--p2": texts(labels(chains), clean),
        }

    key = command, variant
    groups = [[draw(values[name])] for name in POSITIONALS.get(key, [])]
    must = ALWAYS.get(key, set()) | (REQUIRED[key] if clean else set())
    for opt in sorted(CLI_OPTIONS[key]):
        if opt in must or draw(st.booleans()):
            groups.append([opt] if opt in FLAGS else [opt, draw(values[opt])])
    others = sorted(set().union(*CLI_OPTIONS.values()) - CLI_OPTIONS[key])
    if not clean and draw(st.booleans()):
        opt = draw(st.sampled_from(others))
        groups.append([opt] if opt in FLAGS else [opt, "1"])
    argv = [command] + ([variant] if variant else [])
    for group in draw(st.permutations(groups)):
        argv += group
    return argv, text


@pytest.mark.parametrize("command, variant", sorted(CLI_OPTIONS, key=str),
                         ids=[" ".join(filter(None, k)) for k in sorted(CLI_OPTIONS, key=str)])
def test_main_ends_in_an_exit_code(tmp_path, command, variant):
    path = tmp_path / "poset.txt"

    @CLI_FUZZ
    @given(cli_argv(command, variant))
    def check(case):
        argv, text = case
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [str(path) if x is POSET else x for x in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())

    check()
