import argparse
import io
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import posetcones
from posetcones import (
    IntPolynomial, antichain, bijections, chain, cli, random_poset, whitney,
)
from posetcones.cli import _incomparable_pairs, build_parser, main

EX_211 = "n 4\nrel 3 4\n"
EX_212 = "n 4\nrel 1 2\nrel 3 4\n"
EX_PHI = "n 13\n" + "".join(
    f"rel {i} {j}\n"
    for i, j in [(13, 6), (1, 6), (1, 7), (9, 7), (9, 2), (11, 2),
                 (11, 5), (4, 12), (7, 3), (3, 10), (2, 10)]
)
GRID33 = "n 9\n" + "".join(
    f"rel {i} {i + 1}\n" for i in (1, 2, 4, 5, 7, 8)
) + "".join(f"rel {i} {i + 3}\n" for i in (1, 2, 3, 4, 5, 6))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def usage_error(capsys, *argv):
    """stdout and stderr of an argv that argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr()


def poset_file(tmp_path, text, name="poset.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_process(*argv, stdin=b""):
    """Run the CLI in a fresh interpreter, so a traceback reaches stderr."""
    src = os.path.dirname(os.path.dirname(posetcones.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8:strict")
    proc = subprocess.run([sys.executable, "-m", "posetcones", *argv],
                          input=stdin, capture_output=True, env=env)
    return (proc.returncode, proc.stdout.decode("utf-8", "replace"),
            proc.stderr.decode("utf-8", "replace"))


def test_poin_machine(tmp_path, capsys):
    f = poset_file(tmp_path, EX_211)
    code, out, _ = run(capsys, "poin", f, "--machine")
    assert code == 0
    assert out == "1 5 6\n"


def test_poin_human_fields(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    code, out, _ = run(capsys, "poin", f)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Poin(P,t) = 1 + 4*t + t^2"
    assert lines[1] == "coeffs: 1 4 1"
    assert lines[2] == "Poin(P,1) = 6"
    assert lines[3] == "#LinExt = 6 [ok]"


def test_poin_grid_and_empty(tmp_path, capsys):
    f = poset_file(tmp_path, GRID33)
    code, out, _ = run(capsys, "poin", f, "--machine")
    assert (code, out) == (0, "1 9 19 11 2\n")
    g = poset_file(tmp_path, "n 0\n", "empty.txt")
    code, out, _ = run(capsys, "poin", g, "--machine")
    assert (code, out) == (0, "1\n")


def test_poin_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(EX_211))
    code, out, _ = run(capsys, "poin", "-", "--machine")
    assert (code, out) == (0, "1 5 6\n")


def test_poin_methods_agree(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    outs = set()
    for method in ("auto", "transverse", "lrmax", "width2"):
        code, out, _ = run(capsys, "poin", f, "--machine", "--method", method)
        assert code == 0
        outs.add(out)
    assert outs == {"1 4 1\n"}
    # standardized two-chain labels allow the word route as well
    code, out, _ = run(capsys, "poin", f, "--machine", "--method", "foata")
    assert (code, out) == (0, "1 4 1\n")


def test_poin_c1_counts_incomparable_pairs():
    rng = random.Random(16)
    for _ in range(300):
        P = random_poset(rng.randint(0, 9), rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
        assert whitney.poincare(P).coefficient(1) == _incomparable_pairs(P)


@pytest.mark.parametrize("method, shift, want", [
    ("auto", [0, 1, -1],
     "transverse route at t^1: 6 vs 5 incomparable pairs"),
    ("lrmax", [0, 0, 1],
     "lrmax route at t=1: 13 vs 12 from count_linear_extensions"),
    ("lrmax", [0, 1],
     "lrmax route at t=1: 13 vs 12 from count_linear_extensions\n"
     "cross-check failed: lrmax route at t^1: 6 vs 5 incomparable pairs"),
], ids=["c1", "poin1", "both"])
def test_poin_failed_check_names_its_sides(tmp_path, capsys, monkeypatch, method, shift, want):
    f = poset_file(tmp_path, EX_211)
    real = whitney.poincare
    monkeypatch.setattr(whitney, "poincare",
                        lambda P, method: real(P, method=method) + IntPolynomial(shift))
    code, out, err = run(capsys, "poin", f, "--method", method)
    assert code == 4
    assert err == f"cross-check failed: {want}\n"
    assert out.startswith("Poin(P,t) = ")


def test_poin_method_domain_errors(tmp_path, capsys):
    anti = poset_file(tmp_path, "n 3\n", "anti.txt")
    code, _, err = run(capsys, "poin", anti, "--method", "width2")
    assert code == 3 and "error" in err
    g = poset_file(tmp_path, "n 4\nrel 1 2\nrel 1 3\n", "vee.txt")
    code, _, err = run(capsys, "poin", g, "--method", "foata")
    assert code == 3 and "error" in err


def test_parse_failures_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "poin", str(tmp_path / "missing.txt"))
    assert code == 2
    bad = poset_file(tmp_path, "n 3\nrel 1 x\n", "bad.txt")
    code, _, err = run(capsys, "poin", bad)
    assert code == 2 and "2" in err  # line number in the message
    cyc = poset_file(tmp_path, "n 2\nrel 1 2\nrel 2 1\n", "cyc.txt")
    code, _, _ = run(capsys, "poin", cyc)
    assert code == 2


def test_count_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # int() refuses decimal strings longer than 4300 digits by default
    f = poset_file(tmp_path, "n " + "9" * 5000 + "\n")
    code, out, err = run(capsys, "poin", f)
    assert (code, out) == (2, "")
    assert err == "error: line 1: count has too many digits\n"


def test_superscript_count_is_a_parse_error(tmp_path):
    f = poset_file(tmp_path, "n \u00b2\n")
    code, _, err = run_process("poin", f)
    assert code == 2 and "Traceback" not in err


def test_invalid_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"n 2\nrel 1 \xff\n")
    code, _, err = run_process("poin", str(path))
    assert code == 2 and "Traceback" not in err
    code, _, err = run_process("poin", "-", stdin=path.read_bytes())
    assert code == 2 and "Traceback" not in err


# Each option sits only on the (command, variant) that reads it: --machine
# on every command but bij, and within foata on decompose alone; --seed on
# selfcheck, --workers (a no-op kept for callers) on poin.
CLI_OPTIONS = {
    ("poin", None): {"--machine", "--method", "--workers"},
    ("linext", None): {"--machine"},
    ("transverse", None): {"--machine"},
    ("bij", "phi"): {"--poset", "--perm", "--implicit-fixed"},
    ("bij", "psi"): {"--poset", "--word"},
    ("bij", "omega"): {"--poset", "--p1", "--p2", "--word"},
    ("bij", "omega-inv"): {"--poset", "--p1", "--p2", "--partition"},
    ("foata", "decompose"): {"--support", "--machine"},
    ("foata", "fcyc"): {"--support"},
    ("foata", "intercalate"): set(),
    ("foata", "phi"): {"--support", "--word"},
    ("foata", "phi-inv"): {"--support", "--perm", "--implicit-fixed"},
    ("genfun", "rhs"): {"--ell", "--degree", "--machine"},
    ("genfun", "verify"): {"--ell", "--degree", "--machine"},
    ("genfun", "stirling"): {"--n", "--machine"},
    ("table", None): {"--machine", "--n-max"},
    ("selfcheck", None): {"--machine", "--n-max", "--trials", "--seed"},
    ("roots", None): {"--machine"},
}


def _subparsers(parser):
    """name -> subparser of `parser`'s subcommand action, or {} without one."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def variant_parsers(parser):
    """(command, variant) -> its parser, variant None for a command without
    variants."""
    return {(name, variant): v
            for name, p in _subparsers(parser).items()
            for variant, v in (_subparsers(p) or {None: p}).items()}


def declared_options(parser):
    """(command, variant) -> the options declared there."""
    return {key: {opt for action in v._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")}
            for key, v in variant_parsers(parser).items()}


def test_cli_surface_declares_each_option_where_it_is_read():
    got = declared_options(build_parser())
    assert got == CLI_OPTIONS
    shared = sum(len(opts & {"--machine", "--seed", "--workers"}) for opts in got.values())
    assert shared == 12
    pairs = sum(len(opts) for (name, _), opts in got.items()
                if name in ("bij", "foata", "genfun"))
    assert pairs == 29


def test_cli_surface_walk_sees_a_planted_option():
    parser = build_parser()
    variant_parsers(parser)["foata", "intercalate"].add_argument("--planted")
    got = declared_options(parser)
    assert got != CLI_OPTIONS
    assert got[("foata", "intercalate")] == {"--planted"}


def _texts(parser):
    """Usage and help of the top parser and of every (command, variant)."""
    out = {None: (parser.format_usage(), parser.format_help())}
    for key, v in variant_parsers(parser).items():
        out[key] = (v.format_usage(), v.format_help())
    for name, p in _subparsers(parser).items():
        out[name] = (p.format_usage(), p.format_help())
    return out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_parser_for_one_command_prints_the_same_texts(command):
    # the top usage still lists every command, and the named command's
    # subtree prints what the full tree prints
    full = _texts(build_parser())
    got = _texts(build_parser(command))
    assert got[None] == full[None]
    mine = {key: text for key, text in full.items()
            if key is not None and command in (key, key[0])}
    assert {key: got[key] for key in mine} == mine


def test_parser_for_one_command_leaves_the_others_bare():
    # negative control: the other commands hold no option but -h, so the
    # comparison above is not between two full trees
    parser = build_parser("table")
    bare = {name for name, p in _subparsers(parser).items()
            if [a.dest for a in p._actions] == ["help"]}
    assert bare == set(cli.COMMANDS) - {"table"}
    assert declared_options(parser)["table", None] == CLI_OPTIONS["table", None]


@pytest.mark.parametrize("argv, want", [
    (["table", "--n-max", "2"], "table"),
    (["tabel"], None),
    (["--machine", "table"], None),
    ([], None),
])
def test_main_builds_the_named_command_only(monkeypatch, capsys, argv, want):
    seen = []
    full = cli.build_parser

    def recorded(command=None):
        seen.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == 2
    capsys.readouterr()
    assert seen == [want]


@pytest.mark.parametrize("argv, unknown", [
    (["bij", "psi", "--poset", "-", "--word", "1,2", "--machine"], "--machine"),
    (["table", "--seed", "1"], "--seed 1"),
    (["selfcheck", "--workers", "2"], "--workers 2"),
    (["bij", "psi", "--poset", "-", "--word", "3,1,2,4", "--p1", "1", "--partition", "1|2",
      "--perm", "(1)"], "--p1 1 --partition 1|2 --perm (1)"),
    (["foata", "intercalate", "1,2;2,1", "3;3", "--machine"], "--machine"),
    (["foata", "phi", "--support", "2,3,2,3", "--word", "3,8,9,6,1,4,2,7,10,5", "--machine",
      "--implicit-fixed"], "--machine --implicit-fixed"),
    (["foata", "fcyc", "2,1,1", "--word", "9"], "--word 9"),
    (["genfun", "stirling", "--n", "3", "--ell", "5", "--degree", "9"], "--ell 5 --degree 9"),
])
def test_options_on_commands_that_do_not_read_them_exit_2(argv, unknown):
    code, out, err = run_process(*argv, stdin=b"n 2\n")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.endswith(f"error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize("argv, unknown", [
    (["table", "--n", "3", "--machine"], "--n 3"),
    (["selfcheck", "--n", "5"], "--n 5"),
    (["poin", "-", "--meth", "lrmax"], "--meth lrmax"),
    (["genfun", "verify", "--deg", "3", "--mach"], "--deg 3 --mach"),
])
def test_a_prefix_of_an_option_is_refused(capsys, argv, unknown):
    # with argparse's default allow_abbrev, each prefix stood for a declared
    # option and the call exited 0
    out, err = usage_error(capsys, *argv)
    assert out == "" and err.endswith(f"error: unrecognized arguments: {unknown}\n")


@pytest.mark.parametrize("argv", [["genfun", "stirling", "--n", "3"], ["table", "--n-max", "3"],
                                  ["table", "--n-max=3", "--machine"]])
def test_full_option_spellings_still_parse(capsys, argv):
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv, want", [
    (["table", "--n-max", "1_0", "--machine"], "argument --n-max: bad integer '1_0'"),
    (["genfun", "stirling", "--n", "\u0661"], "argument --n: bad integer '\u0661'"),
    (["selfcheck", "--seed", "4_2"], "argument --seed: bad integer '4_2'"),
    (["poin", "-", "--workers", "\u0661"], "argument --workers: bad integer '\u0661'"),
    (["genfun", "rhs", "--ell", "\u00b2"], "argument --ell: bad integer '\u00b2'"),
    (["selfcheck", "--n-max", "3,4"], "argument --n-max: expected one integer, got '3,4'"),
    (["genfun", "verify", "--degree", ""], "argument --degree: expected one integer, got ''"),
], ids=["underscore", "arabic-indic", "seed", "workers", "superscript", "list", "empty"])
def test_numeric_options_take_one_integer_of_the_list_grammar(argv, want):
    # argparse's int() took `1_0` as 10 and any Unicode decimal digit
    code, out, err = run_process(*argv, stdin=b"n 2\n")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.endswith(f"error: {want}\n")


def test_poin_still_accepts_workers(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    code, plain, _ = run(capsys, "poin", f)
    assert code == 0
    code, out, _ = run(capsys, "poin", f, "--workers", "2")
    assert (code, out) == (0, plain)
    code, out, _ = run(capsys, "poin", f, "--method", "lrmax", "--workers", "2", "--machine")
    assert (code, out) == (0, "1 4 1\n")


def test_poin_on_antichain_40_prints_the_stirling_row(tmp_path, capsys):
    # the peel takes every point of an antichain and the extension count
    # splits it into singletons; unpeeled, the DP's root would take 2^40
    # layers and the sweep 2^40 masks
    f = poset_file(tmp_path, "n 40\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "poin", f, "--machine")
    assert time.perf_counter() - start < 1
    want = IntPolynomial.one()
    for k in range(1, 40):
        want = want * IntPolynomial([1, k])
    assert (code, out) == (0, want.machine_str() + "\n")
    assert whitney.stirling_row_matches(want, 40)


def test_poin_past_the_size_guard_exit_2(tmp_path):
    code, _, err = run_process("poin", poset_file(tmp_path, "n 65\n"))
    assert (code, err) == (2, "error: n=65 exceeds the size guard 64\n")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("variant, ell, degree", [
    ("rhs", 300_000_000, 0),
    ("verify", 200_000, 2),
    ("rhs", 1, 10**9),
    ("verify", 10**9, 10**9),
])
def test_genfun_past_the_entry_bound_exit_3(variant, ell, degree):
    # under a 1 GB address space, so an allocation that is not refused in
    # time ends in MemoryError rather than in the machine's memory
    src = os.path.dirname(os.path.dirname(posetcones.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "posetcones", "genfun", variant,
         "--ell", str(ell), "--degree", str(degree)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: ell={ell}, cap={degree} needs more than ")


@pytest.mark.parametrize("argv, total", [
    (["phi-inv", "--support", "10000000000", "--perm", "(1)"], 10_000_000_000),
    (["phi", "--support", "3000000000", "--word", "1"], 3_000_000_000),
], ids=["phi-inv", "phi"])
def test_foata_phi_past_the_size_guard_exit_2(argv, total):
    # under a 1 GB address space, so a support that is not refused before
    # the chain union or the permutation is built ends in MemoryError
    src = os.path.dirname(os.path.dirname(posetcones.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "posetcones", "foata", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: support total {total} exceeds the size guard 64\n"


def test_foata_phi_at_the_size_guard(capsys):
    word = ",".join(str(x) for x in range(1, 65))
    code, out, _ = run(capsys, "foata", "phi", "--support", "60,4", "--word", word)
    assert (code, out) == (0, "".join(f"({x})" for x in range(1, 65)) + "\n")
    code, out, _ = run(capsys, "foata", "phi-inv", "--support", "60,4",
                       "--perm", "(1)", "--implicit-fixed")
    assert (code, out) == (0, f"[{word}]\n")
    refused = (2, "", "error: support total 65 exceeds the size guard 64\n")
    assert run(capsys, "foata", "phi", "--support", "60,5", "--word", "1") == refused
    assert run(capsys, "foata", "phi-inv", "--support", "60,5",
               "--perm", "(1)", "--implicit-fixed") == refused


@pytest.mark.parametrize("argv, answer", [
    (["genfun", "verify", "--ell", "1", "--degree", "{}"], "cap={} exceeds the size guard 64"),
    (["selfcheck", "--n-max", "{}", "--trials", "0"], "n-max {} exceeds the size guard 64"),
], ids=["genfun-verify", "selfcheck"])
def test_poset_size_options_stop_at_the_size_guard(capsys, argv, answer):
    # past the guard these doors would build chains and random posets deep
    # enough to end in a RecursionError (a 1 100-chain, an n = 1 329 draw)
    code, _, err = run(capsys, *[a.format(64) for a in argv])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, *[a.format(65) for a in argv])
    assert (code, out, err) == (2, "", f"error: {answer.format(65)}\n")


@pytest.mark.parametrize("argv, code, out, err", [
    (["bij", "phi", "--perm", "()", "--implicit-fixed"], 0, "[1,3,2,4]\n", ""),
    (["bij", "phi", "--perm", "()"], 2, "", "error: label 1 missing from cycles\n"),
    (["bij", "phi", "--perm", "[]"], 2, "", "error: expected 4 entries, got 0\n"),
    (["bij", "phi", "--perm", ""], 2, "", "error: expected 4 entries, got 0\n"),
    (["foata", "phi-inv", "--support", "2", "--perm", "()", "--implicit-fixed"], 0, "[1,2]\n", ""),
], ids=["cycles-implicit", "cycles", "one-line", "blank", "foata-implicit"])
def test_empty_permutation_text_is_read_at_the_given_size(capsys, tmp_path, argv, code, out, err):
    # "()" is the cycle form with no cycle and "[]" the one-line form with
    # no entry, each read against the poset's or the support's size
    if argv[0] == "bij":
        argv = argv[:2] + ["--poset", poset_file(tmp_path, EX_212)] + argv[2:]
    assert run(capsys, *argv) == (code, out, err)


def test_genfun_negative_degree_exit_2():
    code, _, err = run_process("genfun", "verify", "--degree", "-1")
    assert code == 2 and "Traceback" not in err


def test_genfun_stirling_negative_n_exit_2():
    code, out, err = run_process("genfun", "stirling", "--n", "-1")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.endswith("error: argument --n: must be at least 0\n")


def test_genfun_stirling_stops_at_the_size_guard(capsys, monkeypatch):
    # past the guard the lrmax sweep over antichain(n) would visit 2^n
    # down-sets, so the guard must refuse before the sweep is reached
    def refuse(P):
        raise AssertionError(f"the sweep ran on n={P.n}")

    monkeypatch.setattr(whitney, "poincare_via_lrmax", refuse)
    assert run(capsys, "genfun", "stirling", "--n", "65") == (
        2, "", "error: n=65 exceeds the size guard 64\n")
    with pytest.raises(AssertionError, match="^the sweep ran on n=64$"):
        run(capsys, "genfun", "stirling", "--n", "64")


def test_selfcheck_n_max_zero_exit_2():
    code, _, err = run_process("selfcheck", "--n-max", "0")
    assert code == 2 and "Traceback" not in err


def test_selfcheck_negative_trials_exit_2():
    code, _, err = run_process("selfcheck", "--trials", "-1")
    assert code == 2 and "Traceback" not in err
    assert "--trials" in err


def test_selfcheck_zero_trials_still_passes(capsys):
    code, out, _ = run(capsys, "selfcheck", "--trials", "0", "--machine")
    assert (code, out) == (0, "PASS\n")


def test_linext_listing(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    code, out, _ = run(capsys, "linext", f)
    assert code == 0
    lines = out.splitlines()
    assert lines[:6] == [
        "[1,2,3,4]", "[1,3,2,4]", "[1,3,4,2]",
        "[3,1,2,4]", "[3,1,4,2]", "[3,4,1,2]",
    ]
    assert lines[6] == "count: 6"
    code, out, _ = run(capsys, "linext", f, "--machine")
    assert len(out.splitlines()) == 6


def test_transverse_listing(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    code, out, _ = run(capsys, "transverse", f)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all("weight=" in line for line in lines[:6])
    assert lines[6] == "total: 6 partitions, weight sum = 6, #LinExt = 6 [ok]"
    code, out, _ = run(capsys, "transverse", f, "--machine")
    assert sorted(out.splitlines()) == [
        "1,3|2,4", "1,3|2|4", "1,4|2|3", "1|2,3|4", "1|2,4|3", "1|2|3|4",
    ]


def _overcounted_extensions(monkeypatch):
    real = cli.count_linear_extensions
    monkeypatch.setattr(cli, "count_linear_extensions", lambda P: real(P) + 1)


def test_transverse_failed_check_names_both_sides(tmp_path, capsys, monkeypatch):
    _overcounted_extensions(monkeypatch)
    f = poset_file(tmp_path, EX_212)
    code, out, err = run(capsys, "transverse", f)
    assert code == 4
    assert out.splitlines()[-1] == "total: 6 partitions, weight sum = 6, #LinExt = 7 [MISMATCH]"
    assert err == ("cross-check failed: transverse enumeration weight sum 6 "
                   "vs 7 from count_linear_extensions\n")


def test_selfcheck_failed_extension_count_names_both_sides(capsys, monkeypatch):
    _overcounted_extensions(monkeypatch)
    code, out, _ = run(capsys, "selfcheck", "--n-max", "5", "--trials", "6")
    assert code == 4
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 6
    for line in fails:
        _, sides = line.split(": Poin(1) = ")
        poin1, nle = sides.split(" vs #LinExt = ")
        assert int(nle) == int(poin1) + 1, line


def test_bij_phi_worked_example(tmp_path, capsys):
    f = poset_file(tmp_path, EX_PHI)
    code, out, _ = run(
        capsys, "bij", "phi", "--poset", f,
        "--perm", "(4)(6,3)(9)(10)(11,7)(12,5,8,2)(13,1)",
    )
    assert (code, out) == (0, "[4,9,13,1,7,11,3,6,5,8,2,12,10]\n")


def test_bij_psi_and_round_trip(tmp_path, capsys):
    f = poset_file(tmp_path, EX_PHI)
    code, out, _ = run(
        capsys, "bij", "psi", "--poset", f,
        "--word", "4,9,13,1,7,11,3,6,5,8,2,12,10",
    )
    assert code == 0
    cycles_text = out.strip()
    code, out, _ = run(
        capsys, "bij", "phi", "--poset", f, "--perm", cycles_text,
    )
    assert (code, out) == (0, "[4,9,13,1,7,11,3,6,5,8,2,12,10]\n")


def test_bij_omega_and_inverse(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    code, out, _ = run(capsys, "bij", "omega", "--poset", f, "--word", "3,4,1,2")
    assert code == 0
    partition_text = out.strip()
    code, out, _ = run(
        capsys, "bij", "omega-inv", "--poset", f, "--partition", partition_text,
    )
    assert (code, out) == (0, "[3,4,1,2]\n")


def test_bij_requires_its_argument(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    out, err = usage_error(capsys, "bij", "phi", "--poset", f)
    assert out == ""
    assert err.endswith("error: the following arguments are required: --perm\n")


def test_bij_rejects_bad_inputs(tmp_path, capsys):
    f = poset_file(tmp_path, EX_212)
    code, _, _ = run(capsys, "bij", "phi", "--poset", f, "--perm", "(1,2)(3)(4)")
    assert code == 3  # block {1,2} is a chain, not transverse
    code, _, _ = run(capsys, "bij", "psi", "--poset", f, "--word", "2,1,3,4")
    assert code == 3


def test_foata_cli_surface(capsys):
    code, out, _ = run(
        capsys, "foata", "decompose", "1,1,2,2,2,3,3,4,4,4;2,4,4,3,1,2,1,3,4,2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "2,3,4;4,2,3", "1,2,3;2,3,1", "4;4", "1,2,4;4,1,2", "fcyc: 4",
    ]
    code, out, _ = run(
        capsys, "foata", "decompose",
        "2,4,4,3,1,2,1,3,4,2", "--support", "2,3,2,3", "--machine",
    )
    assert code == 0 and len(out.splitlines()) == 4

    code, out, _ = run(capsys, "foata", "intercalate", "2,3,4;4,2,3",
                       "1,1,2,2,3,4,4;2,4,3,1,1,4,2")
    assert (code, out) == (0, "1,1,2,2,2,3,3,4,4,4;2,4,4,3,1,2,1,3,4,2\n")

    code, out, _ = run(capsys, "foata", "fcyc",
                       "1,1,2,2,2,3,3,4,4,4;2,4,4,3,1,2,1,3,4,2")
    assert (code, out) == (0, "4\n")

    code, out, _ = run(capsys, "foata", "phi", "--support", "2,3,2,3",
                       "--word", "3,8,9,6,1,4,2,7,10,5")
    assert (code, out) == (0, "(1,4,7)(2,10,5)(3,8,6)(9)\n")

    code, out, _ = run(capsys, "foata", "phi-inv", "--support", "2,3,2,3",
                       "--perm", "(3,8,6)(1,4,7)(9)(2,10,5)")
    assert (code, out) == (0, "[3,8,9,6,1,4,2,7,10,5]\n")


@pytest.mark.parametrize("variant, arrays, options", [
    ("decompose", ["1,2;2,1"], ["--support", "1,1"]),
    ("decompose", ["2,4,4,3,1,2,1,3,4,2"], ["--support", "2,3,2,3", "--machine"]),
    ("decompose", ["1,2;2,1"], ["--machine", "--support", "1,1"]),
    ("fcyc", ["2,1,1"], ["--support", "2,1"]),
])
def test_foata_arrays_may_follow_options(capsys, variant, arrays, options):
    want = run(capsys, "foata", variant, *arrays, *options)
    assert want[0] == 0 and want[1]
    assert run(capsys, "foata", variant, *options, *arrays) == want
    assert run(capsys, "foata", variant, arrays[0], *options, *arrays[1:]) == want


@pytest.mark.parametrize("argv, extra", [
    (["decompose", "1,2;2,1", "--bogus"], "--bogus"),
    (["decompose", "--bogus", "1,2;2,1"], "--bogus"),
    (["fcyc", "1,2;2,1", "-x"], "-x"),
    (["decompose", "1,2;2,1", "--bogus", "3;3"], "--bogus 3;3"),
])
def test_foata_unknown_option_is_still_unrecognized(capsys, argv, extra):
    with pytest.raises(SystemExit) as exc:
        main(["foata", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {extra}\n")


@pytest.mark.parametrize("argv", [
    ["phi", "--support", "1,-1", "--word", "1"],
    ["decompose", "1,2", "--support", "1,-1"],
], ids=["phi", "decompose"])
def test_foata_negative_multiplicity_exit_2(capsys, argv):
    assert run(capsys, "foata", *argv) == (2, "", "error: negative multiplicity in '1,-1'\n")


def test_foata_argument_checks(capsys):
    for argv, missing in [
        (["decompose"], "array"),
        (["intercalate", "1;1"], "tau"),
        (["phi", "--support", "2,2"], "--word"),
        (["phi-inv", "--perm", "(1)"], "--support"),
    ]:
        out, err = usage_error(capsys, "foata", *argv)
        assert out == ""
        assert err.endswith(f"error: the following arguments are required: {missing}\n")
    code, _, _ = run(capsys, "foata", "fcyc", "1,2;2,1", "--support", "3,3")
    assert code == 3  # support disagrees with the array


def test_genfun_verify_format(capsys):
    code, out, _ = run(capsys, "genfun", "verify", "--ell", "2", "--degree", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("ALL MATCH")
    for line in lines[:-1]:
        label, poly_text, verdict = [part.strip() for part in line.split(" : ")]
        assert verdict == "MATCH"
        assert len(label.split(",")) == 2
    assert "2,2 : 1 + 4*t + t^2 : MATCH" in lines

    code, out, _ = run(capsys, "genfun", "verify", "--ell", "2", "--degree", "4",
                       "--machine")
    assert code == 0
    assert all(line.endswith("MATCH") for line in out.splitlines())


def test_genfun_rhs_and_stirling(capsys):
    code, out, _ = run(capsys, "genfun", "rhs", "--ell", "2", "--degree", "4")
    assert code == 0
    assert "2,2 : 1 + 4*t + t^2" in out.splitlines()
    code, out, _ = run(capsys, "genfun", "stirling", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 + 3*t + 2*t^2"
    assert lines[1] == "stirling row check: ok"
    code, out, _ = run(capsys, "genfun", "stirling", "--n", "3", "--machine")
    assert (code, out) == (0, "1 3 2\n")


def test_genfun_takes_thousands_of_variables(capsys):
    code, out, _ = run(capsys, "genfun", "rhs", "--ell", "2000", "--degree", "1",
                       "--machine")
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 2001)
    assert lines[0] == ",".join(["0"] * 2000) + " : 1"
    assert lines[-1] == ",".join(["1"] + ["0"] * 1999) + " : 1"
    code, out, _ = run(capsys, "genfun", "verify", "--ell", "1500", "--degree", "0")
    assert code == 0
    assert out.splitlines()[-1] == "ALL MATCH (1 coefficients)"


def test_genfun_stirling_runs_lrmax_once(capsys, monkeypatch):
    calls = []
    real = whitney.poincare_via_lrmax

    def counted(P):
        calls.append(P.n)
        return real(P)

    monkeypatch.setattr(whitney, "poincare_via_lrmax", counted)
    code, out, _ = run(capsys, "genfun", "stirling", "--n", "9")
    assert code == 0
    assert calls == [9]
    assert out.splitlines()[1] == "stirling row check: ok"


def test_table_small_rows(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "4", "--machine")
    assert code == 0
    assert out.splitlines() == [
        "2: 1 3 1",
        "3: 1 9 19 11 2",
        "4: 1 18 92 174 133 40 4",
    ]
    code, out, _ = run(capsys, "table", "--n-max", "2")
    assert (code, out) == (0, "n=2: 1 + 3*t + t^2\n")
    out, err = usage_error(capsys, "table", "--n-max", "1")
    assert out == ""
    assert err.endswith("error: argument --n-max: must be at least 2\n")


def test_table_past_n_8_warns_on_stderr_only(capsys):
    code, out, err = run(capsys, "table", "--n-max", "9", "--machine")
    assert (code, err) == (0, "warning: rows beyond n=8 grow quickly\n")
    rows = out.splitlines()
    assert [row.split(":")[0] for row in rows] == [str(n) for n in range(2, 10)]
    assert rows[:3] == ["2: 1 3 1", "3: 1 9 19 11 2", "4: 1 18 92 174 133 40 4"]


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "1 12 43 30 4")
    assert (code, out) == (0, "real roots: 2\n")
    code, out, _ = run(capsys, "roots", "1,9,19,11,2", "--machine")
    assert (code, out) == (0, "2\n")
    code, _, _ = run(capsys, "roots", "1 two 3")
    assert code == 2
    code, _, _ = run(capsys, "roots", "0")
    assert code == 3


@pytest.mark.parametrize("coeffs", ["1,,2", ",1,2", "1,2,", "1, ,2"])
def test_roots_empty_field_exit_2(coeffs):
    code, _, err = run_process("roots", coeffs)
    assert code == 2
    assert err.startswith("error: empty field in coefficient list")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, what", [
    (["bij", "psi", "--word", "1,,2,3,4"], "label list"),
    (["bij", "psi", "--word", ",3,1,2,4"], "label list"),
    (["bij", "omega", "--word", "3,1,4,2,"], "label list"),
    (["bij", "omega", "--word", "3,1,4,2", "--p1", "1,2,", "--p2", "3,4"], "label list"),
    (["bij", "omega-inv", "--partition", "1,3|2,4", "--p1", "1,2", "--p2", "3, ,4"],
     "label list"),
    (["foata", "phi", "--support", "2,,3,2,3", "--word", "3,8,9,6,1,4,2,7,10,5"],
     "label list"),
    (["foata", "phi", "--support", "2,3,2,3", "--word", "3,8,9,6,1,4,2,7,10,5,"],
     "label list"),
    (["bij", "phi", "--perm", "1,,3,2,4"], "one-line permutation"),
    (["bij", "phi", "--perm", "[1,,3,2,4]"], "one-line permutation"),
    (["bij", "phi", "--perm", "(1,3,)(2)(4)"], "cycle"),
    (["bij", "omega-inv", "--partition", "1,,3|2|4"], "block"),
    (["foata", "decompose", "1,,1,2;2,1,1"], "top row"),
    (["foata", "decompose", "1,1,2;2,1,,1"], "bottom row"),
    (["foata", "fcyc", "2,1,1,"], "word"),
    (["foata", "intercalate", "1;1", "2,;2"], "top row"),
], ids=["psi-inner", "psi-leading", "omega-trailing", "p1", "p2", "support", "foata-word",
        "perm-one-line", "perm-bracketed", "perm-cycle", "partition", "array-top",
        "array-bottom", "array-word", "intercalate"])
def test_label_list_empty_field_exit_2(capsys, tmp_path, argv, what):
    if argv[0] == "bij":
        argv = argv[:2] + ["--poset", poset_file(tmp_path, EX_212)] + argv[2:]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: empty field in {what} ")


@pytest.mark.parametrize("argv, err", [
    (["phi", "--perm", "(1,1)", "--implicit-fixed"], "label 1"),
    (["phi", "--perm", "(1,2,1)(3)"], "label 1"),
    (["phi", "--perm", "(1,2)(2,3)"], "label 2"),
    (["omega-inv", "--partition", "1,1|2"], "element 1"),
    (["omega-inv", "--partition", "1|1,2"], "element 1"),
])
def test_repeated_label_exit_2(capsys, tmp_path, argv, err):
    argv = ["bij", argv[0], "--poset", poset_file(tmp_path, EX_212)] + argv[1:]
    assert run(capsys, *argv) == (2, "", f"error: {err} appears more than once\n")


@pytest.mark.parametrize("coeffs", ["", " ", "\t"])
def test_roots_no_coefficient_exit_2(coeffs):
    code, _, err = run_process("roots", coeffs)
    assert code == 2
    assert err.startswith("error: no coefficient in")
    assert "Traceback" not in err


def test_roots_leading_minus_after_double_dash():
    src = os.path.dirname(os.path.dirname(posetcones.__file__))
    proc = subprocess.run([sys.executable, "-m", "posetcones", "roots", "--", "-1,0,1"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "real roots: 2\n", "")


def test_selfcheck_passes_and_is_deterministic(capsys):
    argv = ["selfcheck", "--n-max", "5", "--trials", "25", "--seed", "7"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    assert out1.splitlines()[-1] == "PASS"
    code, out2, _ = run(capsys, *argv)
    assert out2 == out1
    code, out3, _ = run(capsys, *argv, "--machine")
    assert (code, out3) == (0, "PASS\n")


def test_selfcheck_does_not_recount_lr_maxima(capsys, monkeypatch):
    # psi cuts before each LR maximum, so the cycle count needs no recount
    def forbidden(P, w):
        raise AssertionError("selfcheck called lrmax_count")

    monkeypatch.setattr(bijections, "lrmax_count", forbidden)
    code, out, _ = run(capsys, "selfcheck", "--n-max", "5", "--trials", "25",
                       "--seed", "7")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_selfcheck_catches_planted_corruption(capsys, monkeypatch):
    real = whitney.poincare_via_lrmax

    def corrupted(P):
        poly = real(P)
        if P.n == 4:
            return poly + IntPolynomial([0, 1])
        return poly

    monkeypatch.setattr(whitney, "poincare_via_lrmax", corrupted)
    code, out, _ = run(capsys, "selfcheck", "--n-max", "5", "--trials", "25",
                       "--seed", "7", "--machine")
    assert code == 4
    assert out.splitlines()[-1] == "FAIL"


def test_selfcheck_failure_names_first_differing_coefficient(capsys, monkeypatch):
    real = whitney.poincare_via_lrmax

    def corrupted(P):
        poly = real(P)
        if P.n == 4:
            return poly + IntPolynomial([0, 1])
        return poly

    monkeypatch.setattr(whitney, "poincare_via_lrmax", corrupted)
    code, out, _ = run(capsys, "selfcheck", "--n-max", "5", "--trials", "25",
                       "--seed", "7")
    assert code == 4
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails
    for line in fails:
        assert "transverse != lrmax at t^1: " in line
    assert "transverse != lrmax at t^1: 5 vs 6" in out


def test_selfcheck_catches_planted_bijection_corruption(capsys, monkeypatch):
    real = bijections.phi

    def corrupted(P, tau):
        word = real(P, tau)
        if P.n == 4:
            return (word[1], word[0]) + word[2:]
        return word

    monkeypatch.setattr(bijections, "phi", corrupted)
    code, out, _ = run(capsys, "selfcheck", "--n-max", "5", "--trials", "25",
                       "--seed", "7")
    assert code == 4
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails
    for line in fails:
        assert "(n=4," in line and ": phi(psi(w)) != w for (" in line
    assert out.splitlines()[-1] == "FAIL"


# seed 6, one trial, n <= 3: the poset 2 < 3 with 1 apart, Poin = 1 + 2t
PLANT_ARGV = ("selfcheck", "--n-max", "3", "--trials", "1", "--seed", "6")
PLANT_TAG = "trial 0 (n=3, p=0.2)"


def _plus_t2(route, n=None):
    """`route` with t^2 added to its answer, only on n points if n is given."""
    return lambda P, *rest: (route(P, *rest) + IntPolynomial([0, 0, 1])
                             if n in (None, P.n) else route(P, *rest))


def _fused_chain_union(real):
    """`union_of_chains` with the two one-point chains fused into a chain."""
    return lambda a: chain(2) if a == [1, 1] else real(a)


@pytest.mark.parametrize("plant, want, summary", [
    (lambda mp: mp.setattr(cli, "opposite", lambda P: antichain(P.n)),
     f"{PLANT_TAG}: dual polynomial differs at t^1: 2 vs 3", "duality: 1 posets"),
    (lambda mp: mp.setattr(whitney, "poincare_via_width2",
                           _plus_t2(whitney.poincare_via_width2)),
     f"{PLANT_TAG}: width2 polynomial differs at t^2: 0 vs 1", "width2 agreement: 1 posets"),
    (lambda mp: mp.setattr(bijections, "omega_inv",
                           lambda P, d, pi: tuple(range(P.n, 0, -1))),
     f"{PLANT_TAG}: omega round trip broke for (1, 2, 3)", "width2 agreement: 1 posets"),
    (lambda mp: mp.setattr(whitney, "poincare_via_lrmax",
                           _plus_t2(whitney.poincare_via_lrmax, 6)),
     "stirling row n=6 check failed", "stirling row n=6: FAILED"),
    (lambda mp: mp.setattr(whitney, "union_of_chains",
                           _fused_chain_union(whitney.union_of_chains)),
     "chains generating function mismatch at ell=2, cap=5", "chains gf ell=2 cap=5: 20/21 match"),
], ids=["duality", "width2", "omega", "stirling", "chains_gf"])
def test_selfcheck_names_each_planted_fault(capsys, monkeypatch, plant, want, summary):
    plant(monkeypatch)
    code, out, _ = run(capsys, *PLANT_ARGV)
    lines = out.splitlines()
    assert summary in lines
    assert [line for line in lines if line.startswith("FAIL ")] == ["FAIL " + want]
    assert (code, lines[-1]) == (4, "FAIL")


def test_genfun_verify_counts_planted_mismatches(capsys, monkeypatch):
    monkeypatch.setattr(whitney, "union_of_chains",
                        _fused_chain_union(whitney.union_of_chains))
    code, out, _ = run(capsys, "genfun", "verify", "--ell", "2", "--degree", "2")
    lines = out.splitlines()
    assert [line for line in lines if line.endswith(" MISMATCH")] == ["1,1 : 1 + t : MISMATCH"]
    assert (code, lines[-1]) == (4, "MISMATCHES: 1/6")
    code, out, _ = run(capsys, "genfun", "verify", "--ell", "2", "--degree", "2",
                       "--machine")
    assert code == 4 and "1,1 : 1 1 : MISMATCH" in out.splitlines()


def test_cli_import_starts_no_process_machinery():
    """Neither the process machinery nor the rational-number modules: the
    exact kernels run on plain ints."""
    src = os.path.dirname(os.path.dirname(posetcones.__file__))
    code = ("import sys, posetcones.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(("
            "'concurrent', 'multiprocessing', 'fractions', 'decimal', 'numbers'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_foata_huge_letters_run_in_a_fresh_process():
    src = os.path.dirname(os.path.dirname(posetcones.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, want in [
        (["fcyc", "99999999999999999999"], "1\n"),
        (["decompose", "5,1000000000;1000000000,5"],
         "5,1000000000;1000000000,5\nfcyc: 1\n"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "posetcones", "foata", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, want), proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["intercalate", "1;1", "2;2", "3;3"],
    ["decompose", "1;1", "2;2"],
    ["fcyc", "1,2;2,1", "1;1", "2;2"],
    ["phi", "1;1", "--support", "2,2", "--word", "1,2,3,4"],
    ["phi-inv", "1;1", "--support", "1,1", "--perm", "(1)(2)"],
])
def test_foata_extra_positionals_exit_2(capsys, argv):
    extra = {"intercalate": "3;3", "decompose": "2;2", "fcyc": "1;1 2;2",
             "phi": "1;1", "phi-inv": "1;1"}[argv[0]]
    out, err = usage_error(capsys, "foata", *argv)
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {extra}\n")
