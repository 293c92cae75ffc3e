"""Command line front end.

Exit codes: 0 success, 2 malformed input, 3 valid input outside a routine's
domain, 4 an internal cross-check or verification failed.  All output is
byte-deterministic for fixed arguments; --machine switches to bare
space-separated values.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from itertools import islice

from . import bijections, whitney
from .errors import ParseError, PosetconesError, WidthExceeded
from .foata import (
    fcyc,
    foata_phi,
    foata_phi_inv,
    intercalation,
    multiset_perm_to_text,
    parse_multiset_perm,
    prime_decompose,
)
from .genfun import chains_gf_rhs
from .partitions import enumerate_transverse, parse_partition, partition_to_text
from .polynomials import count_real_roots, parse_int_list, poly_from_machine
from .posets import (
    SIZE_GUARD,
    ChainDecomposition,
    antichain,
    chain_cover_width2,
    count_linear_extensions,
    grid,
    linear_extensions,
    opposite,
    parse_poset,
    random_poset,
)


def _load_poset(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_poset(text)


def _poly_text(poly, machine):
    return poly.machine_str() if machine else poly.human_str()


def _decomposition(P, args):
    if args.p1 is None and args.p2 is None:
        return chain_cover_width2(P)
    p1 = _int_list(args.p1) if args.p1 else []
    p2 = _int_list(args.p2) if args.p2 else []
    return ChainDecomposition(P, p1, p2)


def _first_difference(p, q):
    """'at t^k: a vs b' for the lowest power where p and q differ."""
    k = next(k for k in range(max(p.degree, q.degree) + 1)
             if p.coefficient(k) != q.coefficient(k))
    return f"at t^{k}: {p.coefficient(k)} vs {q.coefficient(k)}"


def _int_list(text):
    return parse_int_list(text, "label list")


def _word_text(word):
    return "[" + ",".join(map(str, word)) + "]"


# -- commands -------------------------------------------------------------------

def _incomparable_pairs(P):
    """c_1 of Poin(P, t): a one-pair block is transverse iff its pair is
    incomparable.  Read off the rows, apart from every route."""
    comparable = sum((u | d).bit_count() for u, d in zip(P._up, P._down)) // 2
    return P.n * (P.n - 1) // 2 - comparable


def cmd_poin(args):
    P = _load_poset(args.poset)
    route = whitney.auto_method(P) if args.method == "auto" else args.method
    poly = whitney.poincare(P, method=args.method)
    nle = count_linear_extensions(P)
    ok = poly(1) == nle
    if args.machine:
        print(poly.machine_str())
    else:
        print(f"Poin(P,t) = {poly.human_str()}")
        print(f"coeffs: {poly.machine_str()}")
        print(f"Poin(P,1) = {poly(1)}")
        print(f"#LinExt = {nle} [{'ok' if ok else 'MISMATCH'}]")
    failed = []
    pairs = _incomparable_pairs(P)
    if not ok:
        failed.append(f"at t=1: {poly(1)} vs {nle} from count_linear_extensions")
    if poly.coefficient(1) != pairs:
        failed.append(f"at t^1: {poly.coefficient(1)} vs {pairs} incomparable pairs")
    for what in failed:
        print(f"cross-check failed: {route} route {what}", file=sys.stderr)
    return 4 if failed else 0


def cmd_linext(args):
    P = _load_poset(args.poset)
    count = 0
    for word in linear_extensions(P):
        print(_word_text(word))
        count += 1
    if not args.machine:
        print(f"count: {count}")
    return 0


def cmd_transverse(args):
    P = _load_poset(args.poset)
    total = 0
    parts = 0
    for pi in enumerate_transverse(P):
        w = pi.mobius_abs()
        total += w
        parts += 1
        if args.machine:
            print(partition_to_text(pi))
        else:
            print(f"{partition_to_text(pi)} weight={w}")
    nle = count_linear_extensions(P)
    ok = total == nle
    if not args.machine:
        print(f"total: {parts} partitions, weight sum = {total}, #LinExt = {nle} "
              f"[{'ok' if ok else 'MISMATCH'}]")
    if not ok:
        print(f"cross-check failed: transverse enumeration weight sum {total} "
              f"vs {nle} from count_linear_extensions", file=sys.stderr)
        return 4
    return 0


def cmd_bij(args):
    P = _load_poset(args.poset)
    if args.variant == "phi":
        tau = bijections.parse_permutation(
            args.perm, n=P.n, implicit_fixed=args.implicit_fixed
        )
        word = bijections.phi(P, tau)
        print(_word_text(word))
    elif args.variant == "psi":
        tau = bijections.psi(P, _int_list(args.word))
        print(bijections.permutation_to_text(tau, cycles=True))
    elif args.variant == "omega":
        d = _decomposition(P, args)
        pi = bijections.omega(P, d, _int_list(args.word))
        print(partition_to_text(pi))
    else:  # omega-inv
        d = _decomposition(P, args)
        pi = parse_partition(args.partition, n=P.n)
        word = bijections.omega_inv(P, d, pi)
        print(_word_text(word))
    return 0


def _parse_support(text):
    vals = _int_list(text)
    if any(v < 0 for v in vals):
        raise ParseError(f"negative multiplicity in {text!r}")
    return vals


def cmd_foata(args):
    if args.variant in ("decompose", "fcyc"):
        support = _parse_support(args.support) if args.support else None
        sigma = parse_multiset_perm(args.array, support=support)
    elif args.variant in ("phi", "phi-inv"):  # the chain union on sum(a) points
        a = _parse_support(args.support)
        if sum(a) > SIZE_GUARD:
            raise ParseError(f"support total {sum(a)} exceeds the size guard {SIZE_GUARD}")
    if args.variant == "decompose":
        factors = prime_decompose(sigma)
        for f in factors:
            print(multiset_perm_to_text(f))
        if not args.machine:
            print(f"fcyc: {len(factors)}")
    elif args.variant == "intercalate":
        rho, tau = parse_multiset_perm(args.rho), parse_multiset_perm(args.tau)
        print(multiset_perm_to_text(intercalation(rho, tau)))
    elif args.variant == "fcyc":
        print(fcyc(sigma))
    elif args.variant == "phi":
        tau = foata_phi(a, _int_list(args.word))
        print(bijections.permutation_to_text(tau, cycles=True))
    else:  # phi-inv
        tau = bijections.parse_permutation(
            args.perm, n=sum(a), implicit_fixed=args.implicit_fixed
        )
        lam = foata_phi_inv(a, tau)
        print(_word_text(lam))
    return 0


def cmd_genfun(args):
    if args.variant == "rhs":
        rhs = chains_gf_rhs(args.ell, args.degree)
        for exps in sorted(rhs.terms):
            poly = rhs.terms[exps]
            label = ",".join(str(e) for e in exps)
            print(f"{label} : {_poly_text(poly, args.machine)}")
        return 0
    if args.variant == "verify":
        report = whitney.verify_chains_gf(args.ell, args.degree)
        bad = 0
        for a, poly, ok in report:
            label = ",".join(str(e) for e in a)
            print(f"{label} : {_poly_text(poly, args.machine)} : "
                  f"{'MATCH' if ok else 'MISMATCH'}")
            bad += 0 if ok else 1
        if not args.machine:
            if bad:
                print(f"MISMATCHES: {bad}/{len(report)}")
            else:
                print(f"ALL MATCH ({len(report)} coefficients)")
        return 4 if bad else 0
    if args.n > SIZE_GUARD:  # the sweep would visit 2^n down-sets
        raise ParseError(f"n={args.n} exceeds the size guard {SIZE_GUARD}")
    poly = whitney.poincare_via_lrmax(antichain(args.n))
    ok = whitney.stirling_row_matches(poly, args.n)
    print(_poly_text(poly, args.machine))
    if not args.machine:
        print("stirling row check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 4


def cmd_table(args):
    if args.n_max > 8:
        print("warning: rows beyond n=8 grow quickly", file=sys.stderr)
    for n in range(2, args.n_max + 1):
        poly = whitney.poincare_via_transverse(grid(3, n))
        if args.machine:
            print(f"{n}: {poly.machine_str()}")
        else:
            print(f"n={n}: {poly.human_str()}")
    return 0


def cmd_roots(args):
    poly = poly_from_machine(args.coeffs)
    k = count_real_roots(poly)
    if args.machine:
        print(k)
    else:
        print(f"real roots: {k}")
    return 0


def cmd_selfcheck(args):
    if args.n_max > SIZE_GUARD:  # as poin refuses a poset file past the guard
        raise ParseError(f"n-max {args.n_max} exceeds the size guard {SIZE_GUARD}")
    rng = random.Random(args.seed)
    probs = [round(0.1 * k, 1) for k in range(1, 10)]
    fails = []
    ran = Counter()

    for trial in range(args.trials):
        n = rng.randint(1, args.n_max)
        p = probs[rng.randrange(len(probs))]
        P = random_poset(n, p, rng)
        tag = f"trial {trial} (n={n}, p={p})"

        dp = whitney.poincare_via_transverse(P)
        lr = whitney.poincare_via_lrmax(P)
        ran["transverse=lrmax"] += 1
        if dp != lr:
            fails.append(f"{tag}: transverse != lrmax {_first_difference(dp, lr)}")
        nle = count_linear_extensions(P)
        ran["poin(1)=#linext"] += 1
        if dp(1) != nle:
            fails.append(f"{tag}: Poin(1) = {dp(1)} vs #LinExt = {nle}")
        ran["duality"] += 1
        dual = whitney.poincare_via_transverse(opposite(P))
        if dual != dp:
            fails.append(f"{tag}: dual polynomial differs {_first_difference(dp, dual)}")

        words = list(islice(linear_extensions(P), 200))
        ran["phi/psi round trips"] += 1
        for w in words:
            tau = bijections.psi(P, w)
            if bijections.phi(P, tau) != w:
                fails.append(f"{tag}: phi(psi(w)) != w for {w}")
                break

        try:
            d = chain_cover_width2(P)
        except WidthExceeded:
            d = None
        if d is not None:
            ran["width2 agreement"] += 1
            w2 = whitney.poincare_via_width2(P, d)
            if w2 != dp:
                fails.append(f"{tag}: width2 polynomial differs {_first_difference(dp, w2)}")
            for w in words:
                pi = bijections.omega(P, d, w)
                if bijections.omega_inv(P, d, pi) != w:
                    fails.append(f"{tag}: omega round trip broke for {w}")
                    break

    stirling_ok = whitney.stirling_row_check(6)
    if not stirling_ok:
        fails.append("stirling row n=6 check failed")
    gf = whitney.verify_chains_gf(2, 5)
    if not all(ok for _, _, ok in gf):
        fails.append("chains generating function mismatch at ell=2, cap=5")

    if not args.machine:
        for name in sorted(ran):
            print(f"{name}: {ran[name]} posets")
        print("stirling row n=6: " + ("ok" if stirling_ok else "FAILED"))
        print(f"chains gf ell=2 cap=5: {sum(1 for _, _, ok in gf if ok)}/{len(gf)} match")
        for msg in fails:
            print("FAIL " + msg)
    print("PASS" if not fails else "FAIL")
    return 0 if not fails else 4


# -- parser ----------------------------------------------------------------------

def _integer(low=None):
    """argparse `type=` for one integer in `parse_int_list`'s grammar, at
    least `low` when given; a refusal is argparse's usage error, exit 2."""
    def read(text):
        try:
            vals = parse_int_list(text, "integer")
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if len(vals) != 1:
            raise argparse.ArgumentTypeError(f"expected one integer, got {text!r}")
        if low is not None and vals[0] < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return vals[0]
    return read


class _Parser(argparse.ArgumentParser):
    """Takes an option only by its full spelling, never by a prefix of it;
    `add_subparsers` builds every command and variant parser of this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _machine_parent():
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--machine", action="store_true",
                         help="bare machine-readable output")
    return machine


def _poin_options(p):
    p.add_argument("poset", help="poset file, or - for stdin")
    p.add_argument("--method", default="auto",
                   choices=["auto", "transverse", "lrmax", "foata", "width2"])
    p.add_argument("--workers", type=_integer(), default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_poin)


def _linext_options(p):
    p.add_argument("poset")
    p.set_defaults(func=cmd_linext)


def _transverse_options(p):
    p.add_argument("poset")
    p.set_defaults(func=cmd_transverse)


def _bij_options(p):
    p.set_defaults(func=cmd_bij)
    variants = p.add_subparsers(dest="variant", required=True)
    poset = argparse.ArgumentParser(add_help=False)
    poset.add_argument("--poset", required=True)
    chains = argparse.ArgumentParser(add_help=False, parents=[poset])
    chains.add_argument("--p1", help="explicit chain 1 labels")
    chains.add_argument("--p2", help="explicit chain 2 labels")
    v = variants.add_parser("phi", parents=[poset], help="permutation to extension")
    v.add_argument("--perm", required=True, help="permutation, cycles or one-line")
    v.add_argument("--implicit-fixed", action="store_true",
                   help="labels missing from cycles are fixed points")
    v = variants.add_parser("psi", parents=[poset], help="extension to permutation")
    v.add_argument("--word", required=True, help="linear extension, comma separated")
    v = variants.add_parser("omega", parents=[chains], help="extension to width-2 partition")
    v.add_argument("--word", required=True, help="linear extension, comma separated")
    v = variants.add_parser("omega-inv", parents=[chains], help="partition to extension")
    v.add_argument("--partition", required=True, help="set partition, 1,4|2|3 form")


def _foata_options(p):
    machine = _machine_parent()
    p.set_defaults(func=cmd_foata)
    variants = p.add_subparsers(dest="variant", required=True)
    array = argparse.ArgumentParser(add_help=False)
    array.add_argument("array", help="two-line array top;bottom, or word")
    array.add_argument("--support", help="chain multiplicities, comma separated")
    variants.add_parser("decompose", parents=[array, machine], help="prime factors")
    variants.add_parser("fcyc", parents=[array], help="number of prime factors")
    v = variants.add_parser("intercalate", help="intercalation product of two arrays")
    v.add_argument("rho", help="two-line array top;bottom, or word")
    v.add_argument("tau", help="two-line array top;bottom, or word")
    v = variants.add_parser("phi", help="chain-union extension to permutation")
    v.add_argument("--support", required=True, help="chain multiplicities, comma separated")
    v.add_argument("--word", required=True, help="linear extension of the chains")
    v = variants.add_parser("phi-inv", help="permutation to chain-union extension")
    v.add_argument("--support", required=True, help="chain multiplicities, comma separated")
    v.add_argument("--perm", required=True, help="permutation, cycles or one-line")
    v.add_argument("--implicit-fixed", action="store_true")


def _genfun_options(p):
    machine = _machine_parent()
    p.set_defaults(func=cmd_genfun)
    variants = p.add_subparsers(dest="variant", required=True)
    series = argparse.ArgumentParser(add_help=False, parents=[machine])
    series.add_argument("--ell", type=_integer(0), default=2, help="number of variables")
    series.add_argument("--degree", type=_integer(0), default=5, help="total degree cap")
    variants.add_parser("rhs", parents=[series], help="series coefficients")
    variants.add_parser("verify", parents=[series], help="coefficients against the routes")
    v = variants.add_parser("stirling", parents=[machine], help="antichain Stirling row")
    v.add_argument("--n", type=_integer(0), default=6, help="row for stirling")


def _table_options(p):
    p.add_argument("--n-max", type=_integer(2), default=8)
    p.set_defaults(func=cmd_table)


def _selfcheck_options(p):
    p.add_argument("--n-max", type=_integer(1), default=7)
    p.add_argument("--trials", type=_integer(0), default=200)
    p.add_argument("--seed", type=_integer(), default=42, help="seed for the random posets")
    p.set_defaults(func=cmd_selfcheck)


def _roots_options(p):
    p.add_argument("coeffs", help="ascending coefficients, space or comma separated; "
                                  "put -- before a list that starts with a minus sign, "
                                  "as in: roots -- -1,0,1")
    p.set_defaults(func=cmd_roots)


# name -> (help, whether the command itself takes --machine, its options)
COMMANDS = {
    "poin": ("cone polynomial of a poset file", True, _poin_options),
    "linext": ("list linear extensions", True, _linext_options),
    "transverse": ("list transverse partitions with weights", True, _transverse_options),
    "bij": ("cycle and descent bijections", False, _bij_options),
    "foata": ("multiset permutation factorizations", False, _foata_options),
    "genfun": ("generating function coefficients and checks", False, _genfun_options),
    "table": ("cone polynomials of the 3 x n grid", True, _table_options),
    "selfcheck": ("randomized cross-method invariants", True, _selfcheck_options),
    "roots": ("count distinct real roots of an integer polynomial", True, _roots_options),
}


def build_parser(command=None):
    """The full parser tree, or, given a command's name, the tree with only
    that command's options: every other command stays a bare entry, so the
    top-level usage line still lists them all."""
    parser = _Parser(
        prog="posetcones",
        description="Cone polynomials of finite posets and their bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, machine, options) in COMMANDS.items():
        if command in (None, name):
            options(sub.add_parser(name, parents=[_machine_parent()] if machine else [],
                                   help=help_text))
        else:
            sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PosetconesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
