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
        sigma = parse_multiset_perm(args.arrays[0], support=support)
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
        rho, tau = (parse_multiset_perm(x) for x in args.arrays)
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
    if args.variant in ("rhs", "verify"):
        if args.ell < 0:
            raise ParseError("--ell must be nonnegative")
        if args.degree < 0:
            raise ParseError("--degree must be nonnegative")
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
    if args.n < 0:
        raise ParseError("--n must be nonnegative")
    poly = whitney.poincare_via_lrmax(antichain(args.n))
    ok = whitney.stirling_row_matches(poly, args.n)
    print(_poly_text(poly, args.machine))
    if not args.machine:
        print("stirling row check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 4


def cmd_table(args):
    if args.n_max < 2:
        raise ParseError("--n-max must be at least 2")
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
    if args.n_max < 1:
        raise ParseError("--n-max must be at least 1")
    if args.trials < 0:
        raise ParseError("--trials must be at least 0")
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

        words = []
        for w in linear_extensions(P):
            words.append(w)
            if len(words) >= 200:
                break
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
                pairs = sum(1 for b in pi.blocks if len(b) == 2)
                if pairs != bijections.des_p1p2(P, d, w):
                    fails.append(f"{tag}: pair blocks != descents for {w}")
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

def build_parser():
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--machine", action="store_true",
                         help="bare machine-readable output")

    parser = argparse.ArgumentParser(
        prog="posetcones",
        description="Cone polynomials of finite posets and their bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poin", parents=[machine],
                       help="cone polynomial of a poset file")
    p.add_argument("poset", help="poset file, or - for stdin")
    p.add_argument("--method", default="auto",
                   choices=["auto", "transverse", "lrmax", "foata", "width2"])
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_poin)

    p = sub.add_parser("linext", parents=[machine], help="list linear extensions")
    p.add_argument("poset")
    p.set_defaults(func=cmd_linext)

    p = sub.add_parser("transverse", parents=[machine],
                       help="list transverse partitions with weights")
    p.add_argument("poset")
    p.set_defaults(func=cmd_transverse)

    p = sub.add_parser("bij", help="cycle and descent bijections")
    p.add_argument("variant", choices=["phi", "psi", "omega", "omega-inv"])
    p.add_argument("--poset", required=True)
    p.add_argument("--perm", help="permutation, cycles or one-line")
    p.add_argument("--word", help="linear extension, comma separated")
    p.add_argument("--partition", help="set partition, 1,4|2|3 form")
    p.add_argument("--p1", help="explicit chain 1 labels")
    p.add_argument("--p2", help="explicit chain 2 labels")
    p.add_argument("--implicit-fixed", action="store_true",
                   help="labels missing from cycles are fixed points")
    p.set_defaults(func=_checked_bij)

    p = sub.add_parser("foata", parents=[machine],
                       help="multiset permutation factorizations")
    p.add_argument("variant",
                   choices=["decompose", "intercalate", "fcyc", "phi", "phi-inv"])
    p.add_argument("arrays", nargs="*",
                   help="two-line array top;bottom, or word; two for intercalate")
    p.add_argument("--support", help="chain multiplicities, comma separated")
    p.add_argument("--word", help="linear extension of the chains")
    p.add_argument("--perm", help="permutation for phi-inv")
    p.add_argument("--implicit-fixed", action="store_true")
    p.set_defaults(func=_checked_foata)

    p = sub.add_parser("genfun", parents=[machine],
                       help="generating function coefficients and checks")
    p.add_argument("variant", choices=["rhs", "verify", "stirling"])
    p.add_argument("--ell", type=int, default=2, help="number of variables")
    p.add_argument("--degree", type=int, default=5, help="total degree cap")
    p.add_argument("--n", type=int, default=6, help="row for stirling")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("table", parents=[machine],
                       help="cone polynomials of the 3 x n grid")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("selfcheck", parents=[machine],
                       help="randomized cross-method invariants")
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42, help="seed for the random posets")
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser("roots", parents=[machine],
                       help="count distinct real roots of an integer polynomial")
    p.add_argument("coeffs", help="ascending coefficients, space or comma separated; "
                                  "put -- before a list that starts with a minus sign, "
                                  "as in: roots -- -1,0,1")
    p.set_defaults(func=cmd_roots)

    return parser


def _checked_bij(args):
    need = {
        "phi": ["perm"],
        "psi": ["word"],
        "omega": ["word"],
        "omega-inv": ["partition"],
    }[args.variant]
    for field in need:
        if getattr(args, field) is None:
            raise ParseError(f"bij {args.variant} requires --{field}")
    return cmd_bij(args)


def _checked_foata(args):
    want = {"intercalate": 2, "decompose": 1, "fcyc": 1}.get(args.variant, 0)
    if len(args.arrays) > want:
        raise ParseError(f"foata {args.variant} takes {want} array argument(s), "
                         f"got {len(args.arrays)}")
    if len(args.arrays) < want:
        raise ParseError("foata intercalate requires two arrays" if want == 2
                         else f"foata {args.variant} requires an array argument")
    need = {"phi": "word", "phi-inv": "perm"}.get(args.variant)
    if need and (args.support is None or getattr(args, need) is None):
        raise ParseError(f"foata {args.variant} requires --support and --{need}")
    return cmd_foata(args)


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills `foata`'s arrays only up to its first option and hands
    # back the arrays after it, in order; anything else left over is an error
    if extra and args.command == "foata" and not any(x.startswith("-") for x in extra):
        args.arrays += extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
