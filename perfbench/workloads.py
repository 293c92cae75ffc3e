"""The four workloads, as fixed task lists built from a seed.

A task is one poset, one composition (or one generating-function call) or one
CLI call. Building a task list does everything the measured passes must not
pay for: it draws the inputs, computes their properties and the references
the answers are checked against. A task's `run(tracer)` makes the calls into
posetcones through the tracer and raises `CheckFailed` on a wrong answer.

Seeds. The seed only relabels: each random slot has a fixed size, a fixed
edge probability and a fixed shape (drawn once from the slot's own key), and
the seed picks a labelling of it, that is, its relations. The cost of every
route depends on the shape, not the labels, so a pass costs the same on
every seed while each seed feeds different inputs. Drawing fresh shapes per
seed made the wall time of `wide` vary by about half its median from seed to
seed in a prototype, which no bound of at most 0.25 can hold.
"""

from __future__ import annotations

import random
import subprocess
import sys
from collections import namedtuple
from itertools import islice

import posetcones as pc
from posetcones import whitney

import references as ref
from tracer import check

Task = namedtuple("Task", "id props run")

# route name -> (span, function); the span's layer is where the work happens
ROUTES = {
    "transverse": ("partitions.transverse_dp", whitney.poincare_via_transverse),
    "lrmax": ("whitney.lrmax", whitney.poincare_via_lrmax),
}


# -- inputs ---------------------------------------------------------------------

def shape(key, n, p):
    """Relations of a random poset on 1..n: each pair i < j kept with
    probability p, drawn from the slot key alone."""
    rng = random.Random(key)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < p]


def relabel(n, pairs, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted((perm[i - 1], perm[j - 1]) for i, j in pairs)


def props(n, pairs, **extra):
    """Input properties of a poset task, computed before timing starts."""
    P = pc.poset_from_relations(n, pairs)
    out = {"n": n, "width": pc.width(P),
           "linext": pc.count_linear_extensions(P),
           "minima": len(P.minimal_elements())}
    out.update(extra)
    return out


def random_slots(workload, seed, slots):
    """[(key, n, pairs)] for slots [(n, p)], relabelled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for idx, (n, p) in enumerate(slots):
        key = f"{workload}-shape-{idx}-n{n}-p{p}"
        out.append((key, n, relabel(n, shape(key, n, p), rng)))
    return out


# -- calls shared by the in-process workloads -------------------------------------

def build(tr, fn, *args):
    tr.count("posets.build.calls")
    return tr.call("posets.build", fn, *args)


def route(tr, method, P, linext):
    span, fn = ROUTES[method]
    if method == "transverse":
        tr.count("partitions.transverse_dp.calls")
    else:
        tr.count("whitney.lrmax.linext", linext)
    return tr.call(span, fn, P).coeffs


def auto(tr, P, linext):
    """`whitney.poincare(P)`, split at its dispatch so that the route's time
    is charged to the route's own layer."""
    method = tr.call("whitney.dispatch", whitney.auto_method, P)
    tr.count("whitney.dispatch." + method)
    return method, route(tr, method, P, linext)


def layer(method):
    return ROUTES[method][0].split(".", 1)[0]


def linext_count(tr, P, poly, method):
    nle = tr.call("posets.linext_count", pc.count_linear_extensions, P)
    check(layer(method), sum(poly) == nle, "Poin(1) != #LinExt")
    return nle


def first_extensions(P, k):
    return list(islice(pc.linear_extensions(P), k))


def sturm(tr, poly, expect=None):
    tr.count("polynomials.sturm.calls")
    k = tr.call("polynomials.sturm", pc.count_real_roots, pc.IntPolynomial(poly))
    if expect is not None:
        check("polynomials", k == expect, f"{k} real roots, want {expect}")
    else:
        floor = ref.real_root_floor(poly)
        check("polynomials", floor <= k <= len(poly) - 1,
              f"{k} real roots outside [{floor}, {len(poly) - 1}]")


def transverse_weights(P):
    """Weight sum of the enumerated transverse partitions by block count."""
    acc = [0] * (P.n + 1)
    parts = 0
    for pi in pc.enumerate_transverse(P):
        acc[P.n - len(pi)] += pi.mobius_abs()
        parts += 1
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return tuple(acc), parts


# -- wide -------------------------------------------------------------------------

WIDE_ANTICHAINS = (7, 8, 9)
# n = 6..10 in turn, eight slots each
WIDE_SLOTS = [(6 + k % 5, 0.2) for k in range(40)]
WIDE_WORDS = 24          # psi/phi round trips per poset
WIDE_ENUMERATE_MAX_N = 7  # full transverse enumeration up to this size


def wide(seed):
    tasks = []
    for n in WIDE_ANTICHAINS:
        pr = props(n, [])
        tasks.append(Task(f"antichain-{n}", pr, _wide_run(
            (pc.antichain, n), n, pr["linext"], ref.stirling_poly(n))))
    for key, n, pairs in random_slots("wide", seed, WIDE_SLOTS):
        pr = props(n, pairs)
        tasks.append(Task(key, pr, _wide_run(
            (pc.poset_from_relations, n, pairs), n, pr["linext"], None)))
    return tasks


def _wide_run(make, n, linext, want):
    def run(tr):
        P = build(tr, *make)
        method, poly = auto(tr, P, linext)
        if want is not None:
            check(layer(method), poly == want, "not the Stirling row")
        other = "lrmax" if method != "lrmax" else "transverse"
        cross = route(tr, other, P, linext)
        check(layer(other), sum(cross) == linext, "cross-check Poin(1) != #LinExt")
        check(layer(other), cross == poly, f"{other} disagrees with {method}")
        linext_count(tr, P, poly, method)
        if n <= WIDE_ENUMERATE_MAX_N:
            weights, parts = tr.call("partitions.enumerate", transverse_weights, P)
            tr.count("partitions.enumerate.partitions", parts)
            check("partitions", weights == poly, "enumerated weights differ")
        words = tr.call("posets.linext_stream", first_extensions, P, WIDE_WORDS)
        for w in words:
            tau = tr.call("bijections.psi", pc.psi, P, w)
            back = tr.call("bijections.phi", pc.phi, P, tau)
            check("bijections", back == w, f"phi(psi({w})) = {back}")
            tr.count("bijections.roundtrips")
    return run


# -- deep -------------------------------------------------------------------------

DEEP_GRIDS = ((3, 8), (3, 9), (3, 10), (4, 6), (4, 7), (5, 6))
DEEP_LADDERS = (8, 9, 10)
DEEP_SLOTS = [(14 + k % 3, 0.25) for k in range(12)]
DEEP_WORDS = 64          # omega round trips per ladder


def deep(seed):
    tasks = []
    for r, c in DEEP_GRIDS:
        P = pc.grid(r, c)
        pr = props(P.n, P.relations(), grid=f"{r}x{c}")
        want = ref.GRID3_ROWS.get(c) if r == 3 else None
        tasks.append(Task(f"grid-{r}x{c}", pr, _grid_run(r, c, want, pr["linext"])))
    for k in DEEP_LADDERS:
        P = pc.grid(2, k)
        pr = props(P.n, P.relations(), grid=f"2x{k}")
        tasks.append(Task(f"ladder-2x{k}", pr, _ladder_run(k, pr["linext"])))
    for key, n, pairs in random_slots("deep", seed, DEEP_SLOTS):
        pr = props(n, pairs)
        tasks.append(Task(key, pr, _deep_random_run(n, pairs, pr["linext"])))
    return tasks


def _grid_run(r, c, want, linext):
    def run(tr):
        P = build(tr, pc.grid, r, c)
        poly = route(tr, "transverse", P, linext)
        if want is not None:
            check("partitions", poly == want, "not the known 3 x n row")
        linext_count(tr, P, poly, "transverse")
        sturm(tr, poly)
    return run


def _ladder_run(k, linext):
    want = ref.narayana(k)

    def run(tr):
        P = build(tr, pc.grid, 2, k)
        d = tr.call("posets.chain_cover", pc.chain_cover_width2, P)
        tr.count("whitney.width2.linext", linext)
        w2 = tr.call("whitney.width2", whitney.poincare_via_width2, P, d).coeffs
        check("whitney", w2 == want, "width2 route is not the Narayana row")
        lr = route(tr, "lrmax", P, linext)
        check("whitney", lr == want, "lrmax route is not the Narayana row")
        eu = tr.call("whitney.eulerian", whitney.p_eulerian, P).coeffs
        check("whitney", eu == want, "Eulerian polynomial is not the Narayana row")
        words = tr.call("posets.linext_stream", first_extensions, P, DEEP_WORDS)
        for w in words:
            pi = tr.call("bijections.omega", pc.omega, P, d, w)
            back = tr.call("bijections.omega_inv", pc.omega_inv, P, d, pi)
            check("bijections", back == w, f"omega_inv(omega({w})) = {back}")
            tr.count("bijections.roundtrips")
        # Narayana polynomials have k - 1 distinct real roots
        sturm(tr, w2, expect=k - 1)
    return run


def _deep_random_run(n, pairs, linext):
    def run(tr):
        P = build(tr, pc.poset_from_relations, n, pairs)
        method, poly = auto(tr, P, linext)
        linext_count(tr, P, poly, method)
        sturm(tr, poly)
    return run


# -- chains -----------------------------------------------------------------------

CHAINS_TOTAL = 7        # 128 compositions; total 8 costs 20 s a pass
CHAINS_WORDS = 2        # foata_phi round trips per composition
GF_CHAINS = (4, 8)      # chains_gf_rhs and verify_chains_gf at (ell, cap)
GF_TMMT = (3, 7)        # tmmt_rhs against fcyc_distribution


def random_word(a, rng):
    """A uniform random linear extension of the standardized chain union."""
    letters = [j for j, aj in enumerate(a) for _ in range(aj)]
    rng.shuffle(letters)
    base = [sum(a[:j]) for j in range(len(a))]
    seen = [0] * len(a)
    word = []
    for j in letters:
        seen[j] += 1
        word.append(base[j] + seen[j])
    return tuple(word)


def chains(seed):
    rng = random.Random(f"chains:{seed}")
    tasks = []
    for a in ref.compositions(CHAINS_TOTAL):
        words = [random_word(a, rng) for _ in range(CHAINS_WORDS)] if sum(a) > 1 else []
        pr = {"n": sum(a), "composition": list(a), "width": len(a),
              "linext": ref.multinomial(a), "minima": len(a)}
        tasks.append(Task("chains-" + ("-".join(map(str, a)) or "empty"), pr,
                          _composition_run(a, words)))
    ell, cap = GF_CHAINS
    tasks.append(Task(f"gf-rhs-{ell}-{cap}", {"ell": ell, "cap": cap}, _rhs_run(ell, cap)))
    tasks.append(Task(f"gf-verify-{ell}-{cap}", {"ell": ell, "cap": cap},
                      _verify_run(ell, cap)))
    ell, cap = GF_TMMT
    tasks.append(Task(f"gf-tmmt-{ell}-{cap}", {"ell": ell, "cap": cap}, _tmmt_run(ell, cap)))
    return tasks


def _composition_run(a, words):
    nle = ref.multinomial(a)
    want = (ref.two_chains(*a) if len(a) == 2 else (1,) if len(a) < 2 else None)

    def run(tr):
        P = build(tr, pc.union_of_chains, a)
        tr.count("foata.route.words", nle)
        f = tr.call("foata.route", whitney.poincare_via_foata, a).coeffs
        check("foata", sum(f) == nle, "foata Poin(1) != #LinExt")
        t = route(tr, "transverse", P, nle)
        check("partitions", sum(t) == nle, "transverse Poin(1) != #LinExt")
        if want is not None:
            check("foata", f == want, "not the binomial product")
            check("partitions", t == want, "not the binomial product")
        check("foata", f == t, "foata route disagrees with transverse")
        for lam in words:
            tau = tr.call("foata.transfer", pc.foata_phi, a, lam)
            back = tr.call("foata.transfer", pc.foata_phi_inv, a, tau)
            check("foata", back == lam, f"foata_phi_inv(foata_phi({lam})) = {back}")
            sigma = tr.call("foata.transfer", pc.multiset_encode, a, lam)
            factors = tr.call("foata.decompose", pc.prime_decompose, sigma)
            tr.count("foata.decompose.factors", len(factors))
            check("foata", len(factors) == tau.cycle_count(),
                  "prime factors and cycles differ in number")
    return run


def _rhs_run(ell, cap):
    exps = ref.weak_compositions(ell, cap)

    def run(tr):
        S = tr.call("genfun.rhs", pc.chains_gf_rhs, ell, cap)
        tr.count("genfun.rhs.terms", len(S.terms))
        check("genfun", set(S.terms) == set(exps), "wrong set of terms")
        for e in exps:
            got = S.terms[e].coeffs
            parts = [x for x in e if x]
            check("genfun", sum(got) == ref.multinomial(parts), f"x^{e} at t=1")
            if len(parts) == 2:
                check("genfun", got == ref.two_chains(*parts), f"x^{e} not binomial")
    return run


def _verify_run(ell, cap):
    exps = ref.weak_compositions(ell, cap)

    def run(tr):
        report = tr.call("genfun.verify", pc.verify_chains_gf, ell, cap)
        tr.count("genfun.verify.coefficients", len(report))
        check("genfun", [a for a, _, _ in report] == exps, "wrong coefficient list")
        for a, poly, ok in report:
            check("genfun", ok, f"MISMATCH at {a}")
            check("genfun", poly(1) == ref.multinomial([x for x in a if x]),
                  f"x^{a} at t=1")
    return run


def _tmmt_run(ell, cap):
    exps = ref.weak_compositions(ell, cap)

    def run(tr):
        S = tr.call("genfun.tmmt", pc.tmmt_rhs, ell, cap)
        for a in exps:
            nle = ref.multinomial(a)
            tr.count("foata.route.words", nle)
            dist = tr.call("foata.route", pc.fcyc_distribution, a)
            check("foata", dist(1) == nle, f"fcyc distribution of {a} at t=1")
            check("genfun", S.coefficient(a) == dist, f"tmmt coefficient {a}")
    return run


# -- cli --------------------------------------------------------------------------

# Twenty calls a pass: `selfcheck` (1.3 s) is one in twenty and the 0.2-0.3 s
# calls (`genfun verify`, `table`, `poin`) follow, so p90 falls inside that
# group instead of on the edge of the `selfcheck` samples.
CLI_POIN_SLOTS = [(9, 0.2), (10, 0.25), (8, 0.2), (9, 0.3), (8, 0.2)]  # last: lrmax
CLI_PSI_SLOTS = [(7, 0.2), (8, 0.25), (8, 0.2)]
CLI_STIRLING_N = 9
CLI_NARAYANA_K = 8
SELFCHECK = {"seed": 42, "trials": 200, "n_max": 7}  # the CLI's defaults
GENFUN_VERIFY = (3, 7)


def poset_text(n, pairs):
    return f"n {n}\n" + "".join(f"rel {i} {j}\n" for i, j in pairs)


def poin_stdout(coeffs):
    v = sum(coeffs)
    return (f"Poin(P,t) = {ref.human(coeffs)}\ncoeffs: {ref.machine(coeffs)}\n"
            f"Poin(P,1) = {v}\n#LinExt = {v} [ok]\n")


def selfcheck_stdout(seed, trials, n_max):
    """`selfcheck` replays the sampling below; the width-2 count comes from
    a brute-force antichain search, not from the CLI's chain cover."""
    rng = random.Random(seed)
    probs = [round(0.1 * k, 1) for k in range(1, 10)]
    width2 = 0
    for _ in range(trials):
        n = rng.randint(1, n_max)
        p = probs[rng.randrange(len(probs))]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < p]
        width2 += ref.width_at_most_two(n, pairs)
    lines = [f"{name}: {trials} posets" for name in
             ("duality", "phi/psi round trips", "poin(1)=#linext", "transverse=lrmax")]
    if width2:
        lines.append(f"width2 agreement: {width2} posets")
    gf = len(ref.weak_compositions(2, 5))
    lines += ["stirling row n=6: ok", f"chains gf ell=2 cap=5: {gf}/{gf} match", "PASS"]
    return "\n".join(lines) + "\n"


def genfun_verify_stdout(ell, cap):
    """Each coefficient from the lrmax sweep, a third route next to the
    series and the transverse DP the CLI compares."""
    exps = ref.weak_compositions(ell, cap)
    lines = []
    for a in exps:
        poly = whitney.poincare_via_lrmax(pc.union_of_chains([x for x in a if x]))
        lines.append(f"{','.join(map(str, a))} : {ref.human(poly.coeffs)} : MATCH")
    lines.append(f"ALL MATCH ({len(exps)} coefficients)")
    return "\n".join(lines) + "\n"


def cli(seed, root, workdir, env):
    """CLI calls as (name, argv, want exit code, want stdout bytes)."""
    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    calls = []
    poin = random_slots("cli-poin", seed, CLI_POIN_SLOTS)
    for idx, (_, n, pairs) in enumerate(poin):
        P = pc.poset_from_relations(n, pairs)
        path = write(f"poin{idx}.txt", poset_text(n, pairs))
        if idx < len(poin) - 1:
            want = whitney.poincare_via_lrmax(P).coeffs
            calls.append(("poin_auto", ["poin", path], 0, poin_stdout(want), props(n, pairs)))
        else:
            want = whitney.poincare_via_transverse(P).coeffs
            calls.append(("poin_lrmax", ["poin", path, "--method", "lrmax", "--workers", "2"],
                          0, poin_stdout(want), props(n, pairs)))
    table = "".join(f"{n}: {ref.machine(row)}\n" for n, row in sorted(ref.GRID3_ROWS.items()))
    calls.append(("table", ["table", "--n-max", "8", "--machine"], 0, table, {}))
    calls.append(("selfcheck", ["selfcheck"], 0, selfcheck_stdout(**SELFCHECK), {}))
    ell, cap = GENFUN_VERIFY
    calls.append(("genfun_verify", ["genfun", "verify", "--ell", str(ell), "--degree", str(cap)],
                  0, genfun_verify_stdout(ell, cap), {}))
    stirling = ref.stirling_poly(CLI_STIRLING_N)
    calls.append(("roots", ["roots", ",".join(map(str, stirling))], 0,
                  f"real roots: {CLI_STIRLING_N - 1}\n", {}))
    coeffs, nroots = ref.ROOTS_EXAMPLE
    calls.append(("roots", ["roots", ",".join(map(str, coeffs))], 0,
                  f"real roots: {nroots}\n", {}))
    calls.append(("roots", ["roots", ",".join(map(str, ref.narayana(CLI_NARAYANA_K)))], 0,
                  f"real roots: {CLI_NARAYANA_K - 1}\n", {}))
    rng = random.Random(f"cli-psi:{seed}")
    for idx, (_, n, pairs) in enumerate(random_slots("cli-psi", seed, CLI_PSI_SLOTS)):
        P = pc.poset_from_relations(n, pairs)
        perms = list(pc.transverse_permutations(P))
        tau = perms[rng.randrange(len(perms))]
        word = pc.phi(P, tau)
        path = write(f"psi{idx}.txt", poset_text(n, pairs))
        calls.append(("bij_psi", ["bij", "psi", "--poset", path,
                                  "--word", ",".join(map(str, word))],
                      0, ref.cycles_text(tau.images) + "\n", props(n, pairs)))
    factors = "".join(f + "\n" for f in ref.FOATA_EXAMPLE_FACTORS)
    calls.append(("foata_decompose", ["foata", "decompose", ref.FOATA_EXAMPLE], 0,
                  factors + f"fcyc: {len(ref.FOATA_EXAMPLE_FACTORS)}\n", {}))
    # one cycle on distinct letters is a prime: its own only factor
    calls.append(("foata_decompose", ["foata", "decompose", ref.FOATA_PRIME], 0,
                  f"{ref.FOATA_PRIME}\nfcyc: 1\n", {}))
    for idx, text in enumerate(("n 3\nrel 1 2 3\n", "n 2\nrel 1 2\nrel 2 1\n")):
        calls.append(("malformed", ["poin", write(f"malformed{idx}.txt", text)], 2, "", {}))
    chain3 = write("chain3.txt", poset_text(3, [(1, 2), (2, 3)]))
    calls.append(("domain_error", ["bij", "psi", "--poset", chain3, "--word", "3,2,1"],
                  3, "", {}))
    calls.append(("domain_error", ["roots", "0"], 3, "", {}))

    tasks = []
    for idx, (name, argv, code, out, pr) in enumerate(calls):
        pr = dict(pr, call=name, argv=argv)
        tasks.append(Task(f"cli-{idx}-{name}", pr,
                          _cli_run(name, argv, code, out.encode(), root, env)))
    return tasks


def run_cli(argv, root, env):
    return subprocess.run([sys.executable, "-m", "posetcones", *argv], cwd=root,
                          env=env, capture_output=True, timeout=120)


def _cli_run(name, argv, code, out, root, env):
    def run(tr):
        res = tr.call("cli." + name, run_cli, argv, root, env)
        check("cli", res.returncode == code,
              f"exit {res.returncode}, want {code}: {res.stderr[-200:]!r}")
        check("cli", res.stdout == out, f"stdout differs: {res.stdout[:200]!r}")
    return run


BUILDERS = {"wide": wide, "deep": deep, "chains": chains}
