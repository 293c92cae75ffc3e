"""posetcones benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/`. The run first measures set-up (a fresh interpreter importing the
library), then repeats the workload's fixed task list, one task at a time,
until `--seconds` are used up and at least MIN_SAMPLES tasks have run.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it holds
the details: environment, per-pass times, sample counts, error rate and the
input properties of every task. A traced run alternates untraced and traced
passes, so that the tracing overhead is measured in the same run, and writes
its spans to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import Tracer, layer_of, self_times

WORKLOADS = ("wide", "deep", "chains", "cli")
LAYERS = ("posets", "partitions", "whitney", "foata", "genfun", "bijections",
          "polynomials", "cli")

MIN_SAMPLES = 110       # task latencies: p90 needs ten beyond it
MIN_PASSES = 3          # untraced; a traced run makes two of each kind
HARD_LIMIT_S = 140.0    # no new pass starts after this, whatever the minimums
SETUP_REPEATS = 15      # fresh-interpreter imports per run, median reported

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
              "task_p90_ms": "ms", "peak_rss_mb": "MB"}

# spans; each gives the metric `<span>_s`, its summed self time per pass
SPANS = (
    "posets.build", "posets.linext_count", "posets.linext_stream", "posets.chain_cover",
    "partitions.transverse_dp", "partitions.enumerate",
    "whitney.dispatch", "whitney.lrmax", "whitney.width2", "whitney.eulerian",
    "foata.route", "foata.decompose", "foata.transfer",
    "genfun.rhs", "genfun.verify", "genfun.tmmt",
    "bijections.psi", "bijections.phi", "bijections.omega", "bijections.omega_inv",
    "polynomials.sturm",
    "cli.poin_auto", "cli.poin_lrmax", "cli.table", "cli.selfcheck", "cli.genfun_verify",
    "cli.roots", "cli.bij_psi", "cli.foata_decompose", "cli.malformed", "cli.domain_error",
    "bench.task",
)
# counts per pass, and where each comes from: `calls` the benchmark counted
# its own calls, `output` it measured what the program returned, `input` it
# computed a property of the input; posetcones itself reports no counts
COUNTS = {
    "posets.build.calls": "calls",
    "partitions.transverse_dp.calls": "calls",
    "partitions.enumerate.partitions": "output",
    "whitney.dispatch.transverse": "output",
    "whitney.dispatch.lrmax": "output",
    "whitney.lrmax.linext": "input",
    "whitney.width2.linext": "input",
    "foata.route.words": "input",
    "foata.decompose.factors": "output",
    "genfun.rhs.terms": "output",
    "genfun.verify.coefficients": "output",
    "bijections.roundtrips": "calls",
    "polynomials.sturm.calls": "calls",
}
PER_LAYER = {
    **{f"{s}_s": "s" for s in SPANS},
    **{c: "count" for c in COUNTS},
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    **{f"{lay}.failed": "count" for lay in LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def child_env(src):
    """Environment of every child interpreter: the library from `src`, with
    its bytecode written on first import and reused after, as in an installed
    package, even where PYTHONDONTWRITEBYTECODE is set; otherwise every fresh
    process would compile the library from source. The standard library's
    bytecode ships with Python, so only `src/` gains __pycache__ directories."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_times(root, env, module, repeats=SETUP_REPEATS):
    """Import times of `module` in `repeats` fresh interpreters after one
    warm-up (which may compile bytecode), at the reference speed, and the
    bare interpreter start times that scale them: one before each import,
    the median of the nearest five used."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    took, starts = [], []
    for _ in range(repeats + 1):
        starts.append(speed.bare_start(root, env))
        res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        took.append(float(res.stdout))
    del took[0], starts[0]
    pad = speed.PAD
    scaled = [t * speed.REFERENCE_START_S
              / statistics.median(starts[max(0, i - pad):i + pad + 1])
              for i, t in enumerate(took)]
    return scaled, starts


def environment():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc,
            "cpu_model": model, "platform": platform.platform()}


class Run:
    """What the passes of one run leave behind. Times are at the reference
    speed (see speed.py); `raw_walls` are the measured pass times."""

    def __init__(self):
        self.passes = []        # (traced, wall, counts)
        self.raw_walls = []
        self.latencies = []     # task seconds, untraced passes only
        self.scale = {}         # (pass, task id) -> speed factor
        self.failures = {}      # layer -> failed tasks
        self.messages = []
        self.attempted = 0
        self.probe_s = None     # median probe time
        self.probe_share = None  # share of the run spent probing


def run_passes(tasks, tr, seconds, traced, meter=None):
    """Repeat the task list under a speed probe, by default the in-process
    one on a timer; a probe without a timer runs before each task. Untraced
    runs time every pass; traced runs alternate an untraced and a traced
    pass."""
    out = Run()
    timed = []           # per pass: [(task id, start, end)] on the probe's clock
    start = time.perf_counter()
    with meter or speed.Speedometer() as meter:
        tr.clock = meter.clock
        while True:
            tr.on = traced and len(out.passes) % 2 == 1
            tr.pass_index = len(out.passes)
            tr.counts.clear()
            spans = []
            for task in tasks:
                tr.task = task.id
                if meter.interval is None:
                    meter.take()
                gc.collect()
                t0 = meter.clock()
                try:
                    tr.call("bench.task", task.run, tr)
                except Exception as exc:  # a failed task is counted, not fatal
                    lay = layer_of(exc)
                    out.failures[lay] = out.failures.get(lay, 0) + 1
                    if len(out.messages) < 20:
                        out.messages.append(f"{task.id}: {type(exc).__name__}: {exc}")
                spans.append((task.id, t0, meter.clock()))
                out.attempted += 1
            timed.append(spans)
            out.passes.append((tr.on, 0.0, dict(tr.counts)))
            out.raw_walls.append(sum(t1 - t0 for _, t0, t1 in spans))
            elapsed = time.perf_counter() - start
            nxt = statistics.median(out.raw_walls)
            if traced:
                done = len(out.passes) >= 4
            else:
                plain = sum(len(s) for s, (on, _, _) in zip(timed, out.passes) if not on)
                done = plain >= MIN_SAMPLES and len(out.passes) >= MIN_PASSES
            if elapsed + nxt > (seconds if done else HARD_LIMIT_S):
                break
        tr.on = False
        tr.clock = time.perf_counter
    # a task's factor uses the probes on both sides of it, so scale at the end
    for i, spans in enumerate(timed):
        on, _, counts = out.passes[i]
        wall = 0.0
        for tid, t0, t1 in spans:
            k = out.scale[(i, tid)] = meter.scale(t0, t1)
            wall += (t1 - t0) * k
            if not on:
                out.latencies.append((t1 - t0) * k)
        out.passes[i] = (on, wall, counts)
    out.probe_s = statistics.median(meter.durations) if meter.durations else None
    out.probe_share = meter.spent / (time.perf_counter() - start)
    return out


def end_to_end(passes, latencies, setup, workload):
    q = statistics.quantiles(latencies, n=10)
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(w for _, w, _ in passes),
        "task_p50_ms": q[4] * 1e3,
        "task_p90_ms": q[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(passes, tr, failures, cli_start, cli_import, scale):
    traced = [i for i, (on, _, _) in enumerate(passes) if on]
    selfs = self_times(tr.spans, scale)
    out = {}
    for s in SPANS:
        out[f"{s}_s"] = statistics.median(selfs.get((i, s), 0.0) for i in traced)
    for c in COUNTS:
        out[c] = statistics.median(passes[i][2].get(c, 0) for i in traced)
    out["cli.interp_start_s"] = cli_start
    out["cli.import_s"] = cli_import
    for lay in LAYERS:
        out[f"{lay}.failed"] = failures.get(lay, 0)
    plain = [w for on, w, _ in passes if not on]
    out["trace.overhead_s"] = (statistics.median(passes[i][1] for i in traced)
                               - statistics.median(plain))
    out["trace.spans"] = len(tr.spans) / len(traced)
    return out


def write_spans(path, tr):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "task", "pass"],
                   "spans": tr.spans}, fh)


def main(argv=None):
    args = parse_args(argv)
    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "posetcones" / "__init__.py").is_file():
        print(f"perfbench: no src/posetcones/ in {root}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import posetcones

    if Path(posetcones.__file__).resolve().parent != (src / "posetcones").resolve():
        print(f"perfbench: imported posetcones from {posetcones.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    env = child_env(src)
    module = "posetcones.cli" if args.workload == "cli" else "posetcones"
    setup, starts = [], []
    if not args.trace:
        setup, starts = import_times(root, env, module)
    cli_start = cli_import = 0.0
    if args.trace and args.workload == "cli":
        imports, starts = import_times(root, env, module)
        cli_start, cli_import = statistics.median(starts), statistics.median(imports)

    out_dir = here / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        if args.workload == "cli":
            workdir.mkdir(parents=True, exist_ok=True)
            tasks = workloads.cli(args.seed, root, workdir, env)
        else:
            tasks = workloads.BUILDERS[args.workload](args.seed)
        tr = Tracer()
        meter = None
        if args.workload == "cli":
            meter = speed.Speedometer(lambda: speed.bare_start(root, env),
                                      speed.REFERENCE_START_S, interval=None)
        gc.collect()
        gc.freeze()
        res = run_passes(tasks, tr, args.seconds, bool(args.trace), meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes, failures = res.passes, res.failures
    failed = sum(failures.values())
    if args.trace:
        metrics = per_layer(passes, tr, failures, cli_start, cli_import, res.scale)
        units = PER_LAYER
        spans_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        write_spans(spans_file, tr)
    else:
        metrics = end_to_end(passes, res.latencies, setup, args.workload)
        units = END_TO_END
        spans_file = None

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "reference_probe_s": (speed.REFERENCE_START_S if args.workload == "cli"
                              else speed.REFERENCE_S),
        "probe_s": res.probe_s, "setup_bare_start_s": starts,
        "probe_share": res.probe_share,
        "passes": [{"traced": on, "wall_s": w, "raw_wall_s": raw}
                   for (on, w, _), raw in zip(passes, res.raw_walls)],
        "task_samples": len(res.latencies), "tasks_per_pass": len(tasks),
        "error_rate": failed / res.attempted, "failed_by_layer": failures,
        "failures": res.messages, "setup_samples_s": setup,
        "count_sources": COUNTS, "spans_file": spans_file and str(spans_file.relative_to(root)),
        "tasks": [{"id": t.id, **t.props} for t in tasks],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": res.attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
