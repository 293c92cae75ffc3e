"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import posetcones as pc  # noqa: E402

import references as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import CheckFailed, Tracer, self_times  # noqa: E402


def antichain_tasks(want5):
    """Antichains 4 and 5 as `wide` tasks, 5 checked against `want5`."""
    return [
        wl.Task("antichain-4", {}, wl._wide_run((pc.antichain, 4), 4, 24,
                                                ref.stirling_poly(4))),
        wl.Task("antichain-5", {}, wl._wide_run((pc.antichain, 5), 5, 120, want5)),
    ]


def test_right_reference_passes():
    res = run.run_passes(antichain_tasks(ref.stirling_poly(5)), Tracer(), 0.01, False)
    assert res.failures == {} and res.messages == []
    assert res.attempted == len(res.latencies) >= run.MIN_SAMPLES
    assert all(lat > 0 for lat in res.latencies)


def test_wrong_reference_raises_error_rate():
    wrong = list(ref.stirling_poly(5))
    wrong[2] += 1
    res = run.run_passes(antichain_tasks(tuple(wrong)), Tracer(), 0.01, False)
    assert res.failures == {"partitions": res.attempted // 2}
    assert "antichain-5" in res.messages[0]


def test_speedometer_excludes_probe_time_and_scales():
    meter = speed.Speedometer(interval=0.002)
    with meter:
        t0 = meter.clock()
        w0 = time.perf_counter()
        while time.perf_counter() - w0 < 0.1:
            pass
        t1 = meter.clock()
    assert len(meter.durations) >= 5
    assert t1 - t0 == pytest.approx(0.1 - sum(meter.durations), abs=0.02)
    k = meter.scale(t0, t1)
    assert k == pytest.approx(speed.REFERENCE_S / statistics.median(meter.durations))
    assert speed.Speedometer().scale(0.0, 1.0) == 1.0


def test_untimed_speedometer_probes_before_each_task():
    calls = []
    meter = speed.Speedometer(lambda: calls.append(1), 2.0, interval=None)
    res = run.run_passes(antichain_tasks(ref.stirling_poly(5)), Tracer(), 0.01, False, meter)
    assert len(calls) == res.attempted == len(meter.durations)
    # probes before the first task, and before the two after it
    assert res.scale[(0, "antichain-4")] == pytest.approx(
        2.0 / statistics.median(meter.durations[:3]))


def test_scaled_self_times():
    spans = [["bench.task", 0.0, 2.0, None, "a", 0], ["posets.build", 0.5, 1.0, 0, "a", 0]]
    selfs = self_times(spans, {(0, "a"): 2.0})
    assert selfs[(0, "bench.task")] == pytest.approx(3.0)
    assert selfs[(0, "posets.build")] == pytest.approx(1.0)


def test_wrong_cli_output_fails():
    env = run.child_env(ROOT / "src")
    task = wl._cli_run("roots", ["roots", "1,3,2"], 0, b"real roots: 3\n", ROOT, env)
    with pytest.raises(CheckFailed) as err:
        task(Tracer())
    assert err.value.layer == "cli"
    wl._cli_run("roots", ["roots", "1,3,2"], 0, b"real roots: 2\n", ROOT, env)(Tracer())


def test_exception_is_charged_to_its_layer():
    tr = Tracer()
    with pytest.raises(pc.NotLinearExtension) as err:
        tr.call("bijections.psi", pc.psi, pc.chain(3), (3, 2, 1))
    from tracer import layer_of
    assert layer_of(err.value) == "bijections"


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.on = True
    tr.call("bench.task", lambda: tr.call("posets.build", pc.antichain, 3))
    selfs = self_times(tr.spans)
    outer, inner = tr.spans
    assert inner[3] == 0 and outer[3] is None
    assert selfs[(0, "bench.task")] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_seed_picks_relations_only():
    slots = [(6 + k % 3, 0.2) for k in range(6)]
    one = wl.random_slots("wide", 1, slots)
    two = wl.random_slots("wide", 2, slots)
    assert one == wl.random_slots("wide", 1, slots)
    assert [(k, n, len(p)) for k, n, p in one] == [(k, n, len(p)) for k, n, p in two]
    assert [p for _, _, p in one] != [p for _, _, p in two]
    for (_, n, p1), (_, _, p2) in zip(one, two):
        P1, P2 = pc.poset_from_relations(n, p1), pc.poset_from_relations(n, p2)
        assert pc.poincare_via_transverse(P1) == pc.poincare_via_transverse(P2)


def test_references():
    assert ref.stirling_poly(4) == (1, 6, 11, 6)
    assert ref.narayana(4) == (1, 6, 6, 1)
    assert ref.two_chains(2, 2) == (1, 4, 1)
    assert ref.multinomial((2, 3)) == 10
    assert len(ref.compositions(7)) == 128
    assert len(ref.weak_compositions(3, 7)) == 120
    assert ref.human((1, 1, 0, 12)) == "1 + t + 12*t^3"
    assert ref.cycles_text((2, 1, 3)) == "(1,2)(3)"
    assert ref.real_root_floor(ref.stirling_poly(5)) == 4
    assert ref.real_root_floor(ref.ROOTS_EXAMPLE[0]) == ref.ROOTS_EXAMPLE[1]
    assert not ref.width_at_most_two(3, [])
    assert ref.width_at_most_two(3, [(1, 2)])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
