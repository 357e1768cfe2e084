"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import gen
import layers
import run
import spans
import speed
from spans import Recorder

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- generators -------------------------------------------------------
@pytest.mark.parametrize(
    "generate",
    [gen.calendar_inputs, gen.store_inputs, gen.stream_inputs,
     gen.churn_inputs],
)
def test_generators_are_deterministic_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_stream_has_a_fixed_number_of_broken_chains():
    for seed in (1, 2, 3):
        events = gen.stream_inputs(seed)["events"]
        assert len(events) == gen.STREAM_EVENTS
        counts = {t: sum(1 for e, _ in events if e == t) for t in "abc"}
        assert counts["b"] == counts["c"]
        # one broken chain per STREAM_BROKEN_EVERY, give or take the cut
        assert abs(counts["a"] - counts["b"] - counts["a"] // 100) <= 1


def test_churn_gives_every_tenant_one_ordered_chain():
    records = gen.churn_inputs(3)["records"]
    per_tenant = {}
    for tenant, _, etype, t in records:
        per_tenant.setdefault(tenant, []).append((etype, t))
    assert len(per_tenant) == gen.CHURN_TENANTS
    for chain in per_tenant.values():
        assert [etype for etype, _ in chain] == ["a", "b", "c"]
        assert [t for _, t in chain] == sorted(t for _, t in chain)


# -- self-time arithmetic ---------------------------------------------
def test_self_times_on_a_synthetic_tree():
    tree = [
        ["mining.screen", 0.0, 10.0, -1, 0],      # 0: root
        ["automata.scan", 1.0, 4.0, 0, 0],        # 1: child of 0
        ["granularity.clock", 2.0, 3.0, 1, 0],    # 2: child of 1
        ["automata.scan", 5.0, 9.0, 0, 0],        # 3: child of 0
        ["granularity.clock", 12.0, 14.5, -1, 1],  # 4: second root
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 2.5]
    assert spans.covered_seconds(tree) == 12.5
    table = spans.summarize(tree)
    assert table["automata.scan"] == {"calls": 2, "self_s": 6.0}
    assert table["granularity.clock"] == {"calls": 2, "self_s": 3.5}
    assert spans.by_layer(table) == {
        "mining": 3.0, "automata": 6.0, "granularity": 3.5,
    }
    assert spans.median_duration_us(tree, "granularity.clock", 0, 1) == 1e6


def test_recorder_nests_spans_and_restores():
    class Target:
        def method(self, x):
            return self.helper(x) + 1

        def helper(self, x):
            return x * 2

        @classmethod
        def build(cls, x):
            return cls().method(x)

        async def serve(self, x):
            await asyncio.sleep(0)
            return self.method(x)

    originals = dict(vars(Target))
    recorder = Recorder()
    recorder.patch_method(Target, "method", "a.method")
    recorder.patch_method(Target, "helper", "a.helper")
    recorder.patch_method(Target, "build", "a.build")
    recorder.patch_method(Target, "serve", "b.serve")
    assert Target.build(3) == 7
    assert asyncio.run(Target().serve(1)) == 3
    names = [(s[spans.NAME], s[spans.PARENT]) for s in recorder.spans]
    assert names == [
        ("a.build", -1), ("a.method", 0), ("a.helper", 1),
        ("b.serve", -1), ("a.method", 3), ("a.helper", 4),
    ]
    recorder.remove()
    assert recorder.installed == 0
    assert dict(vars(Target)) == originals


# -- reference time ----------------------------------------------------
def test_ref_clock_scales_by_the_probe_and_stops_during_it(monkeypatch):
    """Wall stretches count at REFERENCE_PROBE_S / probe; probes count 0."""
    wall = [0.0]
    probes = iter([0.002, 0.004, 0.001])

    def fake_probe():
        seconds = next(probes)
        wall[0] += seconds
        return seconds

    monkeypatch.setattr(speed, "clock", lambda: wall[0])
    monkeypatch.setattr(speed, "probe_seconds", fake_probe)
    monkeypatch.setattr(speed, "REFERENCE_PROBE_S", 0.002)
    ref = speed.RefClock()      # warm-up 0.002, first probe 0.004
    assert ref.now() == 0.0
    wall[0] += 1.0              # host at half speed
    assert ref.now() == pytest.approx(0.5)
    ref.probe()                 # 0.001: double speed; the clock stops
    assert ref.now() == pytest.approx(0.5)
    wall[0] += 0.5
    assert ref.now() == pytest.approx(1.5)
    assert ref.probes == [0.004, 0.001]
    assert ref.speed() == pytest.approx(0.002 / 0.0025)


def test_sampling_probes_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    ref = speed.RefClock(every_s=0.01)
    with ref.sampling():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(ref.probes) > 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- metric names ------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in run.END_TO_END] + [
        name for name, _ in layers.PER_LAYER
    ]
    assert len(names) == len(set(names))
    for name, unit in list(run.END_TO_END) + list(layers.PER_LAYER):
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        layers.PER_LAYER
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS
    )
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- wrappers after a traced run ----------------------------------------
def _patch_targets():
    """Every (owner, attribute) :func:`layers.install` touches."""
    recorder = Recorder()
    layers.install(recorder)
    targets = [(owner, attr, original)
               for owner, attr, original in recorder._patches]
    recorder.remove()
    return targets


def test_traced_run_restores_every_wrapper(capsys):
    targets = _patch_targets()
    assert len(targets) > 30
    assert run.main(["--workload", "serve-churn", "--seed", "5",
                     "--seconds", "0.2", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in layers.PER_LAYER}
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, (owner, attr)


def test_fails_without_sources(tmp_path):
    """Run from a directory holding only the benchmark: no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
