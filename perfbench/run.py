"""The repo benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mine-calendar --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload with timing wrappers on each layer's public functions and
reports the per-layer metrics instead.  Every time it reports is in
reference seconds (see ``speed.py``).  Human-readable lines come
first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(seed, host fingerprint, every figure) goes to
``.perfbench_out/<workload>-s<seed>-t<trace>.json``, and a traced run
also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

from speed import RefClock  # noqa: E402
from workloads import WORKLOADS, Phase, median, percentile  # noqa: E402

#: Extra fresh processes that repeat the set-up; ``setup_s`` is the
#: median over them and the measuring process itself.
SETUP_PROBES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


#: Figures that are printed with their unit but not bounded: the
#: issue's per-workload names for the metrics above, and the rest of
#: the stream workloads' open-loop picture.
DETAIL_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "events_per_s": "1/s",
    "detect_p50_ms": "ms",
    "detect_p90_ms": "ms",
    "offered_rate_per_s": "1/s",
    "lag_p90_ms": "ms",
    "backlog_peak": "count",
    "host_speed": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no sources, wrong package)."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError("no repro sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchmarkError("repro imported from %s" % repro.__file__)
    return repro


def _timed_setup(workload, inputs):
    """Import ``repro`` and build everything the timed loop needs;
    the time is in reference seconds (see ``speed.py``)."""
    ref = RefClock()
    with ref.sampling():
        began = ref.now()
        _import_repro()
        state = workload.setup(inputs)
        return state, ref.now() - began


def _probe_setup(args) -> float:
    """Set-up time of one fresh process."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, env=dict(os.environ),
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError("set-up probe failed: %s" % done.stderr.strip())
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def host_fingerprint() -> Dict[str, object]:
    """nproc, CPU model, Python, numpy and the code under test."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_head(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_head() -> Optional[str]:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _failed_ops(workload, state, phases: List[Phase]) -> int:
    return sum(phase.failed for phase in phases) + workload.check(state, phases)


def run_untraced(args, workload, inputs):
    state, own_setup = _timed_setup(workload, inputs)
    setup_samples = [own_setup] + [_probe_setup(args)
                                   for _ in range(SETUP_PROBES)]
    ref = RefClock()
    with ref.sampling():
        if workload.streaming:
            closed = workload.closed_loop(state, args.seconds / 2, ref)
            opened = workload.open_loop(state, args.seconds / 2, ref)
            phases = [closed, opened]
            latencies = opened.latencies_ms
        else:
            closed = workload.closed_loop(state, args.seconds, ref)
            phases = [closed]
            latencies = closed.latencies_ms
    failed = _failed_ops(workload, state, phases)
    metrics = {
        "setup_s": median(setup_samples),
        "throughput_per_s": closed.ops / closed.ref_s,
        "latency_p50_ms": median(latencies),
        "peak_rss_mb": closed.rss_mb,
    }
    attempted = sum(phase.ops for phase in phases)
    label = "events_per_s" if workload.streaming else "jobs_per_s"
    details = {
        "host_speed": ref.speed(),
        "probe_ms": [round(p * 1e3, 4) for p in ref.probes],
        "setup_samples_s": setup_samples,
        label: metrics["throughput_per_s"],
        "ops": {"closed": closed.ops},
        "latency_samples": len(latencies),
    }
    if workload.streaming:
        details.update({
            "pass_s": closed.pass_s,
            "detect_p50_ms": median(latencies),
            "detect_p90_ms": percentile(latencies, 0.9),
            "offered_rate_per_s": workload.rate,
            "lag_p90_ms": percentile(opened.lags_ms, 0.9),
            "backlog_peak": opened.backlog_peak,
        })
        details["ops"]["open"] = opened.ops
    else:
        details["job_ms"] = latencies
        details["job_p50_ms"] = median(latencies)
        if len(latencies) >= 100:
            details["job_p90_ms"] = percentile(latencies, 0.9)
    units = dict(END_TO_END)
    return attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}, details


def run_traced(args, workload, inputs):
    from spans import Recorder

    import layers

    _import_repro()
    from repro.obs import counter_deltas, metrics_snapshot

    recorder = Recorder()
    deltas: Dict[str, float] = {}

    def traced(fn, *fn_args, **fn_kwargs):
        """Run ``fn`` wrapped; its wall time holds ``ref``'s probes, as
        the spans do, in proportion to their length."""
        before = metrics_snapshot()
        layers.install(recorder)
        began = time.perf_counter()
        try:
            result = fn(*fn_args, **fn_kwargs)
        finally:
            elapsed = time.perf_counter() - began
            recorder.remove()
        for name, value in counter_deltas(before, metrics_snapshot()).items():
            deltas[name] = deltas.get(name, 0) + value
        return result, elapsed

    ref = RefClock()
    with ref.sampling():
        state, setup_wall = traced(workload.setup, inputs)
        share = args.seconds / (4 if workload.streaming else 2)
        plain = workload.closed_loop(state, share, ref)
        timed, traced_wall = traced(workload.closed_loop, state, share, ref,
                                    recorder)
        opened = (workload.open_loop(state, args.seconds / 2, ref)
                  if workload.streaming else None)
    phases = [plain, timed]
    extra: Dict[str, float] = {
        "trace.overhead_frac": (timed.ref_s / timed.ops)
        / (plain.ref_s / plain.ops) - 1.0,
    }
    if opened is not None:
        phases.append(opened)
        extra.update({
            "stream_length": len(state["records"]),
            "events": timed.ops,
            "service.backlog.peak": opened.backlog_peak,
            "loadgen.lag_p90_ms": percentile(opened.lags_ms, 0.9),
            "loadgen.detect_p90_ms": percentile(opened.latencies_ms, 0.9),
            "service.checkpoint.bytes": _checkpoint_bytes(state),
        })
    failed = _failed_ops(workload, state, phases)
    values = layers.per_layer_metrics(
        recorder, setup_wall + traced_wall, deltas, extra
    )
    units = dict(layers.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in layers.PER_LAYER}
    details = {
        "layer_report": layers.layer_report(values),
        "spans": len(recorder.spans),
        "spans_file": _write_spans(args, recorder),
        "wrappers_left": recorder.installed,
        "ops": {"untraced": plain.ops, "traced": timed.ops},
    }
    attempted = sum(phase.ops for phase in phases)
    return attempted, failed, metrics, details


def _checkpoint_bytes(state) -> float:
    """Mean JSON size of the checkpoints the last service left behind."""
    service = state.get("last_service")
    if service is None:
        return 0.0
    sizes = [
        len(json.dumps(payload, separators=(",", ":")))
        for payload in (service.store.load(t, k) for t, k in service.store.sessions())
        if payload is not None
    ]
    return sum(sizes) / len(sizes) if sizes else 0.0


def _write_spans(args, recorder) -> str:
    names: Dict[str, int] = {}
    rows = []
    origin = recorder.spans[0][1] if recorder.spans else 0.0
    for name, start, end, parent, op in recorder.spans:
        rows.append([names.setdefault(name, len(names)),
                     round((start - origin) * 1e6), round((end - origin) * 1e6),
                     parent, op])
    path = os.path.join(OUT, "spans-%s-s%d.json" % (args.workload, args.seed))
    with open(path, "w") as handle:
        json.dump({"columns": ["name", "start_us", "end_us", "parent", "op"],
                   "names": list(names), "spans": rows}, handle,
                  separators=(",", ":"))
    return os.path.relpath(path, ROOT)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    workload = WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed)
    try:
        if args.setup_probe:
            _, seconds = _timed_setup(workload, inputs)
            print(json.dumps({"setup_s": seconds}))
            return 0
        os.makedirs(OUT, exist_ok=True)
        runner = run_traced if args.trace else run_untraced
        attempted, failed, metrics, details = runner(args, workload, inputs)
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
    path = os.path.join(
        OUT, "%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("workload %s seed %d trace %d host %s"
          % (args.workload, args.seed, args.trace, json.dumps(record["host"])))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    for key, value in details.items():
        if key == "layer_report":
            print("\n".join(value))
        elif key in DETAIL_UNITS:
            print("%-36s %14.6g %s" % (key, value, DETAIL_UNITS[key]))
        else:
            print("%-36s %s" % (key, value))
    print("%-36s %14.6g ratio (%d of %d)"
          % ("failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
