"""The repo's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cold-dse --seed 1 --seconds 24 --trace 0

Workloads: ``cold-dse``, ``warm-dse``, ``serve-open`` and ``fleet`` (see
``workloads.py`` and ``README.md``).  Every run sets up ``SETUP_REPEATS``
times, measures for ``--seconds``, checks every output against an
independent reference, prints one line per metric (name, value, unit,
sample count) and, last, one JSON object::

    {"correct": true, "attempted": 22, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that wraps each layer's public functions from this directory (in the
serve daemon and the fleet workers too) and reports the per-layer metrics;
its spans are written to ``.perfbench/traces/``.  The exit code is 1 when
any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def p99_ms(outcome) -> tuple[float, str]:
    """Tail latency of the run's operations (printed; gated nowhere)."""
    from workloads import nearest_rank

    count = len(outcome.latencies_s)
    if not count:
        return math.nan, "n=0"
    note = f"n={count}" + (
        "" if count >= 1000 else "; under 1000 samples, so this is near the maximum"
    )
    return nearest_rank([value * 1e3 for value in outcome.latencies_s], 0.99), note


def end_to_end_values(outcome, setup_times, quality) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric: value and a sample-count note."""
    mape, adrs, designs = quality
    latencies = [value * 1e3 for value in outcome.latencies_s]
    count = len(latencies)
    return {
        "setup_s": (statistics.median(setup_times),
                    "n=%d set-ups [%s]" % (len(setup_times),
                                           ", ".join(f"{t:.3f}" for t in setup_times))),
        "configs_per_s": (outcome.configs / outcome.timed_s,
                          f"n={outcome.configs} configs in {outcome.timed_s:.3f} s timed"),
        "p50_ms": (statistics.median(latencies) if latencies else math.nan, f"n={count}"),
        "peak_rss_mb": (outcome.peak_rss_mib, "summed over model-holding processes"),
        "mape_pct": (mape, f"n={designs} designs"),
        "adrs_pct": (adrs, "n=4 kernels"),
    }


def layer_values(timed: dict, setup: dict, outcome) -> dict[str, float]:
    """Every per-layer metric of ``metrics.PER_LAYER`` for one traced run."""
    counters = dict(outcome.counters)

    def ratio(hits: str, misses: str) -> float:
        looked_up = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / looked_up if looked_up else 0.0

    requested = counters.get("memo_requested", 0)
    windows_s = sum(end - start for start, end in outcome.timed_windows)
    counters.update({
        "memo_hit_ratio": (
            1.0 - counters.get("memo_grown", 0) / requested if requested else 0.0
        ),
        "unit_hit_ratio": ratio("unit_hits", "unit_misses"),
        "outer_hit_ratio": ratio("outer_hits", "outer_misses"),
        "serve_inference_busy_ratio": (
            timed.get("serve.inference", {}).get("busy", 0) / windows_s if windows_s else 0.0
        ),
        "run_p99_ms": p99_ms(outcome)[0],
        "run_configs": outcome.configs,
        "run_timed_s": outcome.timed_s,
    })
    totals = {"timed": timed, "setup": setup, "workers": outcome.worker_totals}
    values = {}
    for name, entry in metrics.PER_LAYER.items():
        window, *path = entry.source
        if window == "counter":
            values[name] = counters.get(path[0], 0)
        else:
            layer, field = path
            values[name] = totals[window].get(layer, {}).get(field, 0)
    return values


def _finite(value: float):
    return value if math.isfinite(value) else None


def run(args) -> int:
    import spans
    import workloads

    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    workload = workloads.WORKLOAD_CLASSES[args.workload](
        args.seed, args.seconds, workdir, tracer
    )
    try:
        setup_times = []
        for repeat in range(workloads.SETUP_REPEATS):
            if repeat:
                workload.teardown()
            begin = time.perf_counter()
            workload.setup()
            end = time.perf_counter()
            setup_times.append(end - begin)
            setup_window = (begin, end)
        workload.timed()
        workload.close()
        workload.check()
        quality = workload.quality()
    finally:
        workload.close()
        if tracer is not None:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = workload.outcome
    attempted = max(1, outcome.attempted)
    failed = len(outcome.failed_ops)
    if failed >= attempted:  # every operation failed: nothing to report
        for message in outcome.failures[:20]:
            print(f"MISMATCH {message}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  {workloads.environment_line(args.workload)}")
    if tracer is None:
        values = end_to_end_values(outcome, setup_times, quality)
        report = {
            entry["name"]: (*values[entry["name"]], entry["unit"])
            for entry in metrics.spec()["end_to_end"]
        }
    else:
        timed = tracer.totals(outcome.timed_windows)
        setup = tracer.totals([setup_window])
        layer = layer_values(timed, setup, outcome)
        report = {
            entry["name"]: (layer[entry["name"]], "", entry["unit"])
            for entry in metrics.spec()["per_layer"]
        }
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.npz")
    for name, (value, note, unit) in report.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<10} {note}")
    tail, tail_note = p99_ms(outcome)
    print(f"  {'p99_ms (not gated)':<28} {tail:>14.6g} {'ms':<10} {tail_note}")
    print(f"  {'error_rate (not gated)':<28} {failed / attempted:>14.6g} {'ratio':<10} "
          f"{failed} failed of {attempted} attempted")
    for message in outcome.failures[:20]:
        print(f"  MISMATCH {message}")
    correct = not outcome.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, _, unit) in report.items()
        },
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*metrics.WORKLOADS, "all"],
                        help="one workload, or all four in turn (each in its own process)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for workload in metrics.WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH", "")) if part
    )
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
