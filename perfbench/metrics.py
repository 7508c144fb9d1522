"""What each per-layer metric is read from and what it should move.

Metric names, units and directions live in ``BENCHMARK.json`` alone
(:func:`spec`).  ``PER_LAYER`` adds, for every per-layer
metric, where its value comes from, which end-to-end metric and workload a
change to it should move and where it should stay flat, and the workloads
on which it must read non-zero (``active``) or exactly zero (``zero``) --
the self-test asserts both.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

WORKLOADS = ("cold-dse", "warm-dse", "serve-open", "fleet")
ALL = frozenset(WORKLOADS)
BUILDS = frozenset({"cold-dse", "serve-open", "fleet"})
WARM = frozenset({"warm-dse"})
FLEET = frozenset({"fleet"})
SERVE = frozenset({"serve-open"})


@dataclass(frozen=True)
class LayerMetric:
    #: ``(window, layer, field)``: a span total of ``layer`` -- window
    #: "timed" (the timed phase), "setup" (the last set-up) or "workers" (the
    #: fleet workers' timed spans); field "busy", "self", "calls" or "work" --
    #: or ``("counter", key)``: a count the run reads off the program
    source: tuple
    #: the end-to-end metric/workload a change here should move, and where
    #: it should stay flat
    moves: str
    #: workloads on which the metric must be non-zero in a traced run
    active: frozenset = frozenset()
    #: workloads on which the metric must read exactly zero
    zero: frozenset = frozenset()


def span(layer: str, field: str = "busy", window: str = "timed") -> tuple:
    return (window, layer, field)


def counter(key: str) -> tuple:
    return ("counter", key)


PER_LAYER = {
    "core.predict_batch_s": LayerMetric(
        span("core.predict_batch"),
        "configs_per_s on cold-dse and warm-dse; p50_ms on serve-open", ALL),
    "core.predict_batch_self_s": LayerMetric(
        span("core.predict_batch", "self"), "as core.predict_batch_s", ALL),
    "core.predict_batch_calls": LayerMetric(
        span("core.predict_batch", "calls"), "as core.predict_batch_s", ALL),
    "core.memo_hit_ratio": LayerMetric(
        counter("memo_hit_ratio"),
        "1.0 on warm-dse, ~0 on cold-dse, ~0.9 on serve-open", WARM | SERVE),
    "core.trainer_predict_s": LayerMetric(
        span("core.trainer_predict"),
        "configs_per_s on cold-dse, p99_ms and configs_per_s on serve-open; "
        "zero on warm-dse", BUILDS, WARM),
    "core.trainer_predict_calls": LayerMetric(
        span("core.trainer_predict", "calls"), "as core.trainer_predict_s",
        BUILDS, WARM),
    "core.trainer_predict_graphs": LayerMetric(
        span("core.trainer_predict", "work"), "as core.trainer_predict_s",
        BUILDS, WARM),
    "core.graph_to_sample_s": LayerMetric(
        span("core.graph_to_sample"), "configs_per_s on cold-dse; zero on warm-dse",
        BUILDS, WARM),
    "core.fit_s": LayerMetric(
        span("core.fit", window="setup"), "setup_s everywhere", ALL),
    "core.negative_predictions": LayerMetric(
        counter("negative_predictions"),
        "none: a visibility count of predicted QoR values below 0, not a failure"),
    "graph.decompose_s": LayerMetric(
        span("graph.decompose"),
        "configs_per_s on cold-dse, p99_ms and configs_per_s on serve-open; "
        "zero on warm-dse", BUILDS, WARM),
    "graph.decompose_calls": LayerMetric(
        span("graph.decompose", "calls"), "as graph.decompose_s", BUILDS, WARM),
    "graph.nodes_built": LayerMetric(
        span("graph.decompose", "work"),
        "as graph.decompose_s (nodes of the returned decompositions)", BUILDS, WARM),
    "graph.signature_s": LayerMetric(
        span("graph.signature"),
        "configs_per_s on warm-dse (most of the sweep) and cold-dse; p50_ms on "
        "serve-open", ALL),
    "graph.signature_calls": LayerMetric(
        span("graph.signature", "calls"), "as graph.signature_s", ALL),
    "graph.unit_hit_ratio": LayerMetric(
        counter("unit_hit_ratio"), "configs_per_s on cold-dse and fleet", BUILDS),
    "graph.outer_hit_ratio": LayerMetric(
        counter("outer_hit_ratio"), "configs_per_s on cold-dse and fleet"),
    "hls.canonicalize_s": LayerMetric(
        span("hls.canonicalize"),
        "p50_ms on serve-open (batcher and predict_batch); runs once per raw "
        "config per construction cache, so ~0 on warm-dse", BUILDS),
    "hls.canonicalize_calls": LayerMetric(
        span("hls.canonicalize", "calls"), "as hls.canonicalize_s", BUILDS),
    "hls.flow_s": LayerMetric(span("hls.flow", window="setup"), "setup_s", ALL),
    "nn.make_batch_s": LayerMetric(
        span("nn.make_batch"),
        "configs_per_s on cold-dse; setup_s (training encodes too); zero on "
        "warm-dse", BUILDS, WARM),
    "nn.make_batch_calls": LayerMetric(
        span("nn.make_batch", "calls"), "as nn.make_batch_s", BUILDS, WARM),
    "nn.batch_nodes": LayerMetric(
        span("nn.make_batch", "work"), "as nn.make_batch_s", BUILDS, WARM),
    "ir.lower_s": LayerMetric(
        span("ir.lower", window="setup"), "setup_s; ~0 in timed phases (memoized)",
        ALL),
    "ir.lower_calls": LayerMetric(
        span("ir.lower", "calls", window="setup"), "as ir.lower_s", ALL),
    "dse.enumerate_s": LayerMetric(span("dse.enumerate", window="setup"), "setup_s", ALL),
    "dse.pareto_s": LayerMetric(span("dse.pareto"), "configs_per_s on fleet", FLEET),
    "dse.dedup_s": LayerMetric(span("dse.dedup"), "configs_per_s on fleet", FLEET),
    "dse.fixed_sweep_s": LayerMetric(
        span("dse.fixed_sweep"), "configs_per_s on fleet", FLEET),
    "dse.steal_sweep_s": LayerMetric(
        span("dse.steal_sweep"), "configs_per_s on fleet", FLEET),
    "dse.worker_load_s": LayerMetric(
        span("core.load", window="workers"),
        "configs_per_s on fleet (sweep time minus worker busy time is spawn "
        "plus queue transit)", FLEET),
    "dse.worker_predict_s": LayerMetric(
        span("core.predict_batch", window="workers"), "configs_per_s on fleet", FLEET),
    "dse.checkpoint_saves": LayerMetric(
        span("dse.checkpoint_save", "calls"), "configs_per_s on fleet", FLEET),
    "dse.checkpoint_save_s": LayerMetric(
        span("dse.checkpoint_save"), "configs_per_s on fleet", FLEET),
    "dse.fleet_cold_builds": LayerMetric(
        counter("fleet_cold_builds"),
        "configs_per_s on fleet (construction repeated across shards), per sweep",
        FLEET),
    "dse.build_dup_ratio": LayerMetric(
        counter("build_dup_ratio"),
        "configs_per_s on fleet: fleet cold builds per sweep over single-process "
        "cold builds of the same space", FLEET),
    "dse.recovered_configs": LayerMetric(
        counter("recovered_configs"), "failed operations on fleet"),
    "dse.rescored_configs": LayerMetric(
        counter("rescored_configs"), "failed operations on fleet"),
    "dse.failed_shards": LayerMetric(
        counter("failed_shards"), "failed operations on fleet"),
    "serve.inference_s": LayerMetric(
        span("serve.inference"), "p99_ms and configs_per_s on serve-open", SERVE),
    "serve.inference_busy_ratio": LayerMetric(
        counter("serve_inference_busy_ratio"),
        "p99_ms on serve-open; the daemon saturates as it nears 1", SERVE),
    "serve.signature_s": LayerMetric(
        span("serve.signature"), "p50_ms and configs_per_s on serve-open", SERVE),
    "serve.protocol_s": LayerMetric(
        span("serve.protocol"), "p50_ms and configs_per_s on serve-open", SERVE),
    "serve.batches": LayerMetric(
        counter("serve_batches"),
        "p50_ms and p99_ms on serve-open (reference step)", SERVE),
    "serve.mean_batch_configs": LayerMetric(
        counter("serve_mean_batch_configs"),
        "p50_ms and p99_ms on serve-open (reference step)", SERVE),
    "serve.coalesced_ratio": LayerMetric(
        counter("serve_coalesced_ratio"),
        "p50_ms and p99_ms on serve-open (reference step)"),
    "serve.duplicate_configs": LayerMetric(
        counter("serve_duplicate_configs"), "p50_ms on serve-open (reference step)"),
    "serve.rejected": LayerMetric(
        counter("serve_rejected"), "failed operations on serve-open (reference step)"),
    "serve.cold_builds": LayerMetric(
        counter("serve_cold_builds"), "p99_ms on serve-open (reference step)", SERVE),
    "gen.late_p99_ms": LayerMetric(
        counter("gen_late_p99_ms"),
        "validity of the reference step (every step is printed)", SERVE),
    "gen.sent": LayerMetric(
        counter("gen_sent"), "validity of the reference step", SERVE),
    "gen.completed": LayerMetric(
        counter("gen_completed"), "validity of the reference step", SERVE),
    "gen.max_rps": LayerMetric(
        counter("gen_max_rps"),
        "highest ladder rate with p99 <= 150 ms, every request answered, no "
        "errors, no growing backlog and the generator on schedule", SERVE),
    "run.p99_ms": LayerMetric(
        counter("run_p99_ms"),
        "the operation latency tail (p99, nearest rank) of the traced timed "
        "phase: printed by every untraced run too, but not gated, because on "
        "two cores it swings with host drift", ALL),
    "run.configs": LayerMetric(
        counter("run_configs"),
        "numerator of configs_per_s: configs answered in the traced timed phase",
        ALL),
    "run.timed_s": LayerMetric(
        counter("run_timed_s"),
        "denominator of configs_per_s: summed sweep wall time, or the daemon's "
        "CPU time over the ladder on serve-open", ALL),
    "trace.overhead_ratio": LayerMetric(
        counter("trace_overhead_ratio"),
        "untraced over traced configs_per_s on the same cold-dse sweeps (0 "
        "elsewhere)", frozenset({"cold-dse"})),
}


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``, checked to list the per-layer metrics of ``PER_LAYER``."""
    loaded = json.loads(BENCHMARK.read_text())
    if list(PER_LAYER) != [entry["name"] for entry in loaded["per_layer"]]:
        raise RuntimeError("BENCHMARK.json per_layer and metrics.PER_LAYER list different metrics")
    return loaded
