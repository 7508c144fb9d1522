"""Perf benchmark: sequential vs batched cross-config QoR inference.

Times the Table-5 DSE prediction hot path on a 64-configuration design space
of ``gemm`` in two modes:

* **sequential** — one :meth:`HierarchicalQoRModel.predict` call per
  configuration: the batched steps for that one configuration on throwaway
  caches, so every sweep re-runs graph construction and one set of GNN
  forward passes per design;
* **batched** — one :meth:`HierarchicalQoRModel.predict_batch` call for the
  whole space: graphs are constructed once per pragma delta, all inner-loop
  units share one disjoint-union forward pass per inner model, one batched
  GNNg pass scores the distinct condensed graphs, and predictions are
  memoized per design delta.

Both modes are measured over repeated sweeps of the same space (the DSE
serving scenario): the batched engine's first sweep pays construction for
every distinct design it has not seen, later sweeps run from the caches.
Results are written to ``benchmarks/results/BENCH_dse_inference.json`` so
successive PRs can track the perf trajectory; the guard asserts that both
modes give bit-identical predictions and the >= 5x steady-state speedup
target.

Environment knobs: ``REPRO_BENCH_DSE_SPACE`` (space size, default 64),
``REPRO_BENCH_DSE_SWEEPS`` (measured sweeps, default 3),
``REPRO_BENCH_PERF_EPOCHS`` (training epochs, default 10 — prediction
*speed* does not depend on model quality).
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, env_int, format_table, peak_rss_mb, write_result
from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
    build_design_instances,
)
from repro.dse.space import sample_design_space
from repro.kernels import load_kernel

pytestmark = pytest.mark.perf

KERNEL = "gemm"
SPEEDUP_TARGET = 5.0


def _train_model(function) -> HierarchicalQoRModel:
    configs = sample_design_space(function, 12, rng=np.random.default_rng(7))
    instances = build_design_instances({KERNEL: function}, {KERNEL: configs})
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type="graphsage", hidden=32,
            training=TrainingConfig(
                epochs=env_int("REPRO_BENCH_PERF_EPOCHS", 10), seed=0
            ),
        )
    )
    model.fit(instances)
    return model


def _sweep_stats(seconds: list[float], num_configs: int) -> dict:
    mean = float(np.mean(seconds))
    return {
        "sweep_seconds": [round(s, 6) for s in seconds],
        "mean_sweep_seconds": round(mean, 6),
        "configs_per_second": round(num_configs / mean, 2),
    }


def test_dse_batched_inference_throughput():
    function = load_kernel(KERNEL)
    model = _train_model(function)
    space = sample_design_space(
        function, env_int("REPRO_BENCH_DSE_SPACE", 64),
        rng=np.random.default_rng(1),
    )
    sweeps = max(1, env_int("REPRO_BENCH_DSE_SWEEPS", 3))

    # sequential path: stateless between calls, every sweep is identical
    model.clear_inference_caches()
    sequential_times: list[float] = []
    for _ in range(sweeps):
        start = time.perf_counter()
        sequential = [model.predict(function, config) for config in space]
        sequential_times.append(time.perf_counter() - start)

    # batched path: first sweep builds the caches, later sweeps serve from
    # them — both phases are reported separately
    model.clear_inference_caches()
    start = time.perf_counter()
    batched = model.predict_batch(function, space)
    first_sweep_seconds = time.perf_counter() - start
    steady_times: list[float] = []
    for _ in range(sweeps):
        start = time.perf_counter()
        batched_again = model.predict_batch(function, space)
        steady_times.append(time.perf_counter() - start)

    bit_identical = batched == sequential and batched_again == sequential

    num_configs = len(space)
    sequential_stats = _sweep_stats(sequential_times, num_configs)
    first_stats = _sweep_stats([first_sweep_seconds], num_configs)
    steady_stats = _sweep_stats(steady_times, num_configs)
    speedup_first = (
        sequential_stats["mean_sweep_seconds"] / first_stats["mean_sweep_seconds"]
    )
    speedup_steady = (
        sequential_stats["mean_sweep_seconds"] / steady_stats["mean_sweep_seconds"]
    )

    payload = {
        "benchmark": "dse_batched_inference",
        "kernel": KERNEL,
        "num_configs": num_configs,
        "measured_sweeps": sweeps,
        "sequential": sequential_stats,
        "batched_first_sweep": first_stats,
        "batched_steady_state": steady_stats,
        "speedup_first_sweep": round(speedup_first, 2),
        "speedup_steady_state": round(speedup_steady, 2),
        "bit_identical": bit_identical,
        "graph_cache_stats": model._graph_cache.stats.as_dict(),
        "peak_rss_mb": peak_rss_mb(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_dse_inference.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        ["sequential", f"{sequential_stats['mean_sweep_seconds']:.3f}",
         f"{sequential_stats['configs_per_second']:.1f}", "1.0x"],
        ["batched (first sweep)", f"{first_stats['mean_sweep_seconds']:.3f}",
         f"{first_stats['configs_per_second']:.1f}", f"{speedup_first:.1f}x"],
        ["batched (steady state)", f"{steady_stats['mean_sweep_seconds']:.3f}",
         f"{steady_stats['configs_per_second']:.1f}", f"{speedup_steady:.1f}x"],
    ]
    write_result(
        "BENCH_dse_inference.txt",
        format_table(
            ["mode", "sweep s", "configs/s", "speedup"], rows,
            title=f"DSE inference throughput — {KERNEL}, "
                  f"{num_configs} configs, {sweeps} sweeps",
        ),
    )

    assert bit_identical, "batched predictions differ from sequential ones"
    assert speedup_steady >= SPEEDUP_TARGET, (
        f"steady-state batched speedup {speedup_steady:.1f}x "
        f"below the {SPEEDUP_TARGET}x target"
    )
