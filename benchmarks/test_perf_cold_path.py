"""Perf benchmark: the production cold path against the reference predictor.

A first-contact ``predict_batch`` sweep runs every production fast path at
once: the graph-construction cache and outer-graph sample templates in
``repro.core.hierarchical``, the single-pass union encoder with its
embedding-gather layout in ``repro.nn.data.make_batch``, the memoized
scatter indices and CSR operators in ``repro.nn.autograd`` and the fused
SAGE/residual ops.  This benchmark times it against
``reference_predict`` (``tests/reference/predict.py``), the same
hierarchical predictor written the plain way — uncached decomposition,
per-node super-node annotation, the dense per-sample encoder and a numpy
GraphSAGE forward with ``np.add.at`` scatters — in three parts:

* **cold sweep** — a first-contact ``predict_batch`` over a design space
  from empty inference caches vs one ``reference_predict`` per
  configuration; the guard asserts >= 1.9x configs/s on ``gemm`` and
  >= 2.3x on ``bicg``;
* **equivalence** — for *every* registered kernel, a small sweep must agree
  between the two to <= 1e-9 relative per metric;
* **training epochs** — a ``GraphRegressorTrainer`` run on flat samples.
  With stable minibatch membership the epoch-level
  :class:`~repro.nn.data.BatchCache` replays every union from epoch 2
  onwards; the guard asserts it served at least one hit.  Epoch times are
  recorded, not gated: the tree holds no second trainer to compare against.

Results land in ``benchmarks/results/BENCH_cold_path.json`` and feed the CI
perf-trend gate (``benchmarks/check_trend.py``).

Environment knobs: ``REPRO_BENCH_COLD_SPACE`` (timed space size, default
64), ``REPRO_BENCH_COLD_SWEEPS`` (cold repetitions, default 3),
``REPRO_BENCH_COLD_EQ_CONFIGS`` (equivalence configs per kernel, default 6),
``REPRO_BENCH_COLD_TRAIN_CONFIGS`` (training samples, default 48) and
``REPRO_BENCH_PERF_EPOCHS`` (training epochs, default 10).
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, env_int, format_table, peak_rss_mb, write_result
from reference import reference_predict
from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
    build_design_instances,
)
from repro.core.dataset import flat_sample
from repro.core.models import GlobalGNN
from repro.core.trainer import GraphRegressorTrainer
from repro.dse.space import sample_design_space
from repro.kernels import KERNEL_SOURCES, load_kernel

pytestmark = pytest.mark.perf

TIMED_KERNELS = ("gemm", "bicg")
GUARDED_KERNEL = "gemm"
#: vs reference_predict: 80% of the lowest of eight perf-suite runs, rounded
#: down to 0.1 (the runs read gemm 2.47-3.08x, bicg 2.89-3.78x on a 2-core
#: VM; BASELINE.json holds the lowest run, rounded down)
COLD_SWEEP_SPEEDUP_TARGET = 1.9
SECONDARY_SPEEDUP_TARGETS = {"bicg": 2.3}
EQUIVALENCE_TOLERANCE = 1e-9


def _train_model() -> HierarchicalQoRModel:
    function = load_kernel("gemm")
    configs = sample_design_space(function, 12, rng=np.random.default_rng(7))
    instances = build_design_instances({"gemm": function}, {"gemm": configs})
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


def _cold_sweep(model, function, space, *, reference: bool):
    """One first-contact sweep; returns seconds + outputs.

    The production sweep starts from empty inference caches; the reference
    predictor keeps no caches to clear.
    """
    model.clear_inference_caches()
    start = time.perf_counter()
    if reference:
        outputs = [reference_predict(model, function, config) for config in space]
    else:
        outputs = model.predict_batch(function, space)
    return time.perf_counter() - start, outputs


def _best_cold_sweep(model, function, space, *, reference: bool, sweeps: int):
    best_seconds, outputs = None, None
    for _ in range(sweeps):
        seconds, outputs = _cold_sweep(model, function, space, reference=reference)
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
    return best_seconds, outputs


def _max_rel_error(expected, actual) -> float:
    worst = 0.0
    for want, got in zip(expected, actual):
        for name in want:
            denominator = max(abs(want[name]), 1.0)
            worst = max(worst, abs(want[name] - got[name]) / denominator)
    return worst


def _train_flat(samples, *, epochs: int):
    """One trainer run over flat samples; returns (result, trainer)."""
    config = TrainingConfig(epochs=epochs, batch_size=8, seed=0, patience=epochs)
    trainer = GraphRegressorTrainer(None, ("lut", "latency"), config)
    trainer.fit_preprocessing(samples)
    trainer.model = GlobalGNN(
        in_features=trainer.input_dim(samples), hidden=32, num_layers=3,
        conv_type="graphsage", rng=np.random.default_rng(0),
    )
    return trainer.train(samples), trainer


def test_cold_path_vectorized_encoding():
    model = _train_model()
    space_size = env_int("REPRO_BENCH_COLD_SPACE", 64)
    sweeps = max(1, env_int("REPRO_BENCH_COLD_SWEEPS", 3))
    eq_configs = max(2, env_int("REPRO_BENCH_COLD_EQ_CONFIGS", 6))

    # ---------------------------------------------------------------- #
    # 1) timed cold sweeps: reference predictor vs predict_batch
    # ---------------------------------------------------------------- #
    per_kernel: dict[str, dict] = {}
    rows = []
    for kernel in TIMED_KERNELS:
        function = load_kernel(kernel)
        space = sample_design_space(
            function, space_size, rng=np.random.default_rng(1)
        )
        ref_seconds, ref_outputs = _best_cold_sweep(
            model, function, space, reference=True, sweeps=sweeps
        )
        vec_seconds, vec_outputs = _best_cold_sweep(
            model, function, space, reference=False, sweeps=sweeps
        )
        kernel_target = (
            COLD_SWEEP_SPEEDUP_TARGET if kernel == GUARDED_KERNEL
            else SECONDARY_SPEEDUP_TARGETS.get(kernel, 0.0)
        )
        if kernel_target and ref_seconds / vec_seconds < kernel_target:
            # timing guard, not a correctness check: one noisy scheduler
            # burst on a shared runner can depress either side, so the
            # guarded kernel gets a single deeper re-measure before failing
            ref_retry, ref_outputs = _best_cold_sweep(
                model, function, space, reference=True, sweeps=sweeps + 2
            )
            vec_retry, vec_outputs = _best_cold_sweep(
                model, function, space, reference=False, sweeps=sweeps + 2
            )
            ref_seconds = min(ref_seconds, ref_retry)
            vec_seconds = min(vec_seconds, vec_retry)
        equivalence = _max_rel_error(ref_outputs, vec_outputs)
        speedup = ref_seconds / vec_seconds
        per_kernel[kernel] = {
            "num_configs": len(space),
            "reference_cold": {
                "sweep_seconds": round(ref_seconds, 6),
                "configs_per_second": round(len(space) / ref_seconds, 2),
            },
            "vectorized_cold": {
                "sweep_seconds": round(vec_seconds, 6),
                "configs_per_second": round(len(space) / vec_seconds, 2),
            },
            "cold_sweep_speedup": round(speedup, 2),
            "equivalence_max_rel_error": equivalence,
        }
        rows.append([
            kernel,
            f"{len(space) / ref_seconds:.0f}",
            f"{len(space) / vec_seconds:.0f}",
            f"{speedup:.2f}x",
            f"{equivalence:.1e}",
        ])
        assert equivalence < EQUIVALENCE_TOLERANCE, (
            f"{kernel}: predict_batch diverged from reference_predict by "
            f"{equivalence}"
        )

    # ---------------------------------------------------------------- #
    # 2) prediction equivalence for every registered kernel
    # ---------------------------------------------------------------- #
    equivalence_by_kernel: dict[str, float] = {}
    for kernel in sorted(KERNEL_SOURCES):
        function = load_kernel(kernel)
        space = sample_design_space(
            function, eq_configs, rng=np.random.default_rng(2)
        )
        _, ref_outputs = _cold_sweep(model, function, space, reference=True)
        _, vec_outputs = _cold_sweep(model, function, space, reference=False)
        error = _max_rel_error(ref_outputs, vec_outputs)
        equivalence_by_kernel[kernel] = error
        assert error < EQUIVALENCE_TOLERANCE, (
            f"{kernel}: predict_batch diverged from reference_predict by "
            f"{error}"
        )

    # ---------------------------------------------------------------- #
    # 3) training: epoch-cached unions
    # ---------------------------------------------------------------- #
    function = load_kernel(GUARDED_KERNEL)
    train_space = sample_design_space(
        function,
        max(8, env_int("REPRO_BENCH_COLD_TRAIN_CONFIGS", 48)),
        rng=np.random.default_rng(3),
    )
    instances = build_design_instances(
        {GUARDED_KERNEL: function}, {GUARDED_KERNEL: train_space}
    )
    samples = [flat_sample(instance) for instance in instances]
    epochs = max(4, env_int("REPRO_BENCH_PERF_EPOCHS", 10))
    result, trainer = _train_flat(samples, epochs=epochs)
    post1 = float(np.mean(result.epoch_seconds[1:]))
    warmup_ratio = float(result.epoch_seconds[0]) / post1
    batch_cache_stats = trainer._batch_cache.stats()
    training = {
        "num_samples": len(samples),
        "epochs": epochs,
        "batch_size": 8,
        "epoch_seconds": [round(s, 6) for s in result.epoch_seconds],
        "post_epoch1_mean_seconds": round(post1, 6),
        "first_epoch_over_cached_epoch": round(warmup_ratio, 2),
        "batch_cache": batch_cache_stats,
    }

    payload = {
        "benchmark": "cold_path",
        "space_size": space_size,
        "measured_sweeps": sweeps,
        "cold_sweep_speedup_target": COLD_SWEEP_SPEEDUP_TARGET,
        "guarded_kernel": GUARDED_KERNEL,
        "kernels": per_kernel,
        "equivalence_max_rel_error_by_kernel": {
            kernel: error for kernel, error in sorted(equivalence_by_kernel.items())
        },
        "training": training,
        "peak_rss_mb": peak_rss_mb(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_cold_path.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    write_result(
        "BENCH_cold_path.txt",
        format_table(
            ["kernel", "reference c/s", "vectorized c/s", "speedup", "max err"],
            rows,
            title=(
                f"Cold-path throughput — {space_size} configs, best of "
                f"{sweeps} cold sweeps (c/s = configs per second: "
                f"reference_predict per config vs predict_batch from empty "
                f"caches); training epochs (n={len(samples)}, batch 8): "
                f"first {result.epoch_seconds[0]:.3f}s, cached "
                f"{post1:.3f}s/epoch after epoch 1"
            ),
        ),
    )

    # ---------------------------------------------------------------- #
    # guards
    # ---------------------------------------------------------------- #
    guarded = per_kernel[GUARDED_KERNEL]["cold_sweep_speedup"]
    assert guarded >= COLD_SWEEP_SPEEDUP_TARGET, (
        f"cold-sweep speedup {guarded:.2f}x on {GUARDED_KERNEL} is below the "
        f"{COLD_SWEEP_SPEEDUP_TARGET}x target vs reference_predict"
    )
    for kernel, target in SECONDARY_SPEEDUP_TARGETS.items():
        measured = per_kernel[kernel]["cold_sweep_speedup"]
        assert measured >= target, (
            f"cold-sweep speedup {measured:.2f}x on {kernel} is below the "
            f"{target}x target vs reference_predict"
        )
    assert batch_cache_stats["batch_cache_hits"] > 0, (
        "the epoch-level batch cache never replayed a union during training"
    )
