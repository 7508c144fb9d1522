"""Perf benchmark: single-process vs sharded multi-worker cold DSE sweeps.

Times the *cold path* (fresh predictor, empty caches — first contact with a
design space) on a ``gemm`` space in three modes:

* **single-process** — one :meth:`QoRPredictor.predict_batch` call over the
  whole space (the PR-1 batched engine), model load included;
* **sharded / pragma-locality** — :class:`repro.dse.sharding.ShardedExplorer`
  with N worker processes, each bootstrapping its own predictor from the
  saved model and scoring a locality-grouped shard;
* **sharded / round-robin** — same fleet, delta-agnostic partitioning
  (reported for comparison: the gap to pragma-locality is the value of
  construction-cache-aware sharding);
* **work-stealing** — the same pragma-locality shards split into chunks on
  one shared queue (PR 5): workers pull the next chunk as they finish, so
  the fleet load-balances itself;
* **skewed shards** — a deliberately imbalanced partition (one shard owns
  ~70% of the space) run with fixed assignments vs work stealing.  The
  fixed fleet idles behind the straggler shard; stealing spreads its
  chunks.  All correctness guards apply to every mode.

The differential guards run unconditionally, on every mode:

* per-configuration predictions ``==`` the single-process engine's;
* the merged front is **bit-identical** to one Pareto front fed every
  streamed prediction (the deterministic-merge guarantee) and to the
  single-process front (:func:`repro.dse.pareto.fronts_bit_equal`): a
  prediction does not depend on its batch, so per-shard chunks and one big
  in-process batch give the same bits.

A ``deduped_space`` section reports the effective-directive dedup algebra:
raw vs canonical class counts over the full enumerated space of several
registered kernels, plus a raw-vs-dedup cold sweep on the kernel with the
largest dedup ratio (stencil3d) measuring the *effective* configs/s gain —
predictions for all raw configurations per second, scoring only class
representatives.

The >= 2x throughput guard is enforced only when the machine actually has
at least as many usable cores as workers (CI perf runners do); on smaller
boxes the numbers are still reported, with ``speedup_target_enforced:
false`` in ``benchmarks/results/BENCH_dse_sharded.json``.

Environment knobs: ``REPRO_BENCH_DSE_SHARD_SPACE`` (space size, default
192), ``REPRO_BENCH_DSE_WORKERS`` (worker count, default 4),
``REPRO_BENCH_PERF_EPOCHS`` (training epochs, default 10).
"""

from __future__ import annotations

import json
import os
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
    save_model,
)
from repro.core.predictor import QoRPredictor
from repro.dse import (
    DesignSpace,
    ShardedExplorer,
    fronts_bit_equal,
    predicted_front,
)
from repro.dse.space import sample_design_space
from repro.flags import raw_directives
from repro.kernels import load_kernel

pytestmark = pytest.mark.perf

KERNEL = "gemm"
SPEEDUP_TARGET = 2.0
#: kernels whose full enumerated spaces are reported in ``deduped_space``
DEDUP_KERNELS = ("gemm", "stencil3d", "syrk", "gemver")
#: the registered kernel with the largest dedup ratio: the cold-sweep case
DEDUP_SWEEP_KERNEL = "stencil3d"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _train_and_save(tmp_path) -> str:
    function = load_kernel(KERNEL)
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
    path = tmp_path / "qor_model.npz"
    save_model(model, path, warm_caches=False)
    return str(path)


def _deduped_space_section(model_path: str) -> dict:
    """The effective-directive dedup report: class counts + cold-sweep gain.

    Class counts come from the full enumerated space of each kernel in
    :data:`DEDUP_KERNELS` (canonicalization only — no graphs, no model).
    The cold sweep scores :data:`DEDUP_SWEEP_KERNEL`'s full space twice
    from a cold predictor: once with canonicalization disabled (every raw
    configuration scored) and once through the dedup algebra (class
    representatives scored, predictions fanned out), guarded to give the
    same bits and the same Pareto front.
    """
    classes_per_kernel = {}
    for kernel in DEDUP_KERNELS:
        kernel_space = DesignSpace.from_kernel(kernel, 4096, seed=7)
        deduped = kernel_space.dedup()
        classes_per_kernel[kernel] = {
            "raw_configs": len(kernel_space),
            "classes": deduped.num_classes,
            "dedup_ratio": round(deduped.dedup_ratio, 4),
        }

    space = DesignSpace.from_kernel(DEDUP_SWEEP_KERNEL, 4096, seed=7)
    deduped = space.dedup()
    function = space.function()

    raw_predictor = QoRPredictor.load(model_path, warm_caches=False)
    start = time.perf_counter()
    with raw_directives():
        raw_predictions = raw_predictor.predict_batch(
            function, list(space.configs)
        )
    raw_seconds = time.perf_counter() - start

    dedup_predictor = QoRPredictor.load(model_path, warm_caches=False)
    representatives = deduped.representative_ids()
    start = time.perf_counter()
    rep_predictions = dedup_predictor.predict_batch(
        function, [space.config(rid) for rid in representatives]
    )
    fanned = deduped.fan_out(dict(zip(representatives, rep_predictions)))
    dedup_predictions = [fanned[cid] for cid in range(len(space))]
    dedup_seconds = time.perf_counter() - start

    # the two sweeps describe the same designs: raw-directive scoring and
    # canonical-representative scoring give the same bits and the same front
    assert dedup_predictions == raw_predictions, (
        "dedup sweep diverged from the raw-directive sweep"
    )
    assert fronts_bit_equal(
        predicted_front(space, raw_predictions).points(),
        predicted_front(space, dedup_predictions).points(),
    ), "dedup sweep selected a different Pareto front than the raw sweep"

    return {
        "classes_per_kernel": classes_per_kernel,
        "cold_sweep": {
            "kernel": DEDUP_SWEEP_KERNEL,
            "raw_configs": len(space),
            "classes": deduped.num_classes,
            "dedup_ratio": round(deduped.dedup_ratio, 4),
            "raw_seconds": round(raw_seconds, 6),
            "dedup_seconds": round(dedup_seconds, 6),
            "raw_configs_per_second": round(len(space) / raw_seconds, 2),
            "dedup_effective_configs_per_second": round(
                len(space) / dedup_seconds, 2
            ),
            #: raw seconds / dedup seconds — how much faster the same set of
            #: predictions materializes when only representatives are scored
            "effective_configs_per_second_gain": round(
                raw_seconds / dedup_seconds, 4
            ),
        },
    }


def test_dse_sharded_throughput(tmp_path):
    model_path = _train_and_save(tmp_path)
    num_workers = max(2, env_int("REPRO_BENCH_DSE_WORKERS", 4))
    space = DesignSpace.from_kernel(
        KERNEL, env_int("REPRO_BENCH_DSE_SHARD_SPACE", 192), seed=1
    )

    # single-process cold sweep: fresh predictor, empty caches
    start = time.perf_counter()
    predictor = QoRPredictor.load(model_path, warm_caches=False)
    single_predictions = predictor.predict_batch(
        space.function(), list(space.configs)
    )
    single_seconds = time.perf_counter() - start
    single_front = predicted_front(space, single_predictions).points()

    def record(name: str, result) -> None:
        results[name] = result
        sharded[name] = {
            "seconds": round(result.model_seconds, 6),
            "configs_per_second": round(result.configs_per_second, 2),
            "speedup_vs_single_process": round(
                single_seconds / result.model_seconds, 2
            ),
            "workers": result.num_workers,
            "work_stealing": result.work_stealing,
            "recovered_configs": result.recovered_configs,
            "num_classes": result.num_classes,
            "dedup_ratio": round(result.dedup_ratio, 4),
            "fleet_cache_stats": result.cache_stats,
        }

    sharded: dict[str, dict] = {}
    results = {}
    for strategy in ("pragma-locality", "round-robin"):
        explorer = ShardedExplorer(
            model_path, num_workers=num_workers, shard_strategy=strategy,
            warm_caches=False, chunk_size=48,
        )
        record(strategy, explorer.explore(space))
    # work stealing over the same locality shards, chunked on one queue
    record("work-stealing", ShardedExplorer(
        model_path, num_workers=num_workers, warm_caches=False,
        chunk_size=24, work_stealing=True,
    ).explore(space))

    # skewed-shard case: one shard owns ~70% of the space; fixed
    # assignments idle behind it, stealing redistributes its chunks
    def skewed_partition(space_arg, num_shards):
        from repro.dse.sharding import ShardSpec

        count = len(space_arg)
        head = max(1, int(count * 0.7))
        blocks = [tuple(range(head))]
        rest = list(range(head, count))
        per = max(1, -(-len(rest) // max(1, num_shards - 1))) if rest else 0
        for index in range(num_shards - 1):
            block = tuple(rest[index * per:(index + 1) * per])
            if block:
                blocks.append(block)
        return [
            ShardSpec(shard_id=index, config_ids=block)
            for index, block in enumerate(blocks)
        ]

    record("skewed-fixed", ShardedExplorer(
        model_path, num_workers=num_workers, warm_caches=False,
        chunk_size=24, partitioner=skewed_partition,
    ).explore(space))
    record("skewed-stealing", ShardedExplorer(
        model_path, num_workers=num_workers, warm_caches=False,
        chunk_size=24, work_stealing=True, partitioner=skewed_partition,
    ).explore(space))

    # differential guards (always enforced)
    for strategy, result in results.items():
        assert result.predictions == single_predictions, (
            f"{strategy}: sharded predictions differ from the single-process "
            f"engine's"
        )
        stream_front = predicted_front(space, result.predictions).points()
        assert fronts_bit_equal(result.front, stream_front), (
            f"{strategy}: merged front is not bit-identical to the stream front"
        )
        assert fronts_bit_equal(single_front, result.front), (
            f"{strategy}: merged front is not bit-identical to the "
            f"single-process front"
        )
        assert result.recovered_configs == 0

    cores = _usable_cores()
    enforce_speedup = cores >= num_workers
    locality = sharded["pragma-locality"]
    stealing_recovery = round(
        sharded["skewed-fixed"]["seconds"]
        / sharded["skewed-stealing"]["seconds"], 2
    )

    deduped_space = _deduped_space_section(model_path)
    payload = {
        "benchmark": "dse_sharded",
        "kernel": KERNEL,
        "num_configs": len(space),
        "num_workers": num_workers,
        "usable_cores": cores,
        "single_process": {
            "seconds": round(single_seconds, 6),
            "configs_per_second": round(len(space) / single_seconds, 2),
        },
        "sharded": sharded,
        "deduped_space": deduped_space,
        "front_size": len(single_front),
        "speedup_target": SPEEDUP_TARGET,
        "speedup_target_enforced": enforce_speedup,
        #: skewed-fixed seconds / skewed-stealing seconds — how much of the
        #: straggler time work stealing claws back (> 1 means stealing wins)
        "stealing_skew_recovery": stealing_recovery,
        "peak_rss_mb": peak_rss_mb(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_dse_sharded.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        ["single-process", f"{single_seconds:.3f}",
         f"{len(space) / single_seconds:.1f}", "1.0x"],
    ]
    for strategy in (
        "pragma-locality", "round-robin", "work-stealing",
        "skewed-fixed", "skewed-stealing",
    ):
        stats = sharded[strategy]
        rows.append([
            f"sharded ({strategy}, {num_workers}w)",
            f"{stats['seconds']:.3f}", f"{stats['configs_per_second']:.1f}",
            f"{stats['speedup_vs_single_process']:.1f}x",
        ])
    sweep = deduped_space["cold_sweep"]
    rows.append([
        f"dedup off ({sweep['kernel']}, {sweep['raw_configs']} raw)",
        f"{sweep['raw_seconds']:.3f}",
        f"{sweep['raw_configs_per_second']:.1f}", "1.0x",
    ])
    rows.append([
        f"dedup on ({sweep['kernel']}, {sweep['classes']} classes)",
        f"{sweep['dedup_seconds']:.3f}",
        f"{sweep['dedup_effective_configs_per_second']:.1f}",
        f"{sweep['effective_configs_per_second_gain']:.2f}x",
    ])
    write_result(
        "BENCH_dse_sharded.txt",
        format_table(
            ["mode", "sweep s", "configs/s", "speedup"], rows,
            title=f"Sharded DSE cold sweep — {KERNEL}, {len(space)} configs, "
                  f"{num_workers} workers, {cores} cores "
                  f"(target {'enforced' if enforce_speedup else 'reported only'})",
        ),
    )

    if enforce_speedup:
        speedup = locality["speedup_vs_single_process"]
        assert speedup >= SPEEDUP_TARGET, (
            f"sharded speedup {speedup:.1f}x below the {SPEEDUP_TARGET}x "
            f"target with {num_workers} workers on {cores} cores"
        )
