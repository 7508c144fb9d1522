"""Sharded multi-worker DSE with warm-cache bootstrap.

The production-shaped version of :mod:`examples.dse_bicg`: instead of
calling the in-process explorer, the design space is partitioned across
worker processes, each of which loads its own predictor from a saved model
file and streams predictions back to a coordinator that merges the
per-shard Pareto fronts deterministically.

The walkthrough:

1. train a small hierarchical model and ``save`` it (the model file is the
   worker bootstrap artifact);
2. cold sharded sweep over a ``gemm`` design space with 2 workers, once per
   shard strategy — compare throughput and fleet cache stats;
3. verify the determinism story: the fleet's predictions and merged front
   are bit-identical to the single-process engine's;
4. warm restart: run the sweep once in-process, save the model *with* its
   warm caches, and explore sharded again — every worker now answers from
   the persisted memo without building a single graph.

Run with::

    python examples/dse_sharded.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
    build_design_instances,
)
from repro.core.predictor import QoRPredictor
from repro.dse import DesignSpace, ShardedExplorer, fronts_bit_equal, predicted_front
from repro.dse.space import sample_design_space
from repro.kernels import load_kernels

NUM_WORKERS = 2
SPACE_SIZE = 64


def main() -> None:
    """Train, save, then explore gemm's space across worker processes."""
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    # 1. train a small model and persist it for worker bootstrap
    # ------------------------------------------------------------------ #
    kernels = load_kernels(("fir", "gsm_autocorr", "atax"))
    configs = {
        name: sample_design_space(function, 12, rng=rng)
        for name, function in kernels.items()
    }
    instances = build_design_instances(kernels, configs)
    print(f"training corpus: {len(instances)} design instances")
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type="graphsage", hidden=16,
            training=TrainingConfig(epochs=15, batch_size=16),
        )
    )
    model.fit(instances)
    model_path = Path(tempfile.mkdtemp(prefix="repro_sharded_")) / "model.npz"
    from repro.core import save_model

    save_model(model, model_path, warm_caches=False)
    print(f"model saved to {model_path}")

    # ------------------------------------------------------------------ #
    # 2. cold sharded sweeps, one per strategy
    # ------------------------------------------------------------------ #
    space = DesignSpace.from_kernel("gemm", SPACE_SIZE, seed=3)
    print(f"\ngemm design space: {len(space)} configurations, "
          f"{NUM_WORKERS} workers")
    results = {}
    for strategy in ("pragma-locality", "round-robin"):
        explorer = ShardedExplorer(
            model_path, num_workers=NUM_WORKERS, shard_strategy=strategy,
        )
        result = explorer.explore(space)
        results[strategy] = result
        stats = result.cache_stats
        print(f"  {strategy:16s} {result.model_seconds:5.2f}s "
              f"({result.configs_per_second:6.1f} configs/s)  "
              f"fleet construction misses: "
              f"unit={stats['unit_misses']} outer={stats['outer_misses']}")

    # ------------------------------------------------------------------ #
    # 3. the determinism guarantee, demonstrated
    # ------------------------------------------------------------------ #
    predictor = QoRPredictor.load(model_path, warm_caches=False)
    single = predictor.predict_batch(space.function(), list(space.configs))
    single_front = predicted_front(space, single).points()
    for strategy, result in results.items():
        assert result.predictions == single, strategy
        assert fronts_bit_equal(single_front, result.front), strategy
    print(f"\npredictions and merged fronts bit-identical to the single-process "
          f"sweep ({len(single_front)} front points) for both strategies")
    print("predicted Pareto front (latency, area):")
    for point in single_front[:6]:
        print(f"  {point.objectives[0]:10.0f}  {point.objectives[1]:12.0f}  "
              f"[{point.key[:60]}]")

    # ------------------------------------------------------------------ #
    # 4. warm restart: persist the warmed caches, explore again
    # ------------------------------------------------------------------ #
    predictor.save(model_path, warm_caches=True)
    result = ShardedExplorer(
        model_path, num_workers=NUM_WORKERS, warm_caches=True,
    ).explore(space)
    stats = result.cache_stats
    print(f"\nwarm sharded sweep: {result.model_seconds:.2f}s "
          f"({result.configs_per_second:,.0f} configs/s) — "
          f"graph builds: unit={stats['unit_misses']} "
          f"outer={stats['outer_misses']} (memo served the rest)")
    assert result.predictions == single
    assert fronts_bit_equal(single_front, result.front)


if __name__ == "__main__":
    main()
