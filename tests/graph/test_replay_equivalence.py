"""Differential equivalence of replica replay vs node-by-node emission.

The replica-replay fast path in :class:`~repro.graph.construction.GraphBuilder`
is a pure construction optimization: for every kernel in the registry and a
pragma grid covering the interesting unroll regimes (factor 1, partial,
tripcount-clamped, ``max_replication``-capped; array partitioning on and
off), the replayed CDFG must be **identical** to the naively emitted one —
same nodes in the same order with byte-equal features, and the same edge
multiset (edge *order* inside a replica is not part of the graph semantics,
so edges are compared canonically sorted).

On top of graph equality, model predictions through the replay path must
agree with the naive path to 1e-9 (the edge order difference perturbs
floating-point summation, nothing else).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.space import sample_design_space
from repro.frontend import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
)
from repro.graph.construction import GraphBuilder, naive_emission
from repro.graph.hierarchy import decompose
from repro.kernels import KERNEL_SOURCES, load_kernel

ALL_KERNELS = tuple(sorted(KERNEL_SOURCES))


def assert_graphs_identical(naive, replayed, context=""):
    """Exact node-level equality + canonical edge-multiset equality."""
    assert replayed.num_nodes == naive.num_nodes, context
    assert replayed.num_edges == naive.num_edges, context
    assert replayed.optype_list() == naive.optype_list(), (
        f"{context}: node optype mismatch"
    )
    for column in ("node_dtypes", "node_kinds", "node_loop_labels",
                   "node_arrays", "node_instr_ids", "node_replicas"):
        assert getattr(replayed, column) == getattr(naive, column), (
            f"{context}: {column} mismatch"
        )
    np.testing.assert_array_equal(
        replayed.feature_matrix(), naive.feature_matrix(),
        err_msg=f"{context}: feature matrix mismatch",
    )
    canonical_naive = sorted(
        zip(naive.edge_src, naive.edge_dst,
            (kind.value for kind in naive.edge_kinds))
    )
    canonical_replayed = sorted(
        zip(replayed.edge_src, replayed.edge_dst,
            (kind.value for kind in replayed.edge_kinds))
    )
    assert canonical_replayed == canonical_naive, f"{context}: edge mismatch"
    np.testing.assert_array_equal(
        replayed.loop_features.as_vector(), naive.loop_features.as_vector(),
        err_msg=f"{context}: loop features mismatch",
    )


def pragma_grid(function) -> list[PragmaConfig]:
    """Unroll/partition grid for one kernel: factor 1, partial, clamped, full."""
    loops = function.all_loops()
    top = function.top_level_loops()
    inner = [loop for loop in loops if loop.is_innermost]
    grid = [
        PragmaConfig(),
        # explicit factor 1 must behave exactly like no directive
        PragmaConfig.from_dicts(
            loops={loop.label: LoopDirective(unroll_factor=1) for loop in loops}
        ),
        # partial unroll everywhere
        PragmaConfig.from_dicts(
            loops={loop.label: LoopDirective(unroll_factor=2) for loop in loops}
        ),
        # a factor far beyond any trip count clamps to the trip count
        PragmaConfig.from_dicts(
            loops={loop.label: LoopDirective(unroll_factor=1 << 20)
                   for loop in top}
        ),
        # full unroll of the innermost loops + cyclic partitioning
        PragmaConfig.from_dicts(
            loops={loop.label: LoopDirective(unroll_factor=0) for loop in inner},
            arrays={
                name: ArrayDirective(PartitionType.CYCLIC, factor=4, dim=1)
                for name in function.arrays
            },
        ),
        # pipelined top loops force full unrolling of everything below
        PragmaConfig.from_dicts(
            loops={loop.label: LoopDirective(pipeline=True) for loop in top}
        ),
    ]
    grid.extend(sample_design_space(function, 4, rng=np.random.default_rng(29)))
    return grid


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_flat_graphs_identical(kernel):
    """Whole-function CDFGs: replay == naive for the full pragma grid."""
    function = load_kernel(kernel)
    for index, config in enumerate(pragma_grid(function)):
        naive = GraphBuilder(
            function, config, replay_unroll=False
        ).build_function_graph()
        replayed = GraphBuilder(
            function, config, replay_unroll=True
        ).build_function_graph()
        assert_graphs_identical(naive, replayed, f"{kernel}[{index}]")


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_decompositions_identical(kernel):
    """Inner-unit subgraphs and condensed outer graphs: replay == naive."""
    function = load_kernel(kernel)
    for index, config in enumerate(pragma_grid(function)):
        with naive_emission():
            naive = decompose(function, config)
        replayed = decompose(function, config)
        assert len(replayed.inner_units) == len(naive.inner_units)
        for naive_unit, replayed_unit in zip(
            naive.inner_units, replayed.inner_units
        ):
            assert replayed_unit.label == naive_unit.label
            assert_graphs_identical(
                naive_unit.subgraph, replayed_unit.subgraph,
                f"{kernel}[{index}]:{naive_unit.label}",
            )
        assert_graphs_identical(
            naive.outer_graph, replayed.outer_graph, f"{kernel}[{index}]:outer"
        )


@pytest.mark.parametrize("kernel", ["gemm", "bicg", "mvt", "stencil2d"])
def test_predictions_agree(trained_model, kernel):
    """End-to-end predict through replay matches naive emission at 1e-9."""
    model, _ = trained_model
    function = load_kernel(kernel)
    configs = pragma_grid(function)[:6]
    for config in configs:
        with naive_emission():
            naive = model.predict(function, config)
        replayed = model.predict(function, config)
        assert set(replayed) == set(naive)
        for name in naive:
            assert replayed[name] == pytest.approx(
                naive[name], rel=1e-9, abs=1e-9
            ), f"{kernel}: {name} diverged"


def test_predict_batch_agrees_with_naive_sequential(trained_model):
    """The batched engine on replayed graphs == naive sequential predicts."""
    model, _ = trained_model
    function = load_kernel("bicg")
    configs = sample_design_space(function, 12, rng=np.random.default_rng(5))
    with naive_emission():
        naive = [model.predict(function, config) for config in configs]
    model.clear_inference_caches()
    batched = model.predict_batch(function, list(configs))
    for expected, actual in zip(naive, batched):
        for name in expected:
            assert actual[name] == pytest.approx(
                expected[name], rel=1e-9, abs=1e-9
            )
