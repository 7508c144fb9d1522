"""Tests for loop-level features and the loop-hierarchy decomposition."""

import pytest

from repro.frontend import ArrayDirective, LoopDirective, PartitionType, PragmaConfig
from repro.graph import (
    InnerUnitCategory,
    NodeKind,
    analytical_ii,
    classify_inner_units,
    decompose,
    loop_level_features,
    replicated_access_counts,
)
from repro.ir import lower_source
from repro.kernels import load_kernel

from cdfg_queries import nodes_of_kind


class TestLoopLevelFeatures:
    def test_ii_one_for_simple_pipelined_loop(self, vadd_function, vadd_pipeline_config):
        loop = vadd_function.all_loops()[0]
        ii = analytical_ii(vadd_function, loop, vadd_pipeline_config)
        assert ii == 1

    def test_ii_grows_without_partitioning(self, gemm_function):
        loop = gemm_function.loop_by_label("L0_0")
        config = PragmaConfig.from_dicts(loops={"L0_0": LoopDirective(pipeline=True)})
        ii_plain = analytical_ii(gemm_function, loop, config)
        partitioned = PragmaConfig.from_dicts(
            loops={"L0_0": LoopDirective(pipeline=True)},
            arrays={
                "A": ArrayDirective(PartitionType.CYCLIC, factor=8, dim=2),
                "B": ArrayDirective(PartitionType.CYCLIC, factor=8, dim=1),
            },
        )
        ii_partitioned = analytical_ii(gemm_function, loop, partitioned)
        assert ii_plain > ii_partitioned

    def test_recurrence_bounds_ii(self, prefix_function):
        loop = prefix_function.all_loops()[0]
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(pipeline=True)})
        assert analytical_ii(prefix_function, loop, config) > 1

    def test_replicated_access_counts_include_inner_loops(self, gemm_function):
        loop = gemm_function.loop_by_label("L0_0")
        counts = replicated_access_counts(loop)
        assert counts["A"] == 16  # inner k-loop fully unrolled inside a pipeline
        assert counts["C"] == 1   # single store of C[i][j] per iteration

    def test_tripcount_accounts_for_unrolling(self, vadd_function):
        loop = vadd_function.all_loops()[0]
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(pipeline=True, unroll_factor=4)}
        )
        features = loop_level_features(vadd_function, loop, config, pipelined=True)
        assert features.tripcount == 8
        assert features.unroll_factor == 4
        assert features.pipelined

    def test_non_pipelined_features(self, vadd_function):
        loop = vadd_function.all_loops()[0]
        features = loop_level_features(
            vadd_function, loop, PragmaConfig(), pipelined=False
        )
        assert not features.pipelined
        assert features.ii == 1


class TestInnerUnitClassification:
    def test_innermost_loop_is_single_level(self, gemm_function):
        units = classify_inner_units(gemm_function, PragmaConfig())
        assert len(units) == 1
        loop, category, pipelined, levels = units[0]
        assert loop.label == "L0_0_0"
        assert category is InnerUnitCategory.SINGLE_LEVEL
        assert not pipelined

    def test_pipelined_nest_category(self, gemm_function):
        config = PragmaConfig.from_dicts(loops={"L0_0": LoopDirective(pipeline=True)})
        units = classify_inner_units(gemm_function, config)
        loop, category, pipelined, _ = units[0]
        assert loop.label == "L0_0"
        assert category is InnerUnitCategory.PIPELINED_NEST
        assert pipelined

    def test_fully_unrolled_nest_category(self, gemm_function):
        config = PragmaConfig.from_dicts(
            loops={"L0_0_0": LoopDirective(unroll_factor=16)}
        )
        units = classify_inner_units(gemm_function, config)
        labels = {loop.label: category for loop, category, _, _ in units}
        assert labels["L0_0"] is InnerUnitCategory.FULLY_UNROLLED_NEST

    def test_flattened_nest_category(self):
        fn = lower_source(
            "void f(int A[8][8]) { int i, j;"
            " for (i = 0; i < 8; i++) { for (j = 0; j < 8; j++) { A[i][j] = i + j; } } }"
        )
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(flatten=True),
                   "L0_0": LoopDirective(pipeline=True)}
        )
        units = classify_inner_units(fn, config)
        loop, category, pipelined, levels = units[0]
        assert category is InnerUnitCategory.FLATTENED_PIPELINED_NEST
        assert pipelined and levels == 2

    def test_multiple_nests_give_multiple_units(self):
        mvt = load_kernel("mvt")
        units = classify_inner_units(mvt, PragmaConfig())
        assert len(units) == 2


class TestDecomposition:
    def test_units_and_super_nodes_correspond(self, gemm_function, gemm_pipelined_config):
        decomposition = decompose(gemm_function, gemm_pipelined_config)
        for unit in decomposition.inner_units:
            assert decomposition.super_node_ids(unit.label)

    def test_outer_unroll_replicates_super_nodes(self, gemm_function, gemm_pipelined_config):
        decomposition = decompose(gemm_function, gemm_pipelined_config)
        # L0 is unrolled by 2, so the pipelined j-loop super node appears twice
        assert len(decomposition.super_node_ids("L0_0")) == 2

    def test_subgraphs_have_loop_features(self, gemm_function, gemm_pipelined_config):
        decomposition = decompose(gemm_function, gemm_pipelined_config)
        unit = decomposition.unit("L0_0")
        assert unit.subgraph.loop_features.pipelined
        assert unit.subgraph.loop_features.tripcount == 16

    def test_unit_lookup_missing_raises(self, gemm_function):
        decomposition = decompose(gemm_function, PragmaConfig())
        with pytest.raises(KeyError):
            decomposition.unit("L9")

    def test_outer_graph_contains_no_expanded_inner_nodes(self, gemm_function):
        decomposition = decompose(gemm_function, PragmaConfig())
        inner_instr_ids = {
            instr.instr_id
            for instr in gemm_function.loop_by_label("L0_0_0").body.walk_instructions()
        }
        graph = decomposition.outer_graph
        outer_instr_ids = {
            graph.node_instr_ids[node]
            for node in nodes_of_kind(graph, NodeKind.OPERATION)
        }
        assert not (inner_instr_ids & outer_instr_ids)

    def test_every_kernel_decomposes(self):
        from repro.kernels import all_kernels

        for name, function in all_kernels().items():
            decomposition = decompose(function, PragmaConfig())
            assert decomposition.inner_units, f"{name} produced no inner units"
            assert decomposition.outer_graph.num_nodes > 0
