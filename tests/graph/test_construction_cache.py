"""The pragma-delta graph-construction cache must be invisible to results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.space import sample_design_space
from repro.graph.cache import GraphConstructionCache
from repro.graph.cdfg import FEATURE_COLUMN
from repro.graph.hierarchy import decompose, decomposition_signature


def assert_graphs_equal(a, b):
    assert a.num_nodes == b.num_nodes
    assert a.num_edges == b.num_edges
    assert a.optype_list() == b.optype_list()
    np.testing.assert_allclose(a.feature_matrix(), b.feature_matrix(), rtol=0, atol=0)
    np.testing.assert_array_equal(a.edge_index(), b.edge_index())
    np.testing.assert_allclose(
        a.loop_features.as_vector(), b.loop_features.as_vector(), rtol=0, atol=0
    )


# gemm: one loop nest, unique induction vars.  mvt: two sibling nests that
# both use (i, j) — exercises the induction-variable name-collision handling
# in the unit cache key (a nest var resolving to a loop outside the nest).
@pytest.fixture(scope="module", params=["gemm", "mvt"])
def gemm_space(request):
    from repro.kernels import load_kernel

    function = load_kernel(request.param)
    configs = sample_design_space(function, 24, rng=np.random.default_rng(5))
    return function, configs


class TestGraphConstructionCache:
    def test_cached_decompose_matches_fresh(self, gemm_space):
        function, configs = gemm_space
        cache = GraphConstructionCache()
        for config in configs:
            fresh = decompose(function, config)
            cached = decompose(function, config, cache=cache)
            assert len(fresh.inner_units) == len(cached.inner_units)
            for unit_fresh, unit_cached in zip(fresh.inner_units, cached.inner_units):
                assert unit_fresh.label == unit_cached.label
                assert unit_fresh.pipelined == unit_cached.pipelined
                assert_graphs_equal(unit_fresh.subgraph, unit_cached.subgraph)
            assert_graphs_equal(fresh.outer_graph, cached.outer_graph)

    def test_second_pass_hits_and_stays_equal(self, gemm_space):
        function, configs = gemm_space
        cache = GraphConstructionCache()
        first = [decompose(function, c, cache=cache) for c in configs]
        baseline = cache.stats.as_dict()
        second = [decompose(function, c, cache=cache) for c in configs]
        after = cache.stats.as_dict()
        # a fully warm second pass performs no construction at all
        assert after["unit_misses"] == baseline["unit_misses"]
        assert after["outer_misses"] == baseline["outer_misses"]
        assert after["unit_hits"] > baseline["unit_hits"]
        assert after["outer_hits"] > baseline["outer_hits"]
        for d1, d2 in zip(first, second):
            assert_graphs_equal(d1.outer_graph, d2.outer_graph)

    def test_outer_template_is_isolated_from_annotation(self, gemm_space):
        function, configs = gemm_space
        cache = GraphConstructionCache()
        first = decompose(function, configs[0], cache=cache)
        # mutate the handed-out graph the way hierarchical inference does
        cycles = FEATURE_COLUMN["cycles"]
        first.outer_graph.feat.matrix[: first.outer_graph.num_nodes, cycles] = 1e9
        second = decompose(function, configs[0], cache=cache)
        assert (second.outer_graph.feature_matrix()[:, cycles] != 1e9).all()

    def test_equal_signatures_mean_equal_graphs(self, gemm_space):
        function, configs = gemm_space
        cache = GraphConstructionCache()
        by_signature = {}
        for config in configs:
            signature = decomposition_signature(function, config, cache)
            decomposition = decompose(function, config)  # fresh, no sharing
            if signature in by_signature:
                assert_graphs_equal(
                    by_signature[signature].outer_graph, decomposition.outer_graph
                )
                for ua, ub in zip(
                    by_signature[signature].inner_units, decomposition.inner_units
                ):
                    assert_graphs_equal(ua.subgraph, ub.subgraph)
            else:
                by_signature[signature] = decomposition

    def test_skeleton_reuse_across_configs(self, gemm_space):
        function, configs = gemm_space
        cache = GraphConstructionCache()
        skeleton_a = cache.skeleton(function)
        decompose(function, configs[0], cache=cache)
        assert cache.skeleton(function) is skeleton_a

    def test_outer_key_tracks_condensed_loop_var_collision(self):
        """A non-condensed loop's induction var may resolve (first-wins) to a
        condensed-away loop; that loop's unroll factor leaks into the outer
        graph's bank edges and must split the outer cache key."""
        from repro.frontend.pragmas import (
            ArrayDirective, LoopDirective, PartitionType, PragmaConfig,
        )
        from repro.ir import lower_source

        source = """
        void collide(int A[32], int C[32][8]) {
          int i, j;
          for (i = 0; i < 32; i++) {
            A[i] = A[i] + 1;
          }
          for (i = 0; i < 32; i++) {
            for (j = 0; j < 8; j++) {
              C[i][j] = A[i] + j;
            }
          }
        }
        """
        function = lower_source(source)
        arrays = {"A": ArrayDirective(PartitionType.CYCLIC, factor=4, dim=1)}
        config_a = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(pipeline=True),
                   "L1": LoopDirective(unroll_factor=4)},
            arrays=arrays,
        )
        config_b = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(pipeline=True, unroll_factor=4),
                   "L1": LoopDirective(unroll_factor=4)},
            arrays=arrays,
        )
        cache = GraphConstructionCache()
        decompose(function, config_a, cache=cache)
        cached_b = decompose(function, config_b, cache=cache)
        fresh_b = decompose(function, config_b)
        assert_graphs_equal(fresh_b.outer_graph, cached_b.outer_graph)

    def test_clear_resets(self, gemm_space):
        function, configs = gemm_space
        cache = GraphConstructionCache()
        decompose(function, configs[0], cache=cache)
        cache.clear()
        assert all(value == 0 for value in cache.stats.as_dict().values())
