"""Edge cases of the replica-replay recorder.

Each test pits the fast path against node-by-node emission in a regime where
bulk copying is *not* trivially safe — graph-size budget exhaustion between
replicas, replication caps, nested unrolls forced by pipelining, degenerate
trip counts, conditionals inside unrolled bodies — and asserts the replay
degrades to exactly the graph the naive path builds.
"""

from __future__ import annotations

import pytest

from repro.frontend import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
)
from repro.graph.construction import GraphBuilder
from repro.ir import lower_source
from repro.kernels import load_kernel

from test_replay_equivalence import assert_graphs_identical

NESTED_SOURCE = """
void nest(int a[8][8], int b[8][8]) {
  int i, j;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      b[i][j] = a[i][j] * 3 + 1;
    }
  }
}
"""

IF_IN_LOOP_SOURCE = """
void gate(int a[16], int b[16], int t) {
  int i;
  for (i = 0; i < 16; i++) {
    int v = a[i];
    if (v > t) {
      b[i] = v * 2;
    } else {
      b[i] = v + 1;
    }
  }
}
"""

ZERO_TRIP_SOURCE = """
void degenerate(int a[8], int b[8]) {
  int i, j;
  for (i = 0; i < 0; i++) {
    a[i] = a[i] + 1;
  }
  for (j = 0; j < 8; j++) {
    b[j] = a[j] * 2;
  }
}
"""


def build_both(function, config, **kwargs):
    naive = GraphBuilder(
        function, config, replay_unroll=False, **kwargs
    ).build_function_graph()
    replayed = GraphBuilder(
        function, config, replay_unroll=True, **kwargs
    ).build_function_graph()
    return naive, replayed


class TestBudgetExhaustion:
    """``max_nodes`` checks fire between replicas of *nested* unrolls, so a
    copy of the outer span can cross the budget mid-replica; the fast path
    must fall back to emission exactly where naive emission truncates."""

    @pytest.mark.parametrize("max_nodes", [8, 17, 30, 45, 64, 90, 128, 200])
    def test_nested_unroll_truncates_identically(self, max_nodes):
        function = lower_source(NESTED_SOURCE)
        config = PragmaConfig.from_dicts(
            loops={
                "L0": LoopDirective(unroll_factor=8),
                "L0_0": LoopDirective(unroll_factor=8),
            },
        )
        naive, replayed = build_both(function, config, max_nodes=max_nodes)
        assert_graphs_identical(naive, replayed, f"max_nodes={max_nodes}")

    @pytest.mark.parametrize("max_nodes", [20, 50, 77, 150, 333, 1024])
    def test_three_level_nest_with_partitioning(self, max_nodes):
        function = load_kernel("gemm")
        config = PragmaConfig.from_dicts(
            loops={
                "L0": LoopDirective(unroll_factor=16),
                "L0_0": LoopDirective(unroll_factor=4),
                "L0_0_0": LoopDirective(unroll_factor=16),
            },
            arrays={
                "A": ArrayDirective(PartitionType.CYCLIC, factor=8, dim=2),
                "B": ArrayDirective(PartitionType.CYCLIC, factor=8, dim=1),
            },
        )
        naive, replayed = build_both(function, config, max_nodes=max_nodes)
        assert_graphs_identical(naive, replayed, f"max_nodes={max_nodes}")


class TestReplicationClamping:
    @pytest.mark.parametrize("max_replication", [1, 2, 3, 5, 8, 64])
    def test_max_replication_caps_the_factor(self, max_replication):
        function = lower_source(NESTED_SOURCE)
        config = PragmaConfig.from_dicts(
            loops={
                "L0": LoopDirective(unroll_factor=8),
                "L0_0": LoopDirective(unroll_factor=8),
            },
        )
        naive, replayed = build_both(
            function, config, max_replication=max_replication
        )
        assert_graphs_identical(naive, replayed, f"cap={max_replication}")
        # the cap really bit: no loop produced more replicas than allowed
        replicas = set(zip(replayed.node_loop_labels, replayed.node_replicas))
        assert all(replica < max_replication for _, replica in replicas)

    def test_tripcount_clamps_oversized_factor(self):
        function = lower_source(NESTED_SOURCE)
        config = PragmaConfig.from_dicts(
            loops={"L0_0": LoopDirective(unroll_factor=1 << 16)},
        )
        naive, replayed = build_both(function, config)
        assert_graphs_identical(naive, replayed, "tripcount clamp")


class TestNestedAndConditionalBodies:
    def test_nested_unroll_inside_pipelined_loop(self):
        """A pipelined ancestor forces full unrolling of the nest below —
        the replay recurses through the forced inner replicas."""
        function = load_kernel("gemm")
        config = PragmaConfig.from_dicts(
            loops={"L0_0": LoopDirective(pipeline=True)},
            arrays={"A": ArrayDirective(PartitionType.CYCLIC, factor=4, dim=2)},
        )
        naive, replayed = build_both(function, config)
        assert_graphs_identical(naive, replayed, "pipelined ancestor")
        # decomposition-level too: the pipelined unit contains the forced
        # inner unroll
        from repro.graph.construction import naive_emission
        from repro.graph.hierarchy import decompose

        with naive_emission():
            naive_decomposition = decompose(function, config)
        replayed_decomposition = decompose(function, config)
        for naive_unit, replayed_unit in zip(
            naive_decomposition.inner_units, replayed_decomposition.inner_units
        ):
            assert_graphs_identical(
                naive_unit.subgraph, replayed_unit.subgraph, naive_unit.label
            )

    def test_conditional_inside_unrolled_loop(self):
        """If-regions reset the control predecessor to the condition node;
        replicas must chain exactly like naive emission around them."""
        function = lower_source(IF_IN_LOOP_SOURCE)
        for factor in (2, 4, 16):
            config = PragmaConfig.from_dicts(
                loops={"L0": LoopDirective(unroll_factor=factor)},
            )
            naive, replayed = build_both(function, config)
            assert_graphs_identical(naive, replayed, f"if factor={factor}")


class TestDegenerateTripcounts:
    def test_zero_tripcount_loop(self):
        """A statically empty loop emits one degenerate replica; unrolling
        it must not replay anything extra."""
        function = lower_source(ZERO_TRIP_SOURCE)
        for config in (
            PragmaConfig(),
            PragmaConfig.from_dicts(
                loops={
                    "L0": LoopDirective(unroll_factor=4),
                    "L1": LoopDirective(unroll_factor=4),
                },
            ),
            PragmaConfig.from_dicts(
                loops={"L0": LoopDirective(unroll_factor=0)},
            ),
        ):
            naive, replayed = build_both(function, config)
            assert_graphs_identical(naive, replayed, "zero tripcount")

    def test_single_iteration_loop_never_replays(self):
        source = """
        void once(int a[4]) {
          int i;
          for (i = 0; i < 1; i++) {
            a[i] = a[i] + 1;
          }
        }
        """
        function = lower_source(source)
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(unroll_factor=8)},
        )
        naive, replayed = build_both(function, config)
        assert_graphs_identical(naive, replayed, "tripcount 1")


class TestLoopSubgraphReplay:
    def test_loop_graph_first_replica_has_no_predecessor(self):
        """build_loop_graph starts with no control predecessor: replica 0
        emits no entry edge but replicas 1..F-1 must still chain."""
        from repro.graph.cdfg import EdgeKind

        function = lower_source(NESTED_SOURCE)
        config = PragmaConfig.from_dicts(
            loops={
                "L0": LoopDirective(unroll_factor=4),
                "L0_0": LoopDirective(unroll_factor=8),
            },
        )
        loop = function.loop_by_label("L0")
        naive = GraphBuilder(
            function, config, replay_unroll=False
        ).build_loop_graph(loop)
        replayed = GraphBuilder(
            function, config, replay_unroll=True
        ).build_loop_graph(loop)
        assert_graphs_identical(naive, replayed, "loop subgraph")
        assert any(kind is EdgeKind.CONTROL for kind in replayed.edge_kinds)
