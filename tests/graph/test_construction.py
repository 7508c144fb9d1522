"""Unit tests for pragma-aware CDFG construction (Fig. 2 of the paper)."""


from repro.frontend import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
)
from repro.graph.cdfg import EdgeKind, NodeKind
from repro.graph.construction import (
    GraphBuilder,
    build_flat_graph,
    build_loop_subgraph,
)
from repro.hls.directives import effective_unroll_factors

from cdfg_queries import (
    edges_of_kind,
    feature,
    memory_ports,
    nodes_of_kind,
    nodes_of_optype,
)


class TestBaselineGraph:
    def test_every_instruction_becomes_a_node(self, vadd_function):
        graph = build_flat_graph(vadd_function)
        operation_nodes = nodes_of_kind(graph, NodeKind.OPERATION)
        # alloca-free kernels map 1:1 (loop header/latch included)
        assert len(operation_nodes) == len(vadd_function.all_instructions())

    def test_memory_port_per_array(self, gemm_function):
        graph = build_flat_graph(gemm_function)
        assert len(memory_ports(graph)) == 3
        assert len(memory_ports(graph, "A")) == 1

    def test_data_edges_follow_def_use(self, vadd_function):
        graph = build_flat_graph(vadd_function)
        assert nodes_of_optype(graph, "add")
        assert graph.num_edges > graph.num_nodes  # data + control + memory

    def test_load_connected_from_port(self, vadd_function):
        graph = build_flat_graph(vadd_function)
        load = nodes_of_optype(graph, "load")[0]
        port_ids = set(memory_ports(graph, graph.node_arrays[load]))
        sources = [
            src for src, dst in edges_of_kind(graph, EdgeKind.MEMORY) if dst == load
        ]
        assert sources and sources[0] in port_ids

    def test_store_connected_to_port(self, vadd_function):
        graph = build_flat_graph(vadd_function)
        store = nodes_of_optype(graph, "store")[0]
        memory_edges = [
            edge for edge in edges_of_kind(graph, EdgeKind.MEMORY) if edge[0] == store
        ]
        assert memory_edges

    def test_metadata_records_kernel_and_config(self, gemm_function):
        graph = build_flat_graph(gemm_function)
        assert graph.metadata["kernel"] == "gemm"
        assert graph.metadata["config"] == "baseline"


class TestPipelining:
    def test_pipeline_alone_does_not_change_graph(self, vadd_function):
        baseline = build_flat_graph(vadd_function)
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(pipeline=True)})
        pipelined = build_flat_graph(vadd_function, config)
        assert pipelined.num_nodes == baseline.num_nodes
        assert pipelined.num_edges == baseline.num_edges


class TestUnrolling:
    def test_unroll_replicates_body_nodes(self, vadd_function):
        baseline = build_flat_graph(vadd_function)
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(unroll_factor=4)})
        unrolled = build_flat_graph(vadd_function, config)
        assert unrolled.num_nodes > baseline.num_nodes
        assert len(nodes_of_optype(unrolled, "store")) == 4

    def test_full_unroll_removes_loop_control(self, vadd_function):
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(unroll_factor=32)})
        unrolled = build_flat_graph(vadd_function, config)
        assert not nodes_of_optype(unrolled, "phi")
        assert len(nodes_of_optype(unrolled, "store")) == 32

    def test_partial_unroll_keeps_loop_control(self, vadd_function):
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(unroll_factor=4)})
        unrolled = build_flat_graph(vadd_function, config)
        assert len(nodes_of_optype(unrolled, "phi")) == 1

    def test_replicas_record_their_index(self, vadd_function):
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(unroll_factor=2)})
        unrolled = build_flat_graph(vadd_function, config)
        stores = nodes_of_optype(unrolled, "store")
        assert sorted(unrolled.node_replicas[node] for node in stores) == [0, 1]

    def test_invocations_divided_by_unroll_factor(self, vadd_function):
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(unroll_factor=4)})
        unrolled = build_flat_graph(vadd_function, config)
        store = nodes_of_optype(unrolled, "store")[0]
        # 32 iterations / factor 4
        assert feature(unrolled, store, "invocations") == 8.0

    def test_pipelining_outer_loop_fully_unrolls_inner(self, gemm_function):
        config = PragmaConfig.from_dicts(loops={"L0_0": LoopDirective(pipeline=True)})
        factors = effective_unroll_factors(gemm_function, config)
        assert factors["L0_0_0"] == 16

    def test_node_budget_caps_replication(self, gemm_function):
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(pipeline=True)})
        builder = GraphBuilder(gemm_function, config, max_nodes=500)
        graph = builder.build_function_graph()
        assert graph.num_nodes <= 600  # budget plus one replica of slack


class TestArrayPartitioning:
    def test_cyclic_partition_creates_port_nodes(self, vadd_function):
        config = PragmaConfig.from_dicts(
            arrays={"a": ArrayDirective(PartitionType.CYCLIC, factor=4, dim=1)}
        )
        graph = build_flat_graph(vadd_function, config)
        assert len(memory_ports(graph, "a")) == 4
        assert len(memory_ports(graph, "b")) == 1

    def test_complete_partition_one_port_per_element_capped(self, vadd_function):
        config = PragmaConfig.from_dicts(
            arrays={"a": ArrayDirective(PartitionType.COMPLETE, factor=0, dim=1)}
        )
        graph = build_flat_graph(vadd_function, config)
        assert len(memory_ports(graph, "a")) == 32

    def test_unrolled_access_connects_to_single_bank(self, vadd_function):
        """With unroll factor == cyclic factor, each replica touches one bank."""
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(unroll_factor=2)},
            arrays={"a": ArrayDirective(PartitionType.CYCLIC, factor=2, dim=1)},
        )
        graph = build_flat_graph(vadd_function, config)
        loads_a = [
            node for node in nodes_of_optype(graph, "load")
            if graph.node_arrays[node] == "a"
        ]
        for load in loads_a:
            memory_edges = [
                edge for edge in edges_of_kind(graph, EdgeKind.MEMORY)
                if edge[1] == load
            ]
            assert len(memory_edges) == 1

    def test_unmatched_unroll_connects_to_all_banks(self, vadd_function):
        """Without unrolling, a loop-varying index may hit every bank."""
        config = PragmaConfig.from_dicts(
            arrays={"a": ArrayDirective(PartitionType.CYCLIC, factor=4, dim=1)}
        )
        graph = build_flat_graph(vadd_function, config)
        load_a = [
            node for node in nodes_of_optype(graph, "load")
            if graph.node_arrays[node] == "a"
        ][0]
        memory_edges = [
            edge for edge in edges_of_kind(graph, EdgeKind.MEMORY)
            if edge[1] == load_a
        ]
        assert len(memory_edges) == 4

    def test_pragma_blind_mode_ignores_partitioning(self, vadd_function):
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(unroll_factor=8)},
            arrays={"a": ArrayDirective(PartitionType.CYCLIC, factor=8, dim=1)},
        )
        blind = build_flat_graph(vadd_function, config, pragma_aware=False)
        baseline = build_flat_graph(vadd_function)
        assert blind.num_nodes == baseline.num_nodes
        assert len(memory_ports(blind, "a")) == 1


class TestSuperNodes:
    def test_condensed_loop_becomes_super_node(self, gemm_function):
        builder = GraphBuilder(
            gemm_function, PragmaConfig(), condense_loops={"L0_0_0": True}
        )
        graph = builder.build_function_graph()
        supers = nodes_of_kind(graph, NodeKind.SUPER_NODE)
        assert len(supers) == 1
        assert graph.optype_list()[supers[0]] == "super_p"

    def test_non_pipelined_super_node_optype(self, gemm_function):
        builder = GraphBuilder(
            gemm_function, PragmaConfig(), condense_loops={"L0_0_0": False}
        )
        graph = builder.build_function_graph()
        super_node = nodes_of_kind(graph, NodeKind.SUPER_NODE)[0]
        assert graph.optype_list()[super_node] == "super_np"

    def test_super_node_replicated_by_outer_unroll(self, gemm_function):
        config = PragmaConfig.from_dicts(loops={"L0_0": LoopDirective(unroll_factor=4)})
        builder = GraphBuilder(gemm_function, config, condense_loops={"L0_0_0": True})
        graph = builder.build_function_graph()
        assert len(nodes_of_kind(graph, NodeKind.SUPER_NODE)) == 4

    def test_super_node_connected_to_memory_ports(self, gemm_function):
        builder = GraphBuilder(
            gemm_function, PragmaConfig(), condense_loops={"L0_0_0": True}
        )
        graph = builder.build_function_graph()
        super_node = nodes_of_kind(graph, NodeKind.SUPER_NODE)[0]
        memory_edges = [
            edge for edge in edges_of_kind(graph, EdgeKind.MEMORY)
            if super_node in edge
        ]
        assert memory_edges

    def test_condensed_graph_smaller_than_flat(self, gemm_function):
        flat = build_flat_graph(gemm_function)
        builder = GraphBuilder(
            gemm_function, PragmaConfig(), condense_loops={"L0_0_0": True}
        )
        condensed = builder.build_function_graph()
        assert condensed.num_nodes < flat.num_nodes


class TestLoopSubgraph:
    def test_subgraph_contains_only_touched_arrays(self, gemm_function):
        loop = gemm_function.loop_by_label("L0_0_0")
        graph = build_loop_subgraph(gemm_function, loop)
        arrays = {graph.node_arrays[node] for node in memory_ports(graph)}
        assert arrays == {"A", "B"}

    def test_subgraph_smaller_than_function_graph(self, gemm_function):
        loop = gemm_function.loop_by_label("L0_0_0")
        sub = build_loop_subgraph(gemm_function, loop)
        full = build_flat_graph(gemm_function)
        assert sub.num_nodes < full.num_nodes

    def test_subgraph_respects_unrolling(self, gemm_function):
        loop = gemm_function.loop_by_label("L0_0_0")
        config = PragmaConfig.from_dicts(
            loops={"L0_0_0": LoopDirective(unroll_factor=4)}
        )
        sub = build_loop_subgraph(gemm_function, loop, config)
        baseline = build_loop_subgraph(gemm_function, loop)
        assert sub.num_nodes > baseline.num_nodes


class TestDegreeFeatures:
    def test_degree_features_annotated(self, gemm_function):
        graph = build_flat_graph(gemm_function)
        in_degree, out_degree = graph.degree_arrays()
        for node in range(graph.num_nodes):
            assert feature(graph, node, "in_degree") == in_degree[node]
            assert feature(graph, node, "out_degree") == out_degree[node]

    def test_op_characterization_features_annotated(self, gemm_function):
        graph = build_flat_graph(gemm_function)
        mul = nodes_of_optype(graph, "mul")[0]
        assert feature(graph, mul, "dsp") > 0
        icmp = nodes_of_optype(graph, "icmp")[0]
        assert feature(graph, icmp, "dsp") == 0
