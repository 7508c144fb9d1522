"""Unit tests for the CDFG data structure."""

import numpy as np
import pytest

from repro.graph.cdfg import (
    CDFG,
    EdgeKind,
    LoopLevelFeatures,
    NODE_FEATURE_NAMES,
    NodeKind,
)


@pytest.fixture
def small_graph():
    graph = CDFG("test")
    a = graph.add_node("load", array="A", features={"lut": 10.0, "invocations": 4.0})
    b = graph.add_node("mul", features={"dsp": 3.0})
    c = graph.add_node("store", array="C")
    port = graph.add_node("ioport", kind=NodeKind.MEMORY_PORT, array="A")
    graph.add_edge(a.node_id, b.node_id, EdgeKind.DATA)
    graph.add_edge(b.node_id, c.node_id, EdgeKind.DATA)
    graph.add_edge(port.node_id, a.node_id, EdgeKind.MEMORY)
    return graph


class TestConstruction:
    def test_node_ids_are_sequential(self, small_graph):
        assert [node.node_id for node in small_graph.nodes] == [0, 1, 2, 3]

    def test_counts(self, small_graph):
        assert small_graph.num_nodes == 4
        assert small_graph.num_edges == 3

    def test_self_loops_ignored(self):
        graph = CDFG()
        node = graph.add_node("add")
        graph.add_edge(node.node_id, node.node_id)
        assert graph.num_edges == 0

    def test_edge_bounds_checked(self):
        graph = CDFG()
        graph.add_node("add")
        with pytest.raises(ValueError):
            graph.add_edge(0, 5)

    def test_summary_counts_by_category(self, small_graph):
        summary = small_graph.summary()
        assert summary["memory_ports"] == 1
        assert summary["data_edges"] == 2
        assert summary["memory_edges"] == 1


class TestQueries:
    def test_degrees(self, small_graph):
        assert small_graph.in_degree(1) == 1
        assert small_graph.out_degree(1) == 1
        assert small_graph.in_degree(0) == 1  # memory edge from port

    def test_degree_arrays_match_scalar_queries(self, small_graph):
        in_degree, out_degree = small_graph.degree_arrays()
        for node in small_graph.nodes:
            assert in_degree[node.node_id] == small_graph.in_degree(node.node_id)
            assert out_degree[node.node_id] == small_graph.out_degree(node.node_id)

    def test_nodes_of_kind_and_optype(self, small_graph):
        assert len(small_graph.nodes_of_kind(NodeKind.MEMORY_PORT)) == 1
        assert len(small_graph.nodes_of_optype("mul")) == 1

    def test_memory_port_lookup_by_array(self, small_graph):
        assert len(small_graph.memory_port_nodes("A")) == 1
        assert small_graph.memory_port_nodes("B") == []

    def test_edge_index_shape_and_dtype(self, small_graph):
        edge_index = small_graph.edge_index()
        assert edge_index.shape == (2, 3)
        assert edge_index.dtype == np.int64

    def test_empty_graph_edge_index(self):
        assert CDFG().edge_index().shape == (2, 0)

    def test_edge_kind_codes(self, small_graph):
        codes = small_graph.edge_kind_codes()
        assert sorted(codes.tolist()) == [0, 0, 2]


class TestReadOnlyViews:
    """Zero-copy/memoized surfaces are frozen against accidental mutation."""

    def test_edge_index_is_read_only(self, small_graph):
        edge_index = small_graph.edge_index()
        assert not edge_index.flags.writeable
        with pytest.raises(ValueError):
            edge_index[0, 0] = 99

    def test_edge_columns_are_read_only(self, small_graph):
        assert not small_graph.edge_src.flags.writeable
        assert not small_graph.edge_dst.flags.writeable

    def test_feature_matrix_view_is_read_only(self, small_graph):
        matrix = small_graph.feature_matrix()
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_node_feature_writes_still_land(self, small_graph):
        # mutation goes through the node's feature mapping, which writes the
        # backing block directly — the frozen view must observe the update
        before = small_graph.feature_matrix()
        column = NODE_FEATURE_NAMES.index("lut")
        small_graph.nodes[0].features["lut"] = 77.0
        assert before[0, column] == 77.0
        assert small_graph.feature_matrix()[0, column] == 77.0


class TestFeatures:
    def test_feature_vector_order(self, small_graph):
        vector = small_graph.nodes[0].feature_vector()
        assert vector.shape == (len(NODE_FEATURE_NAMES),)
        assert vector[NODE_FEATURE_NAMES.index("lut")] == 10.0
        assert vector[NODE_FEATURE_NAMES.index("invocations")] == 4.0

    def test_feature_matrix_shape(self, small_graph):
        assert small_graph.feature_matrix().shape == (4, len(NODE_FEATURE_NAMES))

    def test_loop_level_feature_vector(self):
        features = LoopLevelFeatures(ii=2, tripcount=16, pipelined=True,
                                     unroll_factor=4, depth=2)
        vector = features.as_vector()
        assert vector.tolist() == [2.0, 16.0, 1.0, 4.0, 2.0]
        assert len(LoopLevelFeatures.feature_names()) == len(vector)


class TestConversions:
    def test_to_networkx(self, small_graph):
        nx_graph = small_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 3
        assert nx_graph.nodes[1]["optype"] == "mul"

    def test_subgraph_renumbers_nodes(self, small_graph):
        sub = small_graph.subgraph([1, 2])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.nodes[0].optype == "mul"
        assert sub.edges[0].src == 0 and sub.edges[0].dst == 1

    def test_subgraph_drops_external_edges(self, small_graph):
        sub = small_graph.subgraph([0])
        assert sub.num_edges == 0

    def test_optype_list(self, small_graph):
        assert small_graph.optype_list() == ["load", "mul", "store", "ioport"]
