"""Unit tests for the CDFG data structure."""

import numpy as np
import pytest

from repro.graph.cdfg import (
    CDFG,
    FEATURE_COLUMN,
    EdgeKind,
    LoopLevelFeatures,
    NODE_FEATURE_NAMES,
    NodeKind,
)

from cdfg_queries import memory_ports, nodes_of_kind, nodes_of_optype


@pytest.fixture
def small_graph():
    graph = CDFG("test")
    a = graph.append_node("load", array="A")
    b = graph.append_node("mul")
    c = graph.append_node("store", array="C")
    port = graph.append_node("ioport", kind=NodeKind.MEMORY_PORT, array="A")
    graph.feat.matrix[a, FEATURE_COLUMN["lut"]] = 10.0
    graph.feat.matrix[a, FEATURE_COLUMN["invocations"]] = 4.0
    graph.feat.matrix[b, FEATURE_COLUMN["dsp"]] = 3.0
    graph.add_edge(a, b, EdgeKind.DATA)
    graph.add_edge(b, c, EdgeKind.DATA)
    graph.add_edge(port, a, EdgeKind.MEMORY)
    return graph


class TestConstruction:
    def test_node_ids_are_sequential(self, small_graph):
        graph = CDFG()
        assert [graph.append_node(op) for op in ("add", "mul", "load")] == [0, 1, 2]
        # every node column holds one entry per node, in id order
        assert small_graph.append_node("add") == 4
        for column in (
            small_graph.node_kinds, small_graph.node_dtypes,
            small_graph.node_loop_labels, small_graph.node_arrays,
            small_graph.node_instr_ids, small_graph.node_replicas,
            small_graph.optype_codes,
        ):
            assert len(column) == 5
        assert small_graph.feature_matrix().shape[0] == 5

    def test_counts(self, small_graph):
        assert small_graph.num_nodes == 4
        assert small_graph.num_edges == 3

    def test_self_loops_ignored(self):
        graph = CDFG()
        node = graph.append_node("add")
        graph.add_edge(node, node)
        assert graph.num_edges == 0

    def test_edge_bounds_checked(self):
        graph = CDFG()
        graph.append_node("add")
        with pytest.raises(ValueError):
            graph.add_edge(0, 5)

    def test_summary_counts_by_category(self, small_graph):
        summary = small_graph.summary()
        assert summary["operation_nodes"] == 3
        assert summary["memory_ports"] == 1
        assert summary["super_nodes"] == 0
        assert summary["data_edges"] == 2
        assert summary["memory_edges"] == 1
        assert summary["control_edges"] == 0


class TestQueries:
    def test_degrees(self, small_graph):
        in_degree, out_degree = small_graph.degree_arrays()
        assert in_degree[1] == 1
        assert out_degree[1] == 1
        assert in_degree[0] == 1  # memory edge from port

    def test_degree_arrays_match_scalar_queries(self, small_graph):
        in_degree, out_degree = small_graph.degree_arrays()
        for node in range(small_graph.num_nodes):
            assert in_degree[node] == int((small_graph.edge_dst == node).sum())
            assert out_degree[node] == int((small_graph.edge_src == node).sum())

    def test_nodes_of_kind_and_optype(self, small_graph):
        assert nodes_of_kind(small_graph, NodeKind.MEMORY_PORT) == [3]
        assert nodes_of_optype(small_graph, "mul") == [1]

    def test_memory_port_lookup_by_array(self, small_graph):
        assert memory_ports(small_graph, "A") == [3]
        assert memory_ports(small_graph, "B") == []

    def test_edge_index_shape_and_dtype(self, small_graph):
        edge_index = small_graph.edge_index()
        assert edge_index.shape == (2, 3)
        assert edge_index.dtype == np.int64

    def test_empty_graph_edge_index(self):
        assert CDFG().edge_index().shape == (2, 0)

    def test_edge_kind_codes(self, small_graph):
        # the kind column runs parallel to the endpoint columns
        assert small_graph.edge_kinds == [
            EdgeKind.DATA, EdgeKind.DATA, EdgeKind.MEMORY,
        ]
        assert small_graph.edge_src.tolist() == [0, 1, 3]
        assert small_graph.edge_dst.tolist() == [1, 2, 0]


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
        # mutation writes the backing block directly — the frozen view must
        # observe the update
        before = small_graph.feature_matrix()
        column = FEATURE_COLUMN["lut"]
        small_graph.feat.matrix[0, column] = 77.0
        assert before[0, column] == 77.0
        assert small_graph.feature_matrix()[0, column] == 77.0


class TestFeatures:
    def test_feature_vector_order(self, small_graph):
        assert [FEATURE_COLUMN[name] for name in NODE_FEATURE_NAMES] == list(
            range(len(NODE_FEATURE_NAMES))
        )
        vector = small_graph.feature_matrix()[0]
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
    def test_optype_list(self, small_graph):
        assert small_graph.optype_list() == ["load", "mul", "store", "ioport"]
