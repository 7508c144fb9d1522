"""Tests of the reference predictor's own helpers."""

from repro.frontend import PragmaConfig
from repro.graph import decompose

from cdfg_queries import feature

from .predict import annotate_super_node


class TestSuperNodeAnnotation:
    def test_annotation_sets_features(self, gemm_function):
        decomposition = decompose(gemm_function, PragmaConfig())
        unit = decomposition.inner_units[0]
        node_ids = decomposition.super_node_ids(unit.label)
        annotate_super_node(
            decomposition.outer_graph, node_ids[0],
            latency=1234.0, lut=56.0, ff=78.0, dsp=9.0, iteration_latency=10.0,
        )
        graph, node = decomposition.outer_graph, node_ids[0]
        assert feature(graph, node, "cycles") == 1234.0
        assert feature(graph, node, "lut") == 56.0
        assert feature(graph, node, "work") == 1234.0 * feature(
            graph, node, "invocations"
        )
