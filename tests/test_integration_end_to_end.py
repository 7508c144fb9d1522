"""End-to-end integration tests across all subsystems.

Each test exercises a complete vertical slice: source text -> IR -> graphs ->
flow labels -> (optionally) learning -> prediction / DSE.  Property-based
tests check cross-module invariants that must hold for *any* configuration of
the design space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.space import enumerate_design_space
from repro.frontend import LoopDirective, PragmaConfig
from repro.graph import build_flat_graph, decompose
from repro.hls import run_full_flow, run_hls
from repro.ir import lower_source
from repro.kernels import load_kernel


class TestSourceToQoR:
    def test_new_kernel_from_source_text(self):
        source = """
        void dot(int a[64], int b[64], int out[1]) {
          int i;
          int acc = 0;
          for (i = 0; i < 64; i++) {
            acc += a[i] * b[i];
          }
          out[0] = acc;
        }
        """
        function = lower_source(source)
        baseline = run_full_flow(function)
        pipelined = run_full_flow(
            function,
            PragmaConfig.from_dicts(loops={"L0": LoopDirective(pipeline=True)}),
        )
        assert pipelined.latency < baseline.latency
        graph = build_flat_graph(function)
        assert graph.num_nodes > 10
        assert decompose(function).inner_units

    def test_graph_and_flow_agree_on_structure(self, gemm_function, gemm_pipelined_config):
        """The same directive resolution drives both the model input and the
        label generator: unrolled replicas in the graph match the hardware
        replication the flow charges resources for."""
        graph = build_flat_graph(gemm_function, gemm_pipelined_config)
        report = run_hls(gemm_function, gemm_pipelined_config)
        muls_in_graph = graph.optype_list().count("mul")
        assert muls_in_graph >= 16  # k-loop fully unrolled inside the pipeline
        assert report.loop("L0_0").pipelined


class TestDesignSpaceProperties:
    @pytest.fixture(scope="class")
    def fir_space(self):
        function = load_kernel("fir")
        configs = enumerate_design_space(function, max_configs=64,
                                         rng=np.random.default_rng(0))
        return function, configs

    def test_every_config_flows_and_graphs(self, fir_space):
        function, configs = fir_space
        for config in configs[:40]:
            qor = run_full_flow(function, config)
            assert qor.latency >= 1
            assert qor.lut > 0
            assert qor.ff >= 0
            graph = build_flat_graph(function, config)
            assert graph.num_nodes >= 10
            edge_index = graph.edge_index()
            if edge_index.size:
                assert edge_index.max() < graph.num_nodes

    def test_every_config_decomposes_consistently(self, fir_space):
        function, configs = fir_space
        for config in configs[:30]:
            decomposition = decompose(function, config)
            assert decomposition.inner_units
            for unit in decomposition.inner_units:
                assert decomposition.super_node_ids(unit.label), (
                    f"no super node for {unit.label} under {config.describe()}"
                )

    def test_optimised_designs_use_more_resources_for_less_latency(self, fir_space):
        function, configs = fir_space
        baseline = run_full_flow(function)
        best_latency = baseline
        for config in configs[:40]:
            qor = run_full_flow(function, config)
            if qor.latency < best_latency.latency:
                best_latency = qor
        assert best_latency.latency < baseline.latency
        assert best_latency.lut >= baseline.lut


class TestCrossKernelInvariants:
    @given(st.sampled_from(["gemm", "bicg", "mvt", "fir", "gesummv", "stencil2d"]),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_design_points_have_consistent_labels(self, kernel_name, seed):
        """For any kernel and any sampled configuration: the flow returns
        positive, finite QoR and post-route resources differ from post-HLS."""
        function = load_kernel(kernel_name)
        configs = enumerate_design_space(function, max_configs=256,
                                         rng=np.random.default_rng(0))
        config = configs[seed % len(configs)]
        qor = run_full_flow(function, config)
        assert qor.latency >= 1
        assert np.isfinite([qor.lut, qor.ff, qor.dsp]).all()
        assert qor.lut >= 0 and qor.ff >= 0 and qor.dsp >= 0
        assert qor.hls_report is not None
        assert qor.total_flow_runtime > 0

    @given(st.sampled_from(["gemm", "fir", "gesummv"]))
    @settings(max_examples=6, deadline=None)
    def test_pipelining_innermost_never_hurts_latency(self, kernel_name):
        function = load_kernel(kernel_name)
        baseline = run_full_flow(function)
        innermost = [loop for loop in function.all_loops() if loop.is_innermost]
        config = PragmaConfig.from_dicts(
            loops={loop.label: LoopDirective(pipeline=True) for loop in innermost}
        )
        pipelined = run_full_flow(function, config)
        assert pipelined.latency <= baseline.latency
