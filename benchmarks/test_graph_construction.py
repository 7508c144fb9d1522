"""Figure 2 — pragma-aware graph construction behaviour and throughput.

The paper's Fig. 2 shows how the CDFG changes under loop pipelining (no
change), loop unrolling (logic-node replication) and array partitioning
(memory-port insertion).  This benchmark verifies those structural properties
on the gemm kernel and measures graph-construction throughput over the
sampled design space (construction is on the DSE critical path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
)
from repro.graph import build_flat_graph
from repro.dse.space import sample_design_space
from repro.kernels import load_kernel

from cdfg_queries import memory_ports
from conftest import format_table, write_result


@pytest.mark.benchmark(group="figure2")
def test_figure2_graph_construction(benchmark):
    gemm = load_kernel("gemm")
    configs = sample_design_space(gemm, 64, rng=np.random.default_rng(2))

    def run():
        return [build_flat_graph(gemm, config) for config in configs]

    graphs = benchmark.pedantic(run, rounds=1, iterations=3)

    baseline = build_flat_graph(gemm)
    pipelined = build_flat_graph(
        gemm, PragmaConfig.from_dicts(loops={"L0_0_0": LoopDirective(pipeline=True)})
    )
    unrolled = build_flat_graph(
        gemm, PragmaConfig.from_dicts(loops={"L0_0_0": LoopDirective(unroll_factor=4)})
    )
    partitioned = build_flat_graph(
        gemm,
        PragmaConfig.from_dicts(
            arrays={"A": ArrayDirective(PartitionType.CYCLIC, factor=4, dim=2)}
        ),
    )
    rows = [
        ["baseline", str(baseline.num_nodes), str(baseline.num_edges),
         str(len(memory_ports(baseline)))],
        ["pipeline (Fig. 2a)", str(pipelined.num_nodes), str(pipelined.num_edges),
         str(len(memory_ports(pipelined)))],
        ["unroll x4 (Fig. 2b)", str(unrolled.num_nodes), str(unrolled.num_edges),
         str(len(memory_ports(unrolled)))],
        ["partition x4 (Fig. 2c)", str(partitioned.num_nodes), str(partitioned.num_edges),
         str(len(memory_ports(partitioned)))],
    ]
    sizes = [graph.num_nodes for graph in graphs]
    text = format_table(
        ["Configuration", "Nodes", "Edges", "Memory ports"], rows,
        title="Figure 2 reproduction: graph construction under pragmas (gemm)",
    )
    text += (
        f"\nSampled space of {len(configs)} configs: node counts "
        f"min={min(sizes)} median={int(np.median(sizes))} max={max(sizes)}\n"
    )
    write_result("figure2_graph_construction.txt", text)

    # Fig. 2a: pipelining leaves the graph unchanged
    assert pipelined.num_nodes == baseline.num_nodes
    # Fig. 2b: unrolling replicates logic nodes
    assert unrolled.num_nodes > baseline.num_nodes
    # Fig. 2c: partitioning inserts one port node per bank
    assert len(memory_ports(partitioned, "A")) == 4
