"""Property tests: replayed columnar features match node-by-node emission.

``GraphBuilder`` writes node features straight into the CDFG's per-column
block and ``feature_matrix`` is a view over it.  Replica replay bulk-copies
feature rows and node columns; ``naive_emission()`` writes the same columns
one node at a time, so it is the differential reference.  These tests
assert **exact** (bitwise) equality of the feature matrix and every node
column across every registered kernel under hypothesis-drawn pragma
configurations, including ``max_nodes``-truncated builds where replica
replay falls back to node-by-node emission mid-loop.

The committed digests in ``tests/reference/graph_digests.json`` pin the
default builder's whole output.  They were recorded while a per-node-dict
CDFG still existed and was proven bit-equal to the columnar one, so they
keep that equivalence guarded.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.space import sample_design_space
from repro.frontend import ArrayDirective, LoopDirective, PartitionType, PragmaConfig
from repro.graph.construction import GraphBuilder, naive_emission
from repro.kernels import KERNEL_SOURCES, load_kernel

from reference import committed_graph_digests, compute_graph_digests

ALL_KERNELS = tuple(sorted(KERNEL_SOURCES))


def drawn_config(function, data) -> PragmaConfig:
    """One hypothesis-drawn pragma configuration for ``function``.

    Mixes the sampled design space (a realistic joint draw) with directly
    drawn unroll/pipeline/partition directives so degenerate corners
    (factor 1, huge clamped factors, cyclic partitioning) stay reachable.
    """
    if data.draw(st.booleans(), label="from_design_space"):
        seed = data.draw(st.integers(0, 2**16), label="space_seed")
        configs = sample_design_space(
            function, 1, rng=np.random.default_rng(seed)
        )
        if configs:
            return configs[0]
    loops = {}
    for loop in function.all_loops():
        if data.draw(st.booleans(), label=f"touch_{loop.label}"):
            loops[loop.label] = LoopDirective(
                pipeline=data.draw(st.booleans(), label=f"pipe_{loop.label}"),
                unroll_factor=data.draw(
                    st.sampled_from([0, 1, 2, 4, 1 << 16]),
                    label=f"unroll_{loop.label}",
                ),
            )
    arrays = {}
    for name in function.arrays:
        if data.draw(st.booleans(), label=f"part_{name}"):
            arrays[name] = ArrayDirective(
                partition_type=data.draw(
                    st.sampled_from(list(PartitionType)), label=f"type_{name}"
                ),
                factor=data.draw(
                    st.sampled_from([2, 3, 4, 8]), label=f"factor_{name}"
                ),
                dim=data.draw(st.sampled_from([1, 2]), label=f"dim_{name}"),
            )
    return PragmaConfig.from_dicts(loops, arrays)


def assert_feature_paths_match(function, config, max_nodes: int) -> None:
    """Default (replayed) vs node-by-node columns, bit for bit."""
    replayed = GraphBuilder(
        function, config, max_nodes=max_nodes
    ).build_function_graph()
    with naive_emission():
        naive = GraphBuilder(
            function, config, max_nodes=max_nodes
        ).build_function_graph()

    assert replayed.num_nodes == naive.num_nodes
    assert replayed.optype_list() == naive.optype_list()
    np.testing.assert_array_equal(
        replayed.feature_matrix(), naive.feature_matrix()
    )
    # the node identity columns agree as well
    for column in ("node_kinds", "node_dtypes", "node_loop_labels",
                   "node_arrays", "node_instr_ids", "node_replicas"):
        assert getattr(replayed, column) == getattr(naive, column), column


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_columnar_features_match_dict_reference(data):
    """Exact agreement with naive emission for random kernels and configs
    (full budget)."""
    kernel = data.draw(st.sampled_from(ALL_KERNELS), label="kernel")
    function = load_kernel(kernel)
    config = drawn_config(function, data)
    assert_feature_paths_match(function, config, max_nodes=4096)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_columnar_features_match_under_truncation(data):
    """Exact agreement when the ``max_nodes`` budget truncates replicas."""
    kernel = data.draw(st.sampled_from(ALL_KERNELS), label="kernel")
    function = load_kernel(kernel)
    config = drawn_config(function, data)
    max_nodes = data.draw(
        st.sampled_from([32, 64, 128, 512]), label="max_nodes"
    )
    assert_feature_paths_match(function, config, max_nodes=max_nodes)


def test_columnar_features_every_kernel_baseline():
    """Non-hypothesis sweep: every registered kernel under its baseline and
    one aggressive configuration (stable coverage independent of draws)."""
    for kernel in ALL_KERNELS:
        function = load_kernel(kernel)
        aggressive = PragmaConfig.from_dicts(
            loops={
                loop.label: LoopDirective(unroll_factor=2)
                for loop in function.all_loops()
            },
            arrays={
                name: ArrayDirective(PartitionType.CYCLIC, factor=4, dim=1)
                for name in function.arrays
            },
        )
        for config in (PragmaConfig(), aggressive):
            assert_feature_paths_match(function, config, max_nodes=4096)


def test_graph_digests_match_committed():
    """Every registered kernel x {baseline, aggressive} x max_nodes in
    {4096, 64} builds the exact graph payload pinned in
    ``tests/reference/graph_digests.json``."""
    committed = committed_graph_digests()
    current = compute_graph_digests()
    assert len(current) == 80
    assert current == committed


def test_copied_and_hydrated_stores_keep_growing():
    """Regression: ``copy()``/hydration install exact-size (possibly empty)
    column buffers; appending afterwards must grow them, not spin forever."""
    from repro.graph.cache import cdfg_from_payload, cdfg_to_payload
    from repro.graph.cdfg import CDFG

    graph = CDFG()
    graph.append_node("add")
    graph.append_node("mul")
    clone = graph.copy()  # exact-size feature block, zero-capacity edges
    clone.add_edge(0, 1)
    clone.append_node("load")
    assert clone.num_edges == 1 and clone.num_nodes == 3

    empty = cdfg_from_payload(cdfg_to_payload(CDFG()))
    empty.append_node("add")
    assert empty.num_nodes == 1
