"""Pragma-aware CDFG construction, feature annotation and loop-hierarchy
decomposition."""

from repro.graph.cache import (
    FunctionSkeleton,
    GraphConstructionCache,
    ir_fingerprint,
    outer_cache_key,
    unit_cache_key,
)
from repro.graph.cdfg import (
    CDFG,
    EdgeKind,
    LoopLevelFeatures,
    NODE_FEATURE_NAMES,
    NodeKind,
)
from repro.graph.construction import (
    GraphBuilder,
    IOPORT_OPTYPE,
    SUPER_NONPIPELINED_OPTYPE,
    SUPER_PIPELINED_OPTYPE,
    build_flat_graph,
    build_loop_subgraph,
    naive_emission,
)
from repro.graph.features import (
    analytical_ii,
    loop_level_features,
    replicated_access_counts,
)
from repro.graph.hierarchy import (
    HierarchicalDecomposition,
    InnerLoopUnit,
    InnerUnitCategory,
    classify_inner_units,
    decompose,
)

__all__ = [
    "FunctionSkeleton", "GraphConstructionCache", "ir_fingerprint",
    "outer_cache_key", "unit_cache_key",
    "CDFG", "EdgeKind", "LoopLevelFeatures",
    "NODE_FEATURE_NAMES", "NodeKind",
    "GraphBuilder", "IOPORT_OPTYPE", "SUPER_NONPIPELINED_OPTYPE",
    "SUPER_PIPELINED_OPTYPE", "build_flat_graph", "build_loop_subgraph",
    "naive_emission",
    "analytical_ii", "loop_level_features",
    "replicated_access_counts",
    "HierarchicalDecomposition", "InnerLoopUnit", "InnerUnitCategory",
    "classify_inner_units", "decompose",
]
