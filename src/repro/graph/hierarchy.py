"""Loop-hierarchy decomposition (Section III-C of the paper).

The hierarchical modeling approach splits a kernel into

* **inner-hierarchy units** — loops that contain only computing logic once
  the pragma configuration is applied (four categories: a single-level loop,
  a nest pipelined at its outer level, a flattened perfect nest pipelined at
  the innermost level, or a nest whose sub-loops are all fully unrolled); and
* the **outer hierarchy** — everything else.  Each inner unit collapses to a
  *super node* carrying its (predicted) QoR, and the resulting condensed
  graph is the input of the global model ``GNNg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.flags import canonical_directives_active
from repro.frontend.pragmas import PragmaConfig
from repro.graph.cache import GraphConstructionCache, outer_cache_key, unit_cache_key
from repro.graph.cdfg import CDFG, NodeKind
from repro.graph.construction import GraphBuilder
from repro.graph.features import loop_level_features
from repro.hls.directives import (
    canonicalize_config,
    effective_unroll_factors,
    resolve_loop_roles,
)
from repro.hls.op_library import DEFAULT_LIBRARY, OperatorLibrary
from repro.ir.structure import IRFunction, Loop


class InnerUnitCategory(IntEnum):
    """The four inner-hierarchy loop categories defined by the paper."""

    SINGLE_LEVEL = 1
    PIPELINED_NEST = 2
    FLATTENED_PIPELINED_NEST = 3
    FULLY_UNROLLED_NEST = 4


@dataclass
class InnerLoopUnit:
    """One inner-hierarchy loop with its subgraph and loop-level features."""

    loop: Loop
    category: InnerUnitCategory
    pipelined: bool
    subgraph: CDFG
    flattened_levels: int = 1
    #: pragma-delta cache key (set when decomposing through a cache)
    cache_key: str = ""

    @property
    def label(self) -> str:
        return self.loop.label


@dataclass
class HierarchicalDecomposition:
    """Result of decomposing a kernel under one configuration."""

    function: IRFunction
    config: PragmaConfig
    inner_units: list[InnerLoopUnit] = field(default_factory=list)
    outer_graph: CDFG = field(default_factory=CDFG)
    #: pragma-delta cache key of the outer graph (set when using a cache)
    cache_key: str = ""

    def unit(self, label: str) -> InnerLoopUnit:
        for unit in self.inner_units:
            if unit.label == label:
                return unit
        raise KeyError(f"no inner unit for loop {label!r}")

    def super_node_ids(self, label: str) -> list[int]:
        """Super nodes in the outer graph standing for loop ``label``
        (several when the parent loop is unrolled)."""
        graph = self.outer_graph
        labels = graph.node_loop_labels
        return [
            node_id for node_id, kind in enumerate(graph.node_kinds)
            if kind is NodeKind.SUPER_NODE and labels[node_id] == label
        ]


def classify_inner_units(
    function: IRFunction, config: PragmaConfig
) -> list[tuple[Loop, InnerUnitCategory, bool, int]]:
    """Find the inner-hierarchy units of a kernel under a configuration.

    Returns ``(loop, category, pipelined, flattened_levels)`` tuples for the
    *maximal* loops that qualify, scanning the loop tree top-down.
    """
    roles = resolve_loop_roles(function, config)
    unroll = effective_unroll_factors(function, config)
    units: list[tuple[Loop, InnerUnitCategory, bool, int]] = []

    def all_subloops_fully_unrolled(loop: Loop) -> bool:
        return all(
            unroll.get(sub.label, 1) >= max(1, sub.tripcount)
            for sub in loop.all_sub_loops()
        )

    def visit(loop: Loop) -> None:
        role = roles[loop.label]
        subs = loop.sub_loops()
        if role.flattened_into:
            chain_length = 1
            current = loop
            while current.label != role.flattened_into and current.sub_loops():
                current = current.sub_loops()[0]
                chain_length += 1
            units.append(
                (loop, InnerUnitCategory.FLATTENED_PIPELINED_NEST, True, chain_length)
            )
            return
        if role.pipelined:
            category = (
                InnerUnitCategory.SINGLE_LEVEL if not subs
                else InnerUnitCategory.PIPELINED_NEST
            )
            units.append((loop, category, True, 1))
            return
        if not subs:
            units.append((loop, InnerUnitCategory.SINGLE_LEVEL, False, 1))
            return
        if all_subloops_fully_unrolled(loop):
            units.append((loop, InnerUnitCategory.FULLY_UNROLLED_NEST, False, 1))
            return
        for sub in subs:
            visit(sub)

    for top in function.top_level_loops():
        visit(top)
    return units


def _canonical_config(
    function: IRFunction,
    config: PragmaConfig,
    cache: GraphConstructionCache | None,
) -> PragmaConfig:
    """The effective form of ``config`` (memoized per raw key in the cache,
    see :meth:`GraphConstructionCache.canonical_config`).

    Both decomposition entrypoints canonicalize through this, so unit/outer
    cache keys, the analysis memo and every signature downstream (prediction
    memo, warm-cache blobs, sharding order) key by the *effective* design —
    equivalent raw configurations collapse to one entry everywhere.  The
    :func:`repro.flags.raw_directives` toggle bypasses the rewrite.
    """
    if not canonical_directives_active():
        return config
    if cache is None:
        return canonicalize_config(function, config)
    return cache.canonical_config(function, config)


def _loop_analysis(
    function: IRFunction,
    config: PragmaConfig,
    cache: GraphConstructionCache | None,
) -> tuple[list, dict[str, int]]:
    """(classified inner units, effective unroll factors), memoized per
    ``(function, config)`` in the cache so signature computation and
    decomposition share one classification pass."""
    if cache is None:
        return (
            classify_inner_units(function, config),
            effective_unroll_factors(function, config),
        )
    key = (id(function), config.key())
    entry = cache.analysis.get(key)
    if entry is None:
        entry = (
            classify_inner_units(function, config),
            effective_unroll_factors(function, config),
        )
        cache.analysis[key] = entry
    return entry


def decomposition_signature(
    function: IRFunction,
    config: PragmaConfig | None,
    cache: GraphConstructionCache,
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
) -> tuple[str, tuple[tuple[str, str], ...]]:
    """The pragma-delta identity of a decomposition, without building graphs.

    Two configurations with equal signatures yield outer graphs and inner
    subgraphs that are feature-identical, hence identical QoR predictions.
    Computing the signature costs only classification plus key strings, which
    lets batched inference skip construction for already-seen design deltas.
    The configuration is canonicalized to its effective form first (see
    :func:`repro.hls.directives.canonicalize_config`), so equivalent raw
    configurations — designs HLS resolves identically — share one signature.
    """
    config = _canonical_config(function, config or PragmaConfig(), cache)
    skeleton = cache.skeleton(function)
    token = cache.library_token(library)
    classified, unroll = _loop_analysis(function, config, cache)
    condense = {loop.label: pipelined for loop, _, pipelined, _ in classified}
    outer = outer_cache_key(skeleton, config, condense, unroll, token)
    units = tuple(sorted(
        (loop.label,
         unit_cache_key(skeleton, config, loop, pipelined, levels, token, unroll))
        for loop, _, pipelined, levels in classified
    ))
    return outer, units


def decompose(
    function: IRFunction,
    config: PragmaConfig | None = None,
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    cache: GraphConstructionCache | None = None,
    outer_copy: bool = True,
) -> HierarchicalDecomposition:
    """Decompose a kernel into inner units and the condensed outer graph.

    With ``cache``, the pragma-independent IR skeleton is built once per
    kernel and built graphs are reused between configurations that apply
    identical directives to the relevant loops/arrays: inner subgraphs are
    shared read-only, the outer graph is copied from a pristine template
    (callers annotate super nodes in place).  ``outer_copy=False`` skips
    that copy and returns the shared pristine outer graph for **read-only**
    consumers (the vectorized batched-inference path, which annotates
    feature-matrix copies instead of graphs).

    The configuration is canonicalized first (matching
    :func:`decomposition_signature`), so the decomposition's ``config`` —
    and the provenance stamped into graph metadata — is the *effective*
    design; disable with :func:`repro.flags.raw_directives`.
    """
    config = _canonical_config(function, config or PragmaConfig(), cache)
    classified, unroll = _loop_analysis(function, config, cache)
    skeleton = cache.skeleton(function) if cache is not None else None
    library_token = cache.library_token(library) if cache is not None else ""
    inner_units: list[InnerLoopUnit] = []
    condense: dict[str, bool] = {}
    for loop, category, pipelined, flattened_levels in classified:
        key = ""
        subgraph = None
        if cache is not None:
            key = unit_cache_key(
                skeleton, config, loop, pipelined, flattened_levels,
                library_token, unroll,
            )
            entry = cache.get_unit(function, key)
            if entry is not None:
                subgraph = entry.subgraph
        if subgraph is None:
            builder = GraphBuilder(
                function, config, library, skeleton=skeleton,
                unroll_factors=unroll,
            )
            subgraph = builder.build_loop_graph(loop)
            subgraph.loop_features = loop_level_features(
                function, loop, config, pipelined=pipelined,
                flattened_levels=flattened_levels, library=library,
                unroll_factors=unroll,
            )
            subgraph.metadata["loop"] = loop.label
            if cache is not None:
                # the subgraph is shared read-only between every config with
                # this pragma delta, so the builder's full-config description
                # would be stale provenance
                subgraph.metadata["config"] = key
                cache.put_unit(function, key, subgraph)
        inner_units.append(
            InnerLoopUnit(
                loop=loop, category=category, pipelined=pipelined,
                subgraph=subgraph, flattened_levels=flattened_levels,
                cache_key=key,
            )
        )
        condense[loop.label] = pipelined
    outer_key = ""
    outer_graph = None
    if cache is not None:
        outer_key = outer_cache_key(
            skeleton, config, condense, unroll, library_token
        )
        outer_graph = cache.get_outer(function, outer_key, copy=outer_copy)
        if outer_graph is not None and outer_copy:
            # each config gets its own copy; restamp its true provenance
            outer_graph.metadata["config"] = config.describe()
    if outer_graph is None:
        outer_builder = GraphBuilder(
            function, config, library, condense_loops=condense,
            skeleton=skeleton, unroll_factors=unroll,
        )
        outer_graph = outer_builder.build_function_graph()
        if cache is not None:
            cache.put_outer(function, outer_key, outer_graph, copy=outer_copy)
    return HierarchicalDecomposition(
        function=function, config=config,
        inner_units=inner_units, outer_graph=outer_graph,
        cache_key=outer_key,
    )


__all__ = [
    "InnerUnitCategory", "InnerLoopUnit", "HierarchicalDecomposition",
    "classify_inner_units", "decompose", "decomposition_signature",
]
