"""Pragma-aware graph-construction caching for cross-config inference.

Design-space exploration evaluates the *same kernel* under many pragma
configurations.  Building the CDFG from scratch for every configuration
re-derives two kinds of work:

* **pragma-independent analysis** of the IR (loop nests, per-loop instruction
  lists, touched arrays, super-node boundary values, operator
  characterizations) — captured once per kernel in a
  :class:`FunctionSkeleton`;
* **pragma-dependent graphs** that coincide between configurations — two
  configurations that apply identical directives to a loop nest (and to the
  arrays it touches) produce byte-identical inner-loop subgraphs, and
  configurations that agree on unroll factors, array partitioning and the
  condense map produce identical outer graphs.  :class:`GraphConstructionCache`
  keys built graphs by exactly the directive slice they depend on, so only
  the unroll/partition *deltas* of a new configuration trigger construction.

Cached inner subgraphs are shared read-only between configurations; cached
outer graphs are stored as pristine templates and handed out as copies
because hierarchical inference annotates super nodes in place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.frontend.pragmas import PragmaConfig
from repro.graph.cdfg import (
    CDFG,
    NODE_FEATURE_NAMES,
    EdgeKind,
    LoopLevelFeatures,
    NodeKind,
)
from repro.hls.directives import canonicalize_config
from repro.ir.instructions import Instruction, Opcode
from repro.ir.structure import IfRegion, IRFunction, Loop, Region


# --------------------------------------------------------------------------- #
# stable identities (persisted caches survive process restarts)
# --------------------------------------------------------------------------- #
def _instr_token(instr: Instruction) -> str:
    """Canonical text of one instruction (operands and access included —
    the class repr is a debugging summary that omits both)."""
    return (
        f"%{instr.instr_id}={instr.opcode.value}:{instr.dtype}:{instr.array}:"
        f"{instr.callee}:{instr.operands!r}:{instr.access!r}"
    )


def ir_fingerprint(function: IRFunction) -> str:
    """Content digest of a lowered kernel, stable across processes.

    Two lowerings of the same source text produce identical IR (the frontend
    is deterministic), hence identical fingerprints — which is what lets
    graph/prediction caches persisted by one process be adopted by another.
    Any change to the kernel source changes the digest, cheaply invalidating
    every cache entry keyed by it.
    """
    parts: list[str] = [function.name, repr(function.scalar_params)]
    for name, info in function.arrays.items():
        parts.append(f"A:{name}:{info.dims!r}:{info.dtype}:{int(info.is_argument)}")

    def walk(region: Region) -> None:
        for item in region.items:
            if isinstance(item, Instruction):
                parts.append(_instr_token(item))
            elif isinstance(item, Loop):
                parts.append(
                    f"L:{item.label}:{item.var}:{item.start}:{item.bound}:"
                    f"{item.step}:{item.cmp_op}"
                )
                for instr in item.header_instrs + item.latch_instrs:
                    parts.append(_instr_token(instr))
                walk(item.body)
                parts.append(f"endL:{item.label}")
            elif isinstance(item, IfRegion):
                parts.append(f"I:{item.cond_instr_id}")
                walk(item.then_region)
                parts.append("else")
                walk(item.else_region)
                parts.append("endI")

    walk(function.body)
    for recurrence in function.recurrences:
        parts.append(repr(recurrence))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# CDFG <-> JSON-compatible payloads (warm-cache persistence)
# --------------------------------------------------------------------------- #
_NODE_KINDS = tuple(NodeKind)
_EDGE_KINDS = tuple(EdgeKind)
_NODE_KIND_CODE = {kind: code for code, kind in enumerate(_NODE_KINDS)}
_EDGE_KIND_CODE = {kind: code for code, kind in enumerate(_EDGE_KINDS)}


def cdfg_to_payload(graph: CDFG) -> dict:
    """JSON-compatible representation of a CDFG (exact float round-trip).

    The payload is **columnar** (warm-cache blob format v2): node identity
    attributes are stored as parallel per-node records with interned optype
    codes, and the numerical features as one row-major matrix
    (:data:`~repro.graph.cdfg.NODE_FEATURE_NAMES` order) — matching the
    in-memory columnar feature block, so serialization needs no per-node
    feature dicts and hydration bulk-loads the matrix in one assignment.
    """
    return {
        "name": graph.name,
        "optype_table": list(graph.optype_table),
        "nodes": [
            [code, dtype, _NODE_KIND_CODE[kind], loop_label, array,
             instr_id, replica]
            for code, dtype, kind, loop_label, array, instr_id, replica in zip(
                graph.optype_codes, graph.node_dtypes, graph.node_kinds,
                graph.node_loop_labels, graph.node_arrays,
                graph.node_instr_ids, graph.node_replicas,
            )
        ],
        "feature_rows": np.asarray(graph.feature_matrix()).tolist(),
        "edges": [
            graph.edge_src.tolist(),
            graph.edge_dst.tolist(),
            [_EDGE_KIND_CODE[kind] for kind in graph.edge_kinds],
        ],
        "loop_features": [
            graph.loop_features.ii, graph.loop_features.tripcount,
            bool(graph.loop_features.pipelined),
            graph.loop_features.unroll_factor, graph.loop_features.depth,
        ],
        "metadata": dict(graph.metadata),
    }


def cdfg_from_payload(payload: dict) -> CDFG:
    """Rebuild a CDFG stored with :func:`cdfg_to_payload`.

    Reads the columnar v2 layout (``optype_table`` + ``feature_rows``): the
    payload maps 1:1 onto the node columns, so the whole graph loads as list
    comprehensions + one matrix build — no per-node feature writes.
    Versioned warm-cache blobs from before the columnar layout are discarded
    upstream.
    """
    graph = CDFG(name=payload["name"])
    table = [str(name) for name in payload["optype_table"]]
    records = payload["nodes"]
    graph.optype_table = table
    graph._optype_index = {name: code for code, name in enumerate(table)}
    graph.optype_codes = [int(record[0]) for record in records]
    graph.node_dtypes = [record[1] for record in records]
    graph.node_kinds = [_NODE_KINDS[record[2]] for record in records]
    graph.node_loop_labels = [record[3] for record in records]
    graph.node_arrays = [record[4] for record in records]
    graph.node_instr_ids = [int(record[5]) for record in records]
    graph.node_replicas = [int(record[6]) for record in records]
    graph.feat.matrix = np.asarray(
        payload["feature_rows"], dtype=np.float64
    ).reshape(len(records), len(NODE_FEATURE_NAMES))
    graph.feat.count = len(records)
    src, dst, kinds = payload["edges"]
    graph._edges.extend(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )
    graph.edge_kinds = [_EDGE_KINDS[code] for code in kinds]
    ii, tripcount, pipelined, unroll_factor, depth = payload["loop_features"]
    graph.loop_features = LoopLevelFeatures(
        ii=float(ii), tripcount=float(tripcount), pipelined=bool(pipelined),
        unroll_factor=float(unroll_factor), depth=float(depth),
    )
    graph.metadata = dict(payload["metadata"])
    return graph


class FunctionSkeleton:
    """Pragma-independent analysis of one kernel, computed once.

    The :class:`~repro.graph.construction.GraphBuilder` consults the skeleton
    instead of re-walking the IR for every configuration: induction-variable
    ownership, per-loop instruction lists, touched arrays, the instruction-id
    sets that delimit a condensed loop and the externally-consumed values of
    each loop are all functions of the IR alone.
    """

    def __init__(self, function: IRFunction):
        self.function = function
        self.all_loops: list[Loop] = function.all_loops()
        self.loop_by_label: dict[str, Loop] = {
            loop.label: loop for loop in self.all_loops
        }
        # first loop wins for duplicated induction-variable names (sibling
        # nests reusing ``i``/``j``), matching the pre-existing linear scan
        self.var_to_loop: dict[str, str] = {}
        for loop in self.all_loops:
            self.var_to_loop.setdefault(loop.var, loop.label)
        self._body_instrs: dict[str, list[Instruction]] = {}
        self._memory_instrs: dict[str, list[Instruction]] = {}
        self._touched_arrays: dict[str, list[str]] = {}
        self._inner_ids: dict[str, set[int]] = {}
        self._external_uses: dict[str, list[int]] = {}
        self._nest_labels: dict[str, list[str]] = {}
        for loop in self.all_loops:
            body = list(loop.body.walk_instructions())
            self._body_instrs[loop.label] = body
            self._memory_instrs[loop.label] = [
                instr for instr in body
                if instr.opcode in (Opcode.LOAD, Opcode.STORE)
            ]
            self._touched_arrays[loop.label] = sorted(
                {instr.array for instr in body if instr.array}
            )
            inner = {instr.instr_id for instr in body}
            inner |= {instr.instr_id for instr in loop.header_instrs}
            inner |= {instr.instr_id for instr in loop.latch_instrs}
            self._inner_ids[loop.label] = inner
            external: set[int] = set()
            for instr in body:
                for operand in instr.value_operands:
                    if operand.instr_id not in inner:
                        external.add(operand.instr_id)
            self._external_uses[loop.label] = sorted(external)
            self._nest_labels[loop.label] = [loop.label] + [
                sub.label for sub in loop.all_sub_loops()
            ]
        #: operator characterizations keyed by ``(instr_id, id(library))``;
        #: the libraries are pinned so a recycled ``id`` cannot alias
        self._char_cache: dict[tuple[int, int], object] = {}
        self._char_libraries: dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # per-loop lookups
    # ------------------------------------------------------------------ #
    def body_instructions(self, label: str) -> list[Instruction]:
        return self._body_instrs[label]

    def memory_instructions(self, label: str) -> list[Instruction]:
        return self._memory_instrs[label]

    def touched_arrays(self, label: str) -> list[str]:
        return self._touched_arrays[label]

    def inner_instr_ids(self, label: str) -> set[int]:
        return self._inner_ids[label]

    def external_uses(self, label: str) -> list[int]:
        return self._external_uses[label]

    def nest_labels(self, label: str) -> list[str]:
        return self._nest_labels[label]

    def characterize(self, instr: Instruction, library) -> object:
        key = (instr.instr_id, id(library))
        char = self._char_cache.get(key)
        if char is None:
            char = library.lookup_instr(instr)
            self._char_cache[key] = char
            self._char_libraries[id(library)] = library
        return char


# --------------------------------------------------------------------------- #
# cache keys
# --------------------------------------------------------------------------- #
def _loop_directive_key(config: PragmaConfig, label: str) -> str:
    d = config.loop(label)
    return f"{label}=P{int(d.pipeline)}:I{d.ii}:U{d.unroll_factor}:F{int(d.flatten)}"


def _array_directive_key(config: PragmaConfig, name: str) -> str:
    d = config.array(name)
    return f"{name}={d.partition_type.value}:f{d.factor}:d{d.dim}"


def unit_cache_key(
    skeleton: FunctionSkeleton,
    config: PragmaConfig,
    loop: Loop,
    pipelined: bool,
    flattened_levels: int,
    library_token: str = "",
    unroll_factors: dict[str, int] | None = None,
) -> str:
    """Directive slice an inner-loop subgraph (and its loop features) depend on.

    The subgraph of a maximal inner-hierarchy unit is fully determined by the
    directives applied to the loops of its own nest and to the arrays its body
    touches: units are maximal, so no ancestor is pipelined, and unroll
    factors never propagate downward from outside the nest.  Node features
    also depend on the operator library, identified by ``library_token``
    (see :meth:`GraphConstructionCache.library_token`).

    One subtlety: bank-connection analysis resolves induction-variable
    *names*, and sibling nests may reuse a name (``i``/``j``).  When a nest
    variable resolves to a loop outside the nest, that loop's effective
    unroll factor leaks into the subgraph's memory edges, so it is folded
    into the key.
    """
    nest = skeleton.nest_labels(loop.label)
    nest_set = set(nest)
    parts = [library_token, loop.label, "p" if pipelined else "np",
             str(flattened_levels)]
    for label in nest:
        parts.append(_loop_directive_key(config, label))
        var = skeleton.loop_by_label[label].var
        resolved = skeleton.var_to_loop.get(var, "")
        if resolved and resolved not in nest_set:
            factor = (unroll_factors or {}).get(resolved, 1)
            parts.append(f"x:{var}:{resolved}:{factor}")
    for name in skeleton.touched_arrays(loop.label):
        parts.append(_array_directive_key(config, name))
    return "|".join(parts)


def outer_cache_key(
    skeleton: FunctionSkeleton,
    config: PragmaConfig,
    condense: dict[str, bool],
    unroll_factors: dict[str, int],
    library_token: str = "",
) -> str:
    """Directive slice the condensed outer graph depends on.

    The outer graph is a function of the condense map (which loops collapse
    to super nodes and whether they are pipelined), the *effective* unroll
    factor of every non-condensed loop (replication and residual trip
    counts), and the partition directives of every function array
    (memory-port banks and bank-connection analysis).  Loops inside condensed
    nests never expand into the outer graph — their unroll factors only shape
    the inner subgraph — so they are deliberately excluded: that is what lets
    configurations differing only in inner-loop deltas share one outer
    template.
    """
    condensed_away: set[str] = set()
    for label in condense:
        condensed_away.update(skeleton.nest_labels(label))
    parts = [library_token]
    parts += [f"c:{label}:{int(flag)}" for label, flag in sorted(condense.items())]
    for label in sorted(skeleton.loop_by_label):
        if label in condensed_away:
            continue
        parts.append(f"u:{label}:{unroll_factors.get(label, 1)}")
        # symmetric to the unit-key collision handling: bank-connection
        # analysis resolves this loop's induction-variable *name* first-wins,
        # which may land on a condensed-away loop whose factor the key would
        # otherwise exclude
        var = skeleton.loop_by_label[label].var
        resolved = skeleton.var_to_loop.get(var, "")
        if resolved and resolved in condensed_away:
            parts.append(f"x:{var}:{resolved}:{unroll_factors.get(resolved, 1)}")
    parts += [
        _array_directive_key(config, name)
        for name in sorted(skeleton.function.arrays)
    ]
    return "|".join(parts)


# --------------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------------- #
@dataclass
class CachedUnit:
    """A cached inner-loop subgraph."""

    subgraph: CDFG


@dataclass
class CacheStats:
    unit_hits: int = 0
    unit_misses: int = 0
    outer_hits: int = 0
    outer_misses: int = 0
    #: entries hydrated from a persisted warm-cache blob (subset of the hits)
    persisted_unit_loads: int = 0
    persisted_outer_loads: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "unit_hits": self.unit_hits, "unit_misses": self.unit_misses,
            "outer_hits": self.outer_hits, "outer_misses": self.outer_misses,
            "persisted_unit_loads": self.persisted_unit_loads,
            "persisted_outer_loads": self.persisted_outer_loads,
        }


class GraphConstructionCache:
    """Caches skeletons and pragma-delta-keyed CDFGs across configurations.

    Graph entries are keyed by the *content fingerprint* of their function
    (:func:`ir_fingerprint`) plus the directive-slice key, so they are
    portable: two lowerings of the same source share entries within a
    process, and entries exported with :meth:`export_warm_state` can be
    re-imported by a different process (see ``core.serialization``).
    Skeletons and the analysis memo hold object references into the IR, so
    they stay keyed per function *object*; the stored strong reference
    guarantees an ``id()`` can never be recycled while its entry is alive.
    """

    def __init__(self):
        self._skeletons: dict[int, tuple[IRFunction, FunctionSkeleton]] = {}
        self._fingerprints: dict[int, tuple[IRFunction, str]] = {}
        self._units: dict[tuple[str, str], CachedUnit] = {}
        self._outer: dict[tuple[str, str], CDFG] = {}
        #: serialized graphs imported from a warm-cache blob, hydrated lazily
        #: on first use (entries for changed kernels simply never hydrate)
        self._persisted_units: dict[tuple[str, str], dict] = {}
        self._persisted_outer: dict[tuple[str, str], dict] = {}
        #: keys adopted from a warm-cache blob (hydrated or not); what
        #: ``export_warm_state(delta_only=True)`` subtracts, so a worker
        #: ships only the entries it built itself back to the coordinator
        self._imported_unit_keys: set[tuple[str, str]] = set()
        self._imported_outer_keys: set[tuple[str, str]] = set()
        #: per-(function, config key) classification / unroll-factor memo,
        #: shared between decomposition_signature and decompose.  Keyed by
        #: the *canonical* configuration key, so equivalent raw
        #: configurations share one classification pass
        self.analysis: dict[tuple[int, str], tuple] = {}
        #: per-(function, raw config key) effective-form memo behind
        #: :meth:`canonical_config`
        self._canonical: dict[
            tuple[int, str], tuple[IRFunction, PragmaConfig]
        ] = {}
        self.stats = CacheStats()

    def library_token(self, library) -> str:
        """A key fragment identifying ``library`` by content digest (stable
        across processes; the digest itself is memoized on the library
        object, so no pinning is needed)."""
        return f"L{library.fingerprint()}"

    def fingerprint(self, function: IRFunction) -> str:
        """Content fingerprint of ``function``, memoized per object."""
        entry = self._fingerprints.get(id(function))
        if entry is not None and entry[0] is function:
            return entry[1]
        digest = ir_fingerprint(function)
        self._fingerprints[id(function)] = (function, digest)
        return digest

    def canonical_config(
        self, function: IRFunction, config: PragmaConfig
    ) -> PragmaConfig:
        """The effective form of ``config`` (see
        :func:`~repro.hls.directives.canonicalize_config`), memoized per
        (function object, raw configuration key).

        The decomposition entrypoints and the serve layer's request
        signature all go through here, so each raw design is rewritten once
        per function however many of them ask.
        """
        key = (id(function), config.key())
        entry = self._canonical.get(key)
        if entry is not None and entry[0] is function:
            return entry[1]
        canonical = canonicalize_config(function, config)
        self._canonical[key] = (function, canonical)
        return canonical

    # ------------------------------------------------------------------ #
    def skeleton(self, function: IRFunction) -> FunctionSkeleton:
        entry = self._skeletons.get(id(function))
        if entry is not None and entry[0] is function:
            return entry[1]
        skeleton = FunctionSkeleton(function)
        self._skeletons[id(function)] = (function, skeleton)
        return skeleton

    # ------------------------------------------------------------------ #
    def get_unit(self, function: IRFunction, key: str) -> CachedUnit | None:
        cache_key = (self.fingerprint(function), key)
        unit = self._units.get(cache_key)
        if unit is None and self._persisted_units:
            payload = self._persisted_units.pop(cache_key, None)
            if payload is not None:
                unit = CachedUnit(subgraph=cdfg_from_payload(payload))
                self._units[cache_key] = unit
                self.stats.persisted_unit_loads += 1
        if unit is not None:
            self.stats.unit_hits += 1
        return unit

    def put_unit(self, function: IRFunction, key: str, subgraph: CDFG) -> CachedUnit:
        self.stats.unit_misses += 1
        unit = CachedUnit(subgraph=subgraph)
        self._units[(self.fingerprint(function), key)] = unit
        return unit

    # ------------------------------------------------------------------ #
    def get_outer(
        self, function: IRFunction, key: str, *, copy: bool = True
    ) -> CDFG | None:
        """A fresh copy of the cached outer-graph template, if present.

        ``copy=False`` hands back the cached template itself for read-only
        consumers (the batched-inference sample templates extract features
        without ever annotating the graph), skipping the node-by-node copy.
        """
        cache_key = (self.fingerprint(function), key)
        template = self._outer.get(cache_key)
        if template is None and self._persisted_outer:
            payload = self._persisted_outer.pop(cache_key, None)
            if payload is not None:
                template = cdfg_from_payload(payload)
                self._outer[cache_key] = template
                self.stats.persisted_outer_loads += 1
        if template is None:
            return None
        self.stats.outer_hits += 1
        return template.copy() if copy else template

    def put_outer(
        self, function: IRFunction, key: str, graph: CDFG, *, copy: bool = True
    ) -> None:
        """Store a pristine outer-graph template.

        ``copy=True`` (the default) stores an independent copy so the caller
        may annotate the graph it built; read-only consumers pass
        ``copy=False`` and share the instance with the cache.
        """
        self.stats.outer_misses += 1
        self._outer[(self.fingerprint(function), key)] = (
            graph.copy() if copy else graph
        )

    # ------------------------------------------------------------------ #
    # warm-cache persistence
    # ------------------------------------------------------------------ #
    def export_warm_state(self, *, delta_only: bool = False) -> dict:
        """JSON-compatible snapshot of every pragma-delta graph entry.

        Still-unhydrated imported entries are passed through, so repeated
        save/load cycles never lose cache contents.  ``delta_only``
        restricts the snapshot to entries *this process built* (imported
        keys are subtracted) — the write-back payload a sharded worker
        ships to the coordinator, which already has everything imported.
        """
        units = [
            [fingerprint, key, cdfg_to_payload(unit.subgraph)]
            for (fingerprint, key), unit in self._units.items()
            if not (delta_only and (fingerprint, key) in self._imported_unit_keys)
        ]
        if not delta_only:
            units += [
                [fingerprint, key, payload]
                for (fingerprint, key), payload in self._persisted_units.items()
            ]
        outer = [
            [fingerprint, key, cdfg_to_payload(template)]
            for (fingerprint, key), template in self._outer.items()
            if not (delta_only and (fingerprint, key) in self._imported_outer_keys)
        ]
        if not delta_only:
            outer += [
                [fingerprint, key, payload]
                for (fingerprint, key), payload in self._persisted_outer.items()
            ]
        return {"units": units, "outer": outer}

    def import_warm_state(self, state: dict) -> None:
        """Adopt a snapshot produced by :meth:`export_warm_state`.

        Graphs are kept serialized and hydrated on first use, so importing
        is cheap regardless of how many kernels the blob covers.  Imported
        keys are remembered so delta exports can subtract them.
        """
        for fingerprint, key, payload in state.get("units", ()):
            self._persisted_units[(fingerprint, key)] = payload
            self._imported_unit_keys.add((fingerprint, key))
        for fingerprint, key, payload in state.get("outer", ()):
            self._persisted_outer[(fingerprint, key)] = payload
            self._imported_outer_keys.add((fingerprint, key))

    def warm_state_sizes(self) -> dict[str, int]:
        """Entry counts of the persistable graph caches (live + unhydrated).

        The write-back merge reports its effect as before/after deltas of
        exactly these counts.
        """
        return {
            "units": len(self._units) + len(self._persisted_units),
            "outer": len(self._outer) + len(self._persisted_outer),
        }

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        self._skeletons.clear()
        self._fingerprints.clear()
        self._units.clear()
        self._outer.clear()
        self._persisted_units.clear()
        self._persisted_outer.clear()
        self._imported_unit_keys.clear()
        self._imported_outer_keys.clear()
        self.analysis.clear()
        self._canonical.clear()
        self.stats = CacheStats()


__all__ = [
    "FunctionSkeleton", "CachedUnit", "CacheStats", "GraphConstructionCache",
    "unit_cache_key", "outer_cache_key", "ir_fingerprint",
    "cdfg_to_payload", "cdfg_from_payload",
]
