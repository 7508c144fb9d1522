"""Control and data flow graph (CDFG) data structure.

The CDFG is the input representation for every GNN in the project.  Nodes are
operations (plus the paper's two extensions: I/O *memory-port* nodes inserted
for array arguments, and *super nodes* that stand for already-predicted inner
loops during hierarchical modeling).  Edges carry a type: data flow, control
flow, or memory (port-to-access) edges.

Storage is **columns only**: edges live in parallel ``edge_src`` /
``edge_dst`` / ``edge_kinds`` columns, node identity attributes in parallel
per-attribute lists, the Table II numerical node features in one growable
``(N, 9)`` float64 block (:class:`_FeatureColumns`) whose rows are indexed by
node id, and optypes are interned into a per-graph code column.  There are no
per-node or per-edge objects: ``feature_matrix()`` is a zero-copy view,
feature writes go to the block's ``matrix`` directly, replica replay copies
rows with one slice assignment and ``copy()`` moves every column as a single
array or list operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class NodeKind(Enum):
    """The three node categories used during hierarchical modeling."""

    OPERATION = "operation"
    MEMORY_PORT = "memory_port"
    SUPER_NODE = "super_node"


class EdgeKind(Enum):
    """Edge categories in the CDFG."""

    DATA = "data"
    CONTROL = "control"
    MEMORY = "memory"


#: Names of the per-node numerical features, in canonical order.  These are
#: exactly the Table II features of the paper (optype is handled separately
#: with a one-hot encoding).
NODE_FEATURE_NAMES = (
    "invocations",
    "in_degree",
    "out_degree",
    "cycles",
    "delay",
    "lut",
    "dsp",
    "ff",
    # derived: cycles x invocations — the total cycle "work" a node (or a
    # condensed super node) contributes over the whole execution.
    "work",
)

#: column index of each Table II feature inside the columnar block
FEATURE_COLUMN = {name: column for column, name in enumerate(NODE_FEATURE_NAMES)}

_NUM_FEATURES = len(NODE_FEATURE_NAMES)


class _FeatureColumns:
    """Growable ``(N, len(NODE_FEATURE_NAMES))`` float64 feature block.

    Row ``i`` holds node ``i``'s numerical features; unset features are
    0.0.  Appends grow
    the backing matrix geometrically, replica replay extends it with one
    slice copy, and :meth:`view` hands out the live ``[:count]`` window
    without copying.
    """

    __slots__ = ("matrix", "count")

    def __init__(self, capacity: int = 64):
        self.matrix = np.zeros((max(1, capacity), _NUM_FEATURES), dtype=np.float64)
        self.count = 0

    def _reserve(self, extra: int) -> None:
        needed = self.count + extra
        capacity = self.matrix.shape[0]
        if needed <= capacity:
            return
        # copy()/hydration install exact-size (possibly empty) buffers, so
        # growth must restart from a non-zero capacity
        capacity = max(1, capacity)
        while capacity < needed:
            capacity *= 2
        grown = np.zeros((capacity, _NUM_FEATURES), dtype=np.float64)
        grown[: self.count] = self.matrix[: self.count]
        self.matrix = grown

    def append_row(self) -> int:
        """Add one zeroed row; returns its index."""
        self._reserve(1)
        row = self.count
        self.count = row + 1
        return row

    def append_block(self, start: int, stop: int) -> None:
        """Bulk-append a copy of rows ``[start, stop)`` (replica replay)."""
        span = stop - start
        if span <= 0:
            return
        self._reserve(span)
        count = self.count
        self.matrix[count:count + span] = self.matrix[start:stop]
        self.count = count + span

    def view(self) -> np.ndarray:
        """The live ``(count, 9)`` window of the block (zero-copy, read-only).

        The returned slice is marked non-writeable: consumers share the
        backing block, so a stray in-place edit through one view would
        silently corrupt every other consumer's features.  Mutation writes
        the backing ``matrix`` directly or works on an explicit :meth:`copy`.
        """
        window = self.matrix[: self.count]
        window.setflags(write=False)
        return window

    def copy(self) -> "_FeatureColumns":
        """An independent store holding a copy of the live rows."""
        clone = _FeatureColumns.__new__(_FeatureColumns)
        clone.matrix = self.matrix[: self.count].copy()
        clone.count = self.count
        return clone


class _EdgeColumns:
    """Growable int64 ``src``/``dst`` edge columns.

    Keeping the endpoints as numpy arrays (rather than Python lists) makes
    ``edge_index``, ``degree_arrays`` and the replica-replay edge copies
    zero-conversion bulk operations; edge *kinds* stay a Python list of
    :class:`EdgeKind` members (cheap to append, identity-comparable, and
    iterated by analysis code).
    """

    __slots__ = ("src", "dst", "count")

    def __init__(self, capacity: int = 64):
        self.src = np.zeros(max(1, capacity), dtype=np.int64)
        self.dst = np.zeros(max(1, capacity), dtype=np.int64)
        self.count = 0

    def _reserve(self, extra: int) -> None:
        needed = self.count + extra
        capacity = self.src.shape[0]
        if needed <= capacity:
            return
        # copy()/hydration install exact-size (possibly empty) buffers, so
        # growth must restart from a non-zero capacity
        capacity = max(1, capacity)
        while capacity < needed:
            capacity *= 2
        src = np.zeros(capacity, dtype=np.int64)
        dst = np.zeros(capacity, dtype=np.int64)
        src[: self.count] = self.src[: self.count]
        dst[: self.count] = self.dst[: self.count]
        self.src = src
        self.dst = dst

    def append(self, src: int, dst: int) -> None:
        """Add one edge's endpoints."""
        self._reserve(1)
        count = self.count
        self.src[count] = src
        self.dst[count] = dst
        self.count = count + 1

    def extend(self, src, dst) -> None:
        """Bulk-append endpoint arrays (or sequences) of equal length."""
        src = np.asarray(src, dtype=np.int64)
        length = src.shape[0]
        if not length:
            return
        self._reserve(length)
        count = self.count
        self.src[count:count + length] = src
        self.dst[count:count + length] = dst
        self.count = count + length

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Live zero-copy ``(src, dst)`` windows (read-only)."""
        src = self.src[: self.count]
        dst = self.dst[: self.count]
        src.setflags(write=False)
        dst.setflags(write=False)
        return src, dst

    def copy(self) -> "_EdgeColumns":
        """An independent store holding a copy of the live edges."""
        clone = _EdgeColumns.__new__(_EdgeColumns)
        clone.src = self.src[: self.count].copy()
        clone.dst = self.dst[: self.count].copy()
        clone.count = self.count
        return clone


@dataclass
class LoopLevelFeatures:
    """Loop-level features attached to a (sub)graph (Section III-B.2).

    ``ii`` is the initiation-interval lower bound computed analytically,
    ``tripcount`` the (post-transform) trip count, ``pipelined`` whether loop
    pipelining applies, ``unroll_factor`` the residual unroll factor after
    graph replication and ``depth`` the number of loop levels condensed into
    this graph (flattened nests have depth > 1).
    """

    ii: float = 1.0
    tripcount: float = 1.0
    pipelined: bool = False
    unroll_factor: float = 1.0
    depth: float = 1.0

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.ii, self.tripcount, 1.0 if self.pipelined else 0.0,
             self.unroll_factor, self.depth],
            dtype=np.float64,
        )

    @staticmethod
    def feature_names() -> tuple[str, ...]:
        return ("ii", "tripcount", "pipelined", "unroll_factor", "depth")


class CDFG:
    """A control and data flow graph with typed nodes and edges.

    Storage is **columns only**: edges live in parallel ``edge_src`` /
    ``edge_dst`` / ``edge_kinds`` columns, node identity attributes in
    parallel per-attribute lists (``node_kinds``, ``node_dtypes``,
    ``node_loop_labels``, ``node_arrays``, ``node_instr_ids``,
    ``node_replicas`` plus interned ``optype_codes``), and numerical
    features in the :class:`_FeatureColumns` block (``feat.matrix`` row
    ``i`` is node ``i``).  The DSE hot path appends and remaps hundreds of
    thousands of nodes/edges per sweep, and flat columns turn replica
    replay, ``edge_index``, ``feature_matrix`` and ``degree_arrays`` into
    C-speed bulk operations with no per-node Python objects.
    """

    def __init__(self, name: str = "cdfg"):
        self.name = name
        self._edges = _EdgeColumns()
        self.edge_kinds: list[EdgeKind] = []
        self._edge_index_cache: np.ndarray | None = None
        self.loop_features: LoopLevelFeatures = LoopLevelFeatures()
        #: free-form metadata (kernel name, config description, loop label...)
        self.metadata: dict[str, str] = {}
        #: columnar node-feature block
        self.feat = _FeatureColumns()
        #: per-graph optype interning: code per node + the code -> string table
        self.optype_codes: list[int] = []
        self._optype_index: dict[str, int] = {}
        self.optype_table: list[str] = []
        self._optype_list_cache: list[str] | None = None
        #: parallel node attribute columns (one entry per node)
        self.node_kinds: list[NodeKind] = []
        self.node_dtypes: list[str] = []
        self.node_loop_labels: list[str] = []
        self.node_arrays: list[str] = []
        self.node_instr_ids: list[int] = []
        self.node_replicas: list[int] = []

    def intern_optype(self, optype: str) -> int:
        """The per-graph integer code of ``optype`` (interned on first use)."""
        code = self._optype_index.get(optype)
        if code is None:
            code = len(self.optype_table)
            self._optype_index[optype] = code
            self.optype_table.append(optype)
        return code

    @property
    def edge_src(self) -> np.ndarray:
        """Live zero-copy int64 view of the edge source column (read-only)."""
        view = self._edges.src[: self._edges.count]
        view.setflags(write=False)
        return view

    @property
    def edge_dst(self) -> np.ndarray:
        """Live zero-copy int64 view of the edge destination column
        (read-only)."""
        view = self._edges.dst[: self._edges.count]
        view.setflags(write=False)
        return view

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def append_node(
        self,
        optype: str,
        kind: NodeKind = NodeKind.OPERATION,
        dtype: str = "i32",
        loop_label: str = "",
        array: str = "",
        instr_id: int = -1,
        replica: int = 0,
    ) -> int:
        """Append one node to the columns and return its id.

        The node's attributes go straight into the columns and a zeroed row
        into the feature block; callers set features by writing
        ``feat.matrix[node_id]``.
        """
        node_id = len(self.node_kinds)
        self.optype_codes.append(self.intern_optype(optype))
        self.node_kinds.append(kind)
        self.node_dtypes.append(dtype)
        self.node_loop_labels.append(loop_label)
        self.node_arrays.append(array)
        self.node_instr_ids.append(instr_id)
        self.node_replicas.append(replica)
        self.feat.append_row()
        return node_id

    def extend_replica_span(self, start: int, stop: int) -> None:
        """Bulk-append copies of nodes ``[start, stop)`` (replica replay).

        Every node column — identity attributes, optype codes and the
        feature rows — is extended with one C-level slice copy.  The caller
        rewrites the replica-dependent pieces (``node_replicas`` entries)
        afterwards.
        """
        self.optype_codes.extend(self.optype_codes[start:stop])
        self.node_kinds.extend(self.node_kinds[start:stop])
        self.node_dtypes.extend(self.node_dtypes[start:stop])
        self.node_loop_labels.extend(self.node_loop_labels[start:stop])
        self.node_arrays.extend(self.node_arrays[start:stop])
        self.node_instr_ids.extend(self.node_instr_ids[start:stop])
        self.node_replicas.extend(self.node_replicas[start:stop])
        self.feat.append_block(start, stop)

    def add_edge(self, src: int, dst: int, kind: EdgeKind = EdgeKind.DATA) -> None:
        if src == dst:
            return
        num_nodes = len(self.node_kinds)
        if not (0 <= src < num_nodes) or not (0 <= dst < num_nodes):
            raise ValueError(
                f"edge ({src}, {dst}) references nodes outside the graph "
                f"(size {num_nodes})"
            )
        self._edges.append(src, dst)
        self.edge_kinds.append(kind)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.node_kinds)

    @property
    def num_edges(self) -> int:
        return self._edges.count

    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(in_degree, out_degree) arrays for all nodes, computed in one pass."""
        if not self._edges.count:
            zeros = np.zeros(self.num_nodes, dtype=np.int64)
            return zeros, zeros.copy()
        src, dst = self._edges.views()
        in_degree = np.bincount(dst, minlength=self.num_nodes)
        out_degree = np.bincount(src, minlength=self.num_nodes)
        return in_degree, out_degree

    def edge_index(self) -> np.ndarray:
        """Edge list as a (2, E) integer array (PyG-style ``edge_index``).

        Memoized per edge count: repeated calls return the **same** array
        object, which lets identity-keyed consumers (the message-passing
        edge cache, sample templates) share downstream memos.  The array is
        marked non-writeable — a mutation would desynchronise every memo
        keyed on its identity.
        """
        cached = self._edge_index_cache
        count = self._edges.count
        if cached is not None and cached.shape[1] == count:
            return cached
        if not count:
            cached = np.zeros((2, 0), dtype=np.int64)
        else:
            cached = np.empty((2, count), dtype=np.int64)
            cached[0] = self._edges.src[:count]
            cached[1] = self._edges.dst[:count]
        cached.setflags(write=False)
        self._edge_index_cache = cached
        return cached

    def copy(self) -> "CDFG":
        """An independent copy sharing no mutable state with the original.

        The whole copy is a handful of C-level list copies plus one
        feature-matrix copy.
        """
        clone = CDFG(name=self.name)
        clone.optype_codes = list(self.optype_codes)
        clone.optype_table = list(self.optype_table)
        clone._optype_index = dict(self._optype_index)
        clone.node_kinds = list(self.node_kinds)
        clone.node_dtypes = list(self.node_dtypes)
        clone.node_loop_labels = list(self.node_loop_labels)
        clone.node_arrays = list(self.node_arrays)
        clone.node_instr_ids = list(self.node_instr_ids)
        clone.node_replicas = list(self.node_replicas)
        clone._edges = self._edges.copy()
        clone.edge_kinds = list(self.edge_kinds)
        clone.loop_features = self.loop_features
        clone.metadata = dict(self.metadata)
        clone.feat = self.feat.copy()
        return clone

    def feature_matrix(self) -> np.ndarray:
        """(N, len(NODE_FEATURE_NAMES)) matrix of numerical node features.

        A **zero-copy, read-only view** of the live rows of the feature
        block — writes to ``feat.matrix`` are visible to every view, but the
        view itself is marked non-writeable (all views share one backing
        block, so an in-place edit would corrupt every consumer).  Consumers
        that need a mutable matrix copy it explicitly.
        """
        return self.feat.view()

    def optype_list(self) -> list[str]:
        """Per-node optype strings (memoized: callers get a stable list
        object)."""
        cached = self._optype_list_cache
        if cached is None or len(cached) != len(self.optype_codes):
            table = self.optype_table
            cached = self._optype_list_cache = [
                table[code] for code in self.optype_codes
            ]
        return cached

    def optype_code_array(self) -> np.ndarray:
        """Per-node optype codes as an int64 array (memoized, read-only).

        Paired with :attr:`optype_table`, this is the columnar form of
        :meth:`optype_list`: encoders translate the (tiny) table once and
        fancy-index it with these codes instead of resolving one string per
        node (see ``OptypeEncoder.encode_sample_indices``).
        """
        cached = getattr(self, "_optype_code_cache", None)
        if cached is None or cached.shape[0] != len(self.optype_codes):
            cached = np.asarray(self.optype_codes, dtype=np.int64)
            self._optype_code_cache = cached
        return cached

    def summary(self) -> dict[str, int]:
        """Node/edge counts by category (handy for tests and logging)."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "operation_nodes": self.node_kinds.count(NodeKind.OPERATION),
            "memory_ports": self.node_kinds.count(NodeKind.MEMORY_PORT),
            "super_nodes": self.node_kinds.count(NodeKind.SUPER_NODE),
            "data_edges": self.edge_kinds.count(EdgeKind.DATA),
            "control_edges": self.edge_kinds.count(EdgeKind.CONTROL),
            "memory_edges": self.edge_kinds.count(EdgeKind.MEMORY),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CDFG({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"


__all__ = [
    "CDFG", "NodeKind", "EdgeKind",
    "LoopLevelFeatures", "NODE_FEATURE_NAMES", "FEATURE_COLUMN",
]
