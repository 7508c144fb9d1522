"""Graph data containers, encoders, batching and scalers.

Follows the PyTorch-Geometric conventions: a :class:`GraphSample` holds one
graph's node features, edge index and regression targets; a :class:`Batch`
concatenates several graphs into one disjoint union with a ``batch`` vector
mapping nodes back to their graph.

Batch assembly is the cold-path encoder of the whole system (every
``predict_batch`` sweep and every training minibatch funnels through
:func:`make_batch`), so it is vectorized end to end: one preallocated union
buffer for the numeric columns, fused in-place feature scaling,
``np.repeat``-based batch/edge offsets — and **no one-hot block at all**:
the union carries per-node optype codes that the model's first layer
resolves as an embedding gather from its own weights (see
:func:`repro.nn.autograd.embedding_linear`).  Every sample carries an
interned optype column (a small string table plus one int64 code per node),
so encoding translates each table once and gathers, and every union is
encoded afresh from its samples.  The per-sample encoder this replaced lives
on as a test oracle under ``tests/reference/``.
:class:`BatchCache` adds epoch-level reuse on top: an already-assembled
disjoint union is replayed as long as the exact same samples are grouped the
same way.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.flags import active_precision


# --------------------------------------------------------------------------- #
# samples and batches
# --------------------------------------------------------------------------- #
@dataclass
class GraphSample:
    """One training sample: an annotated graph and its QoR labels.

    ``graph_codes``/``graph_table`` are the interned optype column (one
    small string table plus an int64 code per node) that encoders translate
    once per table and gather, instead of resolving one string per node.
    Samples converted from a CDFG carry the graph's own column; when they
    are not given, :meth:`__post_init__` interns ``optypes`` in first-seen
    order.  ``table[codes[i]] == optypes[i]`` always.
    """

    optypes: list[str]
    features: np.ndarray
    edge_index: np.ndarray
    targets: dict[str, float] = field(default_factory=dict)
    loop_features: np.ndarray = field(default_factory=lambda: np.zeros(5))
    metadata: dict[str, str] = field(default_factory=dict)
    graph_codes: np.ndarray | None = None
    graph_table: list[str] | None = None

    def __post_init__(self) -> None:
        if self.graph_codes is None:
            index: dict[str, int] = {}
            self.graph_codes = np.array(
                [index.setdefault(optype, len(index)) for optype in self.optypes],
                dtype=np.int64,
            )
            self.graph_table = list(index)

    @property
    def num_nodes(self) -> int:
        return len(self.optypes)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1] if self.edge_index.size else 0


@dataclass
class Batch:
    """A disjoint union of graphs ready for the GNN forward pass.

    ``feature_totals`` holds, per graph, the ``log1p`` of the column-wise sum
    of the raw (unscaled) numerical node features — a global skip connection
    that gives the readout MLPs direct access to aggregate quantities such as
    the summed per-operation LUT/FF/DSP estimates.

    The one-hot optype block is never materialized: ``x`` holds only the
    scaled numeric columns while ``optype_codes`` carries one vocabulary
    index per node and ``onehot_dim`` the width of the elided block — the
    first model layer turns the codes into an **embedding gather** from its
    own weight rows (see :func:`repro.nn.autograd.embedding_linear`), which
    is exactly ``one-hot @ W`` without ever building the one-hot matrix.
    """

    x: np.ndarray
    edge_index: np.ndarray
    batch: np.ndarray
    loop_features: np.ndarray
    targets: dict[str, np.ndarray]
    num_graphs: int
    feature_totals: np.ndarray
    #: vocabulary index per node
    optype_codes: np.ndarray
    #: width of the elided one-hot block
    onehot_dim: int

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]


class OptypeEncoder:
    """Optype-string vocabulary: one index per known optype.

    Unknown optypes at inference time map to a dedicated ``<unk>`` slot, so a
    model trained on one benchmark set degrades gracefully on new kernels.
    The index is the row of the model's first-layer weights the optype
    gathers (the elided one-hot column).
    """

    UNKNOWN = "<unk>"

    #: bound on the per-graph-table translation memo
    MAX_MEMO_ENTRIES = 4096

    def __init__(self, vocabulary: list[str] | None = None):
        self._index: dict[str, int] = {}
        #: per-graph-table translation memo (see :meth:`encode_sample_indices`)
        self._table_memo: OrderedDict[int, tuple[list[str], np.ndarray]] = (
            OrderedDict()
        )
        if vocabulary:
            for optype in vocabulary:
                self._index.setdefault(optype, len(self._index))
            self._index.setdefault(self.UNKNOWN, len(self._index))

    def fit(self, optype_lists: list[list[str]]) -> "OptypeEncoder":
        for optypes in optype_lists:
            for optype in optypes:
                self._index.setdefault(optype, len(self._index))
        self._index.setdefault(self.UNKNOWN, len(self._index))
        self._table_memo.clear()
        return self

    @property
    def dim(self) -> int:
        return len(self._index)

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self._index, key=self._index.get)

    def encode_sample_indices(self, sample: "GraphSample") -> np.ndarray:
        """Vocabulary index per node of ``sample`` (unknowns map to ``<unk>``).

        The sample's (tiny) optype table is translated into vocabulary
        indices once — memoized per table object, so samples sharing a
        graph's table pay the string lookups once — and the per-node codes
        gather from it: one fancy index instead of one dict lookup per node.
        The memo holds a strong reference to each table, so a recycled
        ``id`` can never alias a dead one; eviction is LRU and bounded.
        """
        table = sample.graph_table
        memo = self._table_memo
        entry = memo.get(id(table))
        if entry is None or entry[0] is not table or entry[1].shape[0] != len(table):
            unknown = self._index[self.UNKNOWN]
            translation = np.fromiter(
                (self._index.get(optype, unknown) for optype in table),
                dtype=np.int64, count=len(table),
            )
            while len(memo) >= self.MAX_MEMO_ENTRIES:
                memo.popitem(last=False)
            memo[id(table)] = entry = (table, translation)
        else:
            memo.move_to_end(id(table))
        return entry[1][sample.graph_codes]


class FeatureScaler:
    """Standardize numerical node features after ``log1p`` compression."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    @staticmethod
    def _compress(matrix: np.ndarray) -> np.ndarray:
        return np.log1p(np.maximum(matrix, 0.0))

    def fit(self, matrices: list[np.ndarray]) -> "FeatureScaler":
        stacked = np.concatenate(
            [self._compress(m) for m in matrices if m.size], axis=0
        )
        self.mean_ = stacked.mean(axis=0)
        self.std_ = np.maximum(stacked.std(axis=0), 1e-6)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("FeatureScaler.transform called before fit")
        if matrix.size == 0:
            return matrix
        return (self._compress(matrix) - self.mean_) / self.std_


class TargetScaler:
    """Log-compress and standardize regression targets.

    QoR targets span several orders of magnitude across design points (for
    example latency from tens to millions of cycles), so models regress the
    standardized ``log1p`` value and predictions are mapped back with
    :meth:`inverse`.
    """

    def __init__(self):
        self.mean_ = 0.0
        self.std_ = 1.0

    def fit(self, values: np.ndarray) -> "TargetScaler":
        compressed = np.log1p(np.maximum(np.asarray(values, dtype=np.float64), 0.0))
        self.mean_ = float(compressed.mean()) if compressed.size else 0.0
        self.std_ = float(max(compressed.std(), 1e-6)) if compressed.size else 1.0
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        compressed = np.log1p(np.maximum(np.asarray(values, dtype=np.float64), 0.0))
        return (compressed - self.mean_) / self.std_

    def inverse(self, values: np.ndarray) -> np.ndarray:
        raw = np.asarray(values, dtype=np.float64) * self.std_ + self.mean_
        return np.expm1(np.clip(raw, -50.0, 50.0))


def make_batch(
    samples: list[GraphSample],
    encoder: OptypeEncoder,
    feature_scaler: FeatureScaler,
    target_names: tuple[str, ...] = (),
) -> Batch:
    """Assemble a mini-batch from graph samples in one vectorized pass.

    The union's numeric block is preallocated once and scaled **in place**
    (clamp, ``log1p``, standardize — no per-sample temporaries), and the
    batch vector / edge offsets come from ``np.repeat`` instead of
    per-sample allocations.  The one-hot optype block is never materialized:
    the batch carries one vocabulary code per node (``optype_codes``) and
    the model's first layer gathers the corresponding rows of its own weight
    matrix — value-for-value what multiplying the elided one-hot block by
    those weights would produce (see
    :func:`repro.nn.autograd.embedding_linear`).
    """
    num_graphs = len(samples)
    counts = np.fromiter(
        (sample.num_nodes for sample in samples), dtype=np.int64, count=num_graphs
    )
    offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total_nodes = int(offsets[-1])
    numeric_width = 0
    for sample in samples:
        features = sample.features
        if features.ndim == 2 and features.shape[1]:
            numeric_width = features.shape[1]
            break
    # every row is written below, so the union buffers start uninitialized;
    # their dtype is the context's precision tier (float64 by default)
    dtype = np.dtype(active_precision())
    x = np.empty((total_nodes, numeric_width), dtype=dtype)
    codes = np.empty(total_nodes, dtype=np.int64)
    bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    for sample, (start, stop) in zip(samples, bounds):
        if stop > start:
            codes[start:stop] = encoder.encode_sample_indices(sample)
            if numeric_width:
                x[start:stop] = sample.features
    # fused scaling: clamp, compress and standardize in place in the union
    # buffer; per-graph feature totals fall out of the clamped block for free
    if numeric_width:
        np.maximum(x, 0.0, out=x)
        totals = [
            np.log1p(x[start:stop].sum(axis=0)) if stop > start else np.zeros(0)
            for start, stop in bounds
        ]
        np.log1p(x, out=x)
        np.subtract(x, feature_scaler.mean_, out=x)
        np.divide(x, feature_scaler.std_, out=x)
    else:
        totals = [np.zeros(0)] * num_graphs
    edge_counts = np.fromiter(
        (sample.num_edges for sample in samples), dtype=np.int64, count=num_graphs
    )
    edge_parts = [
        sample.edge_index for sample in samples if sample.num_edges
    ]
    if edge_parts:
        edge_index = np.concatenate(edge_parts, axis=1)
        edge_index += np.repeat(offsets[:-1], edge_counts)[None, :]
        # order the union's edges by destination (stable, so each graph's
        # internal order is preserved and per-graph results stay
        # batch-invariant): every scatter over the destination rows then
        # takes the sequential sorted-segment reduceat path instead of a
        # random-access bincount
        destinations = edge_index[1]
        if destinations.size > 1 and (np.diff(destinations) < 0).any():
            edge_index = edge_index[:, np.argsort(destinations, kind="stable")]
    else:
        edge_index = np.zeros((2, 0), dtype=np.int64)
    targets = {
        name: np.array([sample.targets.get(name, 0.0) for sample in samples])
        for name in target_names
    }
    width = max((t.shape[0] for t in totals), default=0)
    stacked_totals = (
        np.stack([
            t if t.shape[0] == width else np.zeros(width) for t in totals
        ])
        if totals else np.zeros((0, 0))
    )
    return Batch(
        x=x,
        edge_index=edge_index,
        batch=np.repeat(np.arange(num_graphs, dtype=np.int64), counts),
        loop_features=(
            np.stack([
                np.asarray(sample.loop_features, dtype=dtype)
                for sample in samples
            ])
            if samples else np.zeros((0, 5))
        ),
        targets=targets,
        num_graphs=num_graphs,
        feature_totals=stacked_totals,
        optype_codes=codes,
        onehot_dim=encoder.dim,
    )


class BatchCache:
    """Replays assembled disjoint unions across training epochs.

    Keyed by the ordered identity fingerprint of the sample group (the tuple
    of member ``id``\\ s, with every member pinned by a strong reference so a
    recycled ``id`` can never alias a dead sample).  Samples are immutable
    once created, so the same group in the same order always produces the
    same union — any *regrouping* or reordering changes the key and misses
    cleanly instead of returning a stale union.  Bounded both by entry count and by total cached
    union nodes; eviction is LRU.
    """

    def __init__(self, max_entries: int = 256, max_cached_nodes: int = 1_000_000):
        self.max_entries = max_entries
        self.max_cached_nodes = max_cached_nodes
        self._entries: OrderedDict[
            tuple[int, ...], tuple[tuple[GraphSample, ...], Batch]
        ] = OrderedDict()
        self._cached_nodes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(samples: list[GraphSample]) -> tuple:
        # the precision tier is part of the key: a float64 union replayed
        # under float32 (or vice versa) must miss, and both tiers' unions
        # may coexist for the same sample grouping
        return (active_precision(), *map(id, samples))

    def get(self, samples: list[GraphSample]) -> Batch | None:
        """The cached union for exactly this sample grouping, else ``None``."""
        key = self._key(samples)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        pinned, batch = entry
        if len(pinned) != len(samples) or any(
            cached is not live for cached, live in zip(pinned, samples)
        ):
            # defence in depth: the pinned members guarantee live ids cannot
            # be recycled, but never serve a union whose identity drifted
            self._drop(key)
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return batch

    def put(self, samples: list[GraphSample], batch: Batch) -> None:
        """Insert an assembled union, evicting LRU entries past the bounds."""
        if self.max_entries <= 0:
            return
        key = self._key(samples)
        if key in self._entries:
            self._drop(key)
        self._entries[key] = (tuple(samples), batch)
        self._cached_nodes += batch.num_nodes
        while self._entries and (
            len(self._entries) > self.max_entries
            or self._cached_nodes > self.max_cached_nodes
        ):
            oldest = next(iter(self._entries))
            if oldest == key and len(self._entries) == 1:
                break
            self._drop(oldest)
            self.evictions += 1

    def _drop(self, key: tuple[int, ...]) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._cached_nodes -= entry[1].num_nodes

    def clear(self) -> None:
        """Drop every cached union and reset the counters."""
        self._entries.clear()
        self._cached_nodes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {
            "batch_cache_hits": self.hits,
            "batch_cache_misses": self.misses,
            "batch_cache_evictions": self.evictions,
            "batch_cache_entries": len(self._entries),
            "batch_cache_nodes": self._cached_nodes,
        }


def chunk_by_node_budget(
    samples: list[GraphSample], max_nodes: int
) -> list[list[GraphSample]]:
    """Split ``samples`` (order preserved) into chunks of <= ``max_nodes``.

    Used to bound the memory of one disjoint-union forward pass when batching
    a whole design space; a single sample larger than the budget still forms
    its own chunk.
    """
    chunks: list[list[GraphSample]] = []
    current: list[GraphSample] = []
    current_nodes = 0
    for sample in samples:
        if current and current_nodes + sample.num_nodes > max_nodes:
            chunks.append(current)
            current = []
            current_nodes = 0
        current.append(sample)
        current_nodes += sample.num_nodes
    if current:
        chunks.append(current)
    return chunks


def iterate_minibatches(
    samples: list[GraphSample],
    batch_size: int,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
):
    """Yield lists of samples of size ``batch_size`` (last batch may be short)."""
    order = np.arange(len(samples))
    if shuffle:
        rng = rng or np.random.default_rng(0)
        rng.shuffle(order)
    for start in range(0, len(samples), batch_size):
        yield [samples[index] for index in order[start:start + batch_size]]


def train_validation_test_split(
    samples: list[GraphSample],
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    rng: np.random.Generator | None = None,
) -> tuple[list[GraphSample], list[GraphSample], list[GraphSample]]:
    """Random 80/10/10 split (the paper's protocol)."""
    rng = rng or np.random.default_rng(0)
    order = np.arange(len(samples))
    rng.shuffle(order)
    n_train = int(round(fractions[0] * len(samples)))
    n_val = int(round(fractions[1] * len(samples)))
    train = [samples[i] for i in order[:n_train]]
    validation = [samples[i] for i in order[n_train:n_train + n_val]]
    test = [samples[i] for i in order[n_train + n_val:]]
    return train, validation, test


__all__ = [
    "GraphSample", "Batch", "OptypeEncoder", "FeatureScaler", "TargetScaler",
    "make_batch", "BatchCache",
    "chunk_by_node_budget", "iterate_minibatches",
    "train_validation_test_split",
]
