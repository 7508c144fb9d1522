"""Message-passing (graph convolution) layers.

Numpy implementations of the five propagation layers evaluated by the paper:
GCN [11], GAT [12], GraphSAGE [13], TransformerConv [14] and PNA [15].  All
layers share the PyTorch-Geometric calling convention
``layer(x, edge_index)`` where ``edge_index`` is a ``(2, E)`` integer array of
``(source, target)`` pairs, and messages flow from source to target.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.nn.autograd import (
    SCATTER_INDEX_CACHE,
    Tensor,
    concat,
    gather_scatter_sum,
    linear_sum,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.layers import Linear, Module


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Append one self-loop edge per node."""
    loops = np.arange(num_nodes, dtype=np.int64)
    loops = np.stack([loops, loops])
    if edge_index.size == 0:
        return loops
    return np.concatenate([edge_index, loops], axis=1)


class _EdgeComputationCache:
    """Memoizes per-``(edge_index, num_nodes)`` graph quantities.

    A model forward pass (and, during DSE, many forward passes over the same
    batch) hands the *same* ``edge_index`` array to every propagation layer;
    re-deriving self-loops, degrees and normalization columns in each layer
    dominates the cost of small-graph inference.  Training-batch replay (see
    :class:`repro.nn.data.BatchCache`) additionally reuses the same arrays
    across epochs, so eviction is LRU — a long-lived working set of minibatch
    edge indices stays resident instead of being flushed wholesale.  Entries
    are keyed by ``id(edge_index)`` and validated through a weak reference so
    a recycled ``id`` can never alias a dead array.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, tuple[weakref.ref, int, dict]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def payload(self, edge_index: np.ndarray, num_nodes: int) -> dict:
        """The mutable memo dict for this ``(edge_index, num_nodes)`` pair."""
        entry = self._entries.get(id(edge_index))
        if entry is not None:
            ref, cached_nodes, payload = entry
            if ref() is edge_index and cached_nodes == num_nodes:
                self.hits += 1
                self._entries.move_to_end(id(edge_index))
                return payload
        self.misses += 1
        payload: dict = {}
        try:
            ref = weakref.ref(edge_index)
        except TypeError:  # pragma: no cover - ndarrays are weakref-able
            return payload
        # purge entries whose array died on every insert so large self-loop
        # and norm payloads never outlive their batch, then evict the least
        # recently used survivors once the table is full
        entries = self._entries
        for key in [k for k, value in entries.items() if value[0]() is None]:
            del entries[key]
        while len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[id(edge_index)] = (ref, num_nodes, payload)
        return payload

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {
            "edge_cache_hits": self.hits,
            "edge_cache_misses": self.misses,
            "edge_cache_evictions": self.evictions,
            "edge_cache_entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: process-wide cache shared by every propagation layer
EDGE_CACHE = _EdgeComputationCache()


def _cached_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    payload = EDGE_CACHE.payload(edge_index, num_nodes)
    edges = payload.get("self_loops")
    if edges is None:
        edges = add_self_loops(edge_index, num_nodes)
        edges.setflags(write=False)
        payload["self_loops"] = edges
    return edges


def _cached_rows(
    edge_index: np.ndarray, num_nodes: int, *, self_loops: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Stable ``(src, dst)`` row views of the (possibly loop-augmented) edges.

    Returning the *same* view objects on every call (instead of slicing
    fresh ones) lets downstream per-array memos — most importantly the
    scatter-index cache in :mod:`repro.nn.autograd` — key on the row arrays
    across layers, forward passes and replayed epochs.  The loop-augmented
    edges are re-sorted by destination (stable, once per edge index), so
    scatters over them keep the sorted fast path that
    :func:`repro.nn.data.make_batch` establishes for the raw union edges.
    """
    payload = EDGE_CACHE.payload(edge_index, num_nodes)
    key = "loop_rows" if self_loops else "rows"
    rows = payload.get(key)
    if rows is None:
        edges = (
            _cached_self_loops(edge_index, num_nodes) if self_loops
            else edge_index
        )
        if self_loops:
            destinations = edges[1]
            if destinations.size > 1 and (np.diff(destinations) < 0).any():
                edges = edges[:, np.argsort(destinations, kind="stable")]
                edges.setflags(write=False)
        rows = (edges[0], edges[1])
        payload[key] = rows
    return rows


def _cached_degree(
    edge_index: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    dtype: np.dtype = np.dtype(np.float64),
) -> np.ndarray:
    """In-degree (self-loop-augmented, clamped to >= 1) per node."""
    payload = EDGE_CACHE.payload(edge_index, num_nodes)
    degree = payload.get(("degree", dtype.char))
    if degree is None:
        degree = np.bincount(dst, minlength=num_nodes).astype(dtype)
        degree = np.maximum(degree, 1.0)
        degree.setflags(write=False)
        payload[("degree", dtype.char)] = degree
    return degree


class MessagePassingLayer(Module):
    """Common base: subclasses implement :meth:`forward(x, edge_index)`."""

    def __init__(self, in_features: int, out_features: int):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features


class GCNConv(MessagePassingLayer):
    """Graph convolution with symmetric degree normalization (Kipf & Welling)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__(in_features, out_features)
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        num_nodes = x.shape[0]
        src, dst = _cached_rows(edge_index, num_nodes, self_loops=True)
        transformed = self.linear(x)
        dtype = transformed.data.dtype
        payload = EDGE_CACHE.payload(edge_index, num_nodes)
        # keyed by dtype, so float32 inference never mixes in a float64
        # column
        norm = payload.get(("gcn_norm", dtype.char))
        if norm is None:
            degree = _cached_degree(edge_index, dst, num_nodes, dtype)
            norm = (1.0 / np.sqrt(degree[src] * degree[dst]))[:, None]
            norm.setflags(write=False)
            payload[("gcn_norm", dtype.char)] = norm
        fused = gather_scatter_sum(
            transformed, src, dst, num_nodes, weights=norm
        )
        if fused is not None:
            return fused
        messages = transformed.gather_rows(src) * Tensor(norm)
        return segment_sum(messages, dst, num_nodes)


class SAGEConv(MessagePassingLayer):
    """GraphSAGE with mean aggregation: ``W_self x || W_neigh mean(x_N)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__(in_features, out_features)
        self.linear_self = Linear(in_features, out_features, rng=rng)
        self.linear_neighbor = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        num_nodes = x.shape[0]
        if edge_index.size == 0:
            return self.linear_self(x)
        src, dst = _cached_rows(edge_index, num_nodes, self_loops=False)
        # mean aggregation as one weighted CSR product: the cached per-edge
        # 1/degree weights make the fused operator compute the neighbor
        # mean directly (equal within float rounding to scaling the sum)
        weights = SCATTER_INDEX_CACHE.mean_edge_weights(
            dst, num_nodes, x.data.dtype
        )
        neighbor_mean = gather_scatter_sum(x, src, dst, num_nodes, weights=weights)
        if neighbor_mean is not None:
            # one fused node for self + neighbor: same values and gradients
            # as the composed linears, one union-sized allocation fewer
            return linear_sum(
                x, self.linear_self.weight, self.linear_self.bias,
                neighbor_mean, self.linear_neighbor.weight,
                self.linear_neighbor.bias,
            )
        neighbor_mean = segment_mean(x.gather_rows(src), dst, num_nodes)
        return self.linear_self(x) + self.linear_neighbor(neighbor_mean)


class GATConv(MessagePassingLayer):
    """Graph attention (single- or multi-head, concatenated heads)."""

    def __init__(self, in_features: int, out_features: int, heads: int = 2,
                 negative_slope: float = 0.2,
                 rng: np.random.Generator | None = None):
        if out_features % heads != 0:
            raise ValueError("out_features must be divisible by heads")
        super().__init__(in_features, out_features)
        self.heads = heads
        self.head_dim = out_features // heads
        self.negative_slope = negative_slope
        self.projections = [
            Linear(in_features, self.head_dim, rng=rng) for _ in range(heads)
        ]
        self.att_src = [
            Linear(self.head_dim, 1, bias=False, rng=rng) for _ in range(heads)
        ]
        self.att_dst = [
            Linear(self.head_dim, 1, bias=False, rng=rng) for _ in range(heads)
        ]

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        num_nodes = x.shape[0]
        src, dst = _cached_rows(edge_index, num_nodes, self_loops=True)
        head_outputs = []
        for head in range(self.heads):
            projected = self.projections[head](x)
            alpha_src = self.att_src[head](projected)
            alpha_dst = self.att_dst[head](projected)
            scores = (
                alpha_src.gather_rows(src) + alpha_dst.gather_rows(dst)
            ).leaky_relu(self.negative_slope)
            attention = segment_softmax(scores, dst, num_nodes)
            messages = projected.gather_rows(src) * attention
            head_outputs.append(segment_sum(messages, dst, num_nodes))
        if len(head_outputs) == 1:
            return head_outputs[0]
        return concat(head_outputs, axis=1)


class TransformerConv(MessagePassingLayer):
    """UniMP-style transformer convolution with scaled dot-product attention."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__(in_features, out_features)
        self.query = Linear(in_features, out_features, rng=rng)
        self.key = Linear(in_features, out_features, rng=rng)
        self.value = Linear(in_features, out_features, rng=rng)
        self.skip = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        num_nodes = x.shape[0]
        src, dst = _cached_rows(edge_index, num_nodes, self_loops=True)
        queries = self.query(x).gather_rows(dst)
        keys = self.key(x).gather_rows(src)
        values = self.value(x).gather_rows(src)
        scale = 1.0 / np.sqrt(self.out_features)
        scores = (queries * keys).sum(axis=1, keepdims=True) * scale
        attention = segment_softmax(scores, dst, num_nodes)
        aggregated = segment_sum(values * attention, dst, num_nodes)
        return aggregated + self.skip(x)


class PNAConv(MessagePassingLayer):
    """Principal Neighbourhood Aggregation (mean/max/sum aggregators with
    degree scalers), simplified to a single tower."""

    def __init__(self, in_features: int, out_features: int,
                 average_degree: float = 4.0,
                 rng: np.random.Generator | None = None):
        super().__init__(in_features, out_features)
        self.pre = Linear(in_features, out_features, rng=rng)
        # 3 aggregators x 3 scalers + self features
        self.post = Linear(out_features * 9 + in_features, out_features, rng=rng)
        self.log_average_degree = float(np.log(average_degree + 1.0))

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        num_nodes = x.shape[0]
        src, dst = _cached_rows(edge_index, num_nodes, self_loops=True)
        transformed = self.pre(x)
        messages = transformed.gather_rows(src)
        aggregated = [
            segment_mean(messages, dst, num_nodes),
            segment_max(messages, dst, num_nodes),
            segment_sum(messages, dst, num_nodes),
        ]
        dtype = transformed.data.dtype
        payload = EDGE_CACHE.payload(edge_index, num_nodes)
        scalers = payload.get(("pna_scalers", self.log_average_degree, dtype.char))
        if scalers is None:
            degree = _cached_degree(edge_index, dst, num_nodes, dtype)
            log_degree = np.log(degree + 1.0)
            scalers = (
                (log_degree / self.log_average_degree)[:, None],
                (self.log_average_degree / log_degree)[:, None],
            )
            for scaler in scalers:
                scaler.setflags(write=False)
            payload[("pna_scalers", self.log_average_degree, dtype.char)] = scalers
        amplification, attenuation = scalers
        scaled = []
        for aggregate in aggregated:
            scaled.append(aggregate)
            scaled.append(aggregate * Tensor(amplification))
            scaled.append(aggregate * Tensor(attenuation))
        return self.post(concat(scaled + [x], axis=1))


#: registry keyed by the names used in Table III
CONV_REGISTRY: dict[str, type[MessagePassingLayer]] = {
    "gcn": GCNConv,
    "gat": GATConv,
    "graphsage": SAGEConv,
    "sage": SAGEConv,
    "transformer": TransformerConv,
    "pna": PNAConv,
}


def make_conv(name: str, in_features: int, out_features: int,
              rng: np.random.Generator | None = None) -> MessagePassingLayer:
    """Instantiate a propagation layer by its Table III name."""
    key = name.lower()
    if key not in CONV_REGISTRY:
        raise KeyError(
            f"unknown GNN type {name!r}; available: {sorted(set(CONV_REGISTRY))}"
        )
    return CONV_REGISTRY[key](in_features, out_features, rng=rng)


__all__ = [
    "add_self_loops", "EDGE_CACHE", "MessagePassingLayer", "GCNConv",
    "SAGEConv", "GATConv", "TransformerConv", "PNAConv", "CONV_REGISTRY",
    "make_conv",
]
