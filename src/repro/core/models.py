"""GNN model architectures (Section III-D, Fig. 4 of the paper).

Each QoR model follows the same four-stage architecture:

1. **feature encoder** — one-hot optype concatenated with the numerical
   Table II features, projected by a linear layer.
   :func:`repro.nn.data.make_batch` hands over per-node optype *codes*
   instead of the one-hot block and the projection runs as an embedding
   gather from the encoder's own weight rows
   (:func:`repro.nn.autograd.embedding_linear`) — the same product without
   the one-hot matrix ever existing;
2. **propagation layers** — three message-passing layers of a selectable
   type (GCN / GAT / GraphSAGE / TransformerConv / PNA);
3. **pooling** — concatenated sum- and max-pooling over node embeddings;
4. **MLP heads** — resource heads (LUT, DSP, FF) read the graph embedding
   directly; latency is handled differently at the two hierarchy levels:
   the inner models (``GNNp``/``GNNnp``) first predict the *iteration
   latency* and a second MLP combines it with the loop-level features
   (II, TC, ...) to produce loop latency, while the global model (``GNNg``)
   predicts overall latency directly.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor, concat, embedding_linear, relu_add
from repro.nn.data import Batch
from repro.nn.layers import MLP, Linear, Module
from repro.nn.message_passing import make_conv
from repro.nn.pooling import sum_max_pool

#: QoR metrics predicted for every design / loop
RESOURCE_TARGETS = ("lut", "dsp", "ff")
LATENCY_TARGET = "latency"
ITERATION_LATENCY_TARGET = "iteration_latency"

#: width of the per-graph aggregate feature vector (Table II numeric features
#: plus the derived "work" feature)
FEATURE_TOTAL_DIM = 9


def _readout_input(embedding: Tensor, batch: Batch) -> Tensor:
    """Concatenate the pooled embedding with the per-graph feature totals."""
    dtype = embedding.data.dtype
    totals = batch.feature_totals
    if totals.size == 0 or totals.shape[1] == 0:
        totals = np.zeros((batch.num_graphs, FEATURE_TOTAL_DIM), dtype=dtype)
    if totals.shape[1] != FEATURE_TOTAL_DIM:
        padded = np.zeros((totals.shape[0], FEATURE_TOTAL_DIM), dtype=dtype)
        width = min(FEATURE_TOTAL_DIM, totals.shape[1])
        padded[:, :width] = totals[:, :width]
        totals = padded
    elif totals.dtype != dtype:
        # a float32 embedding must not be upcast by float64 totals in concat
        totals = totals.astype(dtype)
    return concat([embedding, Tensor(totals)], axis=1)


class GNNEncoder(Module):
    """Encoder + propagation + pooling: produces the graph embedding."""

    def __init__(
        self,
        in_features: int,
        hidden: int = 32,
        num_layers: int = 3,
        conv_type: str = "graphsage",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv_type = conv_type
        self.encoder = Linear(in_features, hidden, rng=rng)
        self.convs = [
            make_conv(conv_type, hidden, hidden, rng=rng) for _ in range(num_layers)
        ]

    def forward(self, batch: Batch) -> Tensor:
        # the first projection doubles as the optype embedding table: gather
        # its rows by code instead of multiplying the (elided) one-hot block
        x = embedding_linear(
            batch.optype_codes, batch.x, self.encoder.weight,
            self.encoder.bias, batch.onehot_dim,
        ).relu()
        for conv in self.convs:
            # fused relu + residual connection
            x = relu_add(conv(x, batch.edge_index), x)
        pooled = sum_max_pool(x, batch.batch, batch.num_graphs)
        # signed log compression keeps the graph-size signal carried by the
        # sum-pool component while keeping the embedding well conditioned for
        # graphs ranging from a handful to thousands of nodes.
        sign = Tensor(np.sign(pooled.data))
        return (pooled.abs() + 1.0).log() * sign

    @property
    def embedding_dim(self) -> int:
        return 2 * self.encoder.out_features


class InnerLoopGNN(Module):
    """``GNNp`` / ``GNNnp``: QoR of one inner-hierarchy loop.

    Outputs (in scaled target space): ``lut``, ``dsp``, ``ff``,
    ``iteration_latency`` and ``latency``; the latency head consumes the
    predicted iteration latency together with the loop-level features.
    """

    def __init__(
        self,
        in_features: int,
        loop_feature_dim: int = 5,
        hidden: int = 32,
        num_layers: int = 3,
        conv_type: str = "graphsage",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = GNNEncoder(in_features, hidden, num_layers, conv_type, rng=rng)
        readout = self.encoder.embedding_dim + FEATURE_TOTAL_DIM
        self.resource_heads = {
            name: MLP([readout, hidden, 1], rng=rng) for name in RESOURCE_TARGETS
        }
        self.iteration_latency_head = MLP([readout, hidden, 1], rng=rng)
        self.latency_head = MLP([1 + loop_feature_dim, hidden, 1], rng=rng)

    def forward(self, batch: Batch) -> dict[str, Tensor]:
        embedding = _readout_input(self.encoder(batch), batch)
        outputs: dict[str, Tensor] = {
            name: head(embedding) for name, head in self.resource_heads.items()
        }
        iteration_latency = self.iteration_latency_head(embedding)
        outputs[ITERATION_LATENCY_TARGET] = iteration_latency
        loop_features = Tensor(
            np.log1p(np.maximum(batch.loop_features, 0.0)).astype(
                iteration_latency.data.dtype, copy=False
            )
        )
        outputs[LATENCY_TARGET] = self.latency_head(
            concat([iteration_latency, loop_features], axis=1)
        )
        return outputs

    @property
    def target_names(self) -> tuple[str, ...]:
        return RESOURCE_TARGETS + (ITERATION_LATENCY_TARGET, LATENCY_TARGET)


class GlobalGNN(Module):
    """``GNNg``: QoR of the whole application from the condensed outer graph."""

    def __init__(
        self,
        in_features: int,
        hidden: int = 32,
        num_layers: int = 3,
        conv_type: str = "graphsage",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = GNNEncoder(in_features, hidden, num_layers, conv_type, rng=rng)
        readout = self.encoder.embedding_dim + FEATURE_TOTAL_DIM
        self.heads = {
            name: MLP([readout, hidden, 1], rng=rng)
            for name in RESOURCE_TARGETS + (LATENCY_TARGET,)
        }

    def forward(self, batch: Batch) -> dict[str, Tensor]:
        embedding = _readout_input(self.encoder(batch), batch)
        return {name: head(embedding) for name, head in self.heads.items()}

    @property
    def target_names(self) -> tuple[str, ...]:
        return RESOURCE_TARGETS + (LATENCY_TARGET,)


__all__ = [
    "RESOURCE_TARGETS", "LATENCY_TARGET", "ITERATION_LATENCY_TARGET",
    "GNNEncoder", "InnerLoopGNN", "GlobalGNN",
]
