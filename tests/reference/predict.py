"""The hierarchical QoR predictor in plain numpy.

:func:`reference_predict` recomputes one design point of
:meth:`repro.core.HierarchicalQoRModel.predict_batch` without any of the
production fast paths: an uncached :func:`~repro.graph.hierarchy.decompose`,
inner predictions written onto the super nodes one node at a time with
:func:`~repro.graph.features.annotate_super_node`, the dense per-sample
encoder of :mod:`reference.encoding`, and a
GraphSAGE forward written directly against the trainers' weight arrays — a
dense one-hot first layer, ``np.add.at`` scatters recomputed on every call,
unfused bias, relu and residual steps.  No autograd, no scatter-index or
edge memos, no CSR operators, no outer-graph templates.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import graph_to_sample
from repro.core.models import FEATURE_TOTAL_DIM, InnerLoopGNN
from repro.frontend.pragmas import PragmaConfig
from repro.graph.features import annotate_super_node
from repro.graph.hierarchy import decompose
from repro.nn.message_passing import SAGEConv

from .encoding import make_batch_reference


def _linear(x: np.ndarray, layer) -> np.ndarray:
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _relu(x: np.ndarray) -> np.ndarray:
    return x * (x > 0)


def _mlp(x: np.ndarray, mlp) -> np.ndarray:
    for index, layer in enumerate(mlp.layers):
        x = _linear(x, layer)
        if index < len(mlp.layers) - 1:
            x = _relu(x)
    return x


def _sage(x: np.ndarray, conv: SAGEConv, edge_index: np.ndarray) -> np.ndarray:
    """``W_self x + W_neigh mean(x_N)`` with an ``np.add.at`` neighbor sum."""
    self_term = _linear(x, conv.linear_self)
    if edge_index.size == 0:
        return self_term
    src, dst = edge_index
    summed = np.zeros_like(x)
    np.add.at(summed, dst, x[src])
    counts = np.maximum(np.bincount(dst, minlength=x.shape[0]), 1)
    return self_term + _linear(summed / counts[:, None], conv.linear_neighbor)


def _graph_embedding(encoder, batch) -> np.ndarray:
    """Encoder, propagation, ``[sum || max]`` pooling and log compression."""
    for conv in encoder.convs:
        if not isinstance(conv, SAGEConv):
            raise NotImplementedError(
                f"reference_predict implements GraphSAGE only, not "
                f"{type(conv).__name__}"
            )
    x = _relu(_linear(batch.x, encoder.encoder))
    for conv in encoder.convs:
        x = _relu(_sage(x, conv, batch.edge_index)) + x
    hidden = x.shape[1]
    summed = np.zeros((batch.num_graphs, hidden))
    np.add.at(summed, batch.batch, x)
    maxed = np.full((batch.num_graphs, hidden), -np.inf)
    np.maximum.at(maxed, batch.batch, x)
    maxed[np.isneginf(maxed)] = 0.0
    pooled = np.concatenate([summed, maxed], axis=1)
    return np.log(np.abs(pooled) + 1.0) * np.sign(pooled)


def _forward(model, batch) -> dict[str, np.ndarray]:
    """Scaled-target outputs of an ``InnerLoopGNN`` or ``GlobalGNN``."""
    totals = np.zeros((batch.num_graphs, FEATURE_TOTAL_DIM))
    if batch.feature_totals.ndim == 2:
        width = min(FEATURE_TOTAL_DIM, batch.feature_totals.shape[1])
        totals[:, :width] = batch.feature_totals[:, :width]
    readout = np.concatenate(
        [_graph_embedding(model.encoder, batch), totals], axis=1
    )
    if not isinstance(model, InnerLoopGNN):
        return {name: _mlp(readout, head) for name, head in model.heads.items()}
    outputs = {
        name: _mlp(readout, head) for name, head in model.resource_heads.items()
    }
    iteration_latency = _mlp(readout, model.iteration_latency_head)
    outputs["iteration_latency"] = iteration_latency
    loop_features = np.log1p(np.maximum(batch.loop_features, 0.0))
    outputs["latency"] = _mlp(
        np.concatenate([iteration_latency, loop_features], axis=1),
        model.latency_head,
    )
    return outputs


def _trainer_predict(trainer, sample) -> dict[str, float]:
    """One sample through the reference forward, in original units."""
    batch = make_batch_reference([sample], trainer.encoder, trainer.feature_scaler)
    outputs = _forward(trainer.model, batch)
    return {
        name: float(trainer.target_scalers[name].inverse(outputs[name].reshape(-1))[0])
        for name in trainer.target_names
    }


def reference_predict(model, function, config: PragmaConfig | None = None) -> dict[str, float]:
    """Post-route QoR of one design point, recomputed the plain way.

    ``model`` is a trained float64 GraphSAGE
    :class:`~repro.core.HierarchicalQoRModel`; any other propagation layer
    raises :class:`NotImplementedError`.
    """
    if model.trainer_g is None:
        raise RuntimeError("the hierarchical model has not been trained")
    decomposition = decompose(function, config or PragmaConfig(), library=model.library)
    for unit in decomposition.inner_units:
        trainer = model.trainer_p if unit.pipelined else model.trainer_np
        if trainer is None:
            trainer = model.trainer_np if unit.pipelined else model.trainer_p
        prediction = _trainer_predict(trainer, graph_to_sample(unit.subgraph))
        for node_id in decomposition.super_node_ids(unit.label):
            annotate_super_node(
                decomposition.outer_graph, node_id,
                latency=prediction.get("latency", 0.0),
                lut=prediction.get("lut", 0.0),
                ff=prediction.get("ff", 0.0),
                dsp=prediction.get("dsp", 0.0),
                iteration_latency=prediction.get("iteration_latency", 0.0),
            )
    return _trainer_predict(model.trainer_g, graph_to_sample(decomposition.outer_graph))
