"""The per-sample reference batch encoder.

:func:`make_batch_reference` is how graph samples were encoded before the
vectorized :func:`repro.nn.data.make_batch`: one sample at a time, a dense
one-hot optype block (:func:`encode`, built from the encoder's vocabulary
list alone) concatenated with the scaled numeric features, list-append
concatenation.  Differential tests compare the production encoder against
it, and :func:`batch_dense_x` rebuilds the dense matrix a production
:class:`~repro.nn.data.Batch` elides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.data import Batch, FeatureScaler, GraphSample, OptypeEncoder


@dataclass
class DenseBatch:
    """The reference encoder's disjoint union.

    Same fields as :class:`~repro.nn.data.Batch` minus the optype codes:
    ``x`` holds the dense ``[one-hot optype block | scaled numeric block]``
    node matrix.
    """

    x: np.ndarray
    edge_index: np.ndarray
    batch: np.ndarray
    loop_features: np.ndarray
    targets: dict[str, np.ndarray]
    num_graphs: int
    feature_totals: np.ndarray


def batch_dense_x(batch: Batch) -> np.ndarray:
    """Materialize a batch's dense ``[one-hot | numeric]`` node matrix.

    The identity the embedding-gather layout elides: rebuilds exactly the
    matrix the reference encoder produces.
    """
    num_nodes = batch.x.shape[0]
    dense = np.zeros(
        (num_nodes, batch.onehot_dim + batch.x.shape[1]), dtype=batch.x.dtype
    )
    if num_nodes:
        dense[np.arange(num_nodes), batch.optype_codes] = 1.0
        dense[:, batch.onehot_dim:] = batch.x
    return dense


def encode(encoder: OptypeEncoder, optypes: list[str]) -> np.ndarray:
    """Dense one-hot rows of ``optypes`` over ``encoder.vocabulary``.

    Column ``j`` is vocabulary entry ``j``; optypes outside the vocabulary
    set the ``<unk>`` column.
    """
    vocabulary = encoder.vocabulary
    column = {optype: index for index, optype in enumerate(vocabulary)}
    unknown = column[OptypeEncoder.UNKNOWN]
    matrix = np.zeros((len(optypes), len(vocabulary)), dtype=np.float64)
    for row, optype in enumerate(optypes):
        matrix[row, column.get(optype, unknown)] = 1.0
    return matrix


def _sample_totals(sample: GraphSample) -> np.ndarray:
    """``log1p`` of the column-wise sum of the raw clamped features."""
    if not sample.features.size:
        return np.zeros(0)
    return np.log1p(np.maximum(sample.features, 0.0).sum(axis=0))


def make_batch_reference(
    samples: list[GraphSample],
    encoder: OptypeEncoder,
    feature_scaler: FeatureScaler,
    target_names: tuple[str, ...] = (),
) -> DenseBatch:
    """Encode ``samples`` one at a time into a dense disjoint union."""
    xs: list[np.ndarray] = []
    edges: list[np.ndarray] = []
    batch_vector: list[np.ndarray] = []
    loop_features: list[np.ndarray] = []
    totals: list[np.ndarray] = []
    offset = 0
    for graph_id, sample in enumerate(samples):
        numeric = feature_scaler.transform(sample.features)
        xs.append(np.concatenate([encode(encoder, sample.optypes), numeric], axis=1))
        totals.append(_sample_totals(sample))
        if sample.num_edges:
            edges.append(sample.edge_index + offset)
        batch_vector.append(np.full(sample.num_nodes, graph_id, dtype=np.int64))
        loop_features.append(np.asarray(sample.loop_features, dtype=np.float64))
        offset += sample.num_nodes
    x = np.concatenate(xs, axis=0) if xs else np.zeros((0, encoder.dim))
    edge_index = (
        np.concatenate(edges, axis=1) if edges else np.zeros((2, 0), dtype=np.int64)
    )
    targets = {
        name: np.array([sample.targets.get(name, 0.0) for sample in samples])
        for name in target_names
    }
    width = max((t.shape[0] for t in totals), default=0)
    totals = [
        t if t.shape[0] == width else np.zeros(width) for t in totals
    ]
    return DenseBatch(
        x=x,
        edge_index=edge_index,
        batch=np.concatenate(batch_vector) if batch_vector else np.zeros(0, dtype=np.int64),
        loop_features=np.stack(loop_features) if loop_features else np.zeros((0, 5)),
        targets=targets,
        num_graphs=len(samples),
        feature_totals=np.stack(totals) if totals else np.zeros((0, 0)),
    )
