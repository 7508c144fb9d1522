"""Tests for graph samples, batching, encoders and scalers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.data import (
    FeatureScaler,
    GraphSample,
    OptypeEncoder,
    TargetScaler,
    iterate_minibatches,
    make_batch,
    train_validation_test_split,
)

from reference import batch_dense_x, encode


def make_sample(num_nodes=4, num_features=3, target=10.0, seed=0):
    rng = np.random.default_rng(seed)
    optypes = ["add", "mul", "load", "store"][:num_nodes]
    edge_index = (
        np.stack([np.arange(num_nodes - 1), np.arange(1, num_nodes)])
        if num_nodes > 1 else np.zeros((2, 0), dtype=np.int64)
    )
    return GraphSample(
        optypes=optypes,
        features=np.abs(rng.normal(size=(num_nodes, num_features))),
        edge_index=edge_index,
        targets={"lut": target, "latency": target * 2},
        loop_features=np.arange(5, dtype=np.float64),
    )


def fitted(samples):
    """Encoder and feature scaler fitted on ``samples``."""
    encoder = OptypeEncoder().fit([s.optypes for s in samples])
    return encoder, FeatureScaler().fit([s.features for s in samples])


class TestOptypeEncoder:
    def test_fit_builds_vocabulary(self):
        encoder = OptypeEncoder().fit([["add", "mul"], ["add", "load"]])
        assert encoder.dim == 4  # three optypes + <unk>

    def test_encode_one_hot_rows(self):
        encoder = OptypeEncoder().fit([["add", "mul"]])
        matrix = encode(encoder, ["mul", "add"])
        assert matrix.shape == (2, 3)
        assert matrix.sum() == 2.0
        assert (matrix.sum(axis=1) == 1.0).all()

    def test_unknown_optype_maps_to_unk(self):
        encoder = OptypeEncoder().fit([["add"]])
        matrix = encode(encoder, ["never_seen"])
        unk_column = encoder.vocabulary.index(OptypeEncoder.UNKNOWN)
        assert matrix[0, unk_column] == 1.0

    def test_explicit_vocabulary(self):
        encoder = OptypeEncoder(vocabulary=["a", "b"])
        assert encoder.dim == 3

    def test_empty_input(self):
        encoder = OptypeEncoder().fit([["add"]])
        assert encode(encoder, []).shape == (0, encoder.dim)


class TestScalers:
    def test_feature_scaler_standardizes(self):
        matrices = [np.abs(np.random.default_rng(i).normal(size=(10, 4))) * 100
                    for i in range(5)]
        scaler = FeatureScaler().fit(matrices)
        transformed = np.concatenate([scaler.transform(m) for m in matrices])
        assert abs(transformed.mean()) < 0.2
        assert abs(transformed.std() - 1.0) < 0.3

    def test_feature_scaler_requires_fit(self):
        with pytest.raises(RuntimeError):
            FeatureScaler().transform(np.ones((2, 2)))

    def test_feature_scaler_empty_matrix_passthrough(self):
        scaler = FeatureScaler().fit([np.ones((3, 2))])
        assert scaler.transform(np.zeros((0, 2))).shape == (0, 2)

    def test_target_scaler_round_trip(self):
        values = np.array([10.0, 1000.0, 50000.0])
        scaler = TargetScaler().fit(values)
        recovered = scaler.inverse(scaler.transform(values))
        assert np.allclose(recovered, values, rtol=1e-6)

    def test_target_scaler_clips_overflow(self):
        scaler = TargetScaler().fit(np.array([1.0, 10.0]))
        assert np.isfinite(scaler.inverse(np.array([1e6]))).all()

    @given(st.lists(st.floats(1.0, 1e6), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_target_scaler_round_trip_property(self, values):
        values = np.array(values)
        scaler = TargetScaler().fit(values)
        assert np.allclose(scaler.inverse(scaler.transform(values)), values, rtol=1e-5)


class TestBatching:
    def test_batch_offsets_edge_indices(self):
        samples = [make_sample(seed=0), make_sample(seed=1)]
        batch = make_batch(samples, *fitted(samples), target_names=("lut",))
        assert batch.num_graphs == 2
        assert batch.num_nodes == 8
        assert batch.edge_index.max() == 7
        assert (batch.batch == np.array([0] * 4 + [1] * 4)).all()

    def test_batch_targets_stacked(self):
        samples = [make_sample(target=5.0), make_sample(target=7.0)]
        batch = make_batch(
            samples, *fitted(samples), target_names=("lut", "latency")
        )
        assert np.allclose(batch.targets["lut"], [5.0, 7.0])
        assert np.allclose(batch.targets["latency"], [10.0, 14.0])

    def test_batch_carries_codes_and_numeric_columns(self):
        samples = [make_sample()]
        encoder, scaler = fitted(samples)
        batch = make_batch(samples, encoder, scaler)
        # the one-hot block is elided: x holds only the numeric columns and
        # the codes + onehot_dim describe the block the model reconstructs
        # from its own first-layer weights
        assert batch.x.shape[1] == 3
        assert batch.onehot_dim == encoder.dim
        assert batch.optype_codes.shape == (batch.num_nodes,)
        assert batch_dense_x(batch).shape[1] == encoder.dim + 3

    def test_feature_totals_shape(self):
        samples = [make_sample(), make_sample(seed=3)]
        batch = make_batch(samples, *fitted(samples))
        assert batch.feature_totals.shape == (2, 3)

    def test_loop_features_stacked(self):
        samples = [make_sample(), make_sample()]
        batch = make_batch(samples, *fitted(samples))
        assert batch.loop_features.shape == (2, 5)


class TestSplitsAndMinibatches:
    def test_split_fractions(self):
        samples = [make_sample(seed=i) for i in range(20)]
        train, validation, test = train_validation_test_split(
            samples, rng=np.random.default_rng(0)
        )
        assert len(train) == 16
        assert len(validation) == 2
        assert len(test) == 2
        assert len({id(s) for s in train + validation + test}) == 20

    def test_minibatch_cover_all_samples(self):
        samples = [make_sample(seed=i) for i in range(10)]
        seen = []
        for chunk in iterate_minibatches(samples, 3, rng=np.random.default_rng(0)):
            seen.extend(chunk)
        assert len(seen) == 10

    def test_minibatch_without_shuffle_preserves_order(self):
        samples = [make_sample(seed=i) for i in range(6)]
        chunks = list(iterate_minibatches(samples, 4, shuffle=False))
        assert chunks[0] == samples[:4]
        assert chunks[1] == samples[4:]
