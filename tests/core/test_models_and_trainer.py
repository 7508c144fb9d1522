"""Tests for the GNN model architectures and the generic trainer."""

import numpy as np
import pytest

from repro.core.models import GlobalGNN, GNNEncoder, InnerLoopGNN
from repro.core.trainer import GraphRegressorTrainer, TrainingConfig
from repro.nn.data import FeatureScaler, GraphSample, OptypeEncoder, make_batch


def synthetic_samples(count=24, seed=0):
    """Graphs whose targets are simple functions of their structure."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        num_nodes = int(rng.integers(4, 12))
        optypes = list(rng.choice(["add", "mul", "load", "store"], size=num_nodes))
        features = np.abs(rng.normal(size=(num_nodes, 9))) * 10
        edge_index = (
            np.stack([np.arange(num_nodes - 1), np.arange(1, num_nodes)])
            if num_nodes > 1 else np.zeros((2, 0), dtype=np.int64)
        )
        lut = float(features[:, 5].sum() * 3 + 20)
        latency = float(num_nodes * 11 + features[:, 0].sum())
        samples.append(
            GraphSample(
                optypes=optypes, features=features, edge_index=edge_index,
                targets={
                    "lut": lut, "dsp": lut / 10, "ff": lut * 2,
                    "latency": latency, "iteration_latency": latency / 4,
                },
                loop_features=np.array([1.0, num_nodes, 1.0, 1.0, 1.0]),
            )
        )
    return samples


def input_dim(batch):
    """Model input width: the elided one-hot block plus numeric columns."""
    return batch.onehot_dim + batch.x.shape[1]


def batch_of(samples):
    encoder = OptypeEncoder().fit([s.optypes for s in samples])
    scaler = FeatureScaler().fit([s.features for s in samples])
    return make_batch(samples, encoder, scaler, target_names=("lut",)), encoder


class TestModelArchitectures:
    def test_encoder_output_shape(self, rng):
        samples = synthetic_samples(4)
        batch, encoder = batch_of(samples)
        model = GNNEncoder(input_dim(batch), hidden=16, rng=rng)
        assert model(batch).shape == (4, 32)

    def test_inner_model_outputs_all_targets(self, rng):
        samples = synthetic_samples(4)
        batch, encoder = batch_of(samples)
        model = InnerLoopGNN(input_dim(batch), hidden=16, rng=rng)
        outputs = model(batch)
        assert set(outputs) == {"lut", "dsp", "ff", "iteration_latency", "latency"}
        for tensor in outputs.values():
            assert tensor.shape == (4, 1)

    def test_global_model_outputs(self, rng):
        samples = synthetic_samples(3)
        batch, encoder = batch_of(samples)
        model = GlobalGNN(input_dim(batch), hidden=16, rng=rng)
        outputs = model(batch)
        assert set(outputs) == {"lut", "dsp", "ff", "latency"}

    @pytest.mark.parametrize("conv_type", ["gcn", "gat", "graphsage", "transformer", "pna"])
    def test_all_conv_types_instantiable(self, conv_type, rng):
        samples = synthetic_samples(2)
        batch, encoder = batch_of(samples)
        model = GlobalGNN(input_dim(batch), hidden=16, conv_type=conv_type, rng=rng)
        outputs = model(batch)
        assert np.isfinite(outputs["lut"].numpy()).all()

    def test_outputs_finite_with_large_features(self, rng):
        samples = synthetic_samples(3, seed=7)
        for sample in samples:
            sample.features *= 1e4
        batch, encoder = batch_of(samples)
        # the model sees the raw magnitudes, not the standardized columns
        batch.x[:] = np.concatenate([sample.features for sample in samples])
        model = GlobalGNN(input_dim(batch), hidden=16, rng=rng)
        assert np.isfinite(model(batch)["latency"].numpy()).all()


class TestTrainer:
    def test_training_reduces_loss_and_predicts(self):
        samples = synthetic_samples(40)
        trainer = GraphRegressorTrainer(
            None, ("lut", "latency"),
            TrainingConfig(epochs=30, batch_size=8, learning_rate=3e-3, patience=30),
        )
        trainer.fit_preprocessing(samples)
        model = GlobalGNN(trainer.input_dim(samples), hidden=16,
                          rng=np.random.default_rng(0))
        trainer.model = model
        result = trainer.train(samples)
        assert result.train_losses[-1] < result.train_losses[0]
        scores = trainer.evaluate(samples)
        assert scores["lut"] < 60.0

    def test_predictions_in_original_units(self):
        samples = synthetic_samples(20)
        trainer = GraphRegressorTrainer(
            None, ("lut",), TrainingConfig(epochs=10, batch_size=8)
        )
        trainer.fit_preprocessing(samples)
        model = GlobalGNN(trainer.input_dim(samples), hidden=8,
                          rng=np.random.default_rng(1))
        trainer.model = model
        trainer.train(samples)
        predictions = trainer.predict(samples)["lut"]
        truths = np.array([s.targets["lut"] for s in samples])
        assert predictions.shape == truths.shape
        # predictions live on the same scale as the targets
        assert 0.1 < predictions.mean() / truths.mean() < 10.0

    def test_empty_training_set_raises(self):
        trainer = GraphRegressorTrainer(None, ("lut",), TrainingConfig(epochs=1))
        with pytest.raises(ValueError):
            trainer.train([])

    def test_prepare_batch_requires_preprocessing(self):
        trainer = GraphRegressorTrainer(None, ("lut",))
        with pytest.raises(RuntimeError):
            trainer.prepare_batch(synthetic_samples(2))

    def test_evaluate_empty_returns_zeros(self):
        trainer = GraphRegressorTrainer(None, ("lut",))
        assert trainer.evaluate([]) == {"lut": 0.0}

    def test_early_stopping_restores_best_state(self):
        samples = synthetic_samples(16)
        trainer = GraphRegressorTrainer(
            None, ("lut",),
            TrainingConfig(epochs=40, batch_size=8, patience=3),
        )
        trainer.fit_preprocessing(samples)
        model = GlobalGNN(trainer.input_dim(samples), hidden=8,
                          rng=np.random.default_rng(2))
        trainer.model = model
        result = trainer.train(samples[:12], samples[12:])
        assert result.best_epoch <= len(result.train_losses) - 1
        assert result.validation_mape
