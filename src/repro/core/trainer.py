"""Generic training loop for multi-target graph regression models.

Used by every learned model in the project (the hierarchical ``GNNp`` /
``GNNnp`` / ``GNNg`` models as well as the flat GNN baselines): fits
per-target scalers, runs mini-batched Adam with gradient clipping, tracks
validation MAPE and keeps the best parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.flags import normalize_precision, precision
from repro.nn.autograd import PRECISION_DTYPES
from repro.nn.data import (
    Batch,
    BatchCache,
    FeatureScaler,
    GraphSample,
    OptypeEncoder,
    TargetScaler,
    chunk_by_node_budget,
    iterate_minibatches,
    make_batch,
)
from repro.nn.losses import mape, mse_loss
from repro.nn.optim import Adam


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training run.

    The training set is partitioned into minibatches once (with the seeded
    shuffle) and only the *order* of the minibatches is reshuffled per
    epoch, which lets the trainer's :class:`~repro.nn.data.BatchCache`
    replay each minibatch's assembled disjoint union from epoch 2 onwards.
    """

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 3e-3
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    patience: int = 15
    seed: int = 0
    verbose: bool = False


@dataclass
class TrainingResult:
    """Summary of a completed training run."""

    best_epoch: int = 0
    train_losses: list[float] = field(default_factory=list)
    validation_mape: dict[str, float] = field(default_factory=dict)
    test_mape: dict[str, float] = field(default_factory=dict)
    #: wall time of each epoch (minibatch passes + validation monitoring)
    epoch_seconds: list[float] = field(default_factory=list)


class GraphRegressorTrainer:
    """Trains a model whose ``forward(batch)`` returns ``{target: Tensor}``."""

    def __init__(
        self,
        model,
        target_names: tuple[str, ...],
        config: TrainingConfig | None = None,
    ):
        self.model = model
        self.target_names = tuple(target_names)
        self.config = config or TrainingConfig()
        self.encoder: OptypeEncoder | None = None
        self.feature_scaler: FeatureScaler | None = None
        self.target_scalers: dict[str, TargetScaler] = {}
        self._batch_cache = BatchCache()
        #: active inference tier; training always runs float64
        self.precision = "float64"
        #: float64 reference weights, kept while a cheaper tier is active so
        #: switching back (and serialization) is lossless
        self._master_state: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # data preparation
    # ------------------------------------------------------------------ #
    def clear_caches(self) -> None:
        """Drop the assembled-batch cache (and reset its counters)."""
        self._batch_cache.clear()

    def master_state(self) -> dict[str, np.ndarray]:
        """The float64 reference weights, regardless of the active tier."""
        if self._master_state is not None:
            return self._master_state
        return self.model.state_dict()

    def set_precision(self, value: str) -> None:
        """Switch the inference tier, casting the model weights in place.

        Entering ``float32`` snapshots the float64 weights first (the
        *master* copy), so switching back to ``float64`` — and serializing
        the trainer — is bit-exact.  A no-op when the tier is unchanged.
        """
        value = normalize_precision(value)
        if value == self.precision:
            return
        if value == "float64":
            if self._master_state is not None:
                self.model.load_state_dict(self._master_state)
                self._master_state = None
        else:
            self._master_state = self.master_state()
            self.model.load_state_dict(
                self._master_state, dtype=PRECISION_DTYPES[value]
            )
        self.precision = value

    def fit_preprocessing(self, samples: list[GraphSample]) -> None:
        """Fit the optype vocabulary, feature scaler and target scalers."""
        self.clear_caches()
        self.encoder = OptypeEncoder().fit([s.optypes for s in samples])
        self.feature_scaler = FeatureScaler().fit([s.features for s in samples])
        for name in self.target_names:
            values = np.array([s.targets.get(name, 0.0) for s in samples])
            self.target_scalers[name] = TargetScaler().fit(values)

    def input_dim(self, samples: list[GraphSample]) -> int:
        """Width of the encoded node-feature matrix."""
        if self.encoder is None:
            self.fit_preprocessing(samples)
        numeric = samples[0].features.shape[1] if samples else 0
        return self.encoder.dim + numeric

    def prepare_batch(
        self, samples: list[GraphSample], *, cache: bool = True
    ) -> Batch:
        """Assemble (or replay) the disjoint union of ``samples``.

        With ``cache`` (the default) the :class:`~repro.nn.data.BatchCache`
        is consulted first: an identical grouping of the exact same sample
        objects — a training minibatch replayed in a later epoch, or the
        validation set monitored every epoch — returns the already-assembled
        union without touching the encoder at all.  One-shot groupings that
        can never recur (e.g. node-budgeted inference chunks over fresh
        samples) pass ``cache=False`` so they don't churn the cache.
        """
        if self.encoder is None or self.feature_scaler is None:
            raise RuntimeError("call fit_preprocessing before prepare_batch")
        if cache:
            cached = self._batch_cache.get(samples)
            if cached is not None:
                return cached
        batch = make_batch(
            samples, self.encoder, self.feature_scaler, self.target_names
        )
        if cache:
            self._batch_cache.put(samples, batch)
        return batch

    def _scaled_targets(self, batch: Batch) -> dict[str, np.ndarray]:
        return {
            name: self.target_scalers[name].transform(batch.targets[name]).reshape(-1, 1)
            for name in self.target_names
        }

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def train(
        self,
        train_samples: list[GraphSample],
        validation_samples: list[GraphSample] | None = None,
        test_samples: list[GraphSample] | None = None,
    ) -> TrainingResult:
        if not train_samples:
            raise ValueError("cannot train on an empty dataset")
        # training always runs the float64 reference tier
        self.set_precision("float64")
        if self.encoder is None:
            self.fit_preprocessing(train_samples)
        config = self.config
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(
            self.model.parameters(), lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        result = TrainingResult()
        best_score = float("inf")
        best_state = self.model.state_dict()
        epochs_without_improvement = 0
        # minibatch membership is fixed by the first (seeded-shuffle)
        # partition and only the group order is reshuffled per epoch: stable
        # groups are what makes the epoch-level batch cache replay each
        # union instead of reassembling it every epoch
        groups = list(iterate_minibatches(
            train_samples, config.batch_size, rng=rng, shuffle=True
        ))
        for epoch in range(config.epochs):
            epoch_start = time.perf_counter()
            if epoch:
                rng.shuffle(groups)
            self.model.train()
            epoch_loss = 0.0
            num_batches = 0
            for chunk in groups:
                batch = self.prepare_batch(chunk)
                targets = self._scaled_targets(batch)
                optimizer.zero_grad()
                outputs = self.model(batch)
                loss = None
                for name in self.target_names:
                    term = mse_loss(outputs[name], targets[name])
                    loss = term if loss is None else loss + term
                loss.backward()
                optimizer.clip_gradients(config.grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
                num_batches += 1
            result.train_losses.append(epoch_loss / max(1, num_batches))
            # validation-driven early stopping
            monitor = validation_samples or train_samples
            scores = self.evaluate(monitor)
            mean_score = float(np.mean(list(scores.values())))
            result.epoch_seconds.append(time.perf_counter() - epoch_start)
            if config.verbose:  # pragma: no cover - informational
                print(
                    f"epoch {epoch:3d} loss {result.train_losses[-1]:.4f} "
                    f"val-MAPE {mean_score:.2f}%"
                )
            if mean_score < best_score - 1e-6:
                best_score = mean_score
                best_state = self.model.state_dict()
                result.best_epoch = epoch
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= config.patience:
                    break
        self.model.load_state_dict(best_state)
        result.validation_mape = self.evaluate(validation_samples or train_samples)
        if test_samples:
            result.test_mape = self.evaluate(test_samples)
        return result

    # ------------------------------------------------------------------ #
    # inference / evaluation
    # ------------------------------------------------------------------ #
    def predict(
        self,
        samples: list[GraphSample],
        *,
        max_batch_nodes: int | None = None,
        cache: bool = True,
    ) -> dict[str, np.ndarray]:
        """Predictions in original (unscaled) units for each target.

        All samples run through one disjoint-union forward pass;
        ``max_batch_nodes`` bounds the union size (samples are split into
        successive forward passes once the budget is exceeded), keeping
        whole-design-space batches memory-safe.  ``cache=False`` keeps
        one-shot groupings that can never recur out of the batch cache;
        budget-chunked calls never cache regardless (the batched DSE engine
        hands in fresh groupings every sweep).
        """
        if not samples:
            return {name: np.zeros(0) for name in self.target_names}
        self.model.eval()
        if max_batch_nodes is None:
            chunks = [samples]
        else:
            chunks = chunk_by_node_budget(samples, max_batch_nodes)
        collected: list[dict[str, np.ndarray]] = []
        # batches are encoded in the trainer's tier so a float32 model gets
        # float32 unions (float64 — the default — is bit-identical to before)
        with precision(self.precision):
            for chunk in chunks:
                batch = self.prepare_batch(
                    chunk, cache=cache and max_batch_nodes is None
                )
                outputs = self.model(batch)
                collected.append(
                    {
                        name: outputs[name].numpy().reshape(-1)
                        for name in self.target_names
                    }
                )
        return {
            name: self.target_scalers[name].inverse(
                np.concatenate([part[name] for part in collected])
            )
            for name in self.target_names
        }

    def evaluate(self, samples: list[GraphSample]) -> dict[str, float]:
        """Per-target MAPE (%) over ``samples``."""
        if not samples:
            return {name: 0.0 for name in self.target_names}
        predictions = self.predict(samples)
        scores = {}
        for name in self.target_names:
            truth = np.array([s.targets.get(name, 0.0) for s in samples])
            scores[name] = mape(predictions[name], truth)
        return scores


__all__ = ["TrainingConfig", "TrainingResult", "GraphRegressorTrainer"]
