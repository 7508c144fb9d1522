"""Differential tests for the vectorized encoder and BatchCache unit tests.

The vectorized union encoder (:func:`repro.nn.data.make_batch`) must produce
**bit-identical** batches to the per-sample reference encoder
(``tests/reference/encoding.py``) for every registered kernel's graphs, for
code-less samples that intern their own optype column, and for the
degenerate shapes (empty graph, single node, unknown optypes, zero-width
features).  The epoch-level :class:`~repro.nn.data.BatchCache` must replay
identical groupings, miss cleanly on any regrouping or reordering, and stay
within its bounds; inference must not keep scored samples alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.pragmas import PragmaConfig
from repro.core.dataset import graph_to_sample
from repro.core.models import GlobalGNN
from repro.core.trainer import GraphRegressorTrainer, TrainingConfig
from repro.graph.construction import build_flat_graph
from repro.kernels import KERNEL_SOURCES, load_kernel
from repro.nn.autograd import SCATTER_INDEX_CACHE, _scatter_add
from repro.nn.data import (
    BatchCache,
    FeatureScaler,
    GraphSample,
    OptypeEncoder,
    make_batch,
)

from reference import batch_dense_x, make_batch_reference


def synthetic_sample(
    num_nodes: int, seed: int, feature_width: int = 3
) -> GraphSample:
    rng = np.random.default_rng(seed)
    optypes = [("add", "mul", "load", "store")[i % 4] for i in range(num_nodes)]
    features = rng.uniform(-5.0, 60.0, (num_nodes, feature_width))
    if num_nodes > 1:
        edge_index = np.stack([
            np.arange(num_nodes - 1, dtype=np.int64),
            np.arange(1, num_nodes, dtype=np.int64),
        ])
    else:
        edge_index = np.zeros((2, 0), dtype=np.int64)
    return GraphSample(
        optypes=optypes,
        features=features,
        edge_index=edge_index,
        targets={"lut": float(rng.uniform(1.0, 100.0))},
        loop_features=rng.uniform(0.0, 4.0, 5),
    )


def fitted(samples):
    """Encoder and feature scaler fitted on ``samples``."""
    encoder = OptypeEncoder().fit([s.optypes for s in samples])
    scaler = FeatureScaler().fit(
        [s.features for s in samples if s.features.size]
    )
    return encoder, scaler


def assert_batches_identical(reference, vectorized):
    # the vectorized union elides the one-hot block (optype codes + numeric
    # columns); materializing it must reproduce the reference matrix bit
    # for bit
    assert (reference.x == batch_dense_x(vectorized)).all()
    assert vectorized.x.shape[1] == reference.x.shape[1] - vectorized.onehot_dim
    # the vectorized union orders edges by destination; same multiset of
    # (src, dst) pairs, bit-identical values
    def canonical(edge_index):
        if edge_index.size == 0:
            return edge_index
        order = np.lexsort((edge_index[0], edge_index[1]))
        return edge_index[:, order]

    assert (
        canonical(reference.edge_index) == canonical(vectorized.edge_index)
    ).all()
    assert reference.edge_index.dtype == vectorized.edge_index.dtype
    assert reference.edge_index.shape == vectorized.edge_index.shape
    assert (reference.batch == vectorized.batch).all()
    assert (reference.loop_features == vectorized.loop_features).all()
    assert (reference.feature_totals == vectorized.feature_totals).all()
    assert reference.num_graphs == vectorized.num_graphs
    assert set(reference.targets) == set(vectorized.targets)
    for name in reference.targets:
        assert (reference.targets[name] == vectorized.targets[name]).all()


class TestVectorizedEncoderDifferential:
    def test_every_registered_kernel_encodes_identically(self):
        samples = [
            graph_to_sample(build_flat_graph(load_kernel(name), PragmaConfig()))
            for name in sorted(KERNEL_SOURCES)
        ]
        encoder, scaler = fitted(samples)
        reference = make_batch_reference(samples, encoder, scaler, ("lut",))
        vectorized = make_batch(samples, encoder, scaler, ("lut",))
        assert_batches_identical(reference, vectorized)

    def test_empty_graph_and_single_node_edge_cases(self):
        samples = [
            GraphSample(
                optypes=[], features=np.zeros((0, 3)),
                edge_index=np.zeros((2, 0), dtype=np.int64),
            ),
            synthetic_sample(1, seed=1),
            synthetic_sample(17, seed=2),
            GraphSample(
                optypes=["exotic_op"], features=np.zeros((1, 3)),
                edge_index=np.zeros((2, 0), dtype=np.int64),
            ),
        ]
        encoder, scaler = fitted(samples[1:3])  # exotic_op stays unknown
        reference = make_batch_reference(samples, encoder, scaler)
        vectorized = make_batch(samples, encoder, scaler)
        assert_batches_identical(reference, vectorized)
        unknown_code = encoder.dim - 1
        assert vectorized.optype_codes[-1] == unknown_code
        assert batch_dense_x(vectorized)[-1, unknown_code] == 1.0

    def test_empty_batch_and_zero_width_features(self):
        encoder = OptypeEncoder().fit([["add"]])
        scaler = FeatureScaler().fit([np.ones((2, 3))])
        assert_batches_identical(
            make_batch_reference([], encoder, scaler),
            make_batch([], encoder, scaler),
        )
        narrow = [
            GraphSample(
                optypes=["add", "mul"], features=np.zeros((2, 0)),
                edge_index=np.array([[0], [1]], dtype=np.int64),
            )
        ]
        assert_batches_identical(
            make_batch_reference(narrow, encoder, scaler),
            make_batch(narrow, encoder, scaler),
        )

    def test_scaler_variants_match(self):
        """The fused in-place scaling matches the reference transform for
        scalers with different statistics: fitted on the batch itself, on a
        subset (values outside the fitted range) and on constant columns
        (standard deviation clamped to 1e-6)."""
        samples = [synthetic_sample(n, seed=n) for n in (3, 9, 5)]
        encoder, own = fitted(samples)
        subset = FeatureScaler().fit([samples[0].features])
        constant = FeatureScaler().fit(
            [np.full_like(s.features, 7.0) for s in samples]
        )
        assert (constant.std_ == 1e-6).all()
        for scaler in (own, subset, constant):
            assert_batches_identical(
                make_batch_reference(samples, encoder, scaler),
                make_batch(samples, encoder, scaler),
            )

    def test_optype_code_memo_shared_lists(self):
        """Samples sharing one graph's optype table translate it once."""
        table = ["add", "mul"]
        a = GraphSample(
            optypes=["add", "mul", "add"], features=np.ones((3, 2)),
            edge_index=np.zeros((2, 0), dtype=np.int64),
            graph_codes=np.array([0, 1, 0]), graph_table=table,
        )
        b = GraphSample(
            optypes=["mul", "mul", "add"], features=2.0 * np.ones((3, 2)),
            edge_index=np.zeros((2, 0), dtype=np.int64),
            graph_codes=np.array([1, 1, 0]), graph_table=table,
        )
        encoder = OptypeEncoder().fit([table])
        first = encoder.encode_sample_indices(a)
        second = encoder.encode_sample_indices(b)
        assert len(encoder._table_memo) == 1  # one translation, shared
        assert (first == np.array([0, 1, 0])).all()
        assert (second == np.array([1, 1, 0])).all()

    @settings(max_examples=40, deadline=None)
    @given(
        optype_lists=st.lists(
            st.lists(st.sampled_from(["add", "mul", "load", "phi", "odd_op"]),
                     max_size=12),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_codeless_samples_intern_and_encode_like_reference(
        self, optype_lists, seed
    ):
        """A sample built without codes interns its own optype column and
        encodes bit-identically to the reference encoder."""
        rng = np.random.default_rng(seed)
        samples = []
        for optypes in optype_lists:
            sample = GraphSample(
                optypes=list(optypes),
                features=rng.uniform(-5.0, 60.0, (len(optypes), 3)),
                edge_index=np.zeros((2, 0), dtype=np.int64),
            )
            assert sample.graph_codes.dtype == np.int64
            assert len(set(sample.graph_table)) == len(sample.graph_table)
            assert [
                sample.graph_table[code] for code in sample.graph_codes
            ] == list(optypes)
            samples.append(sample)
        # the vocabulary leaves some drawn optypes unknown
        encoder = OptypeEncoder().fit([["add", "mul", "load"]])
        scaler = FeatureScaler().fit([rng.uniform(0.0, 50.0, (6, 3))])
        assert_batches_identical(
            make_batch_reference(samples, encoder, scaler),
            make_batch(samples, encoder, scaler),
        )


class TestScatterIndexCache:
    def test_flat_ids_memoized_per_array(self):
        ids = np.array([0, 2, 1, 2], dtype=np.int64)
        values = np.arange(12, dtype=np.float64).reshape(4, 3)
        expected = np.zeros((3, 3))
        np.add.at(expected, ids, values)
        assert (_scatter_add(ids, values, 3) == expected).all()
        first = SCATTER_INDEX_CACHE.flat_ids(ids, 3)
        second = SCATTER_INDEX_CACHE.flat_ids(ids, 3)
        assert first is second
        assert (_scatter_add(ids, values, 3) == expected).all()


class TestBatchCache:
    def test_hit_miss_and_stats(self):
        samples = [synthetic_sample(4, seed=i) for i in range(6)]
        encoder, scaler = fitted(samples)
        cache = BatchCache()
        group = samples[:3]
        assert cache.get(group) is None
        batch = make_batch(group, encoder, scaler)
        cache.put(group, batch)
        assert cache.get(group) is batch
        assert cache.get(list(group)) is batch  # list identity is irrelevant
        stats = cache.stats()
        assert stats["batch_cache_hits"] == 2
        assert stats["batch_cache_misses"] == 1
        assert stats["batch_cache_entries"] == 1

    def test_regrouping_and_reordering_miss_cleanly(self):
        samples = [synthetic_sample(4, seed=i) for i in range(4)]
        encoder, scaler = fitted(samples)
        cache = BatchCache()
        cache.put(samples[:2], make_batch(samples[:2], encoder, scaler))
        assert cache.get([samples[0], samples[2]]) is None  # regrouped
        assert cache.get(samples[:2][::-1]) is None          # reordered
        assert cache.get(samples[:3]) is None                # grown
        assert cache.get(samples[:1]) is None                # shrunk
        # the original grouping is still served
        assert cache.get(samples[:2]) is not None

    def test_entry_bound_evicts_lru(self):
        samples = [synthetic_sample(3, seed=i) for i in range(6)]
        encoder, scaler = fitted(samples)
        cache = BatchCache(max_entries=2)
        groups = [samples[0:2], samples[2:4], samples[4:6]]
        for group in groups:
            cache.put(group, make_batch(group, encoder, scaler))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(groups[0]) is None       # oldest was evicted
        assert cache.get(groups[2]) is not None

    def test_node_bound_evicts(self):
        samples = [synthetic_sample(10, seed=i) for i in range(4)]
        encoder, scaler = fitted(samples)
        cache = BatchCache(max_entries=10, max_cached_nodes=25)
        for index in range(4):
            group = [samples[index]]
            cache.put(group, make_batch(group, encoder, scaler))
        assert cache.stats()["batch_cache_nodes"] <= 25
        assert cache.evictions >= 1

    def test_clear_resets(self):
        samples = [synthetic_sample(2, seed=0)]
        encoder, scaler = fitted(samples)
        cache = BatchCache()
        cache.put(samples, make_batch(samples, encoder, scaler))
        cache.get(samples)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["batch_cache_hits"] == 0
        assert cache.get(samples) is None


class TestTrainerEpochCaching:
    def trained(self, samples, *, epochs: int = 4):
        config = TrainingConfig(
            epochs=epochs, batch_size=4, seed=0, patience=epochs,
        )
        trainer = GraphRegressorTrainer(None, ("lut",), config)
        trainer.fit_preprocessing(samples)
        trainer.model = GlobalGNN(
            in_features=trainer.input_dim(samples), hidden=8, num_layers=2,
            conv_type="graphsage", rng=np.random.default_rng(0),
        )
        result = trainer.train(samples)
        return trainer, result

    def test_static_groups_replay_unions(self):
        samples = [synthetic_sample(5, seed=i) for i in range(12)]
        trainer, result = self.trained(samples)
        stats = trainer._batch_cache.stats()
        # 3 minibatches + the monitoring union, replayed for epochs 2..4
        assert stats["batch_cache_hits"] >= 9
        assert len(result.epoch_seconds) == len(result.train_losses)

    def test_prepare_batch_returns_correct_union_after_regroup(self):
        samples = [synthetic_sample(4, seed=i) for i in range(4)]
        trainer = GraphRegressorTrainer(
            None, ("lut",), TrainingConfig(epochs=1, seed=0)
        )
        trainer.fit_preprocessing(samples)
        first = trainer.prepare_batch([samples[0], samples[1]])
        overlapping = trainer.prepare_batch([samples[0], samples[2]])
        assert overlapping is not first
        assert overlapping.targets["lut"][1] == pytest.approx(
            samples[2].targets["lut"]
        )
        reordered = trainer.prepare_batch([samples[1], samples[0]])
        assert (
            reordered.targets["lut"]
            == np.array([samples[1].targets["lut"], samples[0].targets["lut"]])
        ).all()

    def test_scored_sample_is_collectable(self):
        """Budgeted inference keeps no reference to the samples it scored,
        so a long-lived service does not pin one sample per design."""
        samples = [synthetic_sample(5, seed=i) for i in range(8)]
        trainer, _ = self.trained(samples, epochs=1)
        fresh = synthetic_sample(6, seed=99)
        alive = weakref.ref(fresh)
        trainer.predict([fresh], max_batch_nodes=1000)
        del fresh
        gc.collect()
        assert alive() is None
