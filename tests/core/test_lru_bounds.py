"""Regression tests for the LRU-bounded inference memos.

A resident prediction service (``repro.serve``) keeps one predictor alive
across unboundedly many requests; before these bounds landed, the
source-lowering memo (``QoRPredictor._lowered_sources``) and the per-design
prediction memo (``HierarchicalQoRModel._prediction_cache``) grew without
limit under a churning workload.  These tests pin the bounded behaviour:
capacities are respected, eviction counters surface in ``cache_stats()``,
results stay correct when a single batch overflows the memo, and the
warm-cache persistence semantics are unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
)
from repro.core.lru import LRUDict
from repro.core.predictor import QoRPredictor
from repro.dse.space import sample_design_space
from repro.kernels import load_kernel


class TestLRUDict:
    def test_insertion_past_capacity_evicts_stalest(self):
        lru = LRUDict(2)
        lru["a"] = 1
        lru["b"] = 2
        lru["c"] = 3
        assert "a" not in lru
        assert lru.keys() == ["b", "c"]
        assert lru.evictions == 1

    def test_lookup_refreshes_recency(self):
        lru = LRUDict(2)
        lru["a"] = 1
        lru["b"] = 2
        assert lru["a"] == 1  # refresh "a": "b" is now stalest
        lru["c"] = 3
        assert "a" in lru and "b" not in lru

    def test_get_refreshes_recency(self):
        lru = LRUDict(2)
        lru["a"] = 1
        lru["b"] = 2
        assert lru.get("a") == 1
        lru["c"] = 3
        assert "b" not in lru and lru.get("missing", "x") == "x"

    def test_overwrite_does_not_evict(self):
        lru = LRUDict(2)
        lru["a"] = 1
        lru["b"] = 2
        lru["a"] = 10
        assert len(lru) == 2 and lru.evictions == 0
        assert lru["a"] == 10

    def test_unbounded_when_capacity_none(self):
        lru = LRUDict(None)
        for index in range(1000):
            lru[index] = index
        assert len(lru) == 1000 and lru.evictions == 0

    def test_clear_resets_entries_and_counter(self):
        lru = LRUDict(1)
        lru["a"] = 1
        lru["b"] = 2
        assert lru.evictions == 1
        lru.clear()
        assert len(lru) == 0 and lru.evictions == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUDict(0)


def _source(index: int) -> str:
    return (
        f"void k{index}(int a[16], int b[16]) {{ int i;"
        f" for (i = 0; i < 16; i++) {{ b[i] = a[i] + {index}; }} }}"
    )


class TestLoweredSourceBound:
    def test_lowering_memo_is_bounded(self):
        predictor = QoRPredictor(lowered_cache_capacity=2)
        functions = [predictor._lowered(_source(i)) for i in range(4)]
        assert len(predictor._lowered_sources) == 2
        assert predictor._lowered_sources.evictions == 2
        assert functions[0].name == "k0"

    def test_relowering_an_evicted_source_still_works(self):
        predictor = QoRPredictor(lowered_cache_capacity=1)
        first = predictor._lowered(_source(0))
        predictor._lowered(_source(1))  # evicts source 0
        again = predictor._lowered(_source(0))
        assert again is not first  # re-lowered, not the cached object
        assert again.name == first.name

    def test_cache_stats_surface_eviction_counter(self, trained_model):
        predictor = QoRPredictor(lowered_cache_capacity=1)
        predictor.model, _ = trained_model
        predictor._lowered(_source(0))
        predictor._lowered(_source(1))
        stats = predictor.cache_stats()
        assert stats["lowered_sources"] == 1
        assert stats["lowered_source_evictions"] == 1
        assert stats["prediction_cache_evictions"] >= 0


@pytest.fixture(scope="module")
def tiny_bounded_setup(tiny_training_instances):
    """A tiny trained model with a deliberately small prediction memo."""
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type="graphsage", hidden=8, seed=0,
            training=TrainingConfig(epochs=2, batch_size=16, seed=0),
        ),
        prediction_cache_capacity=4,
    )
    model.fit(tiny_training_instances, rng=np.random.default_rng(0))
    function = load_kernel("fir")
    configs = sample_design_space(function, 10, rng=np.random.default_rng(5))
    return model, function, configs


class TestPredictionMemoBound:
    def test_batch_larger_than_capacity_returns_correct_results(
        self, tiny_bounded_setup
    ):
        model, function, configs = tiny_bounded_setup
        model.clear_inference_caches()
        batched = model.predict_batch(function, configs)
        assert len(model._prediction_cache) <= 4
        assert model._prediction_cache.evictions > 0
        # the memo overflowed mid-batch, but every result must still have
        # the bits of the stateless per-config path
        assert batched == [model.predict(function, config) for config in configs]

    def test_eviction_counter_in_cache_stats(self, tiny_bounded_setup):
        model, function, configs = tiny_bounded_setup
        model.clear_inference_caches()
        model.predict_batch(function, configs)
        stats = model.cache_stats()
        assert stats["memoized_predictions"] <= 4
        assert stats["prediction_cache_evictions"] > 0

    def test_warm_cache_roundtrip_with_bounded_memo(self, tiny_bounded_setup):
        model, function, configs = tiny_bounded_setup
        model.clear_inference_caches()
        expected = model.predict_batch(function, configs)
        payload = model.export_warm_caches()
        assert len(payload["predictions"]) <= 4
        fresh = HierarchicalQoRModel(
            model.config, prediction_cache_capacity=4
        )
        fresh.trainer_p = model.trainer_p
        fresh.trainer_np = model.trainer_np
        fresh.trainer_g = model.trainer_g
        fresh.import_warm_caches(payload)
        assert len(fresh._prediction_cache) == len(payload["predictions"])
        # a model hydrated from the truncated memo still answers the whole
        # sweep correctly: retained entries replay bit-identically, evicted
        # ones are re-scored by the same trainers
        assert fresh.predict_batch(function, configs) == expected
