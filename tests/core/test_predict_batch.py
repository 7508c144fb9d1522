"""Bit-identity of the batched cross-config inference engine.

``predict_batch`` must give the same bits as the stateless per-config
``predict`` for every propagation-layer type, including after cache
warm-up, and the batched explorer must select the same designs, at the same
ADRS, as the per-config one.  Only the standalone reference predictor, whose
arithmetic differs, is compared within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    QoRPredictor,
    TrainingConfig,
    build_design_instances,
)
from repro.dse import ModelGuidedExplorer, exhaustive_ground_truth
from repro.dse.space import sample_design_space
from repro.kernels import load_kernel

#: agreement with ``reference_predict``, whose GraphSAGE forward and
#: scatters are written differently
REFERENCE_TOLERANCE = 1e-9


def tiny_training_config() -> TrainingConfig:
    return TrainingConfig(epochs=2, batch_size=16, seed=0)


@pytest.fixture(scope="module")
def gemm_setup():
    function = load_kernel("gemm")
    train_configs = sample_design_space(function, 6, rng=np.random.default_rng(0))
    instances = build_design_instances({"gemm": function}, {"gemm": train_configs})
    space_configs = sample_design_space(function, 16, rng=np.random.default_rng(1))
    return function, instances, space_configs


def trained_model(instances, conv_type: str) -> HierarchicalQoRModel:
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type=conv_type, hidden=16, num_layers=2,
            training=tiny_training_config(),
        )
    )
    model.fit(instances)
    return model


def assert_predictions_close(reference, batched):
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert set(ref) == set(bat)
        for name in ref:
            assert bat[name] == pytest.approx(
                ref[name], rel=REFERENCE_TOLERANCE, abs=REFERENCE_TOLERANCE
            )


def _cache_sizes(model) -> dict:
    graphs = model._graph_cache
    return {
        "predictions": len(model._prediction_cache),
        "units": len(graphs._units),
        "outer": len(graphs._outer),
        "analysis": len(graphs.analysis),
        "canonical": len(graphs._canonical),
        "unit_samples": len(model._unit_sample_cache),
        "templates": len(model._outer_template_cache),
        "counters": graphs.stats.as_dict(),
    }


@pytest.mark.parametrize("conv_type", ["gcn", "gat", "graphsage", "transformer", "pna"])
def test_predict_batch_matches_sequential(gemm_setup, conv_type):
    function, instances, configs = gemm_setup
    model = trained_model(instances, conv_type)
    sequential = [model.predict(function, config) for config in configs]
    model.clear_inference_caches()
    batched = model.predict_batch(function, configs)
    assert batched == sequential
    # a warm second sweep (memoized predictions) gives the same bits
    assert model.predict_batch(function, configs) == sequential


def test_predict_batch_handles_duplicates_none_and_empty(gemm_setup):
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    assert model.predict_batch(function, []) == []
    mixed = [None, configs[0], configs[0], None]
    batched = model.predict_batch(function, mixed)
    baseline = model.predict(function, None)
    repeated = model.predict(function, configs[0])
    assert batched == [baseline, repeated, repeated, baseline]


def test_predict_batch_requires_training(gemm_setup):
    function, _, configs = gemm_setup
    model = HierarchicalQoRModel()
    with pytest.raises(RuntimeError):
        model.predict_batch(function, list(configs))


def test_fit_clears_memoized_predictions(gemm_setup):
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    model.predict_batch(function, configs)
    assert model._prediction_cache
    model.fit(instances)
    batched = model.predict_batch(function, configs)
    sequential = [model.predict(function, config) for config in configs]
    assert batched == sequential


def test_predict_is_stateless(gemm_setup):
    """``predict`` runs on throwaway caches: it leaves every inference
    cache of the model (and its counters) exactly as it found them."""
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    # fit leaves the inference caches empty
    assert _cache_sizes(model) == _cache_sizes(HierarchicalQoRModel())
    model.predict(function, configs[0])
    assert _cache_sizes(model) == _cache_sizes(HierarchicalQoRModel())
    model.predict_batch(function, configs[:8])
    warm = _cache_sizes(model)
    for config in configs:
        model.predict(function, config)
    assert _cache_sizes(model) == warm


def test_qor_predictor_batch_api(gemm_setup):
    function, instances, configs = gemm_setup
    predictor = QoRPredictor(
        HierarchicalModelConfig(
            conv_type="graphsage", hidden=16, num_layers=2,
            training=tiny_training_config(),
        )
    )
    predictor.fit_instances(instances)
    batched = predictor.predict_batch(function, list(configs))
    sequential = [predictor.predict(function, config) for config in configs]
    assert batched == sequential


def test_repeated_request_signature_is_not_canonicalized_again(monkeypatch):
    """`canonical_signature` answers a repeated request from the
    construction cache's canonical memo — the one `predict_batch`'s
    signatures share — instead of rewriting the configuration again."""
    import repro.graph.cache as graph_cache
    import repro.hls.directives as directives
    from repro.frontend import LoopDirective, PragmaConfig
    from repro.graph.hierarchy import decomposition_signature
    from repro.kernels import KERNEL_SOURCES

    calls = []
    original = directives.canonicalize_config

    def counting(function, config):
        calls.append(config.key())
        return original(function, config)

    monkeypatch.setattr(directives, "canonicalize_config", counting)
    monkeypatch.setattr(graph_cache, "canonicalize_config", counting, raising=False)
    predictor = QoRPredictor()
    source = KERNEL_SOURCES["bicg"]
    function = predictor._lowered(source)
    label = function.all_loops()[-1].label
    config = PragmaConfig.from_dicts(
        loops={label: LoopDirective(pipeline=True, unroll_factor=2)}
    )
    first = predictor.canonical_signature(source, config)
    assert predictor.canonical_signature(source, config) == first
    assert calls == [config.key()]
    # the batched path's signature reads the same memo entry
    decomposition_signature(function, config, predictor.model._graph_cache)
    assert calls == [config.key()]


def test_batched_explorer_matches_sequential_selection(gemm_setup):
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    space = exhaustive_ground_truth(function, list(configs))

    sequential = ModelGuidedExplorer(model.predict, name="seq").explore(function, space)
    model.clear_inference_caches()
    batched = ModelGuidedExplorer(
        model.predict, name="bat", predict_batch_fn=model.predict_batch
    ).explore(function, space)

    assert sequential.batched is False
    assert batched.batched is True
    assert sorted(batched.selected_keys) == sorted(sequential.selected_keys)
    assert batched.adrs == sequential.adrs
    assert batched.configs_per_second > 0
    assert batched.model_seconds > 0


def test_explorer_requires_some_predictor():
    with pytest.raises(ValueError):
        ModelGuidedExplorer()


def test_evaluate_uses_batched_path(gemm_setup):
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    scores = model.evaluate(instances)
    assert set(scores) == set(model.GLOBAL_TARGETS)
    for value in scores.values():
        assert np.isfinite(value)


def test_template_fast_path_matches_reference_pipeline(gemm_setup):
    """The outer-template encoding path must agree with the standalone
    reference predictor (uncached decomposition, per-node annotation, dense
    encoding, plain-numpy GraphSAGE) on a cold sweep, and repeat sweeps must
    be served from templates without new decompositions."""
    from reference import reference_predict

    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    reference = [reference_predict(model, function, config) for config in configs]
    model.clear_inference_caches()
    batched = model.predict_batch(function, configs)
    assert_predictions_close(reference, batched)
    stats = model.cache_stats()
    assert stats["outer_templates"] > 0
    # a second cold-ish call over fresh but delta-identical configs is
    # answered from the prediction memo / templates: no new outer builds
    before = model._graph_cache.stats.as_dict()["outer_misses"]
    again = model.predict_batch(function, list(configs))
    assert_predictions_close(reference, again)
    assert model._graph_cache.stats.as_dict()["outer_misses"] == before


def test_template_fast_path_without_prediction_memo(gemm_setup):
    """With the prediction memo emptied but templates retained, pending
    designs are re-scored through the template path (no decomposition) and
    still match the reference pipeline."""
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    sequential = [model.predict(function, config) for config in configs]
    model.clear_inference_caches()
    model.predict_batch(function, configs)          # populate templates
    model._prediction_cache.clear()                  # force re-scoring
    outer_builds_before = model._graph_cache.stats.as_dict()["outer_misses"]
    rescored = model.predict_batch(function, configs)
    assert rescored == sequential
    assert (
        model._graph_cache.stats.as_dict()["outer_misses"]
        == outer_builds_before
    )


def test_cache_stats_surface_every_layer(gemm_setup):
    """`cache_stats` reports the encoding/message-passing caches —
    scatter-index, edge-computation and batch counters — alongside the
    construction-cache stats."""
    function, instances, configs = gemm_setup
    model = trained_model(instances, "graphsage")
    model.clear_inference_caches()
    model.predict_batch(function, configs)
    stats = model.cache_stats()
    for key in (
        "unit_hits", "unit_misses", "outer_hits", "outer_misses",
        "memoized_predictions", "outer_templates",
        "scatter_index_hits", "scatter_index_misses",
        "scatter_index_evictions", "scatter_index_entries",
        "edge_cache_hits", "edge_cache_misses", "edge_cache_evictions",
        "edge_cache_entries",
        "batch_cache_hits", "batch_cache_misses", "batch_cache_evictions",
        "batch_cache_entries", "batch_cache_nodes",
    ):
        assert key in stats, key
        assert stats[key] >= 0
    # a batched sweep funnels every union through the scatter/edge caches
    # and keeps no per-sample encoding state
    assert stats["scatter_index_misses"] > 0
    assert stats["edge_cache_misses"] > 0
    assert "encoded_samples" not in stats
    # the per-worker aggregation view sums counter dicts key-wise
    from repro.core.predictor import QoRPredictor

    summed = QoRPredictor.aggregate_cache_stats([stats, stats])
    assert summed["edge_cache_misses"] == 2 * stats["edge_cache_misses"]
