"""Tests for saving and loading trained hierarchical models."""

import numpy as np
import pytest

from repro.core import (
    load_model,
    save_model,
)
from repro.frontend import LoopDirective, PragmaConfig
from repro.kernels import load_kernel

# the small_trained_model fixture lives in tests/conftest.py (session scope,
# explicit seeding) so the suite trains it exactly once


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_predictions(self, small_trained_model, tmp_path):
        path = save_model(small_trained_model, tmp_path / "model.npz")
        assert path.exists()
        restored = load_model(path)
        fir = load_kernel("fir")
        config = PragmaConfig.from_dicts(loops={"L0_0": LoopDirective(pipeline=True)})
        assert restored.predict(fir, config) == small_trained_model.predict(fir, config)

    def test_round_trip_preserves_architecture(self, small_trained_model, tmp_path):
        path = save_model(small_trained_model, tmp_path / "model.npz")
        restored = load_model(path)
        assert restored.config.conv_type == "gcn"
        assert restored.config.hidden == 16
        assert (restored.trainer_p is None) == (small_trained_model.trainer_p is None)
        assert (restored.trainer_np is None) == (small_trained_model.trainer_np is None)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "does_not_exist.npz")

    def test_save_creates_parent_directories(self, small_trained_model, tmp_path):
        path = save_model(small_trained_model, tmp_path / "nested" / "dir" / "m.npz")
        assert path.exists()


# --------------------------------------------------------------------------- #
# warm-cache persistence
# --------------------------------------------------------------------------- #
def _space(function, count=12, seed=1):
    from repro.dse.space import sample_design_space

    return sample_design_space(function, count, rng=np.random.default_rng(seed))


def _tamper_warm_blob(path, mutate):
    """Rewrite the archive with a mutated __warm_caches__ payload."""
    import json

    blob = dict(np.load(path, allow_pickle=False))
    payload = json.loads(bytes(blob["__warm_caches__"]).decode("utf-8"))
    mutate(payload)
    blob["__warm_caches__"] = np.frombuffer(
        json.dumps(payload).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **blob)


class TestWarmCachePersistence:
    def test_round_trip_with_warm_caches(self, small_trained_model, tmp_path):
        """Saved warm caches come back: same predictions, memo populated."""
        from repro.kernels import kernel_source
        from repro.ir import lower_source

        model = small_trained_model
        fir = load_kernel("fir")
        space = _space(fir)
        expected = model.predict_batch(fir, space)
        path = save_model(model, tmp_path / "warm.npz")

        restored = load_model(path)
        assert restored._prediction_cache  # memo travelled with the weights
        # a *re-lowered* function (fresh object, same source) must hit the
        # persisted memo — keys are content fingerprints, not object ids
        relowered = lower_source(kernel_source("fir"))
        served = restored.predict_batch(relowered, space)
        for want, got in zip(expected, served):
            for name in want:
                assert got[name] == want[name]

    def test_first_post_load_sweep_builds_no_graphs(
        self, small_trained_model, tmp_path
    ):
        """The whole point of the warm start: a reloaded service answers a
        seen sweep from the memo without constructing a single graph."""
        from repro.graph.construction import GraphBuilder
        from repro.kernels import kernel_source
        from repro.ir import lower_source

        model = small_trained_model
        fir = load_kernel("fir")
        space = _space(fir)
        model.predict_batch(fir, space)
        path = save_model(model, tmp_path / "warm.npz")

        restored = load_model(path)
        relowered = lower_source(kernel_source("fir"))
        builds_before = GraphBuilder.build_count
        restored.predict_batch(relowered, space)
        assert GraphBuilder.build_count == builds_before
        stats = restored._graph_cache.stats
        assert stats.unit_misses == 0 and stats.outer_misses == 0

    def test_save_without_warm_caches(self, small_trained_model, tmp_path):
        model = small_trained_model
        fir = load_kernel("fir")
        model.predict_batch(fir, _space(fir))
        path = save_model(model, tmp_path / "cold.npz", warm_caches=False)
        restored = load_model(path)
        assert not restored._prediction_cache

    def test_load_can_skip_warm_caches(self, small_trained_model, tmp_path):
        model = small_trained_model
        fir = load_kernel("fir")
        model.predict_batch(fir, _space(fir))
        path = save_model(model, tmp_path / "warm.npz")
        restored = load_model(path, warm_caches=False)
        assert not restored._prediction_cache

    def test_stale_version_blob_is_rejected(self, small_trained_model, tmp_path):
        model = small_trained_model
        fir = load_kernel("fir")
        space = _space(fir)
        expected = model.predict_batch(fir, space)
        path = save_model(model, tmp_path / "stale.npz")

        def bump_version(payload):
            payload["version"] = payload["version"] + 1

        _tamper_warm_blob(path, bump_version)
        restored = load_model(path)
        assert not restored._prediction_cache  # blob discarded...
        assert restored.predict_batch(fir, space) == expected  # ...bits intact

    def test_mismatched_weights_digest_is_rejected(
        self, small_trained_model, tmp_path
    ):
        model = small_trained_model
        fir = load_kernel("fir")
        model.predict_batch(fir, _space(fir))
        path = save_model(model, tmp_path / "digest.npz")

        def corrupt_digest(payload):
            payload["weights_digest"] = "0" * 16

        _tamper_warm_blob(path, corrupt_digest)
        restored = load_model(path)
        assert not restored._prediction_cache
        assert not restored._graph_cache._persisted_units

    def test_new_configs_hydrate_persisted_graphs(
        self, small_trained_model, tmp_path
    ):
        """A post-restart sweep over *new* configs of a seen kernel must
        hydrate the persisted graph templates (not rebuild them) and match a
        cold model bit for bit."""
        model = small_trained_model
        fir = load_kernel("fir")
        model.predict_batch(fir, _space(fir, count=10, seed=1))
        path = save_model(model, tmp_path / "hydrate.npz")

        restored = load_model(path)
        # a different sample overlaps some pragma deltas but misses the memo
        new_space = _space(fir, count=10, seed=99)
        served = restored.predict_batch(fir, new_space)
        stats = restored._graph_cache.stats
        assert stats.persisted_unit_loads + stats.persisted_outer_loads > 0

        cold = load_model(path, warm_caches=False)
        assert served == cold.predict_batch(fir, new_space)

    def test_changed_kernel_source_misses_cleanly(
        self, small_trained_model, tmp_path
    ):
        """Entries are fingerprint-keyed: a kernel whose source changed gets
        no stale cache hits, just fresh construction."""
        from repro.kernels import kernel_source
        from repro.ir import lower_source

        model = small_trained_model
        fir = load_kernel("fir")
        space = _space(fir)
        model.predict_batch(fir, space)
        path = save_model(model, tmp_path / "fp.npz")

        restored = load_model(path)
        changed = lower_source(
            kernel_source("fir").replace("void fir(", "void fir_v2(")
        )
        assert restored._prediction_cache
        results = restored.predict_batch(changed, space[:4])
        assert all(np.isfinite(v) for r in results for v in r.values())
        # the changed source built its own graphs instead of hydrating
        assert restored._graph_cache.stats.persisted_unit_loads == 0
        assert restored._graph_cache.stats.unit_misses > 0

    def test_insignificant_source_changes_share_the_memo(
        self, small_trained_model, tmp_path
    ):
        """Fingerprints hash the lowered IR, not the text: formatting-only
        edits still hit the persisted caches."""
        from repro.kernels import kernel_source
        from repro.ir import lower_source

        model = small_trained_model
        fir = load_kernel("fir")
        space = _space(fir)
        expected = model.predict_batch(fir, space)
        path = save_model(model, tmp_path / "ws.npz")

        restored = load_model(path)
        reformatted = lower_source(
            kernel_source("fir").replace("for (", "for (  ") + "\n\n"
        )
        served = restored.predict_batch(reformatted, space)
        assert restored._graph_cache.stats.unit_misses == 0
        for want, got in zip(expected, served):
            for name in want:
                assert got[name] == want[name]
