"""Tests for DSE sweep checkpointing (`repro.dse.checkpoint`).

Covers the file format in isolation (round-trip, digest sealing, binding
checks, the discard-with-warning contract for every corruption mode) and
the coordinator integration: a checkpointed sweep resumes bit-equal while
dispatching none of the already-scored work, and an unusable checkpoint
restarts the sweep from zero — warning, never crashing, never leaking
stale predictions.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core.serialization import model_weights_digest
from repro.dse import (
    CheckpointWriter,
    DesignSpace,
    ShardedExplorer,
    SweepCheckpoint,
    fronts_bit_equal,
    load_checkpoint,
    partition_space,
    save_checkpoint,
    space_fingerprint,
)
from repro.testing import (
    CHECKPOINT_CORRUPTIONS,
    FaultPlan,
    InjectedFault,
    corrupt_checkpoint_file,
)


@pytest.fixture()
def bindings(sharded_model_path, fir_space):
    """The (space, model, precision) identity a checkpoint binds to."""
    return {
        "expected_space": space_fingerprint(fir_space),
        "expected_model": model_weights_digest(sharded_model_path),
        "expected_precision": "float64",
    }


@pytest.fixture()
def saved(tmp_path, bindings):
    """A small valid checkpoint on disk, plus its path."""
    checkpoint = SweepCheckpoint(
        space_fingerprint=bindings["expected_space"],
        model_digest=bindings["expected_model"],
        precision="float64",
        scored={3: {"latency": 123.0625, "dsp": 4.0}, 1: {"latency": 7.5}},
    )
    path = tmp_path / "sweep.ckpt"
    save_checkpoint(path, checkpoint)
    return path, checkpoint


class TestSpaceFingerprint:
    def test_deterministic_across_enumerations(self):
        a = DesignSpace.from_kernel("fir", 12, seed=5)
        b = DesignSpace.from_kernel("fir", 12, seed=5)
        assert space_fingerprint(a) == space_fingerprint(b)

    def test_sensitive_to_space_identity(self, fir_space):
        other_seed = DesignSpace.from_kernel("fir", 12, seed=6)
        other_size = DesignSpace.from_kernel("fir", 11, seed=5)
        assert space_fingerprint(other_seed) != space_fingerprint(fir_space)
        assert space_fingerprint(other_size) != space_fingerprint(fir_space)


class TestRoundTrip:
    def test_roundtrip_is_exact(self, saved, bindings):
        path, checkpoint = saved
        loaded = load_checkpoint(path, **bindings)
        assert loaded is not None
        # float values survive bit-for-bit (repr-based JSON encoding)
        assert loaded.scored == checkpoint.scored
        assert loaded.complete is False
        assert loaded.model_digest == checkpoint.model_digest

    def test_complete_flag_persists(self, saved, bindings):
        path, checkpoint = saved
        checkpoint.complete = True
        save_checkpoint(path, checkpoint)
        assert load_checkpoint(path, **bindings).complete is True

    def test_missing_file_is_silent_none(self, tmp_path, bindings):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert load_checkpoint(tmp_path / "absent.ckpt", **bindings) is None

    def test_identical_progress_writes_identical_bytes(self, tmp_path, bindings):
        scored = {5: {"latency": 1.0}, 2: {"latency": 2.0}}
        paths = []
        for name, order in (("a", [5, 2]), ("b", [2, 5])):
            checkpoint = SweepCheckpoint(
                space_fingerprint=bindings["expected_space"],
                model_digest=bindings["expected_model"],
                precision="float64",
                scored={cid: scored[cid] for cid in order},
            )
            paths.append(save_checkpoint(tmp_path / name, checkpoint))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestDiscards:
    """Every unusable checkpoint is dropped with a RuntimeWarning."""

    @pytest.mark.parametrize("mode", CHECKPOINT_CORRUPTIONS)
    def test_corruptions_discarded_with_warning(self, saved, bindings, mode):
        path, _ = saved
        corrupt_checkpoint_file(path, mode)
        with pytest.warns(RuntimeWarning, match="discarding checkpoint"):
            assert load_checkpoint(path, **bindings) is None

    def test_unknown_corruption_mode_rejected(self, saved):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_checkpoint_file(saved[0], "scribble")

    def test_not_json_discarded(self, saved, bindings):
        path, _ = saved
        path.write_text("definitely not a checkpoint", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert load_checkpoint(path, **bindings) is None

    def test_wrong_space_discarded(self, saved, bindings):
        with pytest.warns(RuntimeWarning, match="fingerprint mismatch"):
            assert load_checkpoint(
                saved[0], **{**bindings, "expected_space": "f" * 16}
            ) is None

    def test_wrong_precision_discarded(self, saved, bindings):
        with pytest.warns(RuntimeWarning, match="precision tier"):
            assert load_checkpoint(
                saved[0], **{**bindings, "expected_precision": "float32"}
            ) is None

    def test_wrong_version_discarded(self, saved, bindings):
        from repro.dse.checkpoint import _payload_digest

        path, _ = saved
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["body"]["version"] = 999
        payload["digest"] = _payload_digest(payload["body"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="format version"):
            assert load_checkpoint(path, **bindings) is None


class TestCheckpointWriter:
    def test_interval_and_dedup(self, tmp_path, bindings):
        writer = CheckpointWriter(
            tmp_path / "w.ckpt",
            space_fingerprint=bindings["expected_space"],
            model_digest=bindings["expected_model"],
            precision="float64",
            interval=3,
        )
        for config_id in (0, 1, 0, 1, 0):  # repeats never count
            writer.record(config_id, {"latency": float(config_id)})
        assert writer.saves == 0
        writer.record(2, {"latency": 2.0})  # third *new* config triggers
        assert writer.saves == 1
        loaded = load_checkpoint(tmp_path / "w.ckpt", **bindings)
        assert sorted(loaded.scored) == [0, 1, 2]

    def test_on_save_hook_sees_running_count(self, tmp_path, bindings):
        counts = []
        writer = CheckpointWriter(
            tmp_path / "w.ckpt",
            space_fingerprint=bindings["expected_space"],
            model_digest=bindings["expected_model"],
            precision="float64",
            interval=1,
            on_save=counts.append,
        )
        writer.record(0, {"latency": 0.0})
        writer.record(1, {"latency": 1.0})
        writer.save(complete=True)
        assert counts == [1, 2, 3]


class TestCoordinatorIntegration:
    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_resume_of_complete_sweep_scores_nothing(
        self, sharded_model_path, fir_space, tmp_path, work_stealing
    ):
        path = tmp_path / "sweep.ckpt"
        first = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=4,
            checkpoint=path, work_stealing=work_stealing,
        ).explore(fir_space)
        assert path.exists()
        assert first.checkpoint_path == str(path)
        assert first.resumed_configs == 0 and first.rescored_configs == 0
        resumed = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=4,
            checkpoint=path, resume=True, work_stealing=work_stealing,
        ).explore(fir_space)
        # everything came from the checkpoint: no worker scored a thing
        assert resumed.resumed_configs == first.num_classes
        assert resumed.rescored_configs == 0
        assert sum(shard.completed for shard in resumed.shards) == 0
        assert resumed.predictions == first.predictions
        assert fronts_bit_equal(first.front, resumed.front)

    @pytest.mark.parametrize("work_stealing", [False, True])
    @pytest.mark.parametrize("interval", [3, 5])
    def test_periodic_save_never_splits_a_chunk(
        self, sharded_model_path, fir_space, tmp_path, bindings, interval,
        work_stealing,
    ):
        # an odd interval over 2-config chunks: a save due mid-chunk must
        # wait until the chunk is folded in whole
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(InjectedFault):
            ShardedExplorer(
                sharded_model_path, num_workers=2, chunk_size=2,
                checkpoint=path, checkpoint_interval=interval,
                work_stealing=work_stealing,
                fault_plan=FaultPlan(abort_coordinator_after_checkpoints=1),
            ).explore(fir_space)
        scored = set(load_checkpoint(path, **bindings).scored)
        assert scored
        shards = partition_space(
            fir_space, 2, "pragma-locality",
            config_ids=fir_space.dedup().representative_ids(),
        )
        for shard in shards:
            for offset in range(0, len(shard), 2):
                chunk = set(shard.config_ids[offset:offset + 2])
                assert chunk <= scored or not chunk & scored, sorted(chunk)

    def test_corrupt_checkpoint_restarts_from_zero(
        self, sharded_model_path, fir_space, tmp_path, reference
    ):
        path = tmp_path / "sweep.ckpt"
        ShardedExplorer(
            sharded_model_path, num_workers=2, checkpoint=path
        ).explore(fir_space)
        corrupt_checkpoint_file(path, "bitflip")
        with pytest.warns(RuntimeWarning, match="discarding checkpoint"):
            resumed = ShardedExplorer(
                sharded_model_path, num_workers=2, checkpoint=path,
                resume=True,
            ).explore(fir_space)
        # clean restart: nothing resumed, nothing stale, correct front
        assert resumed.resumed_configs == 0
        assert sum(shard.completed for shard in resumed.shards) > 0
        assert resumed.predictions == reference[0]
        assert fronts_bit_equal(reference[1], resumed.front)

    def test_model_retrain_invalidates_checkpoint(
        self, sharded_model_path, fir_space, tmp_path, small_trained_model
    ):
        from repro.core import save_model

        path = tmp_path / "sweep.ckpt"
        other_model = tmp_path / "other.npz"
        ShardedExplorer(
            sharded_model_path, num_workers=2, checkpoint=path
        ).explore(fir_space)
        # "different weights" stands in for a retrained model: rewrite the
        # digest the checkpoint is bound to rather than retraining
        corrupt_checkpoint_file(path, "wrong-model-digest")
        save_model(small_trained_model, other_model, warm_caches=False)
        with pytest.warns(RuntimeWarning, match="model weights digest"):
            resumed = ShardedExplorer(
                other_model, num_workers=2, checkpoint=path, resume=True
            ).explore(fir_space)
        assert resumed.resumed_configs == 0

    def test_resume_requires_checkpoint(self, sharded_model_path):
        with pytest.raises(ValueError, match="requires a checkpoint"):
            ShardedExplorer(sharded_model_path, resume=True)
