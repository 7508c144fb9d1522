"""Tests for sharded multi-worker DSE (`repro.dse.sharding`).

Covers the three layers of the subsystem's guarantee separately:

* partitioning — balance, coverage and determinism of both shard strategies;
* the worker/coordinator protocol — equivalence with the single-process
  batched engine, crash recovery mid-shard, spawn-safety;
* the deterministic Pareto merge — the merged front is bit-identical to a
  single front fed every prediction (the pure-merge property tests live in
  ``test_pareto.py``).
"""

from __future__ import annotations

import pytest

from repro.core import HierarchicalQoRModel, save_model
from repro.dse import (
    DesignSpace,
    ShardedExplorer,
    fronts_bit_equal,
    partition_space,
    predicted_front,
)
from repro.dse.sharding import SHARD_STRATEGIES, ShardSpec
from repro.nn.autograd import blas_threads
from repro.testing import FaultPlan, WorkerFault


class TestDesignSpace:
    def test_stable_config_ids(self, fir_space):
        assert [cid for cid, _ in fir_space.items()] == list(range(len(fir_space)))
        assert fir_space.config(3) is fir_space.configs[3]
        assert fir_space.key_of(3) == fir_space.configs[3].key()

    def test_from_kernel_deterministic(self):
        a = DesignSpace.from_kernel("fir", 12, seed=5)
        b = DesignSpace.from_kernel("fir", 12, seed=5)
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_pickle_roundtrip_drops_lowered_ir(self, fir_space):
        import pickle

        fir_space.function()  # populate the lazy IR
        restored = pickle.loads(pickle.dumps(fir_space))
        assert restored._function is None
        assert [c.key() for c in restored] == [c.key() for c in fir_space]
        assert restored.function().name == fir_space.function().name

    def test_from_source(self):
        space = DesignSpace.from_source(
            "void scale(int a[16]) { int i;"
            " for (i = 0; i < 16; i++) { a[i] = 2 * a[i]; } }",
            8,
        )
        assert space.kernel == "scale"
        assert len(space) >= 1


class TestPartitioning:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_covers_every_config_exactly_once(self, fir_space, strategy):
        shards = partition_space(fir_space, 3, strategy)
        all_ids = sorted(cid for shard in shards for cid in shard.config_ids)
        assert all_ids == list(range(len(fir_space)))

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_balanced_within_one(self, fir_space, strategy):
        for num_shards in (2, 3, 5):
            shards = partition_space(fir_space, num_shards, strategy)
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_deterministic(self, fir_space, strategy):
        first = partition_space(fir_space, 4, strategy)
        second = partition_space(fir_space, 4, strategy)
        assert first == second

    def test_config_ids_sorted_within_shard(self, fir_space):
        for shard in partition_space(fir_space, 3, "pragma-locality"):
            assert list(shard.config_ids) == sorted(shard.config_ids)

    def test_more_shards_than_configs_drops_empty(self, fir_space):
        shards = partition_space(fir_space, len(fir_space) + 7, "round-robin")
        assert len(shards) == len(fir_space)
        assert all(len(shard) == 1 for shard in shards)

    def test_round_robin_assignment(self, fir_space):
        shards = partition_space(fir_space, 2, "round-robin")
        assert shards[0] == ShardSpec(0, tuple(range(0, len(fir_space), 2)))
        assert shards[1] == ShardSpec(1, tuple(range(1, len(fir_space), 2)))

    def test_invalid_inputs_rejected(self, fir_space):
        with pytest.raises(ValueError):
            partition_space(fir_space, 0, "round-robin")
        with pytest.raises(ValueError):
            partition_space(fir_space, 2, "alphabetical")

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_config_ids_subset_covered_exactly_once(self, fir_space, strategy):
        # dedup mode shards only class representatives: an arbitrary subset
        # of config ids must be covered exactly once, nothing else
        subset = [0, 3, 5, 8, 11]
        shards = partition_space(fir_space, 2, strategy, config_ids=subset)
        covered = sorted(cid for shard in shards for cid in shard.config_ids)
        assert covered == subset


class TestShardedExplorer:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_matches_single_process_engine(
        self, sharded_model_path, fir_space, reference, strategy
    ):
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, shard_strategy=strategy,
            chunk_size=5,
        )
        result = explorer.explore(fir_space)
        ref_predictions, ref_front = reference
        assert result.num_configs == len(fir_space)
        assert result.recovered_configs == 0
        assert result.predictions == ref_predictions
        # the merge itself adds zero error: merged front == one front fed
        # every streamed prediction, bitwise
        stream_front = predicted_front(fir_space, result.predictions).points()
        assert [(p.key, p.objectives) for p in result.front] == [
            (p.key, p.objectives) for p in stream_front
        ]
        # and it is the same front the single-process engine selects
        assert fronts_bit_equal(ref_front, result.front)

    def test_single_worker_degenerates_gracefully(
        self, sharded_model_path, fir_space, reference
    ):
        result = ShardedExplorer(sharded_model_path, num_workers=1).explore(fir_space)
        assert result.num_workers == 1
        assert fronts_bit_equal(reference[1], result.front)

    def test_reports_and_cache_stats(self, sharded_model_path, fir_space):
        result = ShardedExplorer(
            sharded_model_path, num_workers=3, shard_strategy="pragma-locality"
        ).explore(fir_space)
        assert len(result.shards) == 3
        assert sum(shard.completed for shard in result.shards) == len(fir_space)
        assert not any(shard.failed for shard in result.shards)
        # aggregated counters cover every worker's sweep
        assert result.cache_stats["memoized_predictions"] == len(fir_space)
        assert result.cache_stats["unit_misses"] > 0
        assert result.configs_per_second > 0

    def test_worker_crash_mid_shard_is_recovered(
        self, sharded_model_path, fir_space, reference
    ):
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, shard_strategy="round-robin",
            chunk_size=2,
            fault_plan=FaultPlan(workers={0: WorkerFault(kill_after_configs=2)}),
        )
        result = explorer.explore(fir_space)
        crashed = result.shards[0]
        assert crashed.failed
        assert crashed.recovered > 0
        assert crashed.completed + crashed.recovered == crashed.num_configs
        assert result.recovered_configs == crashed.recovered
        # every configuration still got a prediction and the front is intact
        assert len(result.predictions) == len(fir_space)
        assert fronts_bit_equal(reference[1], result.front)

    def test_worker_crash_before_any_result(
        self, sharded_model_path, fir_space, reference
    ):
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, shard_strategy="round-robin",
            fault_plan=FaultPlan(workers={1: WorkerFault(kill_after_configs=0)}),
        )
        result = explorer.explore(fir_space)
        crashed = result.shards[1]
        assert crashed.failed and crashed.completed == 0
        assert crashed.recovered == crashed.num_configs
        assert fronts_bit_equal(reference[1], result.front)

    def test_spawn_context_is_safe(
        self, sharded_model_path, fir_space, reference
    ):
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, mp_context="spawn"
        )
        result = explorer.explore(fir_space)
        assert result.mp_context == "spawn"
        assert result.recovered_configs == 0
        assert result.predictions == reference[0]
        assert fronts_bit_equal(reference[1], result.front)

    def test_missing_model_fails_before_spawning(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedExplorer(tmp_path / "nope.npz", num_workers=2)

    def test_untrained_model_rejected(self, tmp_path):
        path = tmp_path / "untrained.npz"
        save_model(HierarchicalQoRModel(), path, warm_caches=False)
        with pytest.raises(ValueError, match="no trained global model"):
            ShardedExplorer(path, num_workers=2)

    def test_invalid_parameters_rejected(self, sharded_model_path):
        with pytest.raises(ValueError):
            ShardedExplorer(sharded_model_path, num_workers=0)
        with pytest.raises(ValueError):
            ShardedExplorer(sharded_model_path, shard_strategy="nope")

def skewed_partition(space, num_shards):
    """Deliberately imbalanced shards: shard 0 owns ~70% of the space."""
    count = len(space)
    head = max(1, int(count * 0.7))
    blocks = [tuple(range(head))]
    rest = list(range(head, count))
    per = max(1, -(-len(rest) // max(1, num_shards - 1))) if rest else 0
    for index in range(num_shards - 1):
        block = tuple(rest[index * per:(index + 1) * per])
        if block:
            blocks.append(block)
    from repro.dse.sharding import ShardSpec

    return [
        ShardSpec(shard_id=index, config_ids=block)
        for index, block in enumerate(blocks)
    ]


class TestWorkStealing:
    def test_matches_single_process_engine(
        self, sharded_model_path, fir_space, reference
    ):
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=3,
            work_stealing=True,
        )
        result = explorer.explore(fir_space)
        ref_predictions, ref_front = reference
        assert result.work_stealing
        assert result.recovered_configs == 0
        assert result.predictions == ref_predictions
        # merged front == one front fed every streamed prediction, bitwise
        stream_front = predicted_front(fir_space, result.predictions).points()
        assert [(p.key, p.objectives) for p in result.front] == [
            (p.key, p.objectives) for p in stream_front
        ]
        assert fronts_bit_equal(ref_front, result.front)
        # every delivered configuration is attributed to some worker
        assert sum(shard.completed for shard in result.shards) == len(fir_space)

    def test_skewed_partition_is_rebalanced(
        self, sharded_model_path, fir_space, reference
    ):
        # worker 0 holds the first chunk it pulls for a second, so the
        # chunks the skewed shard strands behind it must go to worker 1
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=2,
            work_stealing=True, partitioner=skewed_partition,
            fault_plan=FaultPlan(workers={
                0: WorkerFault(stall_before_chunk=0, stall_seconds=1.0),
            }),
        )
        result = explorer.explore(fir_space)
        assert result.recovered_configs == 0
        assert fronts_bit_equal(reference[1], result.front)
        # the queue spreads the skewed shard: no worker scores everything
        completed = sorted(shard.completed for shard in result.shards)
        assert completed[0] > 0

    def test_worker_crash_mid_stream_is_recovered(
        self, sharded_model_path, fir_space, reference
    ):
        # a single stealing worker makes the crash deterministic: it scores
        # one chunk, hard-exits popping the second, and the coordinator
        # must recover everything it never delivered
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=1, chunk_size=2,
            work_stealing=True,
            fault_plan=FaultPlan(workers={0: WorkerFault(kill_after_configs=2)}),
        )
        result = explorer.explore(fir_space)
        crashed = result.shards[0]
        assert crashed.failed
        # the scored chunk may or may not have been flushed before the hard
        # exit (os._exit flushes nothing); either way every configuration
        # the coordinator never saw is recovered in-process and attributed
        # to the trailing coordinator report entry
        assert crashed.completed in (0, 2)
        assert result.recovered_configs == len(fir_space) - crashed.completed
        coordinator = result.shards[-1]
        assert coordinator.completed == 0
        assert coordinator.recovered == result.recovered_configs
        assert len(result.predictions) == len(fir_space)
        assert fronts_bit_equal(reference[1], result.front)

    def test_whole_fleet_crash_is_recovered(
        self, sharded_model_path, fir_space, reference
    ):
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=2,
            work_stealing=True,
            fault_plan=FaultPlan(workers={
                0: WorkerFault(kill_after_configs=0),
                1: WorkerFault(kill_after_configs=0),
            }),
        )
        result = explorer.explore(fir_space)
        worker_reports = result.shards[:result.num_workers]
        assert all(shard.failed for shard in worker_reports)
        assert result.recovered_configs == len(fir_space)
        assert result.shards[-1].recovered == len(fir_space)
        assert fronts_bit_equal(reference[1], result.front)

    def test_spawn_context_is_safe(
        self, sharded_model_path, fir_space, reference
    ):
        result = ShardedExplorer(
            sharded_model_path, num_workers=2, mp_context="spawn",
            work_stealing=True, chunk_size=4,
        ).explore(fir_space)
        assert result.mp_context == "spawn"
        assert result.recovered_configs == 0
        assert fronts_bit_equal(reference[1], result.front)


class TestOneBlasThread:
    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_every_worker_reports_one_blas_thread(
        self, sharded_model_path, fir_space, work_stealing
    ):
        if blas_threads() is None:
            pytest.skip("no OpenBLAS loaded")
        result = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=3,
            work_stealing=work_stealing,
        ).explore(fir_space)
        assert result.recovered_configs == 0
        assert [shard.cache_stats["blas_threads"] for shard in result.shards] == [1, 1]
        assert result.cache_stats["blas_threads"] == 2


class TestOversubscribedQueues:
    """More workers than a 2-core runner has cores, both queue topologies."""

    def test_four_workers_deliver_every_chunk_once(
        self, sharded_model_path, fir_space, reference
    ):
        import multiprocessing

        # the stall timeout bounds every wait: a hung queue surfaces as
        # recovered work, which the assertions below reject
        fixed, stealing = (
            ShardedExplorer(
                sharded_model_path, num_workers=4, chunk_size=2,
                work_stealing=work_stealing, worker_timeout=60.0,
            ).explore(fir_space)
            for work_stealing in (False, True)
        )
        # bit-equal across topologies and to the single-process engine
        assert fixed.predictions == stealing.predictions == reference[0]
        assert fronts_bit_equal(fixed.front, stealing.front)
        num_classes = fir_space.dedup().num_classes
        for result in (fixed, stealing):
            assert result.num_workers == 4
            assert sum(shard.completed for shard in result.shards) == num_classes
            assert result.recovered_configs == 0
            assert fronts_bit_equal(reference[1], result.front)
        assert not multiprocessing.active_children()


@pytest.fixture(scope="session")
def dedup_space():
    """A space with real duplicate designs (stencil3d: 32 configs collapse
    to fewer effective-directive equivalence classes)."""
    return DesignSpace.from_kernel("stencil3d", 32, seed=5)


@pytest.fixture(scope="session")
def dedup_sharded_run(sharded_model_path, dedup_space):
    """One clean sharded dedup sweep, the reference for the bit-equality
    differentials (every comparison run uses the same fleet shape)."""
    return ShardedExplorer(
        sharded_model_path, num_workers=2, chunk_size=8
    ).explore(dedup_space)


class TestDedupAlgebra:
    """The DesignSpace dedup algebra and its sharded-engine guarantees.

    With canonicalization every process scores one representative per
    equivalence class, and a prediction does not depend on its batch, so
    sharded sweeps are **bit-identical** to each other and to the
    single-process engine (see the module docstring of
    ``repro.dse.sharding``).
    """

    def test_classes_partition_the_space(self, dedup_space):
        deduped = dedup_space.dedup()
        assert 0 < deduped.num_classes < len(dedup_space)  # real duplicates
        assert deduped.dedup_ratio > 1.0
        all_members = sorted(
            member for cls in deduped.classes for member in cls.members
        )
        assert all_members == list(range(len(dedup_space)))
        for cls in deduped.classes:
            assert cls.representative == min(cls.members)
            assert deduped.class_of(cls.representative) is cls
        signatures = [cls.signature for cls in deduped.classes]
        assert len(set(signatures)) == len(signatures)
        # classes are ordered by representative id: deterministic output
        reps = [cls.representative for cls in deduped.classes]
        assert reps == sorted(reps)

    def test_dedup_deterministic(self, dedup_space):
        first = dedup_space.dedup()
        second = DesignSpace.from_kernel("stencil3d", 32, seed=5).dedup()
        assert [
            (cls.signature, cls.members) for cls in first.classes
        ] == [(cls.signature, cls.members) for cls in second.classes]

    def test_fan_out_copies_and_partial_sweeps(self, dedup_space):
        deduped = dedup_space.dedup()
        reps = deduped.representative_ids()
        predictions = {rid: {"latency": float(rid)} for rid in reps}
        full = deduped.fan_out(predictions)
        assert sorted(full) == list(range(len(dedup_space)))
        for cls in deduped.classes:
            for member in cls.members:
                assert full[member] == predictions[cls.representative]
                # per-member copies: consumers can never alias each other
                assert full[member] is not predictions[cls.representative]
        # representatives missing from a partial sweep fan out partially
        partial = deduped.fan_out({reps[0]: {"latency": 1.0}})
        assert sorted(partial) == sorted(deduped.classes[0].members)

    def test_members_predict_bit_identically(
        self, small_trained_model, dedup_space
    ):
        # full sweep and representative sweep + fan-out, both from cold
        # caches in one process, must agree bit-for-bit — duplicates
        # resolve to one canonical signature before any float is computed
        model = small_trained_model
        function = dedup_space.function()
        model.clear_inference_caches()
        full = model.predict_batch(function, list(dedup_space.configs))
        deduped = dedup_space.dedup()
        reps = deduped.representative_ids()
        model.clear_inference_caches()
        rep_predictions = model.predict_batch(
            function, [dedup_space.config(rid) for rid in reps]
        )
        fanned = deduped.fan_out(dict(zip(reps, rep_predictions)))
        fan_list = [fanned[cid] for cid in range(len(dedup_space))]
        assert full == fan_list
        assert fronts_bit_equal(
            predicted_front(dedup_space, full).points(),
            predicted_front(dedup_space, fan_list).points(),
        )
        model.clear_inference_caches()

    def test_sharded_dedup_matches_exhaustive(
        self, sharded_model_path, dedup_space, dedup_sharded_run
    ):
        deduped_run = dedup_sharded_run
        exhaustive_run = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=8, dedup=False
        ).explore(dedup_space)
        assert deduped_run.dedup and not exhaustive_run.dedup
        assert deduped_run.num_classes == dedup_space.dedup().num_classes
        assert deduped_run.dedup_ratio > 1.0
        assert exhaustive_run.num_classes == len(dedup_space)
        # every member got a prediction despite only reps being scored
        assert len(deduped_run.predictions) == len(dedup_space)
        assert all(p for p in deduped_run.predictions)
        # scoring every member instead of one per class changes the batches,
        # not a single bit of the predictions or the front
        assert exhaustive_run.predictions == deduped_run.predictions
        assert fronts_bit_equal(exhaustive_run.front, deduped_run.front)

    def test_repeated_sharded_runs_bit_identical(
        self, sharded_model_path, dedup_space, dedup_sharded_run
    ):
        second = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=8
        ).explore(dedup_space)
        assert dedup_sharded_run.predictions == second.predictions
        assert fronts_bit_equal(dedup_sharded_run.front, second.front)

    def test_fixed_vs_stealing_bit_identical(
        self, sharded_model_path, dedup_space, dedup_sharded_run
    ):
        stealing = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=8,
            work_stealing=True,
        ).explore(dedup_space)
        assert dedup_sharded_run.predictions == stealing.predictions
        assert fronts_bit_equal(dedup_sharded_run.front, stealing.front)

    def test_crash_recovery_bit_identical(
        self, sharded_model_path, dedup_space, dedup_sharded_run
    ):
        crashed = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=8,
            fault_plan=FaultPlan(workers={0: WorkerFault(kill_after_configs=1)}),
        ).explore(dedup_space)
        assert crashed.recovered_configs > 0
        assert dedup_sharded_run.predictions == crashed.predictions
        assert fronts_bit_equal(dedup_sharded_run.front, crashed.front)


class TestCoordinatorCleanup:
    """A coordinator-side failure must never leak live worker processes."""

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_coordinator_exception_leaks_no_workers(
        self, sharded_model_path, fir_space, monkeypatch, work_stealing
    ):
        spawned = {}

        def exploding_run_fleet(self, processes, results_queue):
            # fail exactly where the real coordinator would: after the
            # workers are live, before any of them has been reaped
            spawned.update(processes)
            raise RuntimeError("injected coordinator failure")

        monkeypatch.setattr(ShardedExplorer, "_run_fleet", exploding_run_fleet)
        explorer = ShardedExplorer(
            sharded_model_path, num_workers=2, chunk_size=2,
            work_stealing=work_stealing,
        )
        with pytest.raises(RuntimeError, match="injected coordinator failure"):
            explorer.explore(fir_space)
        # the finally-cleanup terminated and joined every spawned worker
        assert spawned
        assert not any(process.is_alive() for process in spawned.values())

    def test_keyboard_interrupt_mid_drain_leaks_no_workers(
        self, sharded_model_path, fir_space, monkeypatch
    ):
        spawned = {}

        def interrupted_run_fleet(self, processes, results_queue):
            spawned.update(processes)
            raise KeyboardInterrupt

        monkeypatch.setattr(
            ShardedExplorer, "_run_fleet", interrupted_run_fleet
        )
        explorer = ShardedExplorer(sharded_model_path, num_workers=2)
        with pytest.raises(KeyboardInterrupt):
            explorer.explore(fir_space)
        assert spawned
        assert not any(process.is_alive() for process in spawned.values())

    def test_cleanup_reads_back_chunks_no_worker_read(self):
        # a crashed worker's private queue can hold more chunk data than a
        # pipe buffers: the coordinator's feeder thread then blocks on the
        # full pipe until cleanup reads the queue back
        import multiprocessing
        import threading
        import time

        context = multiprocessing.get_context()
        results, tasks = context.Queue(), context.Queue()
        before = set(threading.enumerate())
        for _ in range(8):
            tasks.put(b"x" * 65536)
        tasks.put(None)
        ShardedExplorer._cleanup_fleet({}, results, tasks)
        deadline = time.monotonic() + 10.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not set(threading.enumerate()) - before

    def test_exception_after_fleet_retired_still_cleans_up(
        self, sharded_model_path, fir_space, monkeypatch
    ):
        import repro.dse.sharding as sharding_module

        def exploding_merge(fronts):
            raise RuntimeError("injected merge failure")

        monkeypatch.setattr(sharding_module, "merge_fronts", exploding_merge)
        explorer = ShardedExplorer(sharded_model_path, num_workers=2)
        with pytest.raises(RuntimeError, match="injected merge failure"):
            explorer.explore(fir_space)
        # workers had retired normally; cleanup must still be a clean no-op
        import multiprocessing

        assert not multiprocessing.active_children()


class TestWarmCaches:
    def test_warm_caches_serve_workers(
        self, small_trained_model, fir_space, tmp_path
    ):
        # warm the caches with the full sweep, persist, then explore sharded:
        # workers should answer from the memo without building graphs
        model = small_trained_model
        model.clear_inference_caches()
        model.predict_batch(fir_space.function(), list(fir_space.configs))
        path = tmp_path / "warm.npz"
        save_model(model, path, warm_caches=True)
        model.clear_inference_caches()
        result = ShardedExplorer(
            path, num_workers=2, warm_caches=True
        ).explore(fir_space)
        stats = result.cache_stats
        # every worker adopts the full persisted memo, so the fleet-wide sum
        # counts it once per worker; the load-bearing claim is zero builds
        assert stats["memoized_predictions"] >= len(fir_space)
        assert stats["unit_misses"] == 0 and stats["outer_misses"] == 0

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_write_back_makes_second_fleet_fully_warm(
        self, small_trained_model, fir_space, tmp_path, work_stealing
    ):
        # first fleet starts from a cold model file but banks what its
        # workers built; the second fleet then does zero cold graph builds
        path = tmp_path / "bank.npz"
        save_model(small_trained_model, path, warm_caches=False)
        first = ShardedExplorer(
            path, num_workers=2, warm_caches=True, write_back=True,
            work_stealing=work_stealing,
        ).explore(fir_space)
        assert first.write_back
        assert first.cache_stats["unit_misses"] > 0  # the cold run built
        stats = first.write_back_stats
        assert stats["deltas"] >= 1
        assert stats["new_predictions"] > 0
        second = ShardedExplorer(
            path, num_workers=2, warm_caches=True,
            work_stealing=work_stealing,
        ).explore(fir_space)
        warmed = second.cache_stats
        assert warmed["unit_misses"] == 0 and warmed["outer_misses"] == 0
        assert second.predictions == first.predictions

    def test_write_back_without_warm_adoption_still_banks(
        self, small_trained_model, fir_space, tmp_path
    ):
        # write_back does not require warm_caches: a cold fleet can still
        # bank its work for later warm runs
        path = tmp_path / "bank.npz"
        save_model(small_trained_model, path, warm_caches=False)
        result = ShardedExplorer(
            path, num_workers=2, write_back=True
        ).explore(fir_space)
        assert result.write_back_stats["deltas"] >= 1
        warm = ShardedExplorer(
            path, num_workers=2, warm_caches=True
        ).explore(fir_space)
        stats = warm.cache_stats
        assert stats["unit_misses"] == 0 and stats["outer_misses"] == 0
