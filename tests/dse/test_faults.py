"""Fault-injection tests for the sharded DSE fleet (`repro.testing.faults`).

The harness's own semantics (trigger predicates, JSON round-trips, seeded
generation) are tested directly; everything else is differential — a fleet
run under injected kills/stalls/drops/coordinator aborts must converge to
the *bit-equal* front of an unharmed run.  The final class is the nightly
chaos entrypoint: seeded random scenarios whose failing plans are dumped as
replayable JSON artifacts.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.dse import ShardedExplorer, fronts_bit_equal
from repro.testing import (
    CHECKPOINT_CORRUPTIONS,
    FaultPlan,
    InjectedFault,
    WorkerFault,
    corrupt_checkpoint_file,
    random_fault_plan,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def clean_run(sharded_model_path, fir_space):
    """An unharmed sharded sweep: the bit-equality target for every fault."""
    return ShardedExplorer(
        sharded_model_path, num_workers=2, chunk_size=2
    ).explore(fir_space)


def armed(fault: WorkerFault, work_stealing: bool) -> FaultPlan:
    """``fault`` on worker 0 — and, on the shared queue, on worker 1 too.

    A shared queue lets the unharmed worker take every chunk after worker
    0's first, so a fault keyed to worker 0's chunk count may never fire.
    Armed on both workers it fires every run: fir-12's 6 chunks of 2 leave
    one worker at least 3, past every chunk index these tests name.
    """
    workers = (0, 1) if work_stealing else (0,)
    return FaultPlan(workers={worker: fault for worker in workers})


def fleet(sharded_model_path, **kwargs):
    kwargs.setdefault("num_workers", 2)
    kwargs.setdefault("chunk_size", 2)
    return ShardedExplorer(sharded_model_path, **kwargs)


class TestWorkerFault:
    def test_kill_triggers(self):
        by_configs = WorkerFault(kill_after_configs=4)
        assert not by_configs.should_kill(0, 3)
        assert by_configs.should_kill(5, 4)
        by_chunks = WorkerFault(kill_after_chunks=2)
        assert not by_chunks.should_kill(1, 100)
        assert by_chunks.should_kill(2, 0)
        assert not WorkerFault().should_kill(99, 99)

    def test_stall_and_drop_triggers(self):
        fault = WorkerFault(stall_before_chunk=1, drop_chunks=(0, 3))
        assert fault.stalls_at(1) and not fault.stalls_at(0)
        assert fault.drops(0) and fault.drops(3) and not fault.drops(1)

    def test_dict_roundtrip(self):
        fault = WorkerFault(
            kill_after_configs=7, stall_before_chunk=2, stall_seconds=1.5,
            drop_chunks=(4,),
        )
        assert WorkerFault.from_dict(fault.as_dict()) == fault
        # unknown keys from a newer artifact format are ignored
        assert WorkerFault.from_dict({"kill_after_chunks": 1, "novel": True}) \
            == WorkerFault(kill_after_chunks=1)


class TestFaultPlan:
    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            workers={1: WorkerFault(kill_after_chunks=2), 0: WorkerFault()},
            abort_coordinator_after_checkpoints=2,
            corrupt_checkpoint="bitflip",
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        artifact = plan.dump(tmp_path / "artifacts" / "plan.json")
        assert FaultPlan.from_json(artifact.read_text(encoding="utf-8")) == plan

    def test_random_plan_seeded_and_valid(self):
        plans = [random_fault_plan(17, max_chunks=4) for _ in range(2)]
        assert plans[0] == plans[1]  # same seed, same scenario
        assert plans[0] != random_fault_plan(18, max_chunks=4)
        for seed in range(40):
            plan = random_fault_plan(seed, num_workers=3, max_chunks=4)
            assert set(plan.workers) <= {0, 1, 2}
            assert plan.seed == seed
            if plan.corrupt_checkpoint is not None:
                assert plan.corrupt_checkpoint in CHECKPOINT_CORRUPTIONS
                assert plan.abort_coordinator_after_checkpoints is not None

    def test_no_checkpointing_means_no_aborts(self):
        for seed in range(40):
            plan = random_fault_plan(seed, checkpointing=False)
            assert plan.abort_coordinator_after_checkpoints is None
            assert plan.corrupt_checkpoint is None


class TestWorkerFaultRecovery:
    """Killed/stalled/lossy workers: the front is still bit-equal."""

    def test_unharmed_fleet_matches_single_process(self, clean_run, reference):
        # the differential target itself is the single-process engine's
        # sweep, bit for bit
        assert clean_run.predictions == reference[0]
        assert fronts_bit_equal(clean_run.front, reference[1])

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_killed_worker_bit_equal(
        self, sharded_model_path, fir_space, clean_run, work_stealing
    ):
        plan = armed(WorkerFault(kill_after_chunks=1), work_stealing)
        result = fleet(
            sharded_model_path, work_stealing=work_stealing, fault_plan=plan
        ).explore(fir_space)
        assert result.recovered_configs > 0
        assert result.predictions == clean_run.predictions
        assert fronts_bit_equal(result.front, clean_run.front)

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_dropped_results_bit_equal(
        self, sharded_model_path, fir_space, clean_run, work_stealing
    ):
        plan = armed(WorkerFault(drop_chunks=(0,)), work_stealing)
        result = fleet(
            sharded_model_path, work_stealing=work_stealing, fault_plan=plan
        ).explore(fir_space)
        assert result.recovered_configs > 0
        assert result.predictions == clean_run.predictions
        assert fronts_bit_equal(result.front, clean_run.front)

    def test_stalled_worker_bit_equal(
        self, sharded_model_path, fir_space, clean_run
    ):
        # the stalled worker sleeps far past the stall timeout; the
        # coordinator reclaims its work and terminates it on the way out
        plan = FaultPlan(
            workers={0: WorkerFault(stall_before_chunk=0, stall_seconds=60.0)}
        )
        result = fleet(
            sharded_model_path, worker_timeout=1.0, fault_plan=plan
        ).explore(fir_space)
        assert result.recovered_configs > 0
        assert result.predictions == clean_run.predictions
        assert fronts_bit_equal(result.front, clean_run.front)


class TestCoordinatorAbortResume:
    """The headline guarantee: die mid-sweep, resume bit-equal."""

    @pytest.mark.parametrize("work_stealing", [False, True])
    def test_abort_then_resume_bit_equal(
        self, sharded_model_path, fir_space, clean_run, tmp_path, work_stealing
    ):
        path = tmp_path / "sweep.ckpt"
        plan = FaultPlan(abort_coordinator_after_checkpoints=1)
        with pytest.raises(InjectedFault, match="1 checkpoint saves"):
            fleet(
                sharded_model_path, work_stealing=work_stealing,
                checkpoint=path, checkpoint_interval=4, fault_plan=plan,
            ).explore(fir_space)
        assert path.exists()  # the abort fired *after* a persisted save
        resumed = fleet(
            sharded_model_path, work_stealing=work_stealing,
            checkpoint=path, resume=True,
        ).explore(fir_space)
        assert resumed.resumed_configs >= 4
        assert resumed.rescored_configs == 0
        assert resumed.predictions == clean_run.predictions
        assert fronts_bit_equal(resumed.front, clean_run.front)

    def test_abort_with_worker_kill_then_resume(
        self, sharded_model_path, fir_space, clean_run, tmp_path
    ):
        # compound failure: a worker dies, the recovery completes, and the
        # coordinator then dies itself — resume still reassembles the sweep
        path = tmp_path / "sweep.ckpt"
        plan = FaultPlan(
            workers={1: WorkerFault(kill_after_chunks=1)},
            abort_coordinator_after_checkpoints=1,
        )
        with pytest.raises(InjectedFault):
            fleet(
                sharded_model_path, checkpoint=path, checkpoint_interval=4,
                fault_plan=plan,
            ).explore(fir_space)
        resumed = fleet(
            sharded_model_path, checkpoint=path, resume=True
        ).explore(fir_space)
        assert resumed.rescored_configs == 0
        assert fronts_bit_equal(resumed.front, clean_run.front)


class TestChaos:
    """Seeded random scenarios — the nightly chaos step runs this with
    ``REPRO_CHAOS_SEED=$GITHUB_RUN_ID``; a failing plan is dumped to
    ``chaos-artifacts/`` for verbatim replay via ``FaultPlan.from_json``."""

    ROUNDS = 3

    def test_random_fault_plans_recover_bit_equal(
        self, sharded_model_path, fir_space, clean_run, tmp_path
    ):
        base_seed = int(os.environ.get("REPRO_CHAOS_SEED", "20240808"))
        for round_index in range(self.ROUNDS):
            seed = base_seed + round_index
            plan = random_fault_plan(seed, num_workers=2, max_chunks=4)
            path = tmp_path / f"chaos-{seed}.ckpt"
            try:
                self._run_scenario(sharded_model_path, fir_space, clean_run,
                                   plan, path, bool(round_index % 2))
            except Exception:
                artifact = Path("chaos-artifacts") / f"plan-{seed}.json"
                plan.dump(artifact)
                raise

    @staticmethod
    def _run_scenario(model_path, space, clean_run, plan, path, stealing):
        try:
            fleet(
                model_path, work_stealing=stealing, checkpoint=path,
                checkpoint_interval=4, fault_plan=plan,
            ).explore(space)
        except InjectedFault:
            pass  # coordinator died mid-sweep; a valid checkpoint remains
        if plan.corrupt_checkpoint is not None and path.exists():
            corrupt_checkpoint_file(path, plan.corrupt_checkpoint)
        resumed = fleet(
            model_path, work_stealing=stealing, checkpoint=path, resume=True
        ).explore(space)
        assert resumed.rescored_configs == 0
        assert resumed.predictions == clean_run.predictions
        assert fronts_bit_equal(resumed.front, clean_run.front)
