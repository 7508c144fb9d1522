"""Fault injection for the sharded DSE fleet.

Crash-recovery claims are only as good as the crashes they were tested
against.  This module is the single place the repository manufactures
failures, so the differential tests (and the nightly chaos run) can assert
recovery *behaviour* — "a killed fleet resumes bit-equal" — instead of
inspecting recovery *code*:

* :class:`WorkerFault` — a picklable descriptor of one worker's misbehaviour
  (hard-kill after N configs or at chunk N, stall before a chunk, silently
  drop a chunk's result message).  The worker entrypoint in
  :mod:`repro.dse.sharding` consults it between chunks, which is exactly
  where a real crash/OOM-kill/queue loss would bite.
* :class:`FaultPlan` — a whole scenario: per-worker faults, an injected
  coordinator abort after N checkpoint saves, and a checkpoint-corruption
  mode to apply between runs.  Plans serialize to JSON so a failing
  randomized scenario can be uploaded as a CI artifact and replayed
  verbatim.
* :func:`corrupt_checkpoint_file` — the checkpoint-corruption primitives
  (truncate / bit-flip / wrong-model-digest) the loader's integrity checks
  are tested against.
* :func:`random_fault_plan` — seeded scenario generator for the nightly
  chaos step.

Monkeypatch points, for scenarios the descriptors do not cover: worker-side
faults travel as the pickled ``fault`` argument of
:func:`repro.dse.sharding.shard_worker`, the one entrypoint every worker
process runs under either queue topology (the coordinator looks the name up
when it starts each process, so patching the module attribute swaps in
arbitrary behaviour); coordinator-side faults hook
``ShardedExplorer._run_fleet`` (crash mid-drain) and the checkpoint writer's
``on_save`` callback (crash between persists, which is what
``abort_coordinator_after_checkpoints`` wires up).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from random import Random

#: checkpoint-corruption modes understood by :func:`corrupt_checkpoint_file`
CHECKPOINT_CORRUPTIONS: tuple[str, ...] = (
    "truncate", "bitflip", "wrong-model-digest",
)


class InjectedFault(RuntimeError):
    """An injected coordinator-side crash (never raised in production)."""


@dataclass(frozen=True)
class WorkerFault:
    """Misbehaviour descriptor for one worker process (picklable).

    All triggers are phrased in the worker's own chunk loop, the only
    place a worker yields control: ``kill_after_configs`` / and
    ``kill_after_chunks`` hard-exit the process (``os._exit``, nothing
    flushed — indistinguishable from a SIGKILL) once that many
    configurations / chunks are scored; ``stall_before_chunk`` sleeps
    ``stall_seconds`` before scoring that chunk (trips the coordinator's
    stall timeout); ``drop_chunks`` scores the listed chunk indices but
    silently discards their result messages (a lost queue message).
    """

    kill_after_configs: int | None = None
    kill_after_chunks: int | None = None
    stall_before_chunk: int | None = None
    stall_seconds: float = 600.0
    drop_chunks: tuple[int, ...] = ()

    def should_kill(self, chunk_index: int, completed_configs: int) -> bool:
        """Whether the worker must hard-exit before scoring this chunk."""
        if (
            self.kill_after_configs is not None
            and completed_configs >= self.kill_after_configs
        ):
            return True
        return (
            self.kill_after_chunks is not None
            and chunk_index >= self.kill_after_chunks
        )

    def stalls_at(self, chunk_index: int) -> bool:
        """Whether the worker must sleep before scoring this chunk."""
        return self.stall_before_chunk == chunk_index

    def drops(self, chunk_index: int) -> bool:
        """Whether this chunk's result message must be discarded."""
        return chunk_index in self.drop_chunks

    def as_dict(self) -> dict:
        """JSON-compatible form (used by :meth:`FaultPlan.to_json`)."""
        return {
            "kill_after_configs": self.kill_after_configs,
            "kill_after_chunks": self.kill_after_chunks,
            "stall_before_chunk": self.stall_before_chunk,
            "stall_seconds": self.stall_seconds,
            "drop_chunks": list(self.drop_chunks),
        }

    @staticmethod
    def from_dict(payload: dict) -> "WorkerFault":
        """Rebuild a descriptor stored with :meth:`as_dict`."""
        known = {f.name for f in fields(WorkerFault)}
        kwargs = {key: value for key, value in payload.items() if key in known}
        kwargs["drop_chunks"] = tuple(kwargs.get("drop_chunks", ()))
        return WorkerFault(**kwargs)


@dataclass
class FaultPlan:
    """One complete fault scenario for a sharded sweep.

    ``workers`` maps worker ids to :class:`WorkerFault` descriptors;
    ``abort_coordinator_after_checkpoints`` kills the coordinator (via
    :class:`InjectedFault` out of the checkpoint writer's ``on_save`` hook)
    after that many periodic checkpoint saves — the fleet dies mid-sweep
    with a valid checkpoint on disk, which is the resume scenario;
    ``corrupt_checkpoint`` names a :data:`CHECKPOINT_CORRUPTIONS` mode a
    test applies to the checkpoint file between the crash and the resume;
    ``seed`` records how a randomized plan was generated.
    """

    workers: dict[int, WorkerFault] = field(default_factory=dict)
    abort_coordinator_after_checkpoints: int | None = None
    corrupt_checkpoint: str | None = None
    seed: int | None = None

    def to_json(self) -> str:
        """Serialize the plan (CI artifact format, replayable verbatim)."""
        return json.dumps({
            "workers": {
                str(worker_id): worker_fault.as_dict()
                for worker_id, worker_fault in sorted(self.workers.items())
            },
            "abort_coordinator_after_checkpoints":
                self.abort_coordinator_after_checkpoints,
            "corrupt_checkpoint": self.corrupt_checkpoint,
            "seed": self.seed,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        """Rebuild a plan stored with :meth:`to_json`."""
        payload = json.loads(text)
        return FaultPlan(
            workers={
                int(worker_id): WorkerFault.from_dict(worker_fault)
                for worker_id, worker_fault in payload.get("workers", {}).items()
            },
            abort_coordinator_after_checkpoints=payload.get(
                "abort_coordinator_after_checkpoints"
            ),
            corrupt_checkpoint=payload.get("corrupt_checkpoint"),
            seed=payload.get("seed"),
        )

    def dump(self, path: str | Path) -> Path:
        """Write the plan to ``path`` (the chaos-run failure artifact)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def corrupt_checkpoint_file(
    path: str | Path, mode: str, *, rng: Random | None = None
) -> None:
    """Damage a checkpoint file in one of the supported ways.

    ``truncate`` keeps only the first half of the bytes (a crash mid-write
    outside the atomic rename — or a torn copy); ``bitflip`` flips one bit
    (silent storage corruption; position is seeded by ``rng``, middle of
    the file by default); ``wrong-model-digest`` rewrites the embedded
    model digest and re-seals the payload checksum, producing a checkpoint
    that is internally consistent but belongs to different weights.  The
    loader must discard all three with a warning.
    """
    path = Path(path)
    raw = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(raw[: len(raw) // 2])
    elif mode == "bitflip":
        position = (
            rng.randrange(len(raw)) if rng is not None else len(raw) // 2
        )
        damaged = bytearray(raw)
        damaged[position] ^= 0x01
        path.write_bytes(bytes(damaged))
    elif mode == "wrong-model-digest":
        from repro.dse.checkpoint import _payload_digest

        payload = json.loads(raw.decode("utf-8"))
        payload["body"]["model_digest"] = "0" * 16
        payload["digest"] = _payload_digest(payload["body"])
        path.write_text(json.dumps(payload), encoding="utf-8")
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r}; "
            f"available: {CHECKPOINT_CORRUPTIONS}"
        )


def random_fault_plan(
    seed: int,
    *,
    num_workers: int = 2,
    max_chunks: int = 8,
    checkpointing: bool = True,
) -> FaultPlan:
    """A seeded random fault scenario (the nightly chaos generator).

    Every worker independently draws one of: no fault, kill after a random
    number of configs, kill at a random chunk, or drop a random chunk's
    results.  With ``checkpointing`` the plan may additionally abort the
    coordinator after 1-2 checkpoint saves and corrupt the checkpoint in a
    random mode before the resume.  Stalls are excluded: they only convert
    into multi-second waits on the stall timeout without adding coverage
    beyond the dedicated stall test.
    """
    rng = Random(seed)
    workers: dict[int, WorkerFault] = {}
    for worker_id in range(num_workers):
        roll = rng.random()
        if roll < 0.35:
            continue  # this worker behaves
        if roll < 0.60:
            workers[worker_id] = WorkerFault(
                kill_after_configs=rng.randrange(0, max_chunks * 2)
            )
        elif roll < 0.85:
            workers[worker_id] = WorkerFault(
                kill_after_chunks=rng.randrange(0, max_chunks)
            )
        else:
            workers[worker_id] = WorkerFault(
                drop_chunks=(rng.randrange(0, max_chunks),)
            )
    abort_after = None
    corruption = None
    if checkpointing and rng.random() < 0.5:
        abort_after = rng.randrange(1, 3)
        if rng.random() < 0.5:
            corruption = rng.choice(CHECKPOINT_CORRUPTIONS)
    return FaultPlan(
        workers=workers,
        abort_coordinator_after_checkpoints=abort_after,
        corrupt_checkpoint=corruption,
        seed=seed,
    )


__all__ = [
    "CHECKPOINT_CORRUPTIONS", "InjectedFault", "WorkerFault", "FaultPlan",
    "corrupt_checkpoint_file", "random_fault_plan",
]
