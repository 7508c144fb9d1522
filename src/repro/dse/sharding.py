"""Sharded multi-worker design-space exploration.

The batched inference engine (:meth:`HierarchicalQoRModel.predict_batch`)
scores a whole design space in one process; this module scales it across
worker **processes** with one engine:

1. :func:`partition_space` splits a :class:`~repro.dse.space.DesignSpace`
   into balanced shards (``round-robin`` or ``pragma-locality``), and the
   coordinator (:class:`ShardedExplorer`) cuts every shard into
   ``chunk_size`` chunks — the sweep's canonical **chunk layout**;
2. worker processes run :func:`shard_worker` (a module-level — hence
   spawn-safe — entrypoint): each sets its BLAS pool to one thread (the
   fleet parallelizes by process; a pool thread per worker would only
   compete with the other workers for the cores), bootstraps its *own*
   :class:`~repro.core.predictor.QoRPredictor` from a saved model file,
   re-lowers the kernel source, and drains chunks from a task queue through
   ``predict_batch``, streaming ``(config_id, prediction)`` pairs back.
   The queue topology is the only difference between the dispatch modes:
   by default every worker drains a private queue pre-filled with its
   shard's chunks; with ``work_stealing=True`` all workers drain one shared
   queue filled in shard order, so early finishers take the chunks a
   skewed partition would have stranded on a straggler;
3. the coordinator folds each worker's stream into a
   :class:`~repro.dse.pareto.ParetoFront` and merges the fronts with
   :func:`~repro.dse.pareto.merge_fronts`.

**Dedup mode.**  By default the coordinator first partitions the space into
HLS-equivalence classes (:meth:`~repro.dse.space.DesignSpace.dedup`):
configurations that canonicalize to the same effective form
(:func:`~repro.hls.directives.canonicalize_config`) predict bit-identically,
so only one *representative* per class — the member with the smallest config
id — is sharded and scored, and the coordinator fans each representative's
prediction back out to every class member.  The front needs no fan-out at
all: :class:`~repro.dse.pareto.ParetoFront` keeps the smallest config id on
exact objective ties, and every non-representative member has a larger id
than its (bit-identically-predicting) representative, so the front over
representatives *is* the front over the full space.  ``dedup=False``
restores the exhaustive sweep.

**Determinism guarantee.**  A sharded sweep returns predictions ``==`` to
single-process ``predict_batch`` and a front that is
:func:`~repro.dse.pareto.fronts_bit_equal` to :func:`predicted_front` over
them, whatever the shard count, strategy, chunk size, queue topology,
message order, crash recovery or resume.  Two facts make that hold: a
design's prediction does not depend on what it is batched with (every
forward product is batch-invariant, see "Batch invariance" in
``docs/ARCHITECTURE.md``) or on the BLAS pool size, and
:class:`~repro.dse.pareto.ParetoFront` is a pure function of the
``(objectives, config_id)`` multiset.  Workers load the same weights from
the same file, so this holds across processes on one BLAS build.

**Failure handling.**  A worker that dies mid-sweep (crash, OOM-kill) simply
stops streaming: the coordinator notices the process is gone without a
completion message, drains whatever the worker did deliver, and re-scores
every chunk no worker delivered in-process, so the sweep always completes
with the exact same front.  A lost chunk is charged to the queue it was on:
to that worker for a private queue, to one trailing coordinator report for
the shared queue.

**Checkpoint/resume.**  With ``checkpoint=PATH`` the coordinator persists
every scored prediction through :class:`~repro.dse.checkpoint.CheckpointWriter`
(atomic tmp+rename writes, digest-sealed, bound to the space fingerprint,
model weights digest and precision tier); ``resume=True`` folds a verified
checkpoint back in and dispatches only the not-yet-scored configurations.
Checkpointed predictions round-trip exactly through JSON's ``repr``-based
float encoding, so the resumed front is bit-equal to the uninterrupted one.
The fault-injection differential tests (``repro.testing.faults``) assert
exactly this for fleets killed, stalled and aborted mid-sweep under both
queue topologies.

**Warm-cache write-back.**  With ``write_back=True`` every worker ships the
construction-cache / prediction-memo entries *it* built (a bounded,
canonical-keyed delta — adopted entries are subtracted) back over the
result queue, and the coordinator merges all deltas into the model file
under the versioned warm-cache machinery of ``core.serialization``.  The
next fleet run over the same space adopts them and does zero cold graph
builds.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.predictor import QoRPredictor
from repro.core.serialization import load_model, model_weights_digest, save_model
from repro.dse.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CheckpointWriter,
    load_checkpoint,
    space_fingerprint,
)
from repro.dse.explorer import qor_objectives
from repro.dse.pareto import (
    DesignPoint,
    ParetoFront,
    fronts_bit_equal,
    merge_fronts,
)
from repro.dse.space import DesignSpace
from repro.flags import normalize_precision
from repro.graph.cache import GraphConstructionCache
from repro.graph.hierarchy import decomposition_signature
from repro.ir.builder import lower_source
from repro.nn.autograd import blas_threads
from repro.testing.faults import FaultPlan, InjectedFault, WorkerFault

#: the shard strategies understood by :func:`partition_space`
SHARD_STRATEGIES: tuple[str, ...] = ("round-robin", "pragma-locality")

#: configurations scored (and streamed) per worker chunk
DEFAULT_CHUNK_SIZE = 32

#: per-category bound on one worker's write-back delta.  Deltas are
#: canonical-keyed, so entries past the bound are not lost correctness-wise
#: — they are simply rebuilt by a later sweep instead of banked; the bound
#: keeps one queue message from ballooning on enormous spaces
WRITE_BACK_MAX_ENTRIES = 8192

#: end marker the coordinator reads its task queues back up to at cleanup
_DRAINED = "drained"

@dataclass(frozen=True)
class ShardSpec:
    """One shard of a design space: a stable id and the config ids it owns.

    ``config_ids`` are ids into the canonical order of the
    :class:`~repro.dse.space.DesignSpace` the shard was cut from, sorted
    ascending; every id of the space belongs to exactly one shard.
    """

    shard_id: int
    config_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.config_ids)


def _round_robin_blocks(
    config_ids: list[int], num_shards: int
) -> list[tuple[int, ...]]:
    """Deal the (sorted) config ids round-robin into ``num_shards`` piles."""
    return [
        tuple(config_ids[i::num_shards]) for i in range(num_shards)
    ]


def _pragma_locality_blocks(
    space: DesignSpace, num_shards: int, config_ids: list[int]
) -> list[tuple[int, ...]]:
    """Contiguous balanced blocks over the pragma-delta locality order.

    Configurations are ordered by their decomposition signature (the
    inner-unit and outer-graph cache keys of
    :func:`~repro.graph.hierarchy.decomposition_signature`), which places
    configurations that share pragma deltas — and therefore graph
    construction work — next to each other; cutting the order into
    contiguous blocks maximizes each worker's construction-cache hit rate.
    Signature computation builds no graphs, so sharding stays cheap.
    """
    cache = GraphConstructionCache()
    function = space.function()
    signatures = []
    for config_id in config_ids:
        outer_key, unit_keys = decomposition_signature(
            function, space.config(config_id), cache
        )
        signatures.append((unit_keys, outer_key, config_id))
    signatures.sort()
    order = [config_id for _, _, config_id in signatures]
    base, extra = divmod(len(order), num_shards)
    blocks: list[tuple[int, ...]] = []
    position = 0
    for index in range(num_shards):
        end = position + base + (1 if index < extra else 0)
        blocks.append(tuple(sorted(order[position:end])))
        position = end
    return blocks


def partition_space(
    space: DesignSpace,
    num_shards: int,
    strategy: str = "round-robin",
    *,
    config_ids: list[int] | None = None,
) -> list[ShardSpec]:
    """Partition a design space into at most ``num_shards`` balanced shards.

    Strategies:

    * ``round-robin`` — the i-th id (in ascending order) goes to shard
      ``i % num_shards``; cheap and delta-agnostic, sizes differ by at most
      one configuration;
    * ``pragma-locality`` — configurations sharing pragma deltas are grouped
      onto the same shard so each worker's construction cache sees maximal
      reuse (see :func:`_pragma_locality_blocks`); sizes differ by at most
      one configuration.

    ``config_ids`` restricts the partition to a subset of the space — the
    dedup mode shards only class representatives this way.  Default: every
    id.  Empty shards (more workers than configurations) are dropped.  The
    partition is deterministic: same space, ids, count and strategy — same
    shards.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; available: {SHARD_STRATEGIES}"
        )
    ids = sorted(config_ids) if config_ids is not None else list(range(len(space)))
    if strategy == "pragma-locality":
        blocks = _pragma_locality_blocks(space, num_shards, ids)
    else:
        blocks = _round_robin_blocks(ids, num_shards)
    return [
        ShardSpec(shard_id=index, config_ids=block)
        for index, block in enumerate(blocks)
        if block
    ]


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
def _bounded_warm_delta(predictor: QoRPredictor) -> dict:
    """The worker's write-back payload: newly warmed entries, bounded.

    Exports only the cache/memo entries this process built itself
    (``delta_only`` subtracts everything adopted from the model file) and
    truncates each category at :data:`WRITE_BACK_MAX_ENTRIES` — dict
    iteration order is insertion order, so the kept prefix is the
    deterministic earliest-built slice.
    """
    delta = predictor.model.export_warm_caches(delta_only=True)
    construction = delta.get("construction", {})
    return {
        "construction": {
            "units": construction.get("units", [])[:WRITE_BACK_MAX_ENTRIES],
            "outer": construction.get("outer", [])[:WRITE_BACK_MAX_ENTRIES],
        },
        "predictions": delta.get("predictions", [])[:WRITE_BACK_MAX_ENTRIES],
    }


def shard_worker(
    worker_id: int,
    model_path: str,
    source: str,
    warm_caches: bool,
    tasks: multiprocessing.Queue,
    results: multiprocessing.Queue,
    fault: WorkerFault | None = None,
    precision: str = "float64",
    write_back: bool = False,
) -> None:
    """Worker-process entrypoint: drain chunks from ``tasks`` until sentinel.

    Module-level (importable by name), with picklable arguments only, so it
    runs under any multiprocessing start method including ``spawn``.  The
    worker owns its whole pipeline: it loads a
    :class:`~repro.core.predictor.QoRPredictor` once from ``model_path``
    (optionally adopting the persisted warm caches) in the ``precision``
    tier, re-lowers ``source`` (deterministic, so cache fingerprints agree
    with every other process), and scores each ``[(config_id, config),
    ...]`` chunk it reads from ``tasks`` through ``predict_batch`` until it
    reads a ``None`` sentinel.  Whether ``tasks`` is private to this worker
    or shared by the fleet is the coordinator's choice; the worker cannot
    tell.  The construction cache, outer-graph sample templates and unit
    samples persist across chunks, so chunking costs no repeated graph
    building (the ``outer_templates`` counter in the streamed cache stats
    shows how many deltas each worker captured).

    The worker runs on one BLAS thread
    (:func:`~repro.nn.autograd.blas_threads`, set before the model loads);
    inference bits do not depend on the pool size, so a chunk it scores has
    the bits the coordinator's recovery would compute at the host's size.

    Messages on ``results`` (the only call made on it is ``put``):
    ``("results", worker_id, [(config_id, metrics), ...])`` per chunk, with
    ``write_back`` one ``("caches", worker_id, delta)`` carrying the
    bounded newly-warmed-cache delta, then ``("done", worker_id,
    cache_stats)`` — the predictor's counters plus the worker's
    ``blas_threads`` pool size where OpenBLAS is loaded; on an internal
    error, ``("error", worker_id, traceback_text)`` and a non-zero exit.
    ``fault`` is the injection hook
    (:class:`~repro.testing.faults.WorkerFault`), consulted between chunks
    with chunk indices counted in pull order (kill / stall / drop — a kill
    is ``os._exit``, nothing flushed, exactly like a real crash).
    """
    try:
        # the fleet parallelizes by process: a second BLAS pool thread per
        # worker only competes with the other workers for the cores
        blas_threads(1)
        predictor = QoRPredictor.load(
            model_path, warm_caches=warm_caches, precision=precision
        )
        function = lower_source(source)
        completed = 0
        chunk_index = 0
        chunk = tasks.get()
        while chunk is not None:
            if fault is not None and fault.should_kill(chunk_index, completed):
                os._exit(3)  # simulate a hard crash: nothing is flushed
            if fault is not None and fault.stalls_at(chunk_index):
                time.sleep(fault.stall_seconds)
            metrics_list = predictor.predict_batch(
                function, [config for _, config in chunk]
            )
            # Pull the next chunk before streaming this one, so no blocking
            # call sits between a put and the next kill check.  That narrows,
            # but does not close, the window in which a kill lands while the
            # feeder thread holds the result queue's cross-process write
            # lock: a preemption there longer than the interpreter's switch
            # interval still lets the feeder take the lock, and the other
            # workers then wedge until the stall timeout (an open fault of
            # the shared result queue, recorded in CHANGES.md)
            following = tasks.get()
            if fault is None or not fault.drops(chunk_index):
                results.put((
                    "results", worker_id,
                    [
                        (config_id, metrics)
                        for (config_id, _), metrics in zip(chunk, metrics_list)
                    ],
                ))
            completed += len(chunk)
            chunk_index += 1
            chunk = following
        if write_back:
            results.put(("caches", worker_id, _bounded_warm_delta(predictor)))
        stats = predictor.cache_stats()
        if (threads := blas_threads()) is not None:
            stats["blas_threads"] = threads
        results.put(("done", worker_id, stats))
    except BaseException:
        results.put(("error", worker_id, traceback.format_exc()))
        raise


#: kept for callers that look the work-stealing entrypoint up by this name;
#: both queue topologies run shard_worker
stealing_worker = shard_worker


# --------------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------------- #
@dataclass
class ShardReport:
    """What one task queue's work came to in a sharded sweep.

    One report per started worker, in start order (a fixed shard whose
    chunks a resumed checkpoint all covers starts none); with
    ``work_stealing`` the
    chunks no worker delivered are charged to one trailing coordinator
    entry (``completed == 0``), since the shared queue has no single
    owner.  ``num_configs`` is always ``completed + recovered``.
    """

    shard_id: int
    num_configs: int
    #: configurations whose predictions the worker actually delivered
    completed: int
    #: configurations re-scored by the coordinator after a worker failure
    recovered: int = 0
    #: the worker's final cache counters and ``blas_threads`` pool size
    #: (empty if it died before reporting)
    cache_stats: dict = field(default_factory=dict)
    #: True when the worker exited without a completion message
    failed: bool = False
    error: str = ""


@dataclass
class ShardedDSEResult:
    """Outcome of one sharded exploration.

    ``predictions`` is aligned with the canonical configuration order of the
    explored space (in dedup mode, non-representative members carry a copy
    of their representative's prediction — which is what a full sweep would
    have produced, bit for bit); ``front`` is the merged predicted-Pareto
    front in the canonical ``(objectives, config_id)`` order — bit-identical
    to :func:`predicted_front` over ``predictions`` and to the
    single-process engine's front (see the module docstring).
    """

    kernel: str
    num_configs: int
    num_workers: int
    shard_strategy: str
    predictions: list[dict[str, float]]
    front: list[DesignPoint]
    model_seconds: float
    shards: list[ShardReport] = field(default_factory=list)
    #: configurations recovered in-process after worker failures
    recovered_configs: int = 0
    #: per-worker cache counters summed fleet-wide (``blas_threads`` then
    #: counts the BLAS threads of all workers together)
    cache_stats: dict = field(default_factory=dict)
    #: multiprocessing start method the sweep actually used
    mp_context: str = ""
    #: whether chunks were pulled from a shared work-stealing queue
    work_stealing: bool = False
    #: whether only equivalence-class representatives were scored
    dedup: bool = False
    #: equivalence classes in the space (== num_configs when dedup is off)
    num_classes: int = 0
    #: configurations restored from a resumed checkpoint (never re-scored)
    resumed_configs: int = 0
    #: checkpoint-covered configurations a worker redundantly re-scored
    #: (zero by construction — resumed sweeps dispatch only unscored work)
    rescored_configs: int = 0
    #: checkpoint file progress was persisted to ("" = no checkpointing)
    checkpoint_path: str = ""
    #: whether worker warm-cache deltas were merged back into the model file
    write_back: bool = False
    #: write-back merge summary: deltas received and entries newly banked
    write_back_stats: dict = field(default_factory=dict)

    @property
    def configs_per_second(self) -> float:
        """Effective end-to-end throughput: raw configurations covered per
        second (spawn + load + predict + merge; in dedup mode fanned-out
        members count, which is the point of sweeping fewer of them)."""
        if self.model_seconds <= 0:
            return float("inf")
        return self.num_configs / self.model_seconds

    @property
    def dedup_ratio(self) -> float:
        """Raw configurations per scored representative (1.0 = no dedup)."""
        return self.num_configs / max(1, self.num_classes or self.num_configs)


def _fold_front(space: DesignSpace, pairs) -> ParetoFront:
    """One :class:`~repro.dse.pareto.ParetoFront` over ``(config_id,
    metrics)`` pairs of ``space``."""
    front = ParetoFront()
    for config_id, metrics in pairs:
        front.add(
            DesignPoint(
                key=space.key_of(config_id),
                objectives=qor_objectives(metrics),
                metadata={
                    "config": space.config(config_id), "config_id": config_id
                },
            ),
            config_id,
        )
    return front


def predicted_front(
    space: DesignSpace, predictions: list[dict[str, float]]
) -> ParetoFront:
    """Single-process reference front over a space's predictions.

    Feeds every ``(config_id, prediction)`` pair through one
    :class:`~repro.dse.pareto.ParetoFront` — the differential harness
    compares the sharded engine's merged front against exactly this.
    """
    return _fold_front(space, enumerate(predictions))


def _default_mp_context() -> str:
    """``fork`` where available (cheap bootstrap), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardedExplorer:
    """Coordinator for multi-worker DSE over a saved model.

    Partitions a :class:`~repro.dse.space.DesignSpace` with
    :func:`partition_space`, cuts the shards into chunks, runs
    :func:`shard_worker` processes over them, folds the streamed results
    into Pareto fronts and merges them deterministically.  See the module
    docstring for the dispatch, equivalence and failure-handling
    guarantees.

    Parameters:

    * ``model_path`` — a model saved with :meth:`QoRPredictor.save` /
      :func:`repro.core.serialization.save_model`; validated eagerly so a
      missing or untrained model fails before any process is spawned;
    * ``num_workers`` — worker processes (= maximum shard count);
    * ``shard_strategy`` — ``"round-robin"`` or ``"pragma-locality"``;
    * ``warm_caches`` — workers adopt the warm caches persisted in the model
      file (pair with ``write_back`` to also bank what they newly build);
    * ``chunk_size`` — configurations per ``predict_batch`` call and per
      streamed result message;
    * ``work_stealing`` — all workers drain one shared chunk queue instead
      of one private queue each, so a skewed partition (or a slow machine)
      cannot leave the fleet idling behind one straggler; the front is
      unchanged;
    * ``mp_context`` — multiprocessing start method; defaults to ``fork``
      where available, ``spawn`` otherwise (the worker entrypoint is safe
      under both);
    * ``worker_timeout`` — a *stall* timeout: seconds without any message
      from any worker before the remaining workers are deemed wedged,
      terminated, and their outstanding work recovered in-process.  An
      actively-streaming fleet never trips it, however long the sweep;
    * ``precision`` — inference tier every worker (and in-process recovery)
      loads the model into: ``"float64"`` (the bit-exact default) or
      ``"float32"`` (the cheap tier, see
      :meth:`repro.core.predictor.QoRPredictor.load`);
    * ``dedup`` — partition the space into HLS-equivalence classes first
      (:meth:`~repro.dse.space.DesignSpace.dedup`), shard and score only
      the class representatives, and fan each representative's prediction
      out to its members.  On by default; the result is identical to the
      exhaustive sweep — same predictions, same front, bit for bit — at
      ``num_classes`` forward passes instead of ``num_configs``;
    * ``checkpoint`` — persist sweep progress to this path through
      :class:`~repro.dse.checkpoint.CheckpointWriter` (atomic, digest-sealed,
      bound to the space fingerprint / model weights digest / precision
      tier), once at least ``checkpoint_interval`` newly scored
      configurations have come in, in whole chunks;
    * ``resume`` — fold a verified checkpoint at ``checkpoint`` back in
      before dispatching: already-scored configurations are never re-sent to
      a worker, and the resumed front is **bit-equal** to an uninterrupted
      sweep's (see the module docstring).  An unusable checkpoint —
      truncated, corrupted, or bound to a different space/model/precision —
      is discarded with a :class:`RuntimeWarning` and the sweep restarts
      from zero.  Requires ``checkpoint``;
    * ``write_back`` — workers ship the warm-cache entries they newly built
      back to the coordinator (bounded deltas on the result queue), which
      merges them into the model file after the sweep; the next
      ``warm_caches`` fleet over the same space does zero cold graph builds;
    * ``fault_plan`` — a :class:`~repro.testing.faults.FaultPlan` injecting
      worker kills/stalls/drops (keyed by worker id) and coordinator aborts
      (test harness).

    The ``partitioner`` hook (benchmarks/tests) replaces
    :func:`partition_space`: a callable ``(space, num_shards) ->
    [ShardSpec]`` — e.g. a deliberately skewed split to measure what work
    stealing buys.
    """

    def __init__(
        self,
        model_path: str | Path,
        *,
        num_workers: int = 2,
        shard_strategy: str = "pragma-locality",
        warm_caches: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        work_stealing: bool = False,
        mp_context: str | None = None,
        worker_timeout: float = 300.0,
        precision: str = "float64",
        dedup: bool = True,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        write_back: bool = False,
        fault_plan: FaultPlan | None = None,
        partitioner=None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if shard_strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {shard_strategy!r}; "
                f"available: {SHARD_STRATEGIES}"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        self.model_path = Path(model_path)
        self.num_workers = num_workers
        self.shard_strategy = shard_strategy
        self.warm_caches = warm_caches
        self.chunk_size = max(1, chunk_size)
        self.work_stealing = work_stealing
        self.mp_context = mp_context or _default_mp_context()
        self.worker_timeout = worker_timeout
        self.precision = normalize_precision(precision)
        self.dedup = dedup
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.resume = resume
        self.checkpoint_interval = max(1, checkpoint_interval)
        self.write_back = write_back
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.partitioner = partitioner
        # per-explore state consulted by _run_fleet (whose signature is
        # stable: tests monkeypatch it)
        self._checkpoint_writer = None
        self._pending_cache_deltas: dict[int, dict] = {}
        self._validate_model()

    def _validate_model(self) -> None:
        """Fail fast — before spawning anything — on a bad model file."""
        from repro.core.serialization import peek_manifest

        manifest = peek_manifest(self.model_path)
        if "g" not in manifest:
            raise ValueError(
                f"model at {self.model_path} has no trained global model; "
                "train and save it before sharded exploration"
            )

    # ------------------------------------------------------------------ #
    def _partition(
        self, space: DesignSpace, config_ids: list[int] | None = None
    ) -> list[ShardSpec]:
        """The shard partition (``partitioner`` hook or :func:`partition_space`).

        ``config_ids`` restricts the partition to the dedup representatives.
        A custom partitioner sees the full space (it may be signature- or
        skew-driven); its shards are filtered down to the restricted ids
        afterwards so the hook composes with dedup mode.
        """
        if self.partitioner is not None:
            shards = list(self.partitioner(space, self.num_workers))
            if config_ids is not None:
                keep = set(config_ids)
                shards = [
                    ShardSpec(
                        shard_id=shard.shard_id,
                        config_ids=tuple(
                            cid for cid in shard.config_ids if cid in keep
                        ),
                    )
                    for shard in shards
                ]
                shards = [shard for shard in shards if shard.config_ids]
            return shards
        return partition_space(
            space, self.num_workers, self.shard_strategy, config_ids=config_ids
        )

    def _run_fleet(
        self,
        processes: dict[int, multiprocessing.Process],
        results_queue,
    ) -> tuple[dict, dict, dict, dict]:
        """Drain the fleet's result stream until every process retires.

        Messages are keyed by worker id.  Returns ``(predictions_by_id,
        streamed, worker_stats, errors)``; handles silent worker death
        (retired with an error after a final drain) and the fleet-wide stall
        timeout.  Side channels ride the same stream: every delivered chunk
        is recorded whole into the active
        :class:`~repro.dse.checkpoint.CheckpointWriter` (when checkpointing)
        and ``("caches", ...)`` write-back deltas are parked in
        ``_pending_cache_deltas`` for the post-sweep merge.
        """
        predictions_by_id: dict[int, dict[str, float]] = {}
        streamed: dict[int, list[tuple[int, dict[str, float]]]] = {
            key: [] for key in processes
        }
        worker_stats: dict[int, dict] = {}
        errors: dict[int, str] = {}
        pending = set(processes)
        # stall deadline: pushed forward on every message, so it only fires
        # after worker_timeout seconds of total silence from the fleet
        deadline = time.perf_counter() + self.worker_timeout

        def handle(message: tuple) -> None:
            kind, key = message[0], message[1]
            if kind == "results":
                predictions_by_id.update(message[2])
                streamed[key].extend(message[2])
                if self._checkpoint_writer is not None:
                    self._checkpoint_writer.record_chunk(message[2])
            elif kind == "caches":
                self._pending_cache_deltas[key] = message[2]
            elif kind == "done":
                worker_stats[key] = message[2]
                pending.discard(key)
            elif kind == "error":
                errors[key] = message[2]
                pending.discard(key)

        while pending and time.perf_counter() < deadline:
            try:
                handle(results_queue.get(timeout=0.05))
                deadline = time.perf_counter() + self.worker_timeout
                continue
            except queue_module.Empty:
                pass
            # queue momentarily empty: retire keys whose process died
            # without a completion message (drain once more first — the
            # worker may have flushed results right before exiting)
            for key in sorted(pending):
                if processes[key].is_alive():
                    continue
                processes[key].join()
                try:
                    while True:
                        handle(results_queue.get(timeout=0.1))
                except queue_module.Empty:
                    pass
                if key in pending:
                    pending.discard(key)
                    errors.setdefault(
                        key, "worker process exited before completing"
                    )
        for key in sorted(pending):  # fleet stalled: reclaim their work
            errors.setdefault(
                key,
                f"worker stalled (no progress for {self.worker_timeout:.0f}s)",
            )
        for process in processes.values():
            if process.is_alive():
                process.terminate()
            process.join()
        return predictions_by_id, streamed, worker_stats, errors

    @staticmethod
    def _cleanup_fleet(
        processes: dict[int, multiprocessing.Process], results_queue,
        *task_queues,
    ) -> None:
        """Terminate/join every live worker and release the queues.

        Runs in the ``finally`` of :meth:`explore` so that a
        coordinator-side exception — a failure mid-merge or mid-recovery, or
        a ``KeyboardInterrupt`` while draining the result stream — cannot
        leak live worker processes or queue feeder threads, which a resident
        caller (the serving daemon, a notebook) would accumulate forever.
        Chunks no worker read (a crashed worker's private queue) can exceed
        what a pipe buffers, leaving this process's feeder thread blocked on
        a pipe nobody reads again, so each task queue is first read back up
        to an end marker.  Idempotent: on the normal path the fleet has
        already retired and only the marker makes the round trip.
        """
        for process in processes.values():
            try:
                if process.is_alive():
                    process.terminate()
                process.join()
            except (OSError, ValueError, AssertionError):
                pass  # already reaped / never fully started
        for tasks in task_queues:
            try:
                tasks.put(_DRAINED)
                while tasks.get(timeout=1.0) != _DRAINED:
                    pass
            except (queue_module.Empty, OSError, ValueError):
                pass  # a worker died holding the queue's read lock
        for queue in (results_queue, *task_queues):
            try:
                # discard unflushed buffers so the feeder thread cannot block
                # interpreter exit, then close the queue's pipe ends
                queue.cancel_join_thread()
                queue.close()
            except (OSError, ValueError):
                pass  # already closed

    def _recover_missing(
        self, space: DesignSpace, config_ids: list[int]
    ) -> tuple[list[tuple[int, dict[str, float]]], dict, dict | None]:
        """Score the configurations no worker delivered, in-process.

        All of them go through one ``predict_batch``: a prediction does not
        depend on its batch, so the recovered front is bit-equal to a clean
        fleet's.  Returns ``(recovered, cache_stats, write_back_delta)`` —
        the ``[(config_id, metrics), ...]`` pairs, the recovery predictor's
        cache counters, and a bounded warm-cache delta (the coordinator is
        just another scoring process as far as write-back is concerned),
        ``None`` unless ``write_back`` is on.  With nothing lost nothing is
        loaded: ``([], {}, None)``.
        """
        if not config_ids:
            return [], {}, None
        predictor = QoRPredictor.load(
            self.model_path, warm_caches=self.warm_caches,
            precision=self.precision,
        )
        predictions = predictor.predict_batch(
            space.function(), [space.config(cid) for cid in config_ids]
        )
        delta = _bounded_warm_delta(predictor) if self.write_back else None
        return list(zip(config_ids, predictions)), predictor.cache_stats(), delta

    def _prepare_sweep(self, space: DesignSpace) -> dict[int, dict[str, float]]:
        """Reset per-sweep state; load the checkpoint and arm the writer.

        Returns the prior scored table — the configurations a resumed sweep
        must not dispatch again (empty without ``resume``, or when the
        checkpoint is missing/unusable, or without checkpointing at all).
        """
        self._pending_cache_deltas = {}
        self._checkpoint_writer = None
        if self.checkpoint is None:
            return {}
        fingerprint = space_fingerprint(space)
        digest = model_weights_digest(self.model_path)
        prior: dict[int, dict[str, float]] = {}
        if self.resume:
            loaded = load_checkpoint(
                self.checkpoint,
                expected_space=fingerprint,
                expected_model=digest,
                expected_precision=self.precision,
            )
            if loaded is not None:
                prior = {
                    config_id: metrics
                    for config_id, metrics in loaded.scored.items()
                    if 0 <= config_id < len(space)
                }
        on_save = None
        abort_after = self.fault_plan.abort_coordinator_after_checkpoints
        if abort_after is not None:

            def on_save(saves: int) -> None:
                """Injected coordinator crash: die after N durable saves."""
                if saves >= abort_after:
                    raise InjectedFault(
                        f"coordinator aborted after {saves} checkpoint saves"
                    )

        self._checkpoint_writer = CheckpointWriter(
            self.checkpoint,
            space_fingerprint=fingerprint,
            model_digest=digest,
            precision=self.precision,
            interval=self.checkpoint_interval,
            prior=prior,
            on_save=on_save,
        )
        return prior

    def _persist_write_back(self, deltas: list[dict]) -> dict:
        """Merge worker warm-cache deltas into the model file.

        Reloads the saved model with its persisted warm caches, imports
        every delta (canonical-keyed, so overlapping entries merge
        idempotently) and re-saves.  The weight arrays re-serialize
        bit-identically (the archive always holds the float64 masters), so
        the model weights digest — and with it any live checkpoint — stays
        valid across the rewrite.  Returns a merge summary of entries newly
        banked per category.
        """
        deltas = [delta for delta in deltas if delta]
        if not deltas:
            return {"deltas": 0}
        model = load_model(self.model_path, warm_caches=True)
        before = model.warm_cache_sizes()
        for delta in deltas:
            model.import_warm_caches(delta)
        after = model.warm_cache_sizes()
        save_model(model, self.model_path, warm_caches=True)
        return {
            "deltas": len(deltas),
            "new_units": after["units"] - before["units"],
            "new_outer": after["outer"] - before["outer"],
            "new_predictions": after["predictions"] - before["predictions"],
        }

    def _finish_sweep(
        self,
        prior: dict[int, dict[str, float]],
        predictions_by_id: dict[int, dict[str, float]],
        recovered: list[tuple[int, dict[str, float]]],
        coordinator_delta: dict | None,
    ) -> dict:
        """Post-fleet bookkeeping: fold in recovery and the resumed prior.

        Records the coordinator-recovered predictions into the prediction
        table and the checkpoint, folds the resumed prior back into the
        prediction table, seals the checkpoint as ``complete`` and merges
        any pending write-back deltas into the model file.  Returns the
        write-back summary (empty dict when write-back is off).
        """
        writer = self._checkpoint_writer
        predictions_by_id.update(recovered)
        if writer is not None:
            writer.record_chunk(recovered)
        for config_id, metrics in prior.items():
            predictions_by_id.setdefault(config_id, metrics)
        if writer is not None:
            writer.save(complete=True)
        if not self.write_back:
            return {}
        deltas = [
            self._pending_cache_deltas[key]
            for key in sorted(self._pending_cache_deltas)
        ]
        if coordinator_delta:
            deltas.append(coordinator_delta)
        return self._persist_write_back(deltas)

    def explore(self, space: DesignSpace) -> ShardedDSEResult:
        """Score every configuration of ``space`` across the worker fleet.

        Returns predictions aligned with the space's canonical order and the
        merged Pareto front; never raises on worker death — missing work is
        recovered in-process (see ``ShardedDSEResult.recovered_configs``).
        In dedup mode (the default) only equivalence-class representatives
        are dispatched; members get their representative's prediction
        fanned back out.  With a resumed checkpoint, configurations its
        scored table covers are folded in directly and only the remainder is
        dispatched.  Only queues with chunks on them get workers: a fixed
        shard whose chunks are all resumed starts no worker and gets no
        report, and ``num_workers`` counts the workers started.
        """
        deduped = space.dedup() if self.dedup else None
        prior = self._prepare_sweep(space)
        start = time.perf_counter()
        # The chunk layout.  Dedup restricts the partition to class
        # representatives (None keeps the partitioner hook's full view); the
        # configurations a resumed checkpoint covers are dropped per chunk,
        # so the shards stay the uninterrupted sweep's
        shards = self._partition(
            space, deduped.representative_ids() if deduped is not None else None
        )
        layout: list[tuple[int, list[int]]] = []
        for shard in shards:
            for offset in range(0, len(shard), self.chunk_size):
                chunk = shard.config_ids[offset:offset + self.chunk_size]
                kept = [cid for cid in chunk if cid not in prior]
                if kept:
                    layout.append((shard.shard_id, kept))
        # The one place the topologies differ.  Each chunk is keyed by the
        # task queue it goes on, which is also whom a lost chunk is charged
        # to; queue_of maps every worker to the queue it drains
        if self.work_stealing:
            # one shared queue, charged to a trailing coordinator entry
            num_workers = min(self.num_workers, len(layout))
            layout = [(num_workers, chunk) for _, chunk in layout]
            queue_of = dict.fromkeys(range(num_workers), num_workers)
        else:
            # one private queue per shard's worker, charged to that worker
            queue_of = {key: key for key, _ in layout}
        context = multiprocessing.get_context(self.mp_context)
        results_queue = context.Queue()
        tasks = {key: context.Queue() for key in dict.fromkeys(queue_of.values())}
        processes: dict[int, multiprocessing.Process] = {}
        try:
            # start every worker before the first put: no process is forked
            # while a queue feeder thread is running
            for worker_id, key in queue_of.items():
                processes[worker_id] = context.Process(
                    target=shard_worker,
                    args=(
                        worker_id, str(self.model_path), space.source,
                        self.warm_caches, tasks[key], results_queue,
                        self.fault_plan.workers.get(worker_id),
                        self.precision, self.write_back,
                    ),
                    daemon=True,
                )
                processes[worker_id].start()
            for key, chunk in layout:
                tasks[key].put([(cid, space.config(cid)) for cid in chunk])
            for key in queue_of.values():
                tasks[key].put(None)  # one end-of-work sentinel per worker

            predictions_by_id, streamed, worker_stats, errors = self._run_fleet(
                processes, results_queue
            )
            # the acceptance guard for resume: workers only ever receive
            # not-yet-scored configurations, so nothing checkpointed comes back
            rescored = sum(
                1 for stream in streamed.values()
                for config_id, _ in stream if config_id in prior
            )
            lost: list[tuple[int, list[int]]] = []
            for key, chunk in layout:
                missing = [cid for cid in chunk if cid not in predictions_by_id]
                if missing:
                    lost.append((key, missing))
            recovered, coordinator_stats, coordinator_delta = (
                self._recover_missing(space, [cid for _, chunk in lost for cid in chunk])
            )
            recovered_by: dict[int, int] = {}
            for key, chunk in lost:
                recovered_by[key] = recovered_by.get(key, 0) + len(chunk)
            write_back_stats = self._finish_sweep(
                prior, predictions_by_id, recovered, coordinator_delta
            )
            # per-worker fronts, merged deterministically; recovered and
            # resumed predictions join as more fronts (the merge is
            # partition-invariant)
            fronts = [_fold_front(space, streamed[key]) for key in processes]
            fronts.append(_fold_front(space, recovered))
            fronts.append(_fold_front(space, sorted(prior.items())))
            merged = merge_fronts(fronts)
            model_seconds = time.perf_counter() - start
        finally:
            # a coordinator-side exception (mid-drain, mid-merge, Ctrl-C)
            # must not leak live workers or queue feeder threads
            self._cleanup_fleet(processes, results_queue, *tasks.values())

        reports = [
            ShardReport(
                shard_id=key,
                num_configs=len(streamed.get(key, ())) + recovered_by.get(key, 0),
                completed=len(streamed.get(key, ())),
                recovered=recovered_by.get(key, 0),
                cache_stats=worker_stats.get(key, {}),
                failed=key in errors,
                error=errors.get(key, ""),
            )
            for key in dict.fromkeys([*processes, *recovered_by])
        ]
        full = (
            deduped.fan_out(predictions_by_id) if deduped is not None
            else predictions_by_id
        )
        return ShardedDSEResult(
            kernel=space.kernel,
            num_configs=len(space),
            num_workers=len(processes),
            shard_strategy=self.shard_strategy,
            predictions=[full[cid] for cid in range(len(space))],
            front=merged.points(),
            model_seconds=model_seconds,
            shards=reports,
            recovered_configs=sum(recovered_by.values()),
            cache_stats=QoRPredictor.aggregate_cache_stats(
                [*worker_stats.values(), coordinator_stats]
            ),
            mp_context=self.mp_context,
            work_stealing=self.work_stealing,
            dedup=deduped is not None,
            num_classes=(
                deduped.num_classes if deduped is not None else len(space)
            ),
            resumed_configs=len(prior),
            rescored_configs=rescored,
            checkpoint_path=str(self.checkpoint or ""),
            write_back=self.write_back,
            write_back_stats=write_back_stats,
        )


__all__ = [
    "SHARD_STRATEGIES", "DEFAULT_CHUNK_SIZE", "WRITE_BACK_MAX_ENTRIES",
    "ShardSpec", "partition_space", "shard_worker",
    "ShardReport", "ShardedDSEResult", "predicted_front", "fronts_bit_equal",
    "ShardedExplorer",
]
