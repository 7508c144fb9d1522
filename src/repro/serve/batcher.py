"""The cross-request micro-batcher at the heart of the serving daemon.

The batched inference engine (:meth:`HierarchicalQoRModel.predict_batch`)
amortizes graph construction and GNN matmuls across a whole design space,
but a network service receives that space *scattered across clients*: many
connections, each asking about a handful of configurations.  Scoring each
request alone would forfeit exactly the batching the engine was built for.

:class:`MicroBatcher` recovers it without a timer.  A pass starts as soon
as the inference thread is free and takes the first queued request plus
everything already queued behind it (up to ``max_batch`` configurations;
a request is never split): all configurations for the same kernel source
become **one** disjoint-union ``predict_batch`` pass, and the results are
demultiplexed back onto each request's future.  A lone request on an idle
batcher is scored at once; requests that arrive while a pass runs queue up
and ride the next pass together, so the batches grow with the load.

Model calls run on a dedicated single-thread executor, which is what makes
a resident predictor safe to share between clients at all: the model's
memo dictionaries are not thread-safe, so the batcher **serializes** every
``predict_batch`` (and every ``cache_stats``) on that one inference thread
while the asyncio front end keeps accepting and parsing traffic.

With a ``signature_fn`` (the server wires
:meth:`QoRPredictor.canonical_signature`), each pass also
**deduplicates across requests**: configurations whose effective
(canonicalized) directives coincide are scored once and the shared result
is fanned back out to every submitter — the serve-side face of the design
-space dedup algebra in :mod:`repro.dse.space`.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class _Pending:
    """One admitted request waiting for a pass."""

    source: str
    configs: list
    future: asyncio.Future


@dataclass
class BatcherStats:
    """Counters describing how well cross-request coalescing is working."""

    #: requests admitted into the batcher
    requests: int = 0
    #: configurations admitted (sum of request sizes)
    configs: int = 0
    #: ``predict_batch`` passes issued
    batches: int = 0
    #: passes that merged more than one request (the coalescing win)
    coalesced_batches: int = 0
    #: largest single pass, in configurations
    max_batch_configs: int = 0
    #: configurations answered from another config's score in the same pass
    #: (identical canonical signature); only counted with a ``signature_fn``
    duplicate_configs: int = 0
    #: configurations per pass -> number of passes of that size
    batch_size_histogram: dict[int, int] = field(default_factory=dict)

    def record_batch(self, num_requests: int, num_configs: int) -> None:
        """Account one flushed ``predict_batch`` pass."""
        self.batches += 1
        if num_requests > 1:
            self.coalesced_batches += 1
        self.max_batch_configs = max(self.max_batch_configs, num_configs)
        self.batch_size_histogram[num_configs] = (
            self.batch_size_histogram.get(num_configs, 0) + 1
        )

    def as_dict(self) -> dict:
        """JSON-compatible snapshot (histogram keys become strings)."""
        return {
            "requests": self.requests,
            "configs": self.configs,
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "max_batch_configs": self.max_batch_configs,
            "duplicate_configs": self.duplicate_configs,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            },
        }


class MicroBatcher:
    """Coalesce concurrent prediction requests into shared batched passes.

    ``predict_fn(source, configs) -> list[dict]`` is the blocking scorer
    (typically ``QoRPredictor.predict_source_batch``); it only ever runs on
    the batcher's single inference thread.  A pass takes what is queued
    when the inference thread frees up, until ``max_batch`` configurations
    have accumulated; that bounds the size of one disjoint-union pass.

    ``signature_fn(source, config) -> str``, when given, deduplicates each
    pass: configurations sharing a signature are scored once and the result
    is copied back to every duplicate (counted in
    ``stats.duplicate_configs``).  It runs on the inference thread too —
    the canonical implementation lowers source text through the predictor's
    (non-thread-safe) memo.
    """

    def __init__(
        self,
        predict_fn,
        *,
        max_batch: int = 512,
        executor: ThreadPoolExecutor | None = None,
        signature_fn=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._predict_fn = predict_fn
        self._signature_fn = signature_fn
        self.max_batch = max_batch
        self._executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="qor-inference"
        )
        self._owns_executor = executor is None
        self._queue: asyncio.Queue[_Pending | None] = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._stopping = False
        self.stats = BatcherStats()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the batch loop on the running event loop (idempotent)."""
        if self._task is None or self._task.done():
            self._stopping = False
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="qor-micro-batcher"
            )

    async def stop(self) -> None:
        """Flush everything already admitted, then stop the batch loop.

        Part of the daemon's graceful drain: requests admitted before the
        stop are still scored and answered; the loop exits once the queue
        is empty and the final flush has completed.
        """
        if self._task is None:
            return
        self._stopping = True
        await self._queue.put(None)  # wake the loop if it is idle
        await self._task
        self._task = None
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    async def run_serialized(self, fn, *args):
        """Run ``fn(*args)`` on the inference thread and await the result.

        The escape hatch for non-batch work that still must not race the
        model — ``cache_stats`` snapshots, precision switches.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(self, source: str, configs: list) -> list[dict]:
        """Queue one request and await its demultiplexed results.

        Raises whatever the underlying ``predict_fn`` raised for the batch
        the request rode in (the server maps that to an ``internal`` error
        response).  Admission control is the *caller's* job — the batcher
        itself never rejects.
        """
        if self._task is None or self._task.done():
            raise RuntimeError("MicroBatcher is not running (call start())")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = _Pending(source=source, configs=list(configs), future=future)
        self.stats.requests += 1
        self.stats.configs += len(entry.configs)
        await self._queue.put(entry)
        return await future

    # ------------------------------------------------------------------ #
    # batch loop
    # ------------------------------------------------------------------ #
    async def _collect(self) -> list[_Pending]:
        """Gather one batch: the first entry plus whatever queued behind it."""
        first = await self._queue.get()
        if first is None:
            return []
        batch = [first]
        size = len(first.configs)
        while size < self.max_batch and not self._queue.empty():
            entry = self._queue.get_nowait()
            if entry is None:  # stop sentinel: flush what we have
                break
            batch.append(entry)
            size += len(entry.configs)
        return batch

    async def _run(self) -> None:
        """The batch loop: collect -> flush until stopped and drained."""
        while True:
            if self._stopping and self._queue.empty():
                break
            batch = await self._collect()
            if batch:
                await self._flush(batch)

    def _score_deduped(self, source: str, configs: list) -> tuple[list, int]:
        """Score one pass with signature dedup (inference thread only).

        Computes the canonical signature of every configuration, scores one
        representative per signature, and copies its result to each
        duplicate.  Returns ``(results, num_duplicates)`` with ``results``
        aligned to ``configs`` (fresh dicts per slot, so per-request
        consumers can never alias each other's payloads).
        """
        signatures = [self._signature_fn(source, config) for config in configs]
        unique_index: dict[str, int] = {}
        unique_configs: list = []
        for signature, config in zip(signatures, configs):
            if signature not in unique_index:
                unique_index[signature] = len(unique_configs)
                unique_configs.append(config)
        scored = self._predict_fn(source, unique_configs)
        results = [dict(scored[unique_index[s]]) for s in signatures]
        return results, len(configs) - len(unique_configs)

    async def _flush(self, batch: list[_Pending]) -> None:
        """Score one coalesced batch and demultiplex results per request.

        Entries are grouped by kernel source; each group becomes one
        disjoint-union ``predict_batch`` pass on the inference thread (with
        ``signature_fn``, one pass over the *unique canonical signatures*
        of the group).  Requests whose clients vanished (cancelled futures)
        are still scored — their work was already merged — but their
        results are simply dropped.
        """
        groups: dict[str, list[_Pending]] = {}
        for entry in batch:
            groups.setdefault(entry.source, []).append(entry)
        loop = asyncio.get_running_loop()
        for source, entries in groups.items():
            configs = [
                config for entry in entries for config in entry.configs
            ]
            self.stats.record_batch(len(entries), len(configs))
            try:
                if self._signature_fn is not None:
                    results, duplicates = await loop.run_in_executor(
                        self._executor, self._score_deduped, source, configs
                    )
                    self.stats.duplicate_configs += duplicates
                else:
                    results = await loop.run_in_executor(
                        self._executor, self._predict_fn, source, configs
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded per request
                for entry in entries:
                    if not entry.future.done():
                        entry.future.set_exception(exc)
                continue
            offset = 0
            for entry in entries:
                share = results[offset:offset + len(entry.configs)]
                offset += len(entry.configs)
                if not entry.future.done():
                    entry.future.set_result(share)


__all__ = ["MicroBatcher", "BatcherStats"]
