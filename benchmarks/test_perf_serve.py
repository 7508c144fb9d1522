"""Perf benchmark: the serving daemon under concurrent load.

A load generator drives resident :class:`~repro.serve.QoRServer` instances
(in-process, real TCP sockets) with single-configuration requests — the
worst case for a batched inference engine, because every request alone is
far below the batching sweet spot.  The cross-request micro-batcher is
what recovers the throughput: requests that queue while one
``predict_batch`` pass runs are merged into the next pass.

The measured quantity is steady-state service throughput (the prediction
memo is primed first).  The headline guard compares equal load:
``CONCURRENCY`` clients on the default batcher against ``CONCURRENCY``
clients on a ``max_batch=1`` server (every request its own pass) over the
same primed predictor.  The two arms alternate, ``ARM_RUNS`` runs each, and
the ratio of their median configs/s must reach ``BATCHING_TARGET``.  The
1-, 2- and ``CONCURRENCY``-client levels of the default server (sustained
configs/s, per-request p50/p99 latency) and its batch-size histogram land
in ``benchmarks/results/BENCH_serve.json`` for the perf-trend gate.

Environment knobs: ``REPRO_BENCH_SERVE_REQUESTS`` (requests per client,
default 80), ``REPRO_BENCH_PERF_EPOCHS`` (training epochs, default 10 —
throughput does not depend on model quality).
"""

from __future__ import annotations

import asyncio
import json
import platform
import threading
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, env_int, format_table, peak_rss_mb, write_result
from repro.core import (
    HierarchicalModelConfig,
    TrainingConfig,
    build_design_instances,
)
from repro.core.predictor import QoRPredictor
from repro.dse.space import sample_design_space
from repro.kernels import load_kernel
from repro.serve import QoRClient, QoRServer

pytestmark = pytest.mark.perf

KERNEL = "gemm"
CONCURRENCY = 8
CONCURRENCY_LEVELS = (1, 2, CONCURRENCY)
#: runs per arm of the batched vs unbatched comparison (medians are compared)
ARM_RUNS = 7
BATCHING_TARGET = 1.1
POOL_SIZE = 32


def _train_predictor(function) -> QoRPredictor:
    configs = sample_design_space(function, 12, rng=np.random.default_rng(7))
    instances = build_design_instances({KERNEL: function}, {KERNEL: configs})
    predictor = QoRPredictor(
        HierarchicalModelConfig(
            conv_type="graphsage", hidden=32,
            training=TrainingConfig(
                epochs=env_int("REPRO_BENCH_PERF_EPOCHS", 10), seed=0
            ),
        )
    )
    predictor.fit_instances(instances)
    return predictor


class _DaemonThread:
    """Minimal in-process host: the server on a background event loop."""

    def __init__(self, server: QoRServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._main())
        self._loop.close()

    async def _main(self) -> None:
        await self.server.start()
        self.address = self.server.address
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    def __enter__(self) -> "_DaemonThread":
        self._thread.start()
        assert self._ready.wait(timeout=60)
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


def _drive_clients(address, pool, num_clients: int, requests_each: int) -> dict:
    """``num_clients`` concurrent clients, single-config requests each.

    Returns sustained throughput and the per-request latency distribution.
    Clients round-robin different offsets of the config pool so concurrent
    requests genuinely differ (coalesced passes carry distinct designs).
    """
    latencies: list[list[float]] = [[] for _ in range(num_clients)]
    barrier = threading.Barrier(num_clients + 1)

    def worker(index: int) -> None:
        with QoRClient(*address) as client:
            barrier.wait(timeout=60)
            for step in range(requests_each):
                config = pool[(index + step) % len(pool)]
                begin = time.perf_counter()
                client.predict_kernel(KERNEL, [config])
                latencies[index].append(time.perf_counter() - begin)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)  # all clients connected: the clock starts fair
    begin = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - begin
    flat = sorted(value for series in latencies for value in series)
    total = num_clients * requests_each
    return {
        "clients": num_clients,
        "requests": total,
        "elapsed_seconds": round(elapsed, 6),
        "configs_per_second": round(total / elapsed, 2),
        "latency_p50_ms": round(float(np.percentile(flat, 50)) * 1e3, 3),
        "latency_p99_ms": round(float(np.percentile(flat, 99)) * 1e3, 3),
        "latency_max_ms": round(flat[-1] * 1e3, 3),
    }


def test_serve_concurrent_throughput():
    function = load_kernel(KERNEL)
    predictor = _train_predictor(function)
    pool = sample_design_space(function, POOL_SIZE, rng=np.random.default_rng(2))
    requests_each = env_int("REPRO_BENCH_SERVE_REQUESTS", 80)

    # both servers share the one predictor; they are never driven at the
    # same time, so only one inference thread touches the model at once
    with _DaemonThread(QoRServer(predictor, port=0)) as batched, \
            _DaemonThread(QoRServer(predictor, port=0, max_batch=1)) as unbatched:
        # prime the resident caches once: the measured regime is the steady
        # state of a long-lived daemon, not cold graph construction
        for daemon in (batched, unbatched):
            with QoRClient(*daemon.address) as client:
                client.predict_kernel(KERNEL, pool)
        levels = {
            f"c{level}": _drive_clients(
                batched.address, pool, level, requests_each
            )
            for level in CONCURRENCY_LEVELS[:-1]
        }
        arms: dict[str, list[dict]] = {"batched": [], "unbatched": []}
        for _ in range(ARM_RUNS):
            for name, daemon in (("batched", batched), ("unbatched", unbatched)):
                arms[name].append(_drive_clients(
                    daemon.address, pool, CONCURRENCY, requests_each
                ))
        with QoRClient(*batched.address) as client:
            stats = client.stats()

    def median_run(runs: list[dict]) -> dict:
        return sorted(runs, key=lambda run: run["configs_per_second"])[
            len(runs) // 2
        ]

    loaded = median_run(arms["batched"])
    levels[f"c{CONCURRENCY}"] = loaded
    batching_speedup = round(
        loaded["configs_per_second"]
        / median_run(arms["unbatched"])["configs_per_second"], 2
    )
    concurrency_speedup = round(
        loaded["configs_per_second"] / levels["c1"]["configs_per_second"], 2
    )

    payload = {
        "benchmark": "serve",
        "kernel": KERNEL,
        "pool_configs": len(pool),
        "requests_per_client": requests_each,
        "levels": levels,
        "batching_speedup": batching_speedup,
        "batching_arms": {
            name: [run["configs_per_second"] for run in runs]
            for name, runs in arms.items()
        },
        "concurrency_speedup": concurrency_speedup,
        "batcher": stats["batcher"],
        "server": stats["server"],
        "peak_rss_mb": peak_rss_mb(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        [
            name, stats_["configs_per_second"],
            f"{stats_['latency_p50_ms']:.2f}", f"{stats_['latency_p99_ms']:.2f}",
            f"{stats_['latency_max_ms']:.2f}",
        ]
        for name, stats_ in levels.items()
    ]
    rows.append([
        f"c{CONCURRENCY} max_batch=1",
        median_run(arms["unbatched"])["configs_per_second"], "", "", "",
    ])
    write_result(
        "BENCH_serve.txt",
        format_table(
            ["clients", "configs/s", "p50 ms", "p99 ms", "max ms"],
            rows,
            title=f"Serving throughput — {KERNEL}, single-config requests, "
                  f"warm daemon; {CONCURRENCY} clients batched vs "
                  f"max_batch=1 {batching_speedup:.2f}x (median of "
                  f"{ARM_RUNS}), vs 1 client {concurrency_speedup:.2f}x "
                  f"({stats['batcher']['coalesced_batches']} coalesced batches)",
        ),
    )

    assert stats["batcher"]["coalesced_batches"] > 0, (
        "concurrent load never produced a coalesced batch — the "
        "micro-batcher is not merging cross-client requests"
    )
    assert batching_speedup >= BATCHING_TARGET, (
        f"{CONCURRENCY} concurrent clients on the default batcher sustained "
        f"only {batching_speedup:.2f}x the configs/s of the same load on a "
        f"max_batch=1 server (target >= {BATCHING_TARGET}x): cross-request "
        f"micro-batching is not paying off"
    )
