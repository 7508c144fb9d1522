"""Fixtures for the serving tests: a tiny resident predictor + a harness.

The serving tests deliberately do NOT use the shared session-scoped
``trained_model`` fixture: serving a model warms (mutates) its inference
caches, and the shared fixtures must stay pristine.  Instead this package
trains its own tiny predictor once, computes reference predictions through
the direct ``predict_source_batch`` path *before* any server touches the
model, and then asserts the served responses are bit-identical to them.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core import (
    HierarchicalModelConfig,
    TrainingConfig,
    build_design_instances,
    default_configurations,
)
from repro.core.predictor import QoRPredictor
from repro.dse.space import sample_design_space
from repro.kernels import kernel_source, load_kernels
from repro.serve import QoRServer


@pytest.fixture(scope="session")
def serve_predictor():
    """A tiny trained predictor owned by the serving tests (mutable)."""
    kernels = load_kernels(("fir",))
    configs = {
        name: default_configurations(fn, limit=6, rng=np.random.default_rng(3))
        for name, fn in kernels.items()
    }
    instances = build_design_instances(kernels, configs)
    predictor = QoRPredictor(
        HierarchicalModelConfig(
            conv_type="graphsage", hidden=8, seed=0,
            training=TrainingConfig(epochs=2, batch_size=16, seed=0),
        )
    )
    predictor.fit_instances(instances)
    return predictor


@pytest.fixture(scope="session")
def fir_sweep(serve_predictor):
    """A deterministic sample of fir's design space."""
    function = serve_predictor._functions["fir"]
    return sample_design_space(function, 8, rng=np.random.default_rng(7))


@pytest.fixture(scope="session")
def fir_reference(serve_predictor, fir_sweep):
    """Direct ``predict_source_batch`` results, computed before any serving.

    Serving must be bit-identical to this (float64 survives the JSON
    round-trip exactly), which is what proves the micro-batcher's
    demultiplexing routes every result to the right request.
    """
    results = serve_predictor.predict_source_batch(
        kernel_source("fir"), fir_sweep
    )
    return [{name: float(value) for name, value in row.items()} for row in results]


class ServerHarness:
    """Run a :class:`QoRServer` on a background thread's event loop.

    The tests stay synchronous: ``call`` schedules a coroutine on the
    server's loop and blocks for its result, ``stop`` drains the server and
    joins the thread.
    """

    def __init__(self, server: QoRServer):
        self.server = server
        self.address: tuple[str, int] | None = None
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="serve-harness", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        await self.server.start()
        self.address = self.server.address
        self._stop_event = asyncio.Event()
        self._started.set()
        await self._stop_event.wait()
        await self.server.drain()

    def start(self) -> "ServerHarness":
        self._thread.start()
        assert self._started.wait(timeout=30), "server failed to start"
        return self

    def call(self, coro, timeout: float = 60.0):
        """Run a coroutine on the server loop; block for the result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def call_soon(self, fn) -> None:
        self._loop.call_soon_threadsafe(fn)

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server thread failed to stop"


@pytest.fixture
def make_server(serve_predictor):
    """Factory for harnessed servers; everything is torn down afterwards.

    Servers share ``serve_predictor`` unless given their own ``predictor``.
    """
    harnesses: list[ServerHarness] = []

    def factory(predictor: QoRPredictor | None = None, **kwargs) -> ServerHarness:
        kwargs.setdefault("port", 0)
        server = QoRServer(predictor or serve_predictor, **kwargs)
        harness = ServerHarness(server).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()
