"""End-to-end daemon lifecycle: ``repro-qor serve`` as a real subprocess.

Starts the daemon, waits for its parseable readiness line, talks to it
through the blocking client, then delivers SIGINT/SIGTERM and asserts the
graceful-drain contract: in-flight work answered, exit code 0, nothing
left listening on the port.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.nn.autograd import blas_threads
from repro.serve import QoRClient

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def saved_model(serve_predictor, tmp_path_factory):
    """The serving predictor saved to disk for the subprocess to load."""
    path = tmp_path_factory.mktemp("serve-daemon") / "model.npz"
    serve_predictor.save(path, warm_caches=True)
    return path


def _spawn_daemon(saved_model, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", str(saved_model), "--port", "0", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    # the readiness line is the contract: "serving on HOST:PORT".  A thread
    # reads it, so a daemon that hangs silently fails at the deadline
    # instead of blocking the suite in readline
    lines: queue.Queue[str] = queue.Queue()

    def read_until_ready() -> None:
        for line in process.stdout:
            lines.put(line)
            if line.startswith("serving on "):
                return
        lines.put("")  # end of output: the daemon exited

    threading.Thread(target=read_until_ready, daemon=True).start()
    deadline = time.monotonic() + 120
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            process.kill()
            raise AssertionError("daemon never reported readiness") from None
        if line.startswith("serving on "):
            break
        if not line:
            process.wait(timeout=30)
            raise AssertionError(f"daemon exited early: {process.stderr.read()}")
    host, _, port = line.removeprefix("serving on ").strip().rpartition(":")
    return process, host, int(port)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_drains_and_exits_zero(saved_model, fir_sweep, fir_reference, signum):
    process, host, port = _spawn_daemon(saved_model, "--warm-cache")
    try:
        with QoRClient(host, port) as client:
            assert client.ping()
            results = client.predict_kernel("fir", fir_sweep)
            assert results == fir_reference
        process.send_signal(signum)
        returncode = process.wait(timeout=60)
        stdout = process.stdout.read()
        assert returncode == 0, process.stderr.read()
        assert "drained:" in stdout
        # the socket really is gone
        with pytest.raises((ConnectionError, OSError)):
            QoRClient(host, port, timeout=5).ping()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
        process.stderr.close()


def test_daemon_runs_one_blas_thread(saved_model):
    """The daemon sets its BLAS pool to one thread before the model loads
    (the drain test above checks that it still serves, bit for bit, what
    the in-process predictor computed at the host's pool size)."""
    if blas_threads() is None:
        pytest.skip("no OpenBLAS loaded")
    process, host, port = _spawn_daemon(saved_model)
    try:
        with QoRClient(host, port) as client:
            assert client.stats()["server"]["blas_threads"] == 1
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
        process.stderr.close()


def test_float32_tier_serves(saved_model, fir_sweep):
    """The daemon can serve the cheap inference tier end to end."""
    process, host, port = _spawn_daemon(saved_model, "--precision", "float32")
    try:
        with QoRClient(host, port) as client:
            results = client.predict_kernel("fir", fir_sweep[:2])
        assert len(results) == 2
        assert all(metrics for metrics in results)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
        process.stderr.close()
