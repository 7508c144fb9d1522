"""Behavioural tests of the serving daemon through real TCP connections.

These run the full stack — asyncio server, micro-batcher, inference
thread, blocking client — against the package's own tiny predictor, and
compare every served prediction to the direct ``predict_source_batch``
reference computed before any serving (bit-identical at float64, which
JSON round-trips exactly).
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.core import HierarchicalModelConfig, TrainingConfig, build_design_instances
from repro.core.predictor import QoRPredictor
from repro.dse.space import sample_design_space
from repro.kernels import load_kernels
from repro.nn.autograd import blas_threads
from repro.serve import QoRClient, ServeError
from repro.serve.protocol import decode_message, encode_message


class TestBasics:
    def test_ping_and_stats(self, make_server):
        harness = make_server()
        with QoRClient(*harness.address) as client:
            assert client.ping()
            stats = client.stats()
        assert stats["server"]["requests"] >= 1
        assert stats["server"]["max_pending_configs"] == 4096
        assert "batch_size_histogram" in stats["batcher"]
        # the predictor's cache counters ride along
        assert "memoized_predictions" in stats["caches"]
        assert "lowered_source_evictions" in stats["caches"]
        # an in-process server leaves the BLAS pool at the host's size
        assert stats["server"]["blas_threads"] == blas_threads()

    def test_served_predictions_bit_identical_to_direct_batch(
        self, make_server, fir_sweep, fir_reference
    ):
        harness = make_server()
        with QoRClient(*harness.address) as client:
            results = client.predict_kernel("fir", fir_sweep)
        assert results == fir_reference

    def test_single_config_and_source_requests(
        self, make_server, fir_sweep, fir_reference
    ):
        from repro.kernels import kernel_source

        harness = make_server()
        with QoRClient(*harness.address) as client:
            one = client.predict_kernel("fir", [fir_sweep[0]])
            assert one == [fir_reference[0]]
            via_source = client.predict_source(kernel_source("fir"), fir_sweep[:2])
            assert via_source == fir_reference[:2]


class TestBadRequests:
    def test_structured_errors(self, make_server):
        harness = make_server()
        with QoRClient(*harness.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.predict_kernel("no-such-kernel", [None])
            assert excinfo.value.code == "unknown-kernel"
            with pytest.raises(ServeError) as excinfo:
                client.request({"type": "predict", "kernel": "fir", "configs": []})
            assert excinfo.value.code == "bad-request"
            with pytest.raises(ServeError) as excinfo:
                client.request({"type": "warp"})
            assert excinfo.value.code == "bad-request"
            with pytest.raises(ServeError) as excinfo:
                client.request({
                    "type": "predict", "kernel": "fir",
                    "configs": [{"loops": {"L0": {"unroll": "many"}}}],
                })
            assert excinfo.value.code == "bad-request"
            # the connection survives every rejection
            assert client.ping()

    def test_malformed_directive_values_get_bad_request(self, make_server):
        """Unparseable numbers and partition types, in either configuration
        form, are answered with ``bad-request`` — not dropped unanswered,
        and not truncated into a different design."""
        harness = make_server()
        payloads = [
            {"loops": ["L0=unroll:x"]},
            {"loops": {"L0": {"unroll": 2.5}}},
            {"arrays": ["A=foo:2"]},
            {"arrays": ["A=cyclic:two"]},
        ]
        with socket.create_connection(harness.address, timeout=10) as sock:
            handle = sock.makefile("rb")
            for request_id, config in enumerate(payloads):
                sock.sendall(encode_message({
                    "type": "predict", "id": request_id, "kernel": "fir",
                    "configs": [config],
                }))
                response = decode_message(handle.readline())
                assert response["id"] == request_id
                assert response["ok"] is False, config
                assert response["error"] == "bad-request", config
        with QoRClient(*harness.address) as client:
            assert client.stats()["server"]["bad_requests"] == len(payloads)

    def test_unknown_keys_get_bad_request_and_are_counted(self, make_server):
        """A misspelt key is rejected naming the key — never scored as the
        baseline design — and counted in ``bad_requests``."""
        harness = make_server()
        payloads = [
            ({"loops": {"L0": {"unrol": 4}}}, "unrol"),
            ({"arrays": {"coeff": {"factr": 4}}}, "factr"),
            ({"loop": {"L0": {"unroll": 4}}}, "loop"),
        ]
        with QoRClient(*harness.address) as client:
            for config, key in payloads:
                with pytest.raises(ServeError) as excinfo:
                    client.request({
                        "type": "predict", "kernel": "fir", "configs": [config],
                    })
                assert excinfo.value.code == "bad-request", config
                assert repr(key) in str(excinfo.value), config
            assert client.stats()["server"]["bad_requests"] == len(payloads)

    def test_out_of_range_values_get_bad_request_and_are_counted(self, make_server):
        """A negative unroll or II, a zero cyclic factor and dimension 0 are
        rejected in both notations, naming the field — never scored as if
        the directive were absent — and counted in ``bad_requests``."""
        harness = make_server()
        payloads = [
            ({"loops": {"L0": {"unroll": -3}}}, "unroll"),
            ({"loops": ["L0=unroll:-3"]}, "unroll"),
            ({"loops": {"L0": {"pipeline": True, "ii": -1}}}, "ii"),
            ({"loops": ["L0=pipeline:-1"]}, "ii"),
            ({"arrays": {"coeff": {"type": "cyclic", "factor": 0}}}, "factor"),
            ({"arrays": ["coeff=cyclic:0"]}, "factor"),
            ({"arrays": {"coeff": {"factor": 2, "dim": 0}}}, "dim"),
            ({"arrays": ["coeff=cyclic:2:0"]}, "dim"),
        ]
        with QoRClient(*harness.address) as client:
            for config, field in payloads:
                with pytest.raises(ServeError) as excinfo:
                    client.request({
                        "type": "predict", "kernel": "fir", "configs": [config],
                    })
                assert excinfo.value.code == "bad-request", config
                assert f"{field} must be" in str(excinfo.value), config
            assert client.stats()["server"]["bad_requests"] == len(payloads)

    def test_invalid_json_line_gets_bad_request_not_disconnect(self, make_server):
        harness = make_server()
        with socket.create_connection(harness.address, timeout=30) as sock:
            handle = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = decode_message(handle.readline())
            assert response["ok"] is False
            assert response["error"] == "bad-request"
            sock.sendall(encode_message({"type": "ping", "id": 1}))
            assert decode_message(handle.readline())["pong"] is True


class TestCoalescing:
    def test_concurrent_requests_share_batches_and_demux_correctly(
        self, make_server, fir_sweep, fir_reference
    ):
        """Many clients in one window -> fewer passes, right answers to each.

        A generous window guarantees requests launched together coalesce;
        every client asks for a *different* slice of the sweep, so getting
        the right bits back proves the demultiplexing, not just the math.
        """
        harness = make_server(batch_window_ms=250.0)
        num_clients = 8
        outcomes: dict[int, list[dict]] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(num_clients)

        def worker(index: int) -> None:
            # distinct per-client slice, cycling through the sweep
            picks = [(index + offset) % len(fir_sweep) for offset in range(3)]
            try:
                with QoRClient(*harness.address) as client:
                    barrier.wait(timeout=30)
                    outcomes[index] = (
                        picks,
                        client.predict_kernel("fir", [fir_sweep[p] for p in picks]),
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(outcomes) == num_clients
        for picks, results in outcomes.values():
            assert results == [fir_reference[p] for p in picks]
        stats = harness.server.batcher.stats
        assert stats.requests == num_clients
        # the window merged concurrent clients into shared passes
        assert stats.coalesced_batches >= 1
        assert stats.batches < num_clients

    def test_max_batch_flushes_early(self, make_server, fir_sweep, fir_reference):
        harness = make_server(batch_window_ms=10_000.0, max_batch=2)
        with QoRClient(*harness.address) as client:
            results = client.predict_kernel("fir", fir_sweep)
        # an enormous window would stall forever if max_batch didn't flush
        assert results == fir_reference
        assert harness.server.batcher.stats.batches >= 1


class TestBatchInvariance:
    @pytest.fixture(scope="class")
    def gemm_model_path(self, tmp_path_factory):
        """A gemm model whose GEMMs are wide enough for BLAS to pick kernels
        by row count (hidden 32), saved so each server loads a cold copy."""
        kernels = load_kernels(("gemm",))
        configs = {
            "gemm": sample_design_space(
                kernels["gemm"], 6, rng=np.random.default_rng(0)
            )
        }
        predictor = QoRPredictor(
            HierarchicalModelConfig(
                conv_type="graphsage", hidden=32, num_layers=2,
                training=TrainingConfig(epochs=1, batch_size=16, seed=0),
            )
        )
        predictor.fit_instances(build_design_instances(kernels, configs))
        return predictor.save(tmp_path_factory.mktemp("invariance") / "gemm.npz")

    def test_design_alone_and_in_a_coalesced_window_get_the_same_bits(
        self, make_server, gemm_model_path
    ):
        configs = sample_design_space(
            load_kernels(("gemm",))["gemm"], 12, rng=np.random.default_rng(11)
        )
        alone_server = make_server(predictor=QoRPredictor.load(gemm_model_path))
        with QoRClient(*alone_server.address) as client:
            alone = [client.predict_kernel("gemm", [config])[0] for config in configs]
        assert alone_server.server.batcher.stats.coalesced_batches == 0

        shared_server = make_server(
            predictor=QoRPredictor.load(gemm_model_path), batch_window_ms=250.0
        )
        shared: dict[int, dict] = {}
        barrier = threading.Barrier(len(configs))

        def send(index: int) -> None:
            with QoRClient(*shared_server.address) as client:
                barrier.wait(timeout=30)
                shared[index] = client.predict_kernel("gemm", [configs[index]])[0]

        threads = [
            threading.Thread(target=send, args=(index,))
            for index in range(len(configs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert shared_server.server.batcher.stats.coalesced_batches >= 1
        assert len(shared) == len(configs)
        for index, row in enumerate(alone):
            assert {name: value.hex() for name, value in shared[index].items()} == {
                name: value.hex() for name, value in row.items()
            }, index


class TestAdmissionControl:
    def test_overload_rejected_with_structured_error(
        self, make_server, fir_sweep
    ):
        # window long enough that the first request is still pending when
        # the second arrives; capacity only fits the first
        harness = make_server(batch_window_ms=2_000.0, max_pending=len(fir_sweep))
        first_result: list = []

        def first() -> None:
            with QoRClient(*harness.address) as client:
                first_result.append(client.predict_kernel("fir", fir_sweep))

        thread = threading.Thread(target=first)
        thread.start()
        # wait until the first request is admitted (pending counter visible)
        for _ in range(500):
            if harness.server._pending_configs >= len(fir_sweep):
                break
            threading.Event().wait(0.01)
        assert harness.server._pending_configs >= len(fir_sweep)
        # request_attempts=1: this test asserts the rejection itself, not
        # the client's (default) retry-on-overload policy
        with QoRClient(*harness.address, request_attempts=1) as client:
            with pytest.raises(ServeError) as excinfo:
                client.predict_kernel("fir", [fir_sweep[0]])
            assert excinfo.value.code == "overloaded"
            assert "retry" in excinfo.value.detail
        thread.join(timeout=120)
        # the admitted request was unaffected by the rejection
        assert first_result and len(first_result[0]) == len(fir_sweep)
        assert harness.server.rejected_overload == 1
        assert harness.server._pending_configs == 0


class TestDrain:
    def test_drain_completes_inflight_and_rejects_new(
        self, make_server, fir_sweep, fir_reference
    ):
        harness = make_server(batch_window_ms=500.0)
        inflight_result: list = []

        def inflight() -> None:
            with QoRClient(*harness.address) as client:
                inflight_result.append(client.predict_kernel("fir", fir_sweep))

        thread = threading.Thread(target=inflight)
        thread.start()
        for _ in range(500):
            if harness.server._pending_configs >= len(fir_sweep):
                break
            threading.Event().wait(0.01)
        assert harness.server._pending_configs >= len(fir_sweep)

        # flip into draining mode while the request is still in the window
        rejected = QoRClient(*harness.address, request_attempts=1)
        harness.call_soon(lambda: setattr(harness.server, "_draining", True))
        for _ in range(100):
            if harness.server._draining:
                break
            threading.Event().wait(0.01)
        with pytest.raises(ServeError) as excinfo:
            rejected.predict_kernel("fir", [fir_sweep[0]])
        assert excinfo.value.code == "draining"
        rejected.close()

        # the in-flight request still completes, correctly
        thread.join(timeout=120)
        assert inflight_result == [fir_reference]
        assert harness.server.rejected_draining == 1

        # full drain: sockets close, batcher stops, thread exits cleanly
        harness.stop()
        with pytest.raises((ConnectionError, OSError)):
            QoRClient(*harness.address).ping()

    def test_drain_is_idempotent(self, make_server):
        harness = make_server()
        with QoRClient(*harness.address) as client:
            assert client.ping()
        harness.call(harness.server.drain())
        harness.call(harness.server.drain())
        harness.stop()  # triggers a third drain via the harness main loop


class TestStatsCounters:
    def test_histogram_and_counters_accumulate(self, make_server, fir_sweep):
        harness = make_server()
        with QoRClient(*harness.address) as client:
            client.predict_kernel("fir", fir_sweep[:2])
            client.predict_kernel("fir", fir_sweep[:2])
            stats = client.stats()
        batcher = stats["batcher"]
        assert batcher["requests"] == 2
        assert batcher["configs"] == 4
        assert sum(batcher["batch_size_histogram"].values()) == batcher["batches"]
        assert json.dumps(stats)  # the whole payload is JSON-serializable
