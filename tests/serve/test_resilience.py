"""Client retry/backoff and server connection-hygiene behaviour.

The unit half pins down the backoff schedule and the retry loop's
accounting (attempt counts, which error codes retry, deadline cut-off)
against a monkeypatched clock; the integration half drives a real server:
retries actually recover from transient ``overloaded``/``draining``
rejections and reconnects, idle connections are culled without touching
in-flight requests, and an oversized request line gets a structured
``bad-request`` instead of a wedged parser.
"""

from __future__ import annotations

import socket
import threading
import time
from random import Random

import pytest

from repro.serve import QoRClient, ServeError
from repro.serve.client import RETRYABLE_CODES, backoff_delay
from repro.serve.protocol import decode_message, encode_message


class TestBackoffDelay:
    def test_exponential_growth_with_cap(self):
        rng = Random(0)
        delays = [
            backoff_delay(attempt, base=0.1, cap=1.0, rng=rng)
            for attempt in range(1, 8)
        ]
        # jitter keeps every delay within (0.5x, 1x] of the raw schedule
        raw = [min(1.0, 0.1 * 2 ** (attempt - 1)) for attempt in range(1, 8)]
        for delay, ceiling in zip(delays, raw):
            assert 0.5 * ceiling <= delay <= ceiling
        assert max(delays) <= 1.0

    def test_jitter_decorrelates(self):
        rng = Random(7)
        delays = {backoff_delay(3, base=0.1, cap=5.0, rng=rng) for _ in range(8)}
        assert len(delays) > 1  # not a fixed schedule


class TestRetryLoop:
    """The retry loop itself, with sleeping stubbed out."""

    @pytest.fixture(autouse=True)
    def no_sleep(self, monkeypatch):
        from repro.serve import client as client_module

        slept = []
        monkeypatch.setattr(client_module, "_sleep", slept.append)
        self.slept = slept

    def test_retryable_codes(self):
        assert "overloaded" in RETRYABLE_CODES
        assert "draining" in RETRYABLE_CODES
        assert "bad-request" not in RETRYABLE_CODES

    def test_overloaded_retried_then_succeeds(self, make_server, monkeypatch):
        harness = make_server()
        client = QoRClient(*harness.address, request_attempts=4)
        outcomes = [
            ServeError("overloaded", "try later"),
            ServeError("overloaded", "try later"),
            {"ok": True, "pong": True},
        ]

        def flaky(message):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_attempt", flaky)
        assert client.request({"type": "ping"})["pong"] is True
        assert len(self.slept) == 2  # one backoff per rejection
        client.close()

    def test_attempts_exhausted_raises_with_count(self, make_server, monkeypatch):
        harness = make_server()
        client = QoRClient(*harness.address, request_attempts=3)
        monkeypatch.setattr(
            client, "_attempt",
            lambda message: (_ for _ in ()).throw(ServeError("overloaded", "no")),
        )
        with pytest.raises(ServeError) as excinfo:
            client.request({"type": "ping"})
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.attempts == 3
        client.close()

    def test_non_retryable_raises_immediately(self, make_server, monkeypatch):
        harness = make_server()
        client = QoRClient(*harness.address, request_attempts=5)
        monkeypatch.setattr(
            client, "_attempt",
            lambda message: (_ for _ in ()).throw(ServeError("bad-request", "no")),
        )
        with pytest.raises(ServeError) as excinfo:
            client.request({"type": "ping"})
        assert excinfo.value.attempts == 1
        assert not self.slept
        client.close()

    def test_deadline_bounds_retries(self, make_server, monkeypatch):
        import time as time_module

        harness = make_server()
        client = QoRClient(
            *harness.address, request_attempts=100, request_deadline=10.0
        )
        monkeypatch.setattr(
            client, "_attempt",
            lambda message: (_ for _ in ()).throw(ServeError("overloaded", "no")),
        )
        ticks = iter(range(0, 1000, 6))  # monotonic clock jumping 6s per call
        monkeypatch.setattr(time_module, "monotonic", lambda: float(next(ticks)))
        with pytest.raises(ServeError) as excinfo:
            client.request({"type": "ping"})
        assert excinfo.value.attempts < 100  # deadline, not attempts, cut it


class TestRetryIntegration:
    def test_client_rides_out_overload(self, make_server, fir_sweep, fir_reference):
        # capacity admits one request at a time; a patient client retries
        # through the rejection and still gets the right answer
        harness = make_server(hold_first_pass=True, max_pending=len(fir_sweep))
        results: list = []
        errors: list = []

        def ask(index: int) -> None:
            try:
                with QoRClient(
                    *harness.address, request_attempts=20,
                    retry_base_delay=0.05, retry_max_delay=0.2,
                ) as client:
                    results.append(client.predict_kernel("fir", fir_sweep))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        # one request holds the whole bound while its pass is held, so the
        # other clients are turned away before it is released
        assert harness.gate.held.wait(timeout=30)
        assert harness.wait_until(lambda: harness.server.rejected_overload >= 2)
        harness.gate.release()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results == [fir_reference] * 3

    def test_reconnect_after_server_side_disconnect(self, make_server):
        harness = make_server(idle_timeout=0.2)
        with QoRClient(*harness.address, retry_base_delay=0.01) as client:
            assert client.ping()
            # wait for the server to cull the idle connection...
            for _ in range(200):
                if harness.server.idle_disconnects >= 1:
                    break
                threading.Event().wait(0.01)
            assert harness.server.idle_disconnects >= 1
            # ...then the next request transparently reconnects and resends
            assert client.ping()


class TestConnectionHygiene:
    def test_in_flight_requests_are_not_culled(
        self, make_server, fir_sweep, fir_reference
    ):
        # the request's pass is held past the idle timeout: a connection
        # waiting on its own pending request must not count as idle, while
        # a silent connection opened after it is culled meanwhile
        idle_timeout = 0.2
        harness = make_server(hold_first_pass=True, idle_timeout=idle_timeout)
        results: list = []

        def ask() -> None:
            with QoRClient(*harness.address, request_attempts=1) as client:
                results.append(client.predict_kernel("fir", fir_sweep))

        thread = threading.Thread(target=ask)
        thread.start()
        assert harness.gate.held.wait(timeout=30)
        held_at = time.monotonic()
        with socket.create_connection(harness.address, timeout=30):
            assert harness.wait_until(lambda: harness.server.idle_disconnects >= 1)
        assert time.monotonic() - held_at > idle_timeout
        assert harness.server.idle_disconnects == 1
        harness.gate.release()
        thread.join(timeout=120)
        # one attempt, so a culled connection would have raised instead
        assert results == [fir_reference]

    def test_oversized_line_structured_rejection(self, make_server):
        harness = make_server(max_line_bytes=4096)
        with socket.create_connection(harness.address, timeout=30) as sock:
            handle = sock.makefile("rb")
            sock.sendall(b"x" * 8192 + b"\n")
            response = decode_message(handle.readline())
            assert response["ok"] is False
            assert response["error"] == "bad-request"
            assert "exceeds" in response["message"]
        assert harness.server.oversize_lines == 1

    def test_normal_lines_unaffected_by_bound(self, make_server):
        harness = make_server(max_line_bytes=1 << 16)
        with socket.create_connection(harness.address, timeout=30) as sock:
            handle = sock.makefile("rb")
            sock.sendall(encode_message({"type": "ping", "id": 1}))
            assert decode_message(handle.readline())["pong"] is True

    def test_stats_expose_hygiene_counters(self, make_server):
        harness = make_server(idle_timeout=123.0)
        with QoRClient(*harness.address) as client:
            stats = client.stats()
        server = stats["server"]
        assert server["idle_timeout"] == 123.0
        assert server["idle_disconnects"] == 0
        assert server["oversize_lines"] == 0
