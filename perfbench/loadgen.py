"""Open-loop NDJSON load generator for the serve-open workload.

One process, a fixed number of pipelined TCP connections.  Requests go out
on a fixed schedule whatever the daemon does (an open loop: a stalled daemon
builds a queue instead of slowing the sender), and every latency is timed
from the request's *scheduled* send time, so a stall also charges the wait
it imposes on the requests behind it.  How late the sender itself ran is
recorded per request, so a step whose generator fell behind can be thrown
out instead of silently under-loading the daemon.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from dataclasses import dataclass, field

#: seconds a step waits for stragglers after its last scheduled send
STEP_TIMEOUT = 10.0
#: lead time between scheduling a step and its first send
STEP_LEAD = 0.005


def request_line(request_id: int, kernel: str, configs) -> bytes:
    """One ``predict`` request on the wire (canonical config payloads)."""
    from repro.serve.protocol import config_to_payload

    message = {
        "type": "predict", "id": request_id, "kernel": kernel,
        "configs": [config_to_payload(config) for config in configs],
    }
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


@dataclass
class Step:
    """One rate step of the ladder, as the generator saw it."""

    rate: int
    sent: int
    completed: int
    errors: int
    #: per request, from scheduled send to reply; inf when failed or missing
    latencies_s: list[float]
    #: per request, actual minus scheduled send time
    late_s: list[float]
    start: float
    end: float
    responses: dict = field(default_factory=dict)
    failed_ids: list[int] = field(default_factory=list)


class LoadGenerator:
    """Pipelined connections to one daemon, each with its own reader thread."""

    def __init__(self, address: tuple[str, int], connections: int) -> None:
        self.address = address
        self.connections = connections
        self._cond = threading.Condition()
        self._replies: dict = {}
        self._pending: set = set()
        self._sockets: list[socket.socket] = []
        self._readers: list[threading.Thread] = []
        self._control_ids = 0

    def __enter__(self) -> "LoadGenerator":
        try:
            for _ in range(self.connections):
                sock = socket.create_connection(self.address, timeout=30)
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sockets.append(sock)
                reader = threading.Thread(target=self._read, args=(sock,), daemon=True)
                reader.start()
                self._readers.append(reader)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for sock in self._sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in self._readers:
            reader.join(timeout=10)
        self._sockets, self._readers = [], []

    def _read(self, sock: socket.socket) -> None:
        stream = sock.makefile("rb")
        try:
            for line in stream:
                received = time.perf_counter()
                message = json.loads(line)
                with self._cond:
                    request_id = message.get("id")
                    self._replies[request_id] = (received, message)
                    self._pending.discard(request_id)
                    self._cond.notify_all()
        except (OSError, ValueError):
            pass  # socket shut down by close()
        finally:
            stream.close()

    def _wait(self, deadline: float) -> None:
        with self._cond:
            self._cond.wait_for(
                lambda: not self._pending, timeout=max(0.0, deadline - time.perf_counter())
            )

    def call(self, lines: list[bytes], ids: list | None = None) -> list[dict]:
        """Closed-loop helper: send ``lines`` on the first connection, await all."""
        ids = ids if ids is not None else [json.loads(line)["id"] for line in lines]
        with self._cond:
            self._pending.update(ids)
        for line in lines:
            self._sockets[0].sendall(line)
        self._wait(time.perf_counter() + 120.0)
        with self._cond:
            missing = [rid for rid in ids if rid not in self._replies]
            if missing:
                raise TimeoutError(f"no reply to requests {missing}")
            return [self._replies.pop(rid)[1] for rid in ids]

    def stats(self) -> dict:
        """The daemon's ``stats`` verb."""
        self._control_ids += 1
        request_id = -1_000_000 - self._control_ids
        line = json.dumps({"type": "stats", "id": request_id}).encode() + b"\n"
        return self.call([line], [request_id])[0]

    def run_step(self, rate: int, ids: list[int], lines: list[bytes]) -> Step:
        """Send ``lines`` at ``rate`` per second, round-robin over connections.

        The generator's own garbage collector is held off for the step, so
        its pauses are not charged to the daemon as latency.
        """
        gc.collect()
        gc.disable()
        try:
            return self._run_step(rate, ids, lines)
        finally:
            gc.enable()

    def _run_step(self, rate: int, ids: list[int], lines: list[bytes]) -> Step:
        count = len(lines)
        with self._cond:
            self._pending.update(ids)
        start = time.perf_counter() + STEP_LEAD
        due = [start + position / rate for position in range(count)]
        late = []
        for position, line in enumerate(lines):
            delay = due[position] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append(time.perf_counter() - due[position])
            self._sockets[position % len(self._sockets)].sendall(line)
        self._wait(due[-1] + STEP_TIMEOUT)
        with self._cond:
            replies = {rid: self._replies.pop(rid) for rid in ids if rid in self._replies}
            self._pending.difference_update(ids)
        latencies, failed = [], []
        errors = 0
        end = start
        for position, rid in enumerate(ids):
            reply = replies.get(rid)
            if reply is None:
                latencies.append(float("inf"))
                failed.append(rid)
                continue
            received, message = reply
            end = max(end, received)
            if not message.get("ok"):
                errors += 1
                failed.append(rid)
                latencies.append(float("inf"))
                continue
            latencies.append(received - due[position])
        return Step(
            rate=rate, sent=count, completed=len(replies), errors=errors,
            latencies_s=latencies, late_s=late, start=start, end=end,
            responses={rid: message for rid, (_, message) in replies.items()},
            failed_ids=failed,
        )
