"""The QoR prediction daemon: one resident predictor, many clients.

Everything upstream of this module assumed one process per sweep: load the
model, score a design space, exit — paying model load, source lowering and
cache warm-up on every invocation.  :class:`QoRServer` amortizes all of it
by keeping a single :class:`~repro.core.predictor.QoRPredictor` (and its
warm caches) resident and serving requests over newline-delimited JSON TCP
(see :mod:`repro.serve.protocol` for the wire format).

The architecture is an asyncio front end over a single inference thread:

* **asyncio front end** — accepts connections, parses/validates requests
  and writes responses concurrently; it never touches the model.
* **micro-batcher** (:mod:`repro.serve.batcher`) — merges the requests
  that queued while the previous pass ran into one shared
  ``predict_batch`` pass (a request on an idle server is scored at once,
  with no timed wait) and, crucially, *serializes* every model call on one
  dedicated thread: the predictor's memo dictionaries are plain dicts and
  are not thread-safe.  The ``repro-qor serve`` daemon runs that thread on
  one BLAS thread (set before the model loads): an idle OpenBLAS pool
  thread spin-waits after each threaded GEMM, on the core the event loop
  needs.  This class leaves the pool size alone — it is process-wide, and
  served bits do not depend on it — and reports it as ``blas_threads`` in
  ``stats``.
* **admission control** — a bounded count of pending configurations
  (``max_pending``); past it, new work is rejected immediately with a
  structured ``overloaded`` error rather than queued into unbounded memory.
* **graceful drain** — on SIGINT/SIGTERM (wired by the CLI) the server
  stops admitting (``draining`` errors), finishes every in-flight request,
  flushes the batcher and closes its sockets, then lets the process exit 0.
* **connection hygiene** — a connection silent for ``idle_timeout`` seconds
  with nothing in flight is closed (abandoned sockets must not accumulate
  in a long-lived daemon; a connection *waiting on its own request* is
  never culled), and a request line over ``max_line_bytes`` is answered
  with a structured ``bad-request`` before the connection is dropped
  instead of being torn down silently.
"""

from __future__ import annotations

import asyncio
import logging

from repro.core.predictor import QoRPredictor
from repro.nn.autograd import blas_threads
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    ProtocolError,
    config_from_payload,
    decode_message,
    encode_message,
    error_response,
)

logger = logging.getLogger(__name__)

#: generous readline limit — a request line carries at most a kernel source
#: plus a few hundred config payloads, well under a megabyte in practice
MAX_LINE_BYTES = 8 * 1024 * 1024


class QoRServer:
    """Serve QoR predictions from one resident predictor over TCP."""

    def __init__(
        self,
        predictor: QoRPredictor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 512,
        max_pending: int = 4096,
        idle_timeout: float | None = 300.0,
        max_line_bytes: int = MAX_LINE_BYTES,
    ):
        self.predictor = predictor
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.idle_timeout = idle_timeout
        self.max_line_bytes = max_line_bytes
        # signature_fn makes the batcher dedup-aware: HLS-equivalent pragma
        # configurations submitted by different clients in one pass are
        # scored once under their shared canonical signature
        self.batcher = MicroBatcher(
            predictor.predict_source_batch,
            max_batch=max_batch,
            signature_fn=predictor.canonical_signature,
        )
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._pending_configs = 0
        self._inflight: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        # server-level counters (the batcher keeps its own)
        self.requests = 0
        self.rejected_overload = 0
        self.rejected_draining = 0
        self.bad_requests = 0
        self.internal_errors = 0
        self.idle_disconnects = 0
        self.oversize_lines = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the batch loop."""
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=self.max_line_bytes,
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative when port 0 was requested."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, refuse new work, close.

        Safe to call more than once; later calls await the same teardown.
        New requests arriving mid-drain get a structured ``draining`` error
        while everything admitted beforehand is scored and answered.
        """
        self._draining = True
        if self._server is not None:
            # stop accepting *new connections*; existing ones stay open so
            # their in-flight responses can be written
            self._server.close()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        await self.batcher.stop()
        for writer in list(self._connections):
            writer.close()
        for writer in list(self._connections):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain (the CLI's main loop)."""
        await stop.wait()
        await self.drain()

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    async def stats_payload(self) -> dict:
        """Server counters + batcher stats + the predictor's cache_stats.

        The cache snapshot runs on the inference thread so it cannot race a
        ``predict_batch`` that is mutating the memos.
        """
        cache_stats = await self.batcher.run_serialized(
            self.predictor.cache_stats
        )
        return {
            "server": {
                "requests": self.requests,
                "rejected_overload": self.rejected_overload,
                "rejected_draining": self.rejected_draining,
                "bad_requests": self.bad_requests,
                "internal_errors": self.internal_errors,
                "idle_disconnects": self.idle_disconnects,
                "oversize_lines": self.oversize_lines,
                "idle_timeout": self.idle_timeout,
                "queue_depth_configs": self._pending_configs,
                "max_pending_configs": self.max_pending,
                "draining": self._draining,
                "connections": len(self._connections),
                "blas_threads": blas_threads(),
            },
            "batcher": self.batcher.stats.as_dict(),
            "caches": {key: int(value) for key, value in cache_stats.items()},
        }

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Per-connection read loop: one task per request line.

        The loop enforces the two per-connection bounds: ``idle_timeout``
        seconds of silence close the connection *unless it has requests in
        flight* (a client blocked on a slow batch is waiting on us, not
        idle), and a line over ``max_line_bytes`` is answered with a
        structured ``bad-request`` before closing (the stream cannot be
        resynchronized past a discarded partial line).
        """
        self._connections.add(writer)
        write_lock = asyncio.Lock()  # responses interleave per connection
        conn_inflight: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    if self.idle_timeout is None:
                        line = await reader.readline()
                    else:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=self.idle_timeout
                        )
                except asyncio.TimeoutError:
                    if any(not task.done() for task in conn_inflight):
                        continue  # quiet but waiting on its own requests
                    self.idle_disconnects += 1
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # StreamReader raises ValueError for an over-limit line
                    # (the partial line is discarded, so close afterwards)
                    self.oversize_lines += 1
                    self.bad_requests += 1
                    await self._send(
                        writer,
                        write_lock,
                        error_response(
                            None,
                            "bad-request",
                            f"request line exceeds {self.max_line_bytes} "
                            "bytes",
                        ),
                    )
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_request(line, writer, write_lock)
                )
                self._inflight.add(task)
                conn_inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                task.add_done_callback(conn_inflight.discard)
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: dict,
    ) -> None:
        """Write one response under the connection's write lock."""
        async with write_lock:
            if writer.is_closing():
                return
            try:
                writer.write(encode_message(message))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client vanished; nothing useful to do

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _handle_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Decode one request line and dispatch it by type."""
        self.requests += 1
        request_id = None
        try:
            message = decode_message(line)
        except ProtocolError as exc:
            self.bad_requests += 1
            await self._send(
                writer, write_lock, error_response(None, "bad-request", str(exc))
            )
            return
        request_id = message.get("id")
        kind = message.get("type", "predict")
        if kind == "ping":
            await self._send(
                writer, write_lock, {"id": request_id, "ok": True, "pong": True}
            )
            return
        if kind == "stats":
            payload = await self.stats_payload()
            payload.update({"id": request_id, "ok": True})
            await self._send(writer, write_lock, payload)
            return
        if kind != "predict":
            self.bad_requests += 1
            await self._send(
                writer,
                write_lock,
                error_response(
                    request_id, "bad-request", f"unknown request type {kind!r}"
                ),
            )
            return
        await self._handle_predict(message, request_id, writer, write_lock)

    def _resolve_source(self, message: dict) -> str:
        """The kernel source text a predict request refers to."""
        source = message.get("source")
        kernel = message.get("kernel")
        if source is not None and kernel is not None:
            raise ProtocolError("give either 'source' or 'kernel', not both")
        if source is not None:
            if not isinstance(source, str) or not source.strip():
                raise ProtocolError("'source' must be a non-empty string")
            return source
        if kernel is None:
            raise ProtocolError("predict request needs 'source' or 'kernel'")
        if not isinstance(kernel, str):
            raise ProtocolError("'kernel' must be a string")
        from repro.kernels import kernel_source

        return kernel_source(kernel)  # KeyError -> unknown-kernel below

    async def _handle_predict(
        self,
        message: dict,
        request_id,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Validate, admit and score one predict request."""
        try:
            source = self._resolve_source(message)
            raw_configs = message.get("configs")
            if raw_configs is None:
                raw_configs = [message.get("config")]
            if not isinstance(raw_configs, list):
                raise ProtocolError("'configs' must be a list")
            if not raw_configs:
                raise ProtocolError("'configs' must not be empty")
            configs = [config_from_payload(item) for item in raw_configs]
        except KeyError as exc:
            self.bad_requests += 1
            await self._send(
                writer,
                write_lock,
                error_response(request_id, "unknown-kernel", str(exc)),
            )
            return
        except ProtocolError as exc:
            self.bad_requests += 1
            await self._send(
                writer,
                write_lock,
                error_response(request_id, "bad-request", str(exc)),
            )
            return

        # admission control: drain beats overload, and both are decided
        # *before* the work touches the batcher
        if self._draining:
            self.rejected_draining += 1
            await self._send(
                writer,
                write_lock,
                error_response(
                    request_id, "draining", "server is shutting down"
                ),
            )
            return
        if self._pending_configs + len(configs) > self.max_pending:
            self.rejected_overload += 1
            await self._send(
                writer,
                write_lock,
                error_response(
                    request_id,
                    "overloaded",
                    f"pending queue full "
                    f"({self._pending_configs}/{self.max_pending} configs); "
                    "retry later",
                ),
            )
            return

        self._pending_configs += len(configs)
        try:
            results = await self.batcher.submit(source, configs)
        except Exception as exc:  # noqa: BLE001 - reported as internal error
            self.internal_errors += 1
            logger.exception("prediction failed for request %r", request_id)
            await self._send(
                writer,
                write_lock,
                error_response(
                    request_id, "internal", f"{type(exc).__name__}: {exc}"
                ),
            )
            return
        finally:
            self._pending_configs -= len(configs)
        await self._send(
            writer,
            write_lock,
            {"id": request_id, "ok": True, "results": results},
        )


__all__ = ["QoRServer", "MAX_LINE_BYTES"]
