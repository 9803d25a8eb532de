"""The subprocess-backed reference matcher server.

One process owns one trained matcher and serves columnar predictions
(the ``predict_columnar`` op) over the frame protocol to any number of
clients — the deployment shape where N service shards share a model too
heavy to replicate per shard.  Run it standalone via the
``serve-matcher`` CLI (``repro-em serve-matcher --model-dir …``), or
in-process through :class:`MatcherServer` (tests, benchmarks).

Concurrency model: an accept thread spawns one reader thread per
connection; each predict request is dispatched to a small shared worker
pool and its response is written back **whenever it finishes** — out of
order by design, which is what lets a pipelining client keep several
batches in flight on one connection.  A per-connection send lock keeps
frames contiguous.

A :class:`~repro.testing.chaos.BackendChaos` spec arms one network
fault (latency on every response, a mid-frame disconnect, or a garbage
reply) so drills and the failure-taxonomy tests exercise the *real*
client against a *really* misbehaving server.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends.base import (
    DEFAULT_MAX_BATCH_SIZE,
    PROTOCOL_VERSION,
    BackendCapabilities,
)
from repro.backends.protocol import FRAME_MAGIC, read_frame, send_frame
from repro.core.columnar import ColumnarPairBatch
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import (
    BackendProtocolError,
    ConfigurationError,
    ServiceError,
    error_code,
)
from repro.matchers.base import score_batch

__all__ = ["MatcherServer"]

logger = logging.getLogger(__name__)


class _ChaosState:
    """Server-side bookkeeping for one armed :class:`BackendChaos` spec."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._served = 0
        self._armed = spec is not None

    def delay(self) -> float:
        if self.spec is not None and self.spec.mode == "latency":
            return self.spec.delay_seconds
        return 0.0

    def should_fire(self) -> str | None:
        """Count one served predict request; the fault mode when it fires."""
        spec = self.spec
        if spec is None or spec.mode == "latency":
            return None
        with self._lock:
            if not self._armed:
                return None
            self._served += 1
            if self._served < spec.after_requests:
                return None
            self._served = 0
            if not spec.repeat:
                self._armed = False
            return spec.mode


class MatcherServer:
    """Serve one trained matcher over the backend frame protocol.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    ``(host, port)``.  The matcher must already be trained — its
    fingerprint is computed once at startup and advertised in every
    handshake, because clients pin it for the life of their caches.
    """

    def __init__(
        self,
        matcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        workers: int = 4,
        chaos=None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.matcher = matcher
        self.capabilities = BackendCapabilities(
            fingerprint=matcher_fingerprint(matcher),
            max_batch_size=int(max_batch_size),
            matcher_class=type(matcher).__name__,
        )
        self._host = host
        self._port = int(port)
        self._workers = workers
        self._chaos = _ChaosState(chaos)
        self._listener: socket.socket | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._closed = threading.Event()
        self._served_event = threading.Event()
        self.address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen and serve in background threads; returns the address."""
        listener = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        listener.settimeout(0.2)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="matcher-server"
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="matcher-accept"
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until :meth:`close` (the CLI entry point's main thread)."""
        if self._listener is None:
            self.start()
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop live connections, release the pool."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
        with self._conn_lock:
            doomed = list(self._connections)
            self._connections.clear()
        for sock in doomed:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    def __enter__(self) -> "MatcherServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept / per-connection loops ---------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conn_lock:
                if self._closed.is_set():
                    sock.close()
                    break
                self._connections.add(sock)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(sock, peer),
                daemon=True, name="matcher-conn",
            ).start()

    def _discard(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._connections.discard(sock)
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _serve_connection(self, sock: socket.socket, peer) -> None:
        send_lock = threading.Lock()
        try:
            while not self._closed.is_set():
                try:
                    message = read_frame(sock)
                except BackendProtocolError as error:
                    logger.warning("dropping %s: %s", peer, error)
                    break
                except (ConnectionError, OSError):
                    break  # client went away
                self._dispatch(sock, send_lock, message)
        finally:
            self._discard(sock)

    # -- request handling ----------------------------------------------

    def _dispatch(self, sock, send_lock, message: dict) -> None:
        op = message.get("op")
        request_id = message.get("id")
        if op == "hello":
            self._respond(sock, send_lock, self._handle_hello(message))
            return
        if op == "ping":
            self._respond(sock, send_lock, {"id": request_id, "ok": True,
                                            "result": "pong"})
            return
        if op != "predict_columnar":
            self._respond(sock, send_lock, {
                "id": request_id, "ok": False, "code": "bad_request",
                "error": f"unknown op {op!r}",
            })
            return
        assert self._pool is not None
        self._pool.submit(self._predict, sock, send_lock, message)

    def _handle_hello(self, message: dict) -> dict:
        client_protocol = message.get("protocol")
        if client_protocol != PROTOCOL_VERSION:
            return {
                "id": message.get("id"), "ok": False,
                "code": "backend_protocol",
                "error": (
                    f"client speaks protocol {client_protocol!r}, this "
                    f"server needs {PROTOCOL_VERSION}"
                ),
            }
        return {
            "id": message.get("id"), "ok": True,
            "capabilities": self.capabilities.to_dict(),
        }

    def _predict(self, sock, send_lock, message: dict) -> None:
        request_id = message.get("id")
        try:
            result = self._score(message)
            response = {"id": request_id, "ok": True, "result": result}
        except Exception as error:  # noqa: BLE001 - relayed to the client
            response = {
                "id": request_id, "ok": False,
                "code": error_code(error), "error": str(error),
            }
        delay = self._chaos.delay()
        if delay:
            time.sleep(delay)
        fire = self._chaos.should_fire()
        if fire == "disconnect":
            self._cut_mid_frame(sock, send_lock)
            return
        if fire == "garbage":
            self._send_garbage(sock, send_lock)
            return
        self._respond(sock, send_lock, response)
        self._served_event.set()

    def _score(self, message: dict) -> np.ndarray:
        batch = message.get("batch")
        if not isinstance(batch, ColumnarPairBatch):
            raise ServiceError(
                f"predict_columnar needs a ColumnarPairBatch, got "
                f"{type(batch).__name__}"
            )
        if batch.n_rows > self.capabilities.max_batch_size:
            raise ServiceError(
                f"batch of {batch.n_rows} exceeds the advertised max of "
                f"{self.capabilities.max_batch_size}"
            )
        return np.asarray(score_batch(self.matcher, batch), dtype=np.float64)

    # -- response paths (normal and chaotic) ---------------------------

    def _respond(self, sock, send_lock, response: dict) -> None:
        try:
            with send_lock:
                send_frame(sock, response)
        except (ConnectionError, OSError):
            self._discard(sock)

    def _cut_mid_frame(self, sock, send_lock) -> None:
        """Write half a frame header, then tear the connection down."""
        try:
            with send_lock:
                sock.sendall(FRAME_MAGIC[:2])
                # shutdown, not just close: this connection's reader
                # thread is blocked in recv on the same fd, and close
                # alone defers the TCP teardown until that syscall
                # returns — the client would hang mid-header until its
                # call timeout instead of seeing the mid-frame EOF this
                # fault exists to produce.
                sock.shutdown(socket.SHUT_RDWR)
        except (ConnectionError, OSError):
            pass
        self._discard(sock)

    def _send_garbage(self, sock, send_lock) -> None:
        """Answer with bytes that fail the magic check."""
        try:
            with send_lock:
                sock.sendall(b"\x00GARBAGE\x00" * 4)
        except (ConnectionError, OSError):
            self._discard(sock)
