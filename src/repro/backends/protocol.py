"""Length-prefixed framing for the matcher-backend socket protocol.

One frame = an 8-byte header (4 magic bytes + big-endian uint32 payload
length) followed by a pickled message dict.  Messages carry a caller-
chosen ``id`` so responses may return **out of order** — the server
completes batches as its workers finish and the client's reader thread
resolves whichever waiter the id names.  That is what makes pipelining
(multiple in-flight batches on one connection) possible without one slow
batch convoying the rest.

Pickle is the payload codec deliberately: it is the repo's existing
cross-process idiom (shard specs travel the same way), round-trips
``RecordPair`` / ``ColumnarPairBatch`` / numpy arrays without a parallel
schema, and both endpoints are this library by contract — the magic
bytes and a hard size cap reject foreign or corrupt peers before any
unpickling happens.  Do not point the client at an untrusted server.

Framing violations raise :class:`~repro.exceptions.BackendProtocolError`
(bad magic, oversized length, undecodable payload); a cleanly closed or
mid-frame-dropped connection raises :class:`ConnectionError` so callers
can distinguish *peer gone* (reconnect and retry) from *peer broken*
(fail fast).
"""

from __future__ import annotations

import pickle
import socket
import struct

from repro.exceptions import BackendProtocolError

__all__ = [
    "DEFAULT_HOST",
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "read_frame",
    "send_frame",
]

#: Address a frame-protocol listener (``MatcherServer``, ``ShardServer``)
#: binds when given none: loopback, so exposing one is a deliberate act.
DEFAULT_HOST = "127.0.0.1"

#: First bytes of every frame; anything else on the wire is not us.
FRAME_MAGIC = b"RBM1"

#: Hard cap on one frame's payload.  A garbage header would otherwise be
#: interpreted as a multi-gigabyte length and stall the reader trying to
#: fill it; 256 MiB comfortably fits the largest engine chunk.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("!4sI")


def send_frame(
    sock: socket.socket, message: dict, magic: bytes = FRAME_MAGIC
) -> None:
    """Serialize *message* and write one frame (single ``sendall``).

    Callers serialize concurrent senders with their own lock; a single
    ``sendall`` keeps a frame contiguous on the wire even then.  *magic*
    names the sub-protocol (matcher backend by default; the shard fleet
    transport passes its own) so a shard dialled as a matcher — or vice
    versa — is rejected at the first frame, not after unpickling.
    """
    payload = pickle.dumps(message, protocol=4)
    if len(payload) > MAX_FRAME_BYTES:
        raise BackendProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(magic, len(payload)) + payload)


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly *n* bytes or raise :class:`ConnectionError`."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket, magic: bytes = FRAME_MAGIC) -> dict:
    """Read one frame; returns the decoded message dict.

    Raises :class:`ConnectionError` on a clean EOF *between* frames too —
    callers treat any EOF as the peer going away and decide themselves
    whether that was expected (server side: client hung up; client side:
    reconnect material).
    """
    header = _read_exact(sock, _HEADER.size)
    got_magic, length = _HEADER.unpack(header)
    if got_magic != magic:
        raise BackendProtocolError(
            f"bad frame magic {got_magic!r} (expected {magic!r}): peer "
            f"speaks a different protocol, or the stream is corrupt"
        )
    if length > MAX_FRAME_BYTES:
        raise BackendProtocolError(
            f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
        )
    payload = _read_exact(sock, length)
    try:
        message = pickle.loads(payload)
    except Exception as error:
        raise BackendProtocolError(
            f"undecodable frame payload: {error}"
        ) from error
    if not isinstance(message, dict):
        raise BackendProtocolError(
            f"frame decoded to {type(message).__name__}, expected dict"
        )
    return message
