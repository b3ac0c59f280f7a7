"""Wire protocol of the distributed serving tier.

The router and the shard servers speak length-prefixed frames over
plain TCP sockets.  A connection is one ``hello`` exchange, then
multiplexed frames — nothing else; a cluster runs one protocol version.

**Hello.**  Each direction sends one frame ``uvarint(len(body)) + body``
whose body is a single :func:`encode_value` value (the store's own
varint codec applied to ``None``, bools, ints, floats, strings, bytes,
lists and string-keyed dicts — every value a mux payload can carry):

1. the client's first frame is
   ``{"v": PROTOCOL_VERSION, "op": "hello", "zlib": bool}`` — the
   compression offer and the connection's **only** version check: no
   mux payload after it carries a ``v``, and a peer of another version
   is refused here, typed, before it can send a frame of a shape this
   build does not know;
2. the server answers ``{"ok": True, "threshold": N}`` (``None`` when
   either side declined zlib) and both ends switch to mux frames.  A
   first frame that is anything else gets one
   ``{"error": {"type", "message"}}`` frame and the connection is
   closed; the client raises that error with its type.

**Mux frames** are ``uvarint(len(body)) + body`` with::

    body = flags:u8 + uvarint(request_id) + payload

The payload is compact UTF-8 JSON; ``flags`` bit 0
(:data:`FLAG_COMPRESSED`) marks it zlib-compressed and every other bit
must be zero.  Request ids are chosen by the client (monotonically
increasing per connection) and echoed by the server, which may answer
**out of order** — one socket carries many in-flight requests.
Compression applies per frame, only when zlib was agreed in the hello
*and* the encoded payload exceeds the agreed threshold (tiny frames cost
more to deflate than to send); a receiver inflates at most
:data:`MAX_FRAME_BYTES`.  :class:`WireStats` counts frames and bytes on
both sides so ``/stats`` and ``/metrics`` can report the compression
ratio actually achieved.

Query tokens cross the wire *structurally* (:func:`encode_tokens` /
:func:`decode_tokens`), not as query strings: the string syntax cannot
spell every item name (that is why :class:`~repro.query.tokens.Q`
exists), and re-parsing on the server would re-do work the router's
service layer already did.

Remote errors carry their exception type name so the router re-raises
the *same* :mod:`repro.errors` class the backend would have raised
locally — the HTTP layer's 400-vs-503 mapping keeps working unchanged
across the network hop (:func:`encode_error` / :func:`decode_error`).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import zlib

from repro.errors import (
    EncodingError,
    HierarchyError,
    InvalidParameterError,
    ReproError,
    ServerBusyError,
    StoreCorruptError,
    UnknownItemError,
)
from repro.io.codec import (
    read_uvarint,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.query.tokens import (
    AnyToken,
    FloorToken,
    GapToken,
    ItemToken,
    NotToken,
    OneOfToken,
    PlusToken,
    QueryToken,
    SpanToken,
    UnderToken,
)

#: protocol revision, checked once per connection by the hello; a
#: server refuses a peer of another revision instead of misreading its
#: frames
PROTOCOL_VERSION = 3

#: a frame larger than this is a corrupt length prefix, not a result
#: set — reject before allocating the claimed size
MAX_FRAME_BYTES = 1 << 26  # 64 MiB

#: most queries one request may carry — an HTTP ``/batch`` body and a
#: shard server's ``search`` frame alike — so one frame cannot pin a
#: worker for the time of a million searches
MAX_BATCH = 1000

#: default payload size (bytes) above which a frame is compressed once
#: zlib was agreed — below it deflate overhead beats the byte savings
DEFAULT_COMPRESS_THRESHOLD = 512

#: mux frame flag bit: the payload is zlib-compressed
FLAG_COMPRESSED = 0x01

# value-encoding type tags
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_STR = 4
_T_BYTES = 5
_T_LIST = 6
_T_DICT = 7
_T_FLOAT = 8  # IEEE-754 double, little-endian


# ----------------------------------------------------------------------
# value encoding
# ----------------------------------------------------------------------


def encode_value(value, buf: bytearray | None = None) -> bytearray:
    """Append one value to ``buf`` (tuples encode as lists)."""
    if buf is None:
        buf = bytearray()
    if value is None:
        buf.append(_T_NONE)
    elif value is True:
        buf.append(_T_TRUE)
    elif value is False:
        buf.append(_T_FALSE)
    elif isinstance(value, int):
        buf.append(_T_INT)
        write_uvarint(buf, zigzag_encode(value))
    elif isinstance(value, float):
        buf.append(_T_FLOAT)
        buf += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        buf.append(_T_STR)
        write_uvarint(buf, len(raw))
        buf += raw
    elif isinstance(value, (bytes, bytearray)):
        buf.append(_T_BYTES)
        write_uvarint(buf, len(value))
        buf += value
    elif isinstance(value, (list, tuple)):
        buf.append(_T_LIST)
        write_uvarint(buf, len(value))
        for item in value:
            encode_value(item, buf)
    elif isinstance(value, dict):
        buf.append(_T_DICT)
        write_uvarint(buf, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(
                    f"protocol dict keys must be strings, got {key!r}"
                )
            raw = key.encode("utf-8")
            write_uvarint(buf, len(raw))
            buf += raw
            encode_value(item, buf)
    else:
        raise EncodingError(
            f"protocol cannot encode {type(value).__name__}: {value!r}"
        )
    return buf


def decode_value(data, offset: int = 0):
    """Decode one value; returns ``(value, end_offset)``."""
    try:
        tag = data[offset]
    except IndexError:
        raise EncodingError("truncated protocol value") from None
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        raw, offset = read_uvarint(data, offset)
        return zigzag_decode(raw), offset
    if tag == _T_FLOAT:
        if len(data) < offset + 8:
            raise EncodingError("truncated protocol value")
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag == _T_STR:
        n, offset = read_uvarint(data, offset)
        return bytes(data[offset:offset + n]).decode("utf-8"), offset + n
    if tag == _T_BYTES:
        n, offset = read_uvarint(data, offset)
        return bytes(data[offset:offset + n]), offset + n
    if tag == _T_LIST:
        n, offset = read_uvarint(data, offset)
        items = []
        for _ in range(n):
            item, offset = decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == _T_DICT:
        n, offset = read_uvarint(data, offset)
        out = {}
        for _ in range(n):
            k, offset = read_uvarint(data, offset)
            key = bytes(data[offset:offset + k]).decode("utf-8")
            offset += k
            out[key], offset = decode_value(data, offset)
        return out, offset
    raise EncodingError(f"unknown protocol type tag {tag}")


# ----------------------------------------------------------------------
# framing over sockets
# ----------------------------------------------------------------------


def send_message(sock: socket.socket, value) -> None:
    """Encode ``value`` and write it as one hello frame."""
    body = encode_value(value)
    frame = bytearray()
    write_uvarint(frame, len(body))
    frame += body
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks += chunk
    return bytes(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame body.

    An orderly EOF *before any byte of a frame* raises
    :class:`EOFError` (the connection is simply done); EOF mid-frame
    raises :class:`ConnectionError` (the peer died).
    """
    # the length prefix arrives byte by byte (varints have no fixed
    # width); the first byte distinguishes EOF-between-frames from
    # EOF-mid-frame
    length = 0
    shift = 0
    first = True
    while True:
        byte = sock.recv(1)
        if not byte:
            if first:
                raise EOFError("connection closed")
            raise ConnectionError("peer closed mid-frame")
        first = False
        length |= (byte[0] & 0x7F) << shift
        if not byte[0] & 0x80:
            break
        shift += 7
        if shift > 63:
            raise EncodingError("oversized frame length prefix")
    if length > MAX_FRAME_BYTES:
        raise EncodingError(
            f"frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return _recv_exact(sock, length)


def recv_message(sock: socket.socket):
    """Read one hello frame and decode its value (see
    :func:`_recv_frame` for the EOF semantics)."""
    body = _recv_frame(sock)
    value, end = decode_value(body, 0)
    if end != len(body):
        raise EncodingError(
            f"frame carries {len(body) - end} trailing bytes after its value"
        )
    return value


# ----------------------------------------------------------------------
# multiplexed framing (everything after the hello exchange)
# ----------------------------------------------------------------------


class WireStats:
    """Frame/byte counters for one endpoint, thread-safe.

    ``raw`` bytes are the encoded payload sizes before compression;
    ``wire`` bytes are what actually crossed the socket (frame bodies,
    compressed or not) — the ratio of the two is the compression win.
    """

    __slots__ = (
        "_lock",
        "frames_sent",
        "frames_received",
        "raw_bytes_sent",
        "raw_bytes_received",
        "wire_bytes_sent",
        "wire_bytes_received",
        "compressed_frames_sent",
        "compressed_frames_received",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.frames_sent = 0
        self.frames_received = 0
        self.raw_bytes_sent = 0
        self.raw_bytes_received = 0
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self.compressed_frames_sent = 0
        self.compressed_frames_received = 0

    def observe_sent(self, raw: int, wire: int, compressed: bool) -> None:
        with self._lock:
            self.frames_sent += 1
            self.raw_bytes_sent += raw
            self.wire_bytes_sent += wire
            if compressed:
                self.compressed_frames_sent += 1

    def observe_received(self, raw: int, wire: int, compressed: bool) -> None:
        with self._lock:
            self.frames_received += 1
            self.raw_bytes_received += raw
            self.wire_bytes_received += wire
            if compressed:
                self.compressed_frames_received += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "raw_bytes_sent": self.raw_bytes_sent,
                "raw_bytes_received": self.raw_bytes_received,
                "wire_bytes_sent": self.wire_bytes_sent,
                "wire_bytes_received": self.wire_bytes_received,
                "compressed_frames_sent": self.compressed_frames_sent,
                "compressed_frames_received": self.compressed_frames_received,
            }


def merge_wire_snapshots(snapshots) -> dict:
    """Sum :meth:`WireStats.snapshot` dicts (e.g. across the router's
    per-server clients) into one aggregate."""
    total: dict = {}
    for snap in snapshots:
        for key, value in snap.items():
            total[key] = total.get(key, 0) + value
    return total


def send_mux(
    sock: socket.socket,
    request_id: int,
    value,
    compress_threshold: int | None = None,
    stats: WireStats | None = None,
) -> None:
    """Write one mux frame.  ``compress_threshold=None`` disables
    compression (zlib was not agreed in the hello); otherwise payloads
    larger than the threshold are deflated when that actually shrinks
    them.  A value JSON cannot carry raises :class:`EncodingError`
    before anything is written."""
    try:
        payload = json.dumps(
            value, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise EncodingError(f"mux frames carry JSON only: {exc}") from None
    flags = 0
    raw_len = len(payload)
    if compress_threshold is not None and raw_len > compress_threshold:
        squeezed = zlib.compress(payload, 6)
        if len(squeezed) < raw_len:
            payload = squeezed
            flags = FLAG_COMPRESSED
    body = bytearray((flags,))
    write_uvarint(body, request_id)
    body += payload
    frame = bytearray()
    write_uvarint(frame, len(body))
    frame += body
    # counters update before the write so a peer that acts on the frame
    # immediately always sees them reflected on this side's /stats
    if stats is not None:
        stats.observe_sent(raw_len, len(body), bool(flags))
    sock.sendall(frame)


def recv_mux(
    sock: socket.socket, stats: WireStats | None = None
) -> tuple[int, object]:
    """Read one mux frame; returns ``(request_id, value)`` (EOF
    semantics as :func:`_recv_frame`)."""
    body = _recv_frame(sock)
    if not body:
        raise EncodingError("empty mux frame")
    flags = body[0]
    if flags & ~FLAG_COMPRESSED:
        raise EncodingError(f"unknown mux frame flags {flags:#04x}")
    request_id, offset = read_uvarint(body, 1)
    payload = bytes(body[offset:])
    wire_len = len(body)
    compressed = bool(flags & FLAG_COMPRESSED)
    if compressed:
        # bound the inflation itself: a small frame must not be able to
        # demand more memory than the frame limit allows
        inflater = zlib.decompressobj()
        try:
            payload = inflater.decompress(payload, MAX_FRAME_BYTES + 1)
        except zlib.error as exc:
            raise EncodingError(
                f"corrupt compressed frame: {exc}"
            ) from None
        if len(payload) > MAX_FRAME_BYTES or inflater.unconsumed_tail:
            raise EncodingError(
                f"decompressed frame exceeds limit {MAX_FRAME_BYTES}"
            )
        if not inflater.eof:
            raise EncodingError("corrupt compressed frame: truncated stream")
    try:
        value = json.loads(payload)
    except ValueError as exc:
        raise EncodingError(f"corrupt JSON frame: {exc}") from None
    if stats is not None:
        stats.observe_received(len(payload), wire_len, compressed)
    return request_id, value


def hello_request() -> dict:
    """The client's first frame: the protocol-version check and the
    zlib offer (this build always offers it)."""
    return {"v": PROTOCOL_VERSION, "op": "hello", "zlib": True}


def hello_response(threshold: int | None) -> dict:
    """The server's answer: the compression threshold both sides will
    apply, ``None`` when either side declined zlib."""
    return {"ok": True, "threshold": threshold}


def read_hello_response(response) -> int | None:
    """The compression threshold a server's hello answer agreed to;
    a refusal re-raises as the typed error the server sent."""
    if isinstance(response, dict) and isinstance(response.get("error"), dict):
        raise decode_error(response["error"])
    if isinstance(response, dict) and response.get("ok") is True:
        threshold = response.get("threshold")
        if threshold is None or type(threshold) is int:
            return threshold
    raise EncodingError(f"malformed hello response {response!r}")


def check_hello(request) -> bool:
    """Validate a connection's first frame and return its zlib offer;
    raises :class:`EncodingError` for anything but a well-formed
    ``hello`` of this build's protocol version."""
    if not isinstance(request, dict) or request.get("op") != "hello":
        raise EncodingError("connection must open with a hello frame")
    if request.get("v") != PROTOCOL_VERSION:
        raise EncodingError(
            f"unsupported protocol version {request.get('v')!r} "
            f"(expected {PROTOCOL_VERSION})"
        )
    if not isinstance(request.get("zlib"), bool):
        raise EncodingError("hello frame must carry a boolean 'zlib' offer")
    return request["zlib"]


# ----------------------------------------------------------------------
# query tokens on the wire
# ----------------------------------------------------------------------


def encode_token(token: QueryToken) -> list:
    """One token as a nested-list structure the value codec can carry."""
    if isinstance(token, ItemToken):
        return ["item", token.name]
    if isinstance(token, UnderToken):
        return ["under", token.name]
    if isinstance(token, AnyToken):
        return ["any"]
    if isinstance(token, PlusToken):
        return ["plus"]
    if isinstance(token, SpanToken):
        return ["span"]
    if isinstance(token, GapToken):
        return ["gap", token.min_items, token.max_items]
    if isinstance(token, NotToken):
        return ["not", encode_token(token.inner)]
    if isinstance(token, OneOfToken):
        return ["oneof", [encode_token(c) for c in token.choices]]
    if isinstance(token, FloorToken):
        return ["floor", encode_token(token.inner), token.floor]
    raise EncodingError(f"cannot encode query token {token!r}")


def decode_token(obj) -> QueryToken:
    if not isinstance(obj, list) or not obj:
        raise EncodingError(f"malformed wire token {obj!r}")
    kind = obj[0]
    try:
        if kind == "item":
            return ItemToken(obj[1])
        if kind == "under":
            return UnderToken(obj[1])
        if kind == "any":
            return AnyToken()
        if kind == "plus":
            return PlusToken()
        if kind == "span":
            return SpanToken()
        if kind == "gap":
            return GapToken(obj[1], obj[2])
        if kind == "not":
            return NotToken(decode_token(obj[1]))
        if kind == "oneof":
            return OneOfToken(tuple(decode_token(c) for c in obj[1]))
        if kind == "floor":
            return FloorToken(decode_token(obj[1]), obj[2])
    except (IndexError, TypeError) as exc:
        raise EncodingError(f"malformed wire token {obj!r}: {exc}") from None
    raise EncodingError(f"unknown wire token kind {kind!r}")


def encode_tokens(tokens) -> list:
    return [encode_token(token) for token in tokens]


def decode_tokens(obj) -> tuple[QueryToken, ...]:
    if not isinstance(obj, list):
        raise EncodingError(f"malformed wire token list {obj!r}")
    return tuple(decode_token(item) for item in obj)


# ----------------------------------------------------------------------
# remote errors
# ----------------------------------------------------------------------

#: exception classes allowed to cross the wire by name; anything else
#: degrades to the base class (clients treat it as a server-side error)
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        ReproError,
        HierarchyError,
        UnknownItemError,
        InvalidParameterError,
        EncodingError,
        StoreCorruptError,
        ServerBusyError,
    )
}


def encode_error(exc: ReproError) -> dict:
    """``{"type", "message"[, "item"]}`` for a response's error field."""
    message = (
        exc.args[0]
        if exc.args and isinstance(exc.args[0], str)
        else str(exc)
    )
    out = {"type": type(exc).__name__, "message": message}
    item = getattr(exc, "item", None)
    if isinstance(item, str):
        out["item"] = item
    if isinstance(exc, ServerBusyError):
        out["retry_after"] = int(round(exc.retry_after)) or 1
    return out


def decode_error(obj: dict) -> ReproError:
    """Rebuild the remote exception with its original type and message,
    so ``except UnknownItemError`` (and the HTTP status mapping) behave
    identically for local and remote backends."""
    cls = _ERROR_TYPES.get(obj.get("type"), ReproError)
    if cls is UnknownItemError and "item" in obj:
        return UnknownItemError(obj["item"])
    if cls is ServerBusyError:
        return ServerBusyError(
            obj.get("message", "server busy"),
            retry_after=obj.get("retry_after", 1),
        )
    exc = cls.__new__(cls)
    Exception.__init__(exc, obj.get("message", "remote error"))
    return exc


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BATCH",
    "FLAG_COMPRESSED",
    "DEFAULT_COMPRESS_THRESHOLD",
    "WireStats",
    "merge_wire_snapshots",
    "encode_value",
    "decode_value",
    "send_message",
    "recv_message",
    "send_mux",
    "recv_mux",
    "hello_request",
    "hello_response",
    "read_hello_response",
    "check_hello",
    "encode_token",
    "decode_token",
    "encode_tokens",
    "decode_tokens",
    "encode_error",
    "decode_error",
]
