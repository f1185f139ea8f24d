"""The sans-IO framing core shared by every speaker of the wire protocol.

The server, the shard router and the client all speak the same frames:
a 4-byte big-endian unsigned length prefix followed by that many bytes
of UTF-8 JSON.  This module owns everything protocol-shaped and touches
no transport (it imports neither ``socket`` nor ``asyncio``):

* the constants (:data:`MAX_FRAME_BYTES`, :data:`HEADER`,
  :data:`PROTOCOL_VERSION`), the request-envelope check
  (:func:`check_envelope`) and the error-code ↔ exception mapping;
* byte-level encode/decode (:func:`encode_frame`,
  :func:`decode_frame_payload`);
* :class:`FrameDecoder` — an incremental decoder: feed it whatever byte
  slices a transport produced, however fragmented or coalesced, and it
  yields exactly the frames that were sent.  The Hypothesis suite drives
  it with randomly re-chunked streams, and raw-socket test probes read
  through it;
* chunked responses: :func:`split_response` turns one large response
  into a sequence of bounded chunk frames, and :class:`ChunkAssembler`
  reassembles them on the client;
* the ``BUSY`` retry schedule (:func:`busy_retry_delay`).

**One version.**  Every frame carries ``"v": 2``; a request naming any
other version is answered ``BAD_REQUEST``.  A ``query`` whose payload
exceeds the server's chunk threshold is answered with a sequence of
frames ``{"id": N, "ok": true, "chunk": i, "more": true, ...part...}``
terminated by a ``"more": false`` frame carrying the final part (and
any scalar result fields).  Every chunk is bounded, so an 8 MiB
outer-union result streams as ~32 × 256 KiB frames instead of one
allocation at the cap.
"""

from __future__ import annotations

import json
import struct
from typing import Iterator, Optional

from repro.errors import (
    ProtocolError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)

#: The one wire version: every request and response frame carries it.
PROTOCOL_VERSION = 2

MAX_FRAME_BYTES = 8 * 1024 * 1024
#: Payload bound for one chunk of a streamed response.
DEFAULT_CHUNK_BYTES = 256 * 1024
HEADER = struct.Struct(">I")

#: Wire error codes and the exception each maps back to on the client.
ERROR_CODES: dict[str, type] = {
    "BUSY": ServiceBusyError,
    "TIMEOUT": ServiceTimeoutError,
    "CLOSED": ServiceClosedError,
    "BAD_REQUEST": ProtocolError,
    "ERROR": ServiceError,
}


def error_code(error: Exception) -> str:
    if isinstance(error, ServiceBusyError):
        return "BUSY"
    if isinstance(error, ServiceTimeoutError):
        return "TIMEOUT"
    if isinstance(error, ServiceClosedError):
        return "CLOSED"
    if isinstance(error, ProtocolError):
        return "BAD_REQUEST"
    return "ERROR"


def error_to_exception(record: object) -> ServiceError:
    """Rebuild the typed exception a wire error record describes."""
    if not isinstance(record, dict):
        return ServiceError(f"malformed server error record: {record!r}")
    code = record.get("code", "ERROR")
    message = record.get("message", "unknown server error")
    cls = ERROR_CODES.get(code, ServiceError)
    return cls(message)


def error_frame(request_id: int, error: Exception) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {
            "code": error_code(error),
            "message": str(error),
            "retryable": isinstance(error, ServiceBusyError),
        },
    }


def reply_id(request: dict) -> int:
    """The id an error reply to ``request`` echoes (0 when it has none
    usable)."""
    request_id = request.get("id", 0)
    return request_id if isinstance(request_id, int) else 0


def check_envelope(request: dict) -> None:
    """Reject a request whose version or id no endpoint can serve."""
    version = request.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; "
            f"only v{PROTOCOL_VERSION} is spoken here"
        )
    if not isinstance(request.get("id", 0), int):
        raise ProtocolError("request id must be an integer")


def busy_retry_delay(
    retry: int, retries: int, backoff: float, remaining: float, jitter: float
) -> Optional[float]:
    """How long to sleep before retrying after the ``retry``-th ``BUSY``
    (counting from 0), or None when the caller must give up.

    Exponential in ``retry``, scaled by ``jitter`` in [0, 1] onto
    [0.5x, 1x] so N clients hammering one saturated shard
    de-synchronise, and clamped to ``remaining`` so the retry loop
    never outlives the request deadline (unjittered, uncapped
    ``2**retry`` growth used to nap for minutes).
    """
    if retry >= retries or remaining <= 0.0:
        return None
    return min(backoff * (2**retry) * (0.5 + jitter * 0.5), remaining)


# ----------------------------------------------------------------------
# Byte-level codec
# ----------------------------------------------------------------------
def encode_frame(obj: dict) -> bytes:
    """One frame as bytes: length prefix + canonical JSON."""
    data = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return HEADER.pack(len(data)) + data


def decode_frame_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except ValueError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


class FrameDecoder:
    """An incremental frame decoder with no opinion about transport.

    TCP is a byte stream: one ``send`` may arrive as many reads, many
    sends as one.  The decoder buffers whatever arrives and emits a
    frame exactly when its length prefix is satisfied — so a receive
    loop built on it can use short read timeouts (or arbitrary chunk
    sizes) without ever desynchronising mid-frame: partial bytes simply
    stay buffered until the next feed.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    @property
    def mid_frame(self) -> bool:
        """True when a partial frame is buffered (EOF now is an error)."""
        return len(self._buffer) > 0

    def feed(self, data: bytes) -> list[dict]:
        """Buffer ``data`` and return every frame it completed."""
        self._buffer.extend(data)
        frames: list[dict] = []
        while True:
            if len(self._buffer) < HEADER.size:
                break
            (length,) = HEADER.unpack_from(self._buffer)
            if length > self._max_frame_bytes:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds {self._max_frame_bytes}"
                )
            end = HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[HEADER.size : end])
            del self._buffer[:end]
            frames.append(decode_frame_payload(payload))
        return frames


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` (for ``--listen`` / ``--addr``)."""
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise ProtocolError(f"address {text!r} is not HOST:PORT")
    try:
        return host.strip("[]"), int(port)
    except ValueError:
        raise ProtocolError(f"address {text!r} has a non-numeric port") from None


# ----------------------------------------------------------------------
# Chunked (streaming) responses
# ----------------------------------------------------------------------
#: The response fields a server may stream.  ``text`` parts are string
#: slices (concatenated on reassembly); ``results`` parts are list
#: slices (extended on reassembly).
_CHUNKABLE_FIELDS = ("text", "results")


def _payload_size(response: dict) -> int:
    text = response.get("text")
    if isinstance(text, str):
        return len(text)
    results = response.get("results")
    if isinstance(results, list):
        return sum(len(item) + 2 for item in results if isinstance(item, str))
    return 0


def _iter_parts(response: dict, chunk_bytes: int) -> Iterator[tuple[str, object]]:
    text = response.get("text")
    if isinstance(text, str):
        for start in range(0, len(text), chunk_bytes):
            yield "text", text[start : start + chunk_bytes]
        return
    results = response.get("results")
    assert isinstance(results, list)
    part: list = []
    size = 0
    for item in results:
        part.append(item)
        size += (len(item) + 2) if isinstance(item, str) else 64
        if size >= chunk_bytes:
            yield "results", part
            part, size = [], 0
    if part or not results:
        yield "results", part


def split_response(
    response: dict, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> list[dict]:
    """One response → the frame sequence to send.

    Returns ``[response]`` untouched unless the response is a success
    whose streamable payload (``text`` or ``results``) exceeds
    ``chunk_bytes`` — then a list of bounded chunk frames, each
    carrying a ``chunk`` ordinal and ``more`` flag, the final one also
    carrying every non-streamed field of the original response.
    """
    if not response.get("ok", False) or _payload_size(response) <= chunk_bytes:
        return [response]
    parts = list(_iter_parts(response, chunk_bytes))
    frames: list[dict] = []
    base = {"v": PROTOCOL_VERSION, "id": response.get("id", 0), "ok": True}
    for index, (field, part) in enumerate(parts):
        last = index == len(parts) - 1
        frame = dict(response) if last else dict(base)
        frame.update({"chunk": index, "more": not last, field: part})
        frames.append(frame)
    return frames


class ChunkAssembler:
    """Client-side reassembly of one request's chunked response.

    Feed every frame that echoes the request id; :meth:`feed` returns
    the complete response once it has one (immediately, for the common
    un-chunked single frame) and None while parts are still due.
    """

    def __init__(self) -> None:
        self._text: list[str] = []
        self._results: list = []
        self._expect = 0

    def feed(self, frame: dict) -> Optional[dict]:
        if "chunk" not in frame:
            return frame
        if frame.get("chunk") != self._expect:
            raise ProtocolError(
                f"response chunk {frame.get('chunk')!r} arrived out of order "
                f"(expected {self._expect})"
            )
        self._expect += 1
        text = frame.get("text")
        if isinstance(text, str):
            self._text.append(text)
        results = frame.get("results")
        if isinstance(results, list):
            self._results.extend(results)
        if frame.get("more", False):
            return None
        merged = {
            key: value
            for key, value in frame.items()
            if key not in ("chunk", "more", *_CHUNKABLE_FIELDS)
        }
        if self._text:
            merged["text"] = "".join(self._text)
        if self._results or "results" in frame:
            merged["results"] = self._results
        return merged
