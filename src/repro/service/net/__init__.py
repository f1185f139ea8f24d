"""Network front end for the update service: one transport (asyncio),
one wire version.

* :mod:`~repro.service.net.core` — the sans-IO framing codec
  (length-prefixed JSON frames, the incremental :class:`FrameDecoder`,
  chunked responses, error-code mapping, the ``BUSY`` retry schedule);
* :mod:`~repro.service.net.handlers` — the request
  :class:`~repro.service.net.handlers.Dispatcher`;
* :mod:`~repro.service.net.aio` — the loop-thread helper, the frame
  server/connection bases the shard router shares,
  :class:`AsyncNetServer` (pipelined frames, 10k+ connections) and
  :class:`AsyncServiceClient`;
* :mod:`~repro.service.net.blocking` — :class:`ServiceClient`, the
  blocking facade over the async client.
"""

from repro.service.net.aio import (
    AsyncNetServer,
    AsyncServiceClient,
    read_frame_async,
)
from repro.service.net.blocking import ServiceClient
from repro.service.net.core import (
    DEFAULT_CHUNK_BYTES,
    ERROR_CODES,
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ChunkAssembler,
    FrameDecoder,
    decode_frame_payload,
    encode_frame,
    error_frame,
    error_to_exception,
    parse_address,
    split_response,
)
from repro.service.net.handlers import Dispatcher

__all__ = [
    "AsyncNetServer",
    "AsyncServiceClient",
    "ChunkAssembler",
    "DEFAULT_CHUNK_BYTES",
    "Dispatcher",
    "ERROR_CODES",
    "FrameDecoder",
    "HEADER",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "decode_frame_payload",
    "encode_frame",
    "error_frame",
    "error_to_exception",
    "parse_address",
    "read_frame_async",
    "split_response",
]
