"""A raw-socket frame probe for the network tests.

The library has no blocking socket helpers (its one transport is
asyncio), so tests that need to speak the wire by hand — a malformed
request, a misbehaving fake server — wrap a plain socket in
:class:`FrameSocket`, built from the public sans-IO codec.
"""

from collections import deque
from typing import Optional

from repro.errors import ProtocolError
from repro.service.net import FrameDecoder, encode_frame


class FrameSocket:
    def __init__(self, sock) -> None:
        self.sock = sock
        self._decoder = FrameDecoder()
        self._frames: deque = deque()

    def send(self, obj: dict) -> None:
        self.sock.sendall(encode_frame(obj))

    def recv(self) -> Optional[dict]:
        """One frame; None on clean EOF between frames."""
        while not self._frames:
            data = self.sock.recv(65536)
            if not data:
                if self._decoder.mid_frame:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._frames.extend(self._decoder.feed(data))
        return self._frames.popleft()
