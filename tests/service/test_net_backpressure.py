"""Bounded memory for a client that pipelines requests and reads
nothing.

A peer that never reads its responses fills the socket, then the
server transport's buffer.  Past its high-water mark the server stops
reading that connection: requests stop being admitted (``net.requests``
stops growing), so responses stop being produced, and memory stays
bounded by what is already in flight.  Other connections are served as
usual, and once the peer reads, every response arrives whole, each
chunk sequence contiguous.
"""

import socket
import threading
import time

from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
)
from repro.service.net import PROTOCOL_VERSION, ChunkAssembler
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser
from tests.service.wire import FrameSocket

DOC = "doc.xml"
JOIN_TIMEOUT = 30
#: The hosted document's attribute size: every response is chunked.
PAYLOAD = 128 * 1024
CHUNK_BYTES = 16 * 1024
REQUESTS = 200


def query(request_id):
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": "query",
        "doc": DOC,
        "timeout": JOIN_TIMEOUT,
    }


def wait_until_steady(counter, quiet=0.5):
    """The counter's value once it has not moved for ``quiet`` seconds."""
    deadline = time.monotonic() + JOIN_TIMEOUT
    value = counter.value
    steady_since = time.monotonic()
    while time.monotonic() - steady_since < quiet:
        assert time.monotonic() < deadline, "the counter never settled"
        time.sleep(0.05)
        if counter.value != value:
            value, steady_since = counter.value, time.monotonic()
    return value


class TestClientThatDoesNotRead:
    def test_server_stops_reading_and_answers_everything_later(self):
        service = UpdateService(ServiceConfig(batch_size=8, coalesce_wait=0.002))
        service.host_document(DOC, XmlParser("<log></log>").parse())
        service.start()
        service.submit_wait(
            DeltaUpdate(
                DOC, (InsertNode((), 0, xml=f'<e t="{"x" * PAYLOAD}"/>'),)
            ),
            timeout=JOIN_TIMEOUT,
        )
        server = AsyncNetServer(
            service, own_service=True, chunk_bytes=CHUNK_BYTES
        ).start()
        requests = get_registry().counter("net.requests")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sock.connect(server.address)
        sock.settimeout(JOIN_TIMEOUT)
        probe = FrameSocket(sock)

        def pipeline():
            for request_id in range(1, REQUESTS + 1):
                probe.send(query(request_id))
                time.sleep(0.002)

        sender = threading.Thread(target=pipeline)
        try:
            before = requests.value
            sender.start()
            sender.join(JOIN_TIMEOUT)
            admitted = wait_until_steady(requests) - before
            # The server stopped reading: most requests sit unread.
            assert 0 < admitted < REQUESTS // 2
            # Another connection is still served promptly.
            with ServiceClient(*server.address) as other:
                began = time.monotonic()
                assert other.ping() == [DOC]
                assert time.monotonic() - began < 1.0
            # Now read: every request is answered, each chunk sequence
            # contiguous (no other frame inside it) and in order.
            assemblers, responses = {}, {}
            open_sequence = None
            while len(responses) < REQUESTS:
                frame = probe.recv()
                assert frame is not None
                request_id = frame["id"]
                assert open_sequence in (None, request_id)
                open_sequence = request_id if frame.get("more") else None
                assembler = assemblers.setdefault(request_id, ChunkAssembler())
                response = assembler.feed(frame)
                if response is not None:
                    assert request_id not in responses
                    responses[request_id] = response
            assert sorted(responses) == list(range(1, REQUESTS + 1))
            # Once read again, the backlog arrives faster than it is
            # answered: past ``max_inflight`` a request is shed with BUSY.
            shed = [r for r in responses.values() if not r["ok"]]
            assert all(r["error"]["code"] == "BUSY" for r in shed)
            assert len(shed) < REQUESTS - admitted
            for response in responses.values():
                if response["ok"]:
                    assert f'"{"x" * PAYLOAD}"' in response["text"]
        finally:
            sock.close()
            sender.join(JOIN_TIMEOUT)
            server.close()
