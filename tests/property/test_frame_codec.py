"""Property: the wire framing survives arbitrary TCP re-chunking.

TCP is a byte stream with no framing of its own — one ``send`` may
arrive as many reads, many sends as one.  The incremental
:class:`FrameDecoder` must therefore emit *exactly* the frames that
were encoded no matter where the stream is cut: byte-at-a-time,
coalesced across frame boundaries, or split inside a length prefix.
(The historical bug class this pins down: a receive loop that retried a
partial read "from the top" desynchronised the stream and every
subsequent frame decoded as garbage.)

Also here: the chunked-response codec —
``split_response`` → ``ChunkAssembler`` is the identity on any
response, at any chunk size.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service.net import (
    HEADER,
    MAX_FRAME_BYTES,
    ChunkAssembler,
    FrameDecoder,
    encode_frame,
    split_response,
)

# JSON-representable frame bodies (no floats: equality after a JSON
# round trip must be exact).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
frame_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)


def cut_stream(stream, cuts):
    """Slice ``stream`` at the (sorted) cut offsets — a synthetic
    sequence of TCP reads, from byte-at-a-time to fully coalesced."""
    points = sorted(set(cuts))
    bounds = [0, *points, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


class TestFrameDecoder:
    @settings(max_examples=120, deadline=None)
    @given(frames=st.lists(frame_objects, max_size=6), data=st.data())
    def test_random_fragmentation_never_desyncs(self, frames, data):
        stream = b"".join(encode_frame(frame) for frame in frames)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)), max_size=24
            )
        )
        decoder = FrameDecoder()
        decoded = []
        for piece in cut_stream(stream, cuts):
            decoded.extend(decoder.feed(piece))
        assert decoded == frames
        assert not decoder.mid_frame

    def test_byte_at_a_time(self):
        frames = [{"v": 2, "id": 1, "op": "ping"}, {"v": 2, "ok": True}]
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        for index in range(len(stream)):
            decoded.extend(decoder.feed(stream[index : index + 1]))
        assert decoded == frames

    def test_mid_frame_flag_tracks_partial_bytes(self):
        decoder = FrameDecoder()
        stream = encode_frame({"id": 1})
        assert not decoder.mid_frame
        assert decoder.feed(stream[:3]) == []
        assert decoder.mid_frame  # a partial length prefix counts
        assert decoder.feed(stream[3:]) == [{"id": 1}]
        assert not decoder.mid_frame

    def test_oversized_length_prefix_is_rejected_up_front(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(HEADER.pack(MAX_FRAME_BYTES + 1))

    def test_garbage_payload_is_a_protocol_error(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(HEADER.pack(4) + b"\xff\xfe\xfd\xfc")


class TestChunkCodecRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        text=st.text(alphabet="abc é☃", max_size=400),
        chunk_bytes=st.integers(min_value=1, max_value=64),
        seq=st.integers(min_value=0, max_value=1000),
    )
    def test_text_response_roundtrips_at_any_chunk_size(
        self, text, chunk_bytes, seq
    ):
        response = {"v": 2, "id": 7, "ok": True, "text": text, "seq": seq}
        frames = split_response(dict(response), chunk_bytes)
        assembler = ChunkAssembler()
        outcomes = [assembler.feed(frame) for frame in frames]
        assert all(item is None for item in outcomes[:-1])
        rebuilt = outcomes[-1]
        assert rebuilt["text"] == text
        assert rebuilt["seq"] == seq
        assert rebuilt["id"] == 7 and rebuilt["ok"] is True

    @settings(max_examples=120, deadline=None)
    @given(
        results=st.lists(st.text(alphabet="xyz<>/", max_size=30), max_size=30),
        chunk_bytes=st.integers(min_value=1, max_value=64),
    )
    def test_results_response_roundtrips_at_any_chunk_size(
        self, results, chunk_bytes
    ):
        response = {"v": 2, "id": 3, "ok": True, "results": list(results)}
        frames = split_response(dict(response), chunk_bytes)
        assembler = ChunkAssembler()
        rebuilt = None
        for frame in frames:
            rebuilt = assembler.feed(frame)
        assert rebuilt["results"] == results

    def test_out_of_order_chunk_is_a_protocol_error(self):
        frames = split_response(
            {"v": 2, "id": 1, "ok": True, "text": "z" * 64}, 16
        )
        assert len(frames) >= 3
        assembler = ChunkAssembler()
        assembler.feed(frames[0])
        with pytest.raises(ProtocolError):
            assembler.feed(frames[2])  # skipped frames[1]

    def test_small_and_error_responses_pass_through_untouched(self):
        small = {"v": 2, "id": 2, "ok": True, "text": "t" * 16}
        assert split_response(dict(small), 16) == [small]
        failed = {"v": 2, "id": 2, "ok": False, "error": {"code": "ERROR"}}
        assert split_response(dict(failed), 16) == [failed]
        assert ChunkAssembler().feed(dict(small)) == small
