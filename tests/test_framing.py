"""One frame rule per protocol: the socket reader and the stream cutter agree."""

from __future__ import annotations

import functools
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from icsrecon.codecs import PROTOCOLS, cut_frames, enip, modbus, s7
from icsrecon.errors import FormatError
from icsrecon.netbase import recv_frame

EXTRACTORS = {
    codec: functools.partial(cut_frames, header_size=codec.HEADER_SIZE, frame_size=codec.frame_size)
    for codec in PROTOCOLS.values()
}


def read_frames(codec, data: bytes) -> list[bytes]:
    """Frames ``recv_frame`` reads one by one off a socket fed ``data``, up to a rejected or cut-short one."""
    left, right = socket.socketpair()
    with left, right:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        frames = []
        while True:
            try:
                frames.append(recv_frame(right, codec, 1.0))
            except (FormatError, socket.timeout):
                return frames


@pytest.mark.parametrize(
    "codec, data, accepted",
    [
        pytest.param(s7, s7.encode_tpkt(b"\x02\xf0\x80" + bytes(8993)), False, id="tpkt_9000_bytes"),
        pytest.param(s7, bytes([3, 1, 0, 7]) + b"\x02\xf0\x80", False, id="tpkt_reserved_1"),
        pytest.param(modbus, bytes.fromhex("000199990003012b00"), False, id="mbap_protocol_id_9999"),
        pytest.param(enip, enip.encode_header(0x0999, b""), True, id="enip_unknown_command"),
        pytest.param(enip, enip.encode_header(enip.CMD_LIST_IDENTITY, bytes(9000)), False, id="enip_9000_payload"),
    ],
)
def test_socket_reader_and_stream_cutter_agree(codec, data, accepted):
    expected = [data] if accepted else []
    assert EXTRACTORS[codec](data)[0] == expected
    assert read_frames(codec, data) == expected


GOOD_FRAMES = {
    modbus: [modbus.build_device_id_request(unit=1), modbus.build_report_slave_id_response(2, 1, slave_id=5)],
    s7: [s7.build_cotp_connect(0x0100, 0x0102), s7.build_setup_communication(pdu_ref=1)],
    enip: [enip.build_list_identity(), enip.encode_header(0x0999, b"\x01\x02")],
}


@pytest.mark.parametrize("codec", [modbus, s7, enip], ids=["modbus", "s7", "enip"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reader_matches_cutter_on_arbitrary_streams(codec, data):
    pieces = data.draw(st.lists(st.one_of(st.sampled_from(GOOD_FRAMES[codec]), st.binary(max_size=40)), max_size=6))
    stream = b"".join(pieces)
    assert read_frames(codec, stream) == EXTRACTORS[codec](stream)[0]


def test_one_frame_gets_one_timeout_however_it_trickles_in():
    # header after 0.35 s and the body 0.35 s later: each part alone is in
    # time, but the frame as a whole is 0.2 s over its 0.5 s timeout
    frame = modbus.build_report_slave_id_response(2, 1, slave_id=5)
    left, right = socket.socketpair()

    def trickle():
        for piece in (frame[: modbus.HEADER_SIZE], frame[modbus.HEADER_SIZE :]):
            time.sleep(0.35)
            try:
                left.sendall(piece)
            except OSError:
                return

    sender = threading.Thread(target=trickle)
    with left, right:
        sender.start()
        started = time.monotonic()
        with pytest.raises(socket.timeout):
            recv_frame(right, modbus, 0.5)
        assert time.monotonic() - started < 0.65
        sender.join()
