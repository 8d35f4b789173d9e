"""Modbus/TCP codec: golden byte vectors, round trips, error paths."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from icsrecon.codecs import modbus
from icsrecon.errors import (
    FormatError,
    LengthMismatch,
    ModbusExceptionResponse,
    NotModbus,
    Truncated,
)

from conftest import one_byte_changed, same_record

# Hand-encoded per the public Modbus/TCP layout: tx 1, proto 0, length 5,
# unit 1, FC 0x2B, MEI 0x0E, read code 0x01 (basic), object 0x00.
GOLDEN_DEVICE_ID_REQUEST = bytes.fromhex("000100000005012b0e0100")


def test_device_id_request_golden_bytes():
    assert modbus.build_device_id_request(unit=1) == GOLDEN_DEVICE_ID_REQUEST


def test_device_id_request_decodes_to_its_fields():
    header, pdu = modbus.decode_modbus(GOLDEN_DEVICE_ID_REQUEST)
    assert header.transaction_id == 1
    assert header.protocol_id == 0
    assert header.length == 5
    assert header.unit_id == 1
    assert pdu.function == 0x2B
    assert pdu.payload == bytes([0x0E, 0x01, 0x00])


def test_round_trip_random_frames():
    rng = random.Random(1)
    for _ in range(2000):
        function = rng.randrange(0x01, 0x80)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        header = modbus.MbapHeader(rng.randrange(0x10000), rng.randrange(0x100), 2 + len(payload))
        pdu = modbus.ModbusPdu(function, payload)
        wire = modbus.encode_modbus(header, pdu)
        assert same_record(modbus.decode_modbus(wire), (header, pdu))


@given(
    tx=st.integers(0, 0xFFFF),
    unit=st.integers(0, 0xFF),
    function=st.integers(1, 0x7F),
    payload=st.binary(max_size=60),
)
def test_round_trip_property(tx, unit, function, payload):
    wire = modbus.frame(tx, unit, function, payload)
    header, pdu = modbus.decode_modbus(wire)
    assert (header.transaction_id, header.unit_id) == (tx, unit)
    assert (pdu.function, pdu.payload) == (function, payload)
    # length honesty: declared length covers unit id + PDU exactly
    assert header.length == 1 + 1 + len(payload)
    assert len(wire) == 6 + header.length


def test_truncated_input():
    with pytest.raises(Truncated):
        modbus.decode_modbus(bytes.fromhex("00010000"))


def test_protocol_id_must_be_zero():
    bad = bytearray(GOLDEN_DEVICE_ID_REQUEST)
    bad[2] = 0x12
    with pytest.raises(NotModbus):
        modbus.decode_modbus(bytes(bad))


def test_length_mismatch():
    bad = bytearray(GOLDEN_DEVICE_ID_REQUEST)
    bad[5] = 9
    with pytest.raises(LengthMismatch):
        modbus.decode_modbus(bytes(bad))


def test_length_over_254_is_refused_as_frame_size_refuses_it():
    wire = modbus.MBAP.pack(1, 0, 300, 1) + bytes([3]) + bytes(298)
    assert len(wire) == 306 and modbus.frame_size(wire) is None
    with pytest.raises(LengthMismatch):
        modbus.decode_modbus(wire)


def test_device_id_response_round_trip():
    objects = {0x00: "Schneider Electric", 0x01: "SCADAPack32", 0x02: "1.0"}
    wire = modbus.build_device_id_response(5, 1, objects)
    ident = modbus.parse_device_id_response(wire)
    assert ident.objects == objects
    assert not ident.more_follows
    assert modbus.identity_fields([wire]) == (
        {"manufacturer": "Schneider Electric", "model": "SCADAPack32", "firmware_version": "1.0"},
        {},
    )


def test_device_id_response_more_follows_surfaced():
    wire = modbus.build_device_id_response(
        5, 1, {0x00: "Vendor"}, more_follows=True, next_object_id=0x03
    )
    ident = modbus.parse_device_id_response(wire)
    assert ident.more_follows
    assert ident.next_object_id == 0x03


def test_exception_frame_maps_to_modbus_exception():
    wire = modbus.exception_frame(1, 1, modbus.FC_ENCAPSULATED, modbus.EXC_ILLEGAL_FUNCTION)
    with pytest.raises(ModbusExceptionResponse) as err:
        modbus.parse_device_id_response(wire)
    assert err.value.code == 0x01
    assert "IllegalFunction" in str(err.value)


def test_empty_object_list_is_format_error():
    body = bytes([modbus.MEI_DEVICE_ID, 0x01, 0x01, 0x00, 0x00, 0x00])
    wire = modbus.frame(1, 1, modbus.FC_ENCAPSULATED, body)
    with pytest.raises(FormatError):
        modbus.parse_device_id_response(wire)


def test_report_slave_id_round_trip():
    wire = modbus.build_report_slave_id_response(7, 1, slave_id=5, running=True, additional=b"RTU")
    parsed = modbus.parse_report_slave_id_response(wire)
    assert parsed.slave_id == 5
    assert parsed.running
    assert parsed.additional == b"RTU"


def test_exception_frames_carry_exactly_one_byte():
    with pytest.raises(ValueError):
        modbus.frame(1, 1, 0x83, b"\x01\x02")
    # decode side: a two-byte exception payload is rejected as malformed
    head = modbus.MBAP.pack(1, 0, 4, 1)
    with pytest.raises(FormatError):
        modbus.decode_modbus(head + bytes([0x83, 0x01, 0x02]))


def test_extract_frames_stream_cutting():
    a = modbus.build_device_id_request(unit=1, transaction_id=1)
    b = modbus.build_report_slave_id_request(unit=2, transaction_id=2)
    frames, rest = modbus.extract_frames(a + b + a[:5])
    assert frames == [a, b]
    assert rest == a[:5]


def test_extract_frames_cuts_a_capped_polling_stream():
    # 300 back-to-back 249-byte replies overrun a 64 KiB reassembly buffer
    replies = [modbus.build_read_holding_response(tid, 1, list(range(120))) for tid in range(300)]
    assert {len(reply) for reply in replies} == {249}
    stream = bytearray(b"".join(replies)[: 64 * 1024])
    whole = 64 * 1024 // 249
    frames, rest = modbus.extract_frames(stream)
    assert frames == replies[:whole]
    assert all(type(frame) is bytes for frame in frames)
    assert rest == bytes(stream[whole * 249 :]) and type(rest) is bytes
    assert len(rest) == 64 * 1024 - whole * 249


def test_extract_frames_stops_on_non_modbus():
    frames, rest = modbus.extract_frames(b"GET / HTTP/1.1\r\n")
    assert frames == []
    assert rest == b"GET / HTTP/1.1\r\n"


# -- identity_fields: the decoder the scanner and the passive analyzer share ----


def test_identity_fields_merges_continuation_rounds_later_objects_win():
    first = modbus.build_device_id_response(
        1, 1, {0x00: "Old Vendor", 0x01: "SCADAPack32"}, more_follows=True, next_object_id=0x02
    )
    second = modbus.build_device_id_response(2, 1, {0x00: "Schneider Electric", 0x02: "1.0"})
    static, deployment = modbus.identity_fields([first, second])
    assert static == {"manufacturer": "Schneider Electric", "model": "SCADAPack32", "firmware_version": "1.0"}
    assert deployment == {}


def test_identity_fields_reads_slave_id_and_replying_unit():
    static, deployment = modbus.identity_fields([modbus.build_report_slave_id_response(3, 7, slave_id=5)])
    assert static == {}
    assert deployment == {"modbus_slave_id": "5", "unit_id": "7"}


def test_identity_fields_skips_exceptions_and_unrelated_frames():
    objects = modbus.build_device_id_response(1, 1, {0x00: "Vendor"})
    skipped = [
        modbus.exception_frame(2, 1, modbus.FC_ENCAPSULATED, modbus.EXC_ILLEGAL_FUNCTION),
        modbus.exception_frame(3, 1, modbus.FC_REPORT_SLAVE_ID, modbus.EXC_ILLEGAL_FUNCTION),
        modbus.build_read_holding_response(4, 1, [1, 2]),
        modbus.build_device_id_request(unit=1),  # a request, not a reply
        objects[:11] + b"\x01" + objects[12:],  # more-follows flag neither 0x00 nor 0xFF
        b"GET / HTTP/1.1\r\n",
        objects[:-1],  # cut short
    ]
    assert modbus.identity_fields(skipped) == ({}, {})
    assert modbus.identity_fields([*skipped, objects]) == ({"manufacturer": "Vendor"}, {})


MODBUS_REPLIES = [
    modbus.build_device_id_response(1, 1, {0x00: "V", 0x01: "M"}, more_follows=True, next_object_id=2),
    modbus.build_report_slave_id_response(2, 1, slave_id=5),
    modbus.exception_frame(3, 1, modbus.FC_ENCAPSULATED, modbus.EXC_ILLEGAL_FUNCTION),
]


@given(st.lists(st.binary(max_size=64) | one_byte_changed(MODBUS_REPLIES), max_size=6))
def test_identity_fields_never_raises(replies):
    static, deployment = modbus.identity_fields(replies)
    assert isinstance(static, dict) and isinstance(deployment, dict)
