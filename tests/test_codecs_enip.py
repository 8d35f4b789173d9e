"""EtherNet/IP codec: golden header, identity round trip, error paths."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from icsrecon.codecs import enip
from icsrecon.errors import FormatError, LengthMismatch, Truncated, UnexpectedCommand

from conftest import one_byte_changed, same_record

CONTROLLOGIX = enip.CipIdentity(
    vendor_id=1,
    device_type=14,
    product_code=54,
    revision=(20, 11),
    status=0x0060,
    serial=0x00BEEF01,
    product_name="ControlLogix 5561",
    state=3,
)


def test_list_identity_request_golden():
    wire = enip.build_list_identity()
    assert len(wire) == 24
    # command 0x0063 little-endian, length 0, everything else zero
    assert wire.hex(" ").startswith("63 00 00 00")
    assert wire == bytes.fromhex("6300" + "00" * 22)


def test_identity_round_trip():
    wire = enip.build_list_identity_response(CONTROLLOGIX, ip="192.168.90.14")
    assert same_record(enip.parse_list_identity(wire), CONTROLLOGIX)


def test_identity_round_trip_random():
    rng = random.Random(4)
    for _ in range(1000):
        ident = enip.CipIdentity(
            vendor_id=rng.randrange(0x10000),
            device_type=rng.randrange(0x10000),
            product_code=rng.randrange(0x10000),
            revision=(rng.randrange(256), rng.randrange(256)),
            status=rng.randrange(0x10000),
            serial=rng.randrange(0x100000000),
            product_name="".join(chr(rng.randrange(0x20, 0x7F)) for _ in range(rng.randrange(0, 32))).strip(),
            state=rng.randrange(256),
        )
        wire = enip.build_list_identity_response(ident)
        assert same_record(enip.parse_list_identity(wire), ident)


@pytest.mark.parametrize(
    "field, ip",
    [({"vendor_id": 70000}, "10.0.0.1"), ({"serial": 2**33}, "10.0.0.1"), ({}, "10.0.1"), ({}, "10.0.1.2.3")],
    ids=["vendor_id", "serial", "three_octets", "five_octets"],
)
def test_identity_item_refuses_a_field_or_an_address_it_cannot_carry(field, ip):
    with pytest.raises(ValueError):
        enip.encode_identity_item(CONTROLLOGIX._replace(**field), ip)


def test_header_length_honesty():
    message, payload = enip.decode_header(enip.build_list_identity())
    assert message.command == enip.CMD_LIST_IDENTITY
    assert message.length == len(payload) == 0
    with pytest.raises(LengthMismatch):
        enip.decode_header(enip.build_list_identity() + b"extra")


def test_short_reply_is_truncated():
    with pytest.raises(Truncated):
        enip.parse_list_identity(bytes(10))


def test_wrong_command_rejected():
    wire = enip.encode_header(enip.CMD_LIST_SERVICES, b"")
    with pytest.raises(UnexpectedCommand):
        enip.parse_list_identity(wire)


def test_truncated_identity_item():
    wire = enip.build_list_identity_response(CONTROLLOGIX)
    with pytest.raises((Truncated, LengthMismatch)):
        enip.parse_list_identity(wire[:40])


def test_wrong_item_type_rejected():
    payload = bytes.fromhex("0100 0d00 0000".replace(" ", ""))
    wire = enip.encode_header(enip.CMD_LIST_IDENTITY, payload)
    with pytest.raises(FormatError):
        enip.parse_list_identity(wire)


def test_identity_to_fields():
    fields = enip.identity_to_fields(CONTROLLOGIX, "Rockwell Automation/Allen-Bradley")
    assert fields == {
        "manufacturer": "Rockwell Automation/Allen-Bradley",
        "model": "ControlLogix 5561",
        "firmware_version": "20.11",
        "serial": "0x00BEEF01",
    }


def test_extract_frames():
    a = enip.build_list_identity()
    b = enip.build_list_identity_response(CONTROLLOGIX)
    frames, rest = enip.extract_frames(a + b + b[:10])
    assert frames == [a, b]
    assert rest == b[:10]


# -- identity_fields: the decoder the scanner and the passive analyzer share ----


def test_identity_fields_reads_list_identity_and_skips_the_rest():
    reply = enip.build_list_identity_response(CONTROLLOGIX)
    skipped = [
        enip.build_list_identity(),  # the request carries no identity item
        enip.encode_header(enip.CMD_REGISTER_SESSION, b"\x01\x00\x00\x00"),
        reply[:-1],
        b"GET / HTTP/1.1\r\n",
    ]
    assert enip.identity_fields(skipped) == ({}, {})
    static, deployment = enip.identity_fields([*skipped, reply])
    assert static == enip.identity_to_fields(CONTROLLOGIX, "Rockwell Automation/Allen-Bradley")  # the shipped table
    assert deployment == {}
    unlisted = enip.build_list_identity_response(CONTROLLOGIX._replace(vendor_id=9999))
    assert "manufacturer" not in enip.identity_fields([unlisted])[0]


@given(
    st.lists(
        st.binary(max_size=96) | one_byte_changed([enip.build_list_identity_response(CONTROLLOGIX)]), max_size=6
    )
)
def test_identity_fields_never_raises(replies):
    static, deployment = enip.identity_fields(replies)
    assert isinstance(static, dict) and deployment == {}
