"""ISO-on-TCP / S7 codec: framing, status lists, error paths."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from icsrecon.codecs import s7
from icsrecon.errors import FormatError, LengthMismatch, Truncated

from conftest import one_byte_changed, same_record


def test_tpkt_header_golden():
    wire = s7.encode_tpkt(b"\x01\x02\x03")
    assert wire == bytes.fromhex("03000007010203")
    assert s7.decode_tpkt(wire) == b"\x01\x02\x03"


def test_tpkt_version_enforced():
    with pytest.raises(FormatError):
        s7.decode_tpkt(bytes.fromhex("04000007010203"))


def test_tpkt_length_honesty():
    with pytest.raises(LengthMismatch):
        s7.decode_tpkt(bytes.fromhex("030000ff010203"))


def test_cotp_connect_round_trip():
    wire = s7.build_cotp_connect(src_tsap=0x0100, dst_tsap=0x0102)
    envelope = s7.decode_envelope(wire)
    assert envelope.tpkt_version == 3
    assert envelope.tpkt_length == len(wire)
    cotp = envelope.cotp
    assert isinstance(cotp, s7.CotpConnectionRequest)
    assert (cotp.src_tsap, cotp.dst_tsap) == (0x0100, 0x0102)


def test_cotp_confirm_mirrors_request():
    request = s7.CotpConnectionRequest(src_tsap=0x0100, dst_tsap=0x0200)
    confirm = s7.decode_envelope(s7.build_cotp_confirm(request)).cotp
    assert isinstance(confirm, s7.CotpConnectionConfirm)
    assert confirm.src_tsap == 0x0100


def test_cotp_disconnect_round_trip():
    cotp = s7.decode_envelope(s7.build_cotp_disconnect(reason=0x85)).cotp
    assert isinstance(cotp, s7.CotpDisconnectRequest)
    assert cotp.reason == 0x85


def test_cotp_data_round_trip_random_payloads():
    rng = random.Random(2)
    for _ in range(500):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        wire = s7.encode_envelope(s7.CotpData(payload))
        decoded = s7.decode_envelope(wire).cotp
        assert same_record(decoded, s7.CotpData(payload))


def test_setup_communication_round_trip():
    for is_request in (True, False):
        message = s7.S7SetupCommunication(is_request=is_request, pdu_ref=9, pdu_length=240)
        assert same_record(s7.decode_s7(s7.encode_s7(message)), message)


def test_szl_request_round_trip():
    message = s7.S7SzlRequest(szl_id=0x0011, szl_index=0, pdu_ref=3, sequence=1)
    assert same_record(s7.decode_s7(s7.encode_s7(message)), message)


def test_szl_response_round_trip():
    entries = (
        s7.SzlEntry(index=1, text="6ES7 151-8AB01-0AB0"),
        s7.SzlEntry(index=7, text="6ES7 151-8AB01-0AB0", words=(0, 0x0302, 6)),
    )
    message = s7.S7SzlResponse(szl_id=0x0011, szl_index=0, entries=entries, pdu_ref=4, sequence=1)
    assert same_record(s7.decode_s7(s7.encode_s7(message)), message)


@pytest.mark.parametrize("sequence", [256, -1])
def test_userdata_sequence_number_outside_its_byte_is_refused(sequence):
    entries = (s7.SzlEntry(index=1, text="6ES7 151-8AB01-0AB0"),)
    for message in (
        s7.S7SzlRequest(szl_id=0x0011, sequence=sequence),
        s7.S7SzlResponse(szl_id=0x0011, szl_index=0, entries=entries, sequence=sequence),
    ):
        with pytest.raises(ValueError, match="sequence number"):
            s7.encode_s7(message)


@pytest.mark.parametrize(
    "message",
    [s7.S7SzlRequest(0x0011, pdu_ref=70000), s7.S7SzlRequest(0x0011, szl_index=70000), s7.S7SzlRequest(-1),
     s7.CotpConnectionConfirm(src_tsap=0x0100, dst_tsap=0x0102, src_ref=0x10000)],
    ids=["pdu_ref", "szl_index", "szl_id", "cotp_src_ref"],
)
def test_a_field_the_wire_cannot_carry_is_a_value_error(message):
    encode = s7.encode_cotp if isinstance(message, s7.CotpConnectionConfirm) else s7.encode_s7
    with pytest.raises(ValueError, match="out of range"):
        encode(message)


# Fixture-shaped identity: the parsed record must echo the configured
# values (the simulator uses exactly these builders).
ET200S_IDENTITY = {
    "module_order_number": "6ES7 151-8AB01-0AB0",
    "firmware_version": "3.2.6",
    "hardware_version": "2.0",
}


def test_parse_szl_module_identification():
    response = s7.S7SzlResponse(
        szl_id=s7.SZL_MODULE_ID,
        szl_index=0,
        entries=s7.module_id_entries(ET200S_IDENTITY),
    )
    assert s7.parse_szl_response(s7.build_szl_response_frame(response)) == (
        {
            "manufacturer": "Siemens",
            "model": "6ES7 151-8AB01-0AB0",
            "hardware_version": "2.0",
            "firmware_version": "3.2.6",
        },
        {},
    )


def test_parse_szl_component_identification():
    identity = {
        "system_name": "ET200S Station",
        "module_name": "IM151-8 PN/DP CPU",
        "plant_id": "PLANT-01",
        "copyright": "Original Siemens Equipment",
        "serial": "S C-A1B2C3",
    }
    response = s7.S7SzlResponse(
        szl_id=s7.SZL_COMPONENT_ID, szl_index=0, entries=s7.component_id_entries(identity)
    )
    assert s7.parse_szl_response(s7.build_szl_response_frame(response)) == (
        {"manufacturer": "Siemens", "serial": "S C-A1B2C3"},
        {"system_name": "ET200S Station", "module_name": "IM151-8 PN/DP CPU", "plant_id": "PLANT-01"},
    )


def test_each_identity_key_has_its_record_index():
    """Builders and decoders read one slot table, so no round trip sees two of its keys swapped: pin each index."""
    identity = {**ET200S_IDENTITY, "system_name": "Sys", "module_name": "Mod", "plant_id": "Plant", "copyright": "C",
                "serial": "SN"}
    order = ET200S_IDENTITY["module_order_number"]
    assert s7.module_id_entries(identity) == (
        s7.SzlEntry(1, order), s7.SzlEntry(6, order, (0, 0x0200, 0)), s7.SzlEntry(7, order, (0, 0x0302, 6))
    )
    assert s7.component_id_entries(identity) == (
        s7.SzlEntry(1, "Sys"), s7.SzlEntry(2, "Mod"), s7.SzlEntry(3, "Plant"), s7.SzlEntry(4, "C"), s7.SzlEntry(5, "SN")
    )


def szl_reply(szl_id: int, entries) -> bytes:
    return s7.build_szl_response_frame(s7.S7SzlResponse(szl_id=szl_id, szl_index=0, entries=entries))


def test_szl_fields_mapping():
    module = {"module_order_number": "6ES7 215-1AG40-0XB0", "firmware_version": "4.4.0"}
    component = {"system_name": "S7 Station", "plant_id": "PLANT-02", "serial": "SN1"}
    static, deployment = s7.identity_fields(
        [
            szl_reply(s7.SZL_MODULE_ID, s7.module_id_entries(module)),
            szl_reply(s7.SZL_COMPONENT_ID, s7.component_id_entries(component)),
        ]
    )
    assert static == {
        "model": "6ES7 215-1AG40-0XB0",
        "firmware_version": "4.4.0",
        "manufacturer": "Siemens",
        "serial": "SN1",
    }
    assert deployment == {"system_name": "S7 Station", "plant_id": "PLANT-02"}


def test_first_list_to_name_a_manufacturer_keeps_it():
    acme = {"copyright": "Acme", "serial": "SN1", "system_name": "First"}
    later = {"serial": "SN2", "system_name": "Second"}
    static, deployment = s7.identity_fields(
        [
            szl_reply(s7.SZL_COMPONENT_ID, s7.component_id_entries(acme)),
            szl_reply(s7.SZL_MODULE_ID, s7.module_id_entries(ET200S_IDENTITY)),  # names Siemens
            szl_reply(s7.SZL_COMPONENT_ID, s7.component_id_entries(later)),
        ]
    )
    assert static["manufacturer"] == "Acme"
    assert (static["model"], static["serial"]) == ("6ES7 151-8AB01-0AB0", "SN2")  # later lists win the rest
    assert deployment == {"system_name": "Second"}


def test_szl_refusal_is_format_error():
    refusal = s7.S7SzlResponse(szl_id=0, szl_index=0, entries=(), error_code=0x8104)
    with pytest.raises(FormatError):
        s7.parse_szl_response(s7.build_szl_response_frame(refusal))


def test_unknown_szl_id_is_format_error():
    response = s7.S7SzlResponse(szl_id=0x0131, szl_index=0, entries=())
    # unsupported ids are rejected before the (empty) record check
    wire = s7.encode_envelope(s7.CotpData(s7.encode_s7(response)))
    with pytest.raises(FormatError):
        s7.parse_szl_response(wire)


def test_parse_garbage_never_crashes():
    rng = random.Random(3)
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            s7.parse_szl_response(blob)
        except (FormatError, Truncated, LengthMismatch):
            pass


def test_extract_tpkt_frames():
    a = s7.build_cotp_connect(0x0100, 0x0102)
    b = s7.build_setup_communication(pdu_ref=1)
    frames, rest = s7.extract_tpkt_frames(a + b + a[:3])
    assert frames == [a, b]
    assert rest == a[:3]


# -- identity_fields: the decoder the scanner and the passive analyzer share ----


MODULE_REPLY = s7.build_szl_response_frame(
    s7.S7SzlResponse(szl_id=s7.SZL_MODULE_ID, szl_index=0, entries=s7.module_id_entries(ET200S_IDENTITY))
)


def test_identity_fields_skips_handshake_refusals_and_unrelated_frames():
    component = s7.build_szl_response_frame(
        s7.S7SzlResponse(
            szl_id=s7.SZL_COMPONENT_ID,
            szl_index=0,
            entries=s7.component_id_entries({"system_name": "ET200S Station", "serial": "S C-A1B2C3"}),
        )
    )
    skipped = [
        s7.build_cotp_confirm(s7.CotpConnectionRequest(0x0100, 0x0102)),
        s7.build_setup_ack(pdu_ref=1),
        s7.build_szl_response_frame(s7.S7SzlResponse(szl_id=0, szl_index=0, entries=(), error_code=0x8104)),
        s7.build_szl_read(s7.SZL_MODULE_ID),  # a request, not a reply
        b"\x03\x00\x00\x05\x00",
    ]
    assert s7.identity_fields(skipped) == ({}, {})
    static, deployment = s7.identity_fields([*skipped, MODULE_REPLY, component])
    assert static == {
        "model": "6ES7 151-8AB01-0AB0",
        "firmware_version": "3.2.6",
        "hardware_version": "2.0",
        "manufacturer": "Siemens",
        "serial": "S C-A1B2C3",
    }
    assert deployment == {"system_name": "ET200S Station"}


S7_REPLIES = [
    MODULE_REPLY,
    s7.build_szl_response_frame(
        s7.S7SzlResponse(szl_id=s7.SZL_COMPONENT_ID, szl_index=0, entries=(s7.SzlEntry(index=1, text="Station"),))
    ),
    s7.build_cotp_confirm(s7.CotpConnectionRequest(0x0100, 0x0102)),
    s7.build_setup_ack(pdu_ref=1),
]


@given(st.lists(st.binary(max_size=96) | one_byte_changed(S7_REPLIES), max_size=6))
def test_identity_fields_never_raises(replies):
    static, deployment = s7.identity_fields(replies)
    assert isinstance(static, dict) and isinstance(deployment, dict)
