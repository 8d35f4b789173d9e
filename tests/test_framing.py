"""One frame rule per protocol: the socket reader, the stream cutter and the codec's outer encoder and decoder agree.

Also the rest of each codec's shared interface, against the per-protocol
rules it replaced in the passive classifier, the scanner and the simulator.
"""

from __future__ import annotations

import functools
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, reject, settings, strategies as st

from icsrecon.codecs import PROTOCOLS, cut_frames, enip, modbus, s7
from icsrecon.errors import (
    ConfigError, ConnectionRefusedByTsap, DecodeError, FormatError, IcsReconError, LengthMismatch,
)
from icsrecon.model import DeploymentInfo, StaticDeviceInfo
from icsrecon.netbase import recv_frame
from icsrecon.ouidb import load_enip_vendors
from icsrecon.simulator import SimDeviceConfig

from conftest import drive, same_record

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
        # the two frames over the bounds are built with struct, as their encoders refuse them
        pytest.param(s7, struct.pack(">BBH", 3, 0, 9000) + b"\x02\xf0\x80" + bytes(8993), False, id="tpkt_9000_bytes"),
        pytest.param(s7, bytes([3, 1, 0, 7]) + b"\x02\xf0\x80", False, id="tpkt_reserved_1"),
        pytest.param(modbus, bytes.fromhex("000199990003012b00"), False, id="mbap_protocol_id_9999"),
        pytest.param(enip, enip.encode_header(0x0999, b""), True, id="enip_unknown_command"),
        pytest.param(
            enip, struct.pack("<HHII8sI", 0x63, 9000, 0, 0, bytes(8), 0) + bytes(9000), False, id="enip_9000_payload"
        ),
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


# -- the codec interface against the rules it replaced -------------------------


def inline_claims(codec, frame: bytes) -> bool:
    """The passive classifier's rule for a first complete frame, as it was written in ``classify_flow``."""
    try:
        return bool(
            (codec is not s7 or s7.decode_envelope(frame))
            and (codec is not enip or enip.decode_header(frame)[0].command in enip.KNOWN_COMMANDS)
        )
    except IcsReconError:
        return False


def inline_validates(codec, frame: bytes) -> bool:
    """The simulator's malformed-frame test, as it was written in ``SimDevice.validates``."""
    try:
        if codec is modbus:
            modbus.decode_modbus(frame)
        elif codec is s7:
            s7.decode_envelope(frame)
        else:
            enip.decode_header(frame)
        return True
    except IcsReconError:
        return False


def inline_confirm(codec, reply: bytes) -> None:
    """The scanner's probe confirmations, as they were written in the scanner."""
    if codec is modbus:
        modbus.decode_modbus(reply)  # any well-formed reply, exceptions included
    elif codec is s7:
        cotp = s7.decode_envelope(reply).cotp
        if isinstance(cotp, s7.CotpDisconnectRequest):
            raise ConnectionRefusedByTsap("TSAP pair refused")
        if not isinstance(cotp, s7.CotpConnectionConfirm):
            raise FormatError(f"unexpected COTP answer {type(cotp).__name__}")
    else:
        message, _ = enip.decode_header(reply)
        if message.command != enip.CMD_LIST_IDENTITY:
            raise FormatError(f"probe got command 0x{message.command:04x}")


def confirm_outcome(confirm, reply: bytes) -> str:
    """What the scanner makes of a reply: a session, the next request, or an anomaly."""
    try:
        confirm(reply)
    except ConnectionRefusedByTsap:
        return "refused"
    except (DecodeError, FormatError):
        return "malformed"
    return "confirmed"


BUILT_FRAMES = [
    modbus.build_device_id_request(unit=1),
    modbus.build_report_slave_id_response(2, 1, slave_id=5),
    modbus.exception_frame(1, 1, modbus.FC_ENCAPSULATED, modbus.EXC_ILLEGAL_FUNCTION),
    modbus.MBAP.pack(1, 0, 5, 1) + bytes([0x83, 1, 2, 3]),  # an exception frame with 3 payload bytes
    s7.build_cotp_connect(0x0100, 0x0102),
    s7.build_cotp_confirm(s7.CotpConnectionRequest(0x0100, 0x0102)),
    s7.build_cotp_disconnect(reason=0x83),
    s7.build_setup_communication(pdu_ref=1),  # a COTP DT
    enip.build_list_identity(),
    enip.build_list_identity_response(enip.CipIdentity(1, 14, 54, (20, 11), 0x0060, 0x1234, "1756-L61")),
    enip.encode_header(0x0999, b""),  # an unknown command
]


@st.composite
def frames(draw) -> bytes:
    """Random bytes, a built frame, or a built frame with one byte changed."""
    frame = draw(st.one_of(st.binary(max_size=64), st.sampled_from(BUILT_FRAMES)))
    if frame and draw(st.booleans()):
        at = draw(st.integers(0, len(frame) - 1))
        frame = frame[:at] + bytes([draw(st.integers(0, 255))]) + frame[at + 1 :]
    return frame


OUTER_DECODERS = {modbus: modbus.decode_modbus, s7: s7.decode_envelope, enip: enip.decode_header}


def matches_the_inline_rules(codec, frame: bytes) -> tuple[bool, str]:
    """Assert that ``codec`` accepts and rejects ``frame`` as the inline rules did; its claim and confirm outcome."""
    claimed, outcome = codec.claims(frame), confirm_outcome(codec.confirm, frame)
    assert claimed == inline_claims(codec, frame)
    assert (confirm_outcome(OUTER_DECODERS[codec], frame) == "confirmed") == inline_validates(codec, frame)
    assert outcome == confirm_outcome(functools.partial(inline_confirm, codec), frame)
    return claimed, outcome


def test_codec_interface_matches_the_inline_rules_on_built_frames():
    seen = {(codec, *matches_the_inline_rules(codec, frame)) for codec in PROTOCOLS.values() for frame in BUILT_FRAMES}
    # every rule is seen both to accept and to reject
    assert {claimed for _, claimed, _ in seen} == {True, False}
    assert {(codec, outcome) for codec, _, outcome in seen} == {
        (modbus, "confirmed"), (modbus, "malformed"),
        (s7, "confirmed"), (s7, "refused"), (s7, "malformed"),
        (enip, "confirmed"), (enip, "malformed"),
    }


@pytest.mark.parametrize("codec", [modbus, s7, enip], ids=["modbus", "s7", "enip"])
@settings(max_examples=300, deadline=None)
@given(frame=frames())
def test_codec_interface_matches_the_inline_rules(codec, frame):
    matches_the_inline_rules(codec, frame)
    for cut in EXTRACTORS[codec](frame)[0][:1]:  # the passive rule sees a stream's first complete frame
        matches_the_inline_rules(codec, cut)


# -- each codec's outer encoder and decoder read its frame rule ----------------

CODECS = pytest.mark.parametrize("codec", PROTOCOLS.values(), ids=PROTOCOLS.keys())
BYTE, WORD, DWORD = st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
FRAME_SIZES = st.one_of(st.integers(0, 300), st.integers(8180, 9000))  # each side of each frame bound
SIZES = FRAME_SIZES | st.integers(0xFFF0, 0x10010)  # and of a 16-bit length field


@st.composite
def encodings(draw, codec):
    """One call of ``codec``'s outer encoder: the call, its outer decoder, and what that decoder gives back."""
    size = draw(SIZES)
    if codec is modbus:
        header = modbus.MbapHeader(draw(WORD), draw(BYTE), 2 + size)
        pdu = modbus.ModbusPdu(draw(BYTE), bytes(size))
        return functools.partial(modbus.encode_modbus, header, pdu), modbus.decode_modbus, (header, pdu)
    if codec is s7:
        return functools.partial(s7.encode_tpkt, bytes(size)), s7.decode_tpkt, bytes(size)
    message = enip.EnipMessage(draw(WORD), size, draw(DWORD), draw(DWORD), draw(DWORD))
    call = functools.partial(enip.encode_header, message.command, bytes(size), *message[2:5])
    return call, enip.decode_header, (message, bytes(size))


@CODECS
@settings(deadline=None)
@given(data=st.data())
def test_every_encoded_frame_is_one_frame_size_accepts(codec, data):
    encode, _, _ = data.draw(encodings(codec))
    try:
        wire = encode()
    except ValueError:  # Modbus also refuses an exception PDU of other than one byte
        return
    assert codec.frame_size(wire) == len(wire)


@CODECS
@settings(deadline=None)
@given(data=st.data())
def test_the_outer_header_round_trips(codec, data):
    encode, decode, decoded = data.draw(encodings(codec))
    try:
        wire = encode()
    except ValueError:
        return
    assert same_record(decode(wire), decoded)


def tpkt_frame(version: int, reserved: int, length: int | None, size: int) -> bytes:
    """A TPKT header with any fields in front of a COTP DT of ``size`` data bytes; ``length`` None for the honest one."""
    body = b"\x02\xf0\x80" + bytes(size)
    return struct.pack(">BBH", version, reserved, 4 + len(body) if length is None else length) + body


def enip_frame(command: int, length: int | None, size: int) -> bytes:
    """An encapsulation header with any command in front of ``size`` bytes; ``length`` None for the honest one."""
    return struct.pack("<HHII8sI", command, size if length is None else length, 0, 0, bytes(8), 0) + bytes(size)


DECODABLE = {
    modbus: st.one_of(
        st.binary(max_size=300),
        st.builds(
            lambda length, unit, body: modbus.MBAP.pack(1, 0, length, unit) + body,
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFF),
            st.binary(max_size=300),
        ),
        st.integers(1, 0xFFFF).map(lambda length: modbus.MBAP.pack(1, 0, length, 1) + bytes(length - 1)),
    ),
    s7: st.one_of(
        st.binary(max_size=64),
        st.builds(tpkt_frame, st.just(3) | BYTE, st.just(0) | BYTE, st.none() | WORD, FRAME_SIZES),
    ),
    enip: st.one_of(
        st.binary(max_size=64),
        st.builds(enip_frame, st.sampled_from(sorted(enip.KNOWN_COMMANDS)) | WORD, st.none() | WORD, FRAME_SIZES),
    ),
}


@CODECS
@settings(deadline=None)
@given(data=st.data())
def test_every_decoded_frame_is_one_frame_size_accepts(codec, data):
    wire = data.draw(DECODABLE[codec])
    try:
        OUTER_DECODERS[codec](wire)
    except (DecodeError, FormatError):
        return
    assert codec.frame_size(wire) == len(wire)


def test_an_s7_frame_over_8192_bytes_is_neither_built_nor_decoded():
    with pytest.raises(ValueError):
        s7.encode_envelope(s7.CotpData(b"x" * 9000))
    wire = tpkt_frame(3, 0, None, 9000)
    assert len(wire) == 9007 and s7.frame_size(wire) is None
    with pytest.raises(FormatError):
        s7.decode_envelope(wire)
    assert not s7.claims(wire)


def test_a_tpkt_with_reserved_1_is_neither_decoded_nor_claimed():
    wire = tpkt_frame(3, 1, None, 0)
    assert s7.frame_size(wire) is None
    with pytest.raises(FormatError):
        s7.decode_envelope(wire)
    assert not s7.claims(wire)


def test_an_enip_payload_over_8192_bytes_is_neither_built_nor_decoded():
    with pytest.raises(ValueError):
        enip.encode_header(enip.CMD_LIST_IDENTITY, bytes(9000))
    wire = enip_frame(enip.CMD_LIST_IDENTITY, None, 9000)
    assert len(wire) == 9024 and enip.frame_size(wire) is None
    with pytest.raises(LengthMismatch):
        enip.decode_header(wire)
    assert not enip.claims(wire)


# -- any identity a codec's device serves reads back whole, through the scanner's probe and enumeration ----------


def texts(most: int):
    """Printable ASCII with no surrounding whitespace, as a fixture's value reads: a record pads, a loader strips."""
    return st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=most).map(str.strip)


def numbers(most: int):
    return st.integers(0, most).map(str)


@st.composite
def versions(draw) -> str:
    """Major, then maybe minor, then maybe a patch, in canonical decimal: what a version word and a patch word carry."""
    parts = draw(st.lists(BYTE, min_size=1, max_size=2))
    if len(parts) == 2:
        parts += draw(st.lists(WORD, max_size=1))
    return ".".join(map(str, parts))


def version_parts(text: str) -> tuple[int, int, int]:
    major, minor, patch = [*map(int, text.split(".")), 0, 0][:3]
    return major, minor, patch


# each codec's identity keys, each with the values its encoders accept
IDENTITIES = {
    "modbus": {"manufacturer": texts(80), "product_code": texts(80), "firmware_version": texts(80),
               "slave_id": numbers(0xFF)},
    "s7comm": {
        "module_order_number": texts(20), "hardware_version": versions(), "firmware_version": versions(),
        **dict.fromkeys(("system_name", "module_name", "plant_id", "serial"), texts(32)),
        "copyright": texts(32) | st.sampled_from(("Original Siemens Equipment", "SIEMENS AG")),
    },
    "enip": {
        "vendor_id": st.sampled_from(sorted(load_enip_vendors())).map(str) | numbers(0xFFFF),
        "device_type": numbers(0xFFFF), "product_code_number": numbers(0xFFFF), "status": numbers(0xFFFF),
        "firmware_version": versions(), "serial_number": numbers(0xFFFFFFFF), "product_name": texts(255),
    },
}


def modbus_fields(identity: dict, flags: frozenset, config: SimDeviceConfig, unit: int) -> tuple[dict, dict]:
    """FC 0x2B objects as themselves; FC 0x11 adds the reply's MBAP unit, and the slave id defaults to the device's."""
    static, deployment = {}, {}
    if "device_id_fc2b" in flags:
        static = {key: identity.get(key) for key in ("manufacturer", "firmware_version")}
        static["model"] = identity.get("product_code")
    if "report_slave_id_fc11" in flags:
        deployment = {"modbus_slave_id": identity.get("slave_id", str(config.unit_id)), "unit_id": str(unit)}
    return static, deployment


def s7_fields(identity: dict, flags: frozenset, config: SimDeviceConfig, unit: int) -> tuple[dict, dict]:
    """The module list names Siemens, and is read first, so its maker wins; a copyright naming Siemens reads as
    Siemens; the hardware word is major.minor, the firmware words major.minor.patch."""
    static, deployment = {}, {}
    if "szl_001c" in flags:
        copyright = identity.get("copyright", "")
        static = {"manufacturer": "Siemens" if "siemens" in copyright.lower() else copyright,
                  "serial": identity.get("serial")}
        deployment = {key: identity.get(key) for key in ("system_name", "module_name", "plant_id")}
    if "szl_0011" in flags:
        static |= {"manufacturer": "Siemens", "model": identity.get("module_order_number")}
        if "hardware_version" in identity:
            static["hardware_version"] = "%d.%d" % version_parts(identity["hardware_version"])[:2]
        if "firmware_version" in identity:
            static["firmware_version"] = "%d.%d.%d" % version_parts(identity["firmware_version"])
    return static, deployment


def enip_fields(identity: dict, flags: frozenset, config: SimDeviceConfig, unit: int) -> tuple[dict, dict]:
    """The vendor through the shipped table, the revision as major.minor, the serial as 0x%08X; left out, the model
    is the device's name, the firmware 1.0 and the serial 0."""
    if "list_identity" not in flags:
        return {}, {}
    return {
        "manufacturer": load_enip_vendors().get(int(identity.get("vendor_id", "1"))),
        "model": identity.get("product_name", config.name),
        "firmware_version": "%d.%d" % version_parts(identity.get("firmware_version", "1.0"))[:2],
        "serial": f"0x{int(identity.get('serial_number', '0')):08X}",
    }, {}


EXPECTED_FIELDS = {"modbus": modbus_fields, "s7comm": s7_fields, "enip": enip_fields}


@pytest.mark.parametrize("name", PROTOCOLS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_servable_identity_reads_back_whole(name, data):
    codec = PROTOCOLS[name]
    identity = data.draw(st.fixed_dictionaries({}, optional=IDENTITIES[name]))
    flags = frozenset(data.draw(st.sets(st.sampled_from(sorted(codec.EXCHANGES)))))
    device = {"unit_id": data.draw(BYTE)} if name == "modbus" else {}
    try:
        config = SimDeviceConfig("plc-1", name, "10.0.0.1", codec.PORT, identity=identity, feature_flags=flags,
                                 **device)
    except ConfigError:
        reject()  # an identity some reply cannot carry, say an FC 0x2B reply with no object
    unit = data.draw(st.sampled_from((config.unit_id, 0, 0xFF))) if name == "modbus" else 1
    session = {}
    first, _hang_up = codec.respond(config, session, codec.opening_requests(unit)[0])
    codec.confirm(first)
    _requests, replies = drive(codec.enumeration(unit, first), lambda request: codec.respond(config, session, request)[0])
    static, deployment = codec.identity_fields([first, *replies])
    want_static, want_deployment = EXPECTED_FIELDS[name](identity, flags, config, unit)
    assert StaticDeviceInfo.from_fields(static) == StaticDeviceInfo.from_fields(want_static)
    assert DeploymentInfo.from_dict(deployment) == DeploymentInfo.from_dict(want_deployment)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_the_property_draws_every_identity_key_a_codec_serves(name):
    assert IDENTITIES[name].keys() == PROTOCOLS[name].IDENTITY.keys()
