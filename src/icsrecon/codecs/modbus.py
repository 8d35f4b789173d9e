"""Modbus/TCP framing and the PDU subset used for enumeration.

Wire layout (big-endian):

    MBAP header (7 bytes): transaction_id u16 | protocol_id u16 (=0) |
        length u16 (bytes after the length field, i.e. unit_id + PDU) |
        unit_id u8
    PDU: function u8 | payload

Supported functions: 0x2B/0x0E Read Device Identification, 0x11 Report
Server ID, 0x03 Read Holding Registers. Exception replies carry
function|0x80 and exactly one exception-code byte. Only FC 0x2B and FC
0x11 replies carry identity, as ``identity_key`` states.
"""

from __future__ import annotations

import struct
from typing import Generator, Iterable, NamedTuple

from . import cut_frames, encoder, identity_split
from ..errors import (
    DecodeError,
    FormatError,
    LengthMismatch,
    ModbusExceptionResponse,
    NotModbus,
    Truncated,
)

NAME = "modbus"
PORT = 502
MBAP = struct.Struct(">HHHB")
READ_HOLDING = struct.Struct(">HH")  # FC 0x03 request: first register, register count
HEADER_SIZE = MBAP.size
DEVICE_ID_FLAG, SLAVE_ID_FLAG = "device_id_fc2b", "report_slave_id_fc11"  # the simulator's feature flags

FC_READ_HOLDING = 0x03
FC_REPORT_SLAVE_ID = 0x11
FC_ENCAPSULATED = 0x2B
MEI_DEVICE_ID = 0x0E

DEVICE_ID_BASIC = 0x01
MAX_CONTINUATIONS = 3  # FC 0x2B rounds read after the first, whatever more-follows says

OBJ_VENDOR_NAME = 0x00
OBJ_PRODUCT_CODE = 0x01
OBJ_REVISION = 0x02
OBJECT_KEYS = {OBJ_VENDOR_NAME: "manufacturer", OBJ_PRODUCT_CODE: "product_code", OBJ_REVISION: "firmware_version"}

# identity key -> inventory field; FC 0x11 also carries product_code after the slave id, which no decoder reads
IDENTITY = {"manufacturer": "manufacturer", "product_code": "model", "firmware_version": "firmware_version",
            "slave_id": "modbus_slave_id"}

EXC_ILLEGAL_FUNCTION = 0x01

_IDENTITY_FUNCTIONS = frozenset({FC_ENCAPSULATED, FC_REPORT_SLAVE_ID})


class MbapHeader(NamedTuple):
    transaction_id: int
    unit_id: int
    length: int
    protocol_id: int = 0


class ModbusPdu(NamedTuple):
    function: int
    payload: bytes = b""

    @property
    def is_exception(self) -> bool:
        return bool(self.function & 0x80)

    @property
    def exception_code(self) -> int:
        return self.payload[0]


class DeviceIdentification(NamedTuple):
    """Parsed FC 0x2B / MEI 0x0E reply."""

    objects: dict[int, str]
    conformity: int = 0x01
    more_follows: bool = False
    next_object_id: int = 0


class SlaveId(NamedTuple):
    """Parsed FC 0x11 reply."""

    slave_id: int
    running: bool
    additional: bytes = b""


def _exception_is_whole(function: int, payload: bytes) -> bool:
    """False only for an exception PDU (function | 0x80) that does not carry exactly one code byte."""
    return not function & 0x80 or len(payload) == 1


@encoder
def encode_modbus(header: MbapHeader, pdu: ModbusPdu) -> bytes:
    """Encode a frame; raises ValueError for one that ``frame_size`` would not return whole."""
    if not _exception_is_whole(pdu.function, pdu.payload):
        raise ValueError(f"exception PDU with {len(pdu.payload)} payload bytes, not one code byte")
    head = MBAP.pack(header.transaction_id, header.protocol_id, header.length, header.unit_id)
    wire = head + bytes([pdu.function]) + pdu.payload
    if frame_size(wire) != len(wire):
        raise ValueError(f"protocol_id {header.protocol_id} and length {header.length} do not frame {len(wire)} bytes")
    return wire


def frame(transaction_id: int, unit_id: int, function: int, payload: bytes = b"") -> bytes:
    """Encode with the length field computed from the PDU."""
    header = MbapHeader(transaction_id, unit_id, length=2 + len(payload))
    return encode_modbus(header, ModbusPdu(function, payload))


def decode_modbus(data: bytes) -> tuple[MbapHeader, ModbusPdu]:
    """Decode one full frame, one ``frame_size`` returns whole; raises a DecodeError subclass on bad input."""
    if len(data) <= HEADER_SIZE:
        raise Truncated(f"modbus frame needs a function byte after its header, got {len(data)} bytes")
    tx, proto, length, unit = MBAP.unpack_from(data)
    if frame_size(data) != len(data):
        if proto != 0:
            raise NotModbus(f"protocol_id 0x{proto:04x} is not Modbus/TCP")
        raise LengthMismatch(f"declared length {length} does not frame {len(data)} bytes")
    function = data[7]
    payload = bytes(data[8:])
    if not _exception_is_whole(function, payload):
        raise FormatError(f"exception frame with {len(payload)} payload bytes, not one code byte")
    return MbapHeader(tx, unit, length), ModbusPdu(function, payload)


confirm = decode_modbus  # any well-formed reply, exceptions included, confirms Modbus


def frame_size(buf: bytes, at: int = 0) -> int | None:
    """Total length of the MBAP frame starting at ``at``: protocol id 0, length 2..254."""
    _tx, proto, length, _unit = MBAP.unpack_from(buf, at)
    return 6 + length if proto == 0 and 2 <= length <= 254 else None


def extract_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Cut complete MBAP frames off the front of a stream buffer.

    Stops (returning the remainder untouched) at the first chunk that
    cannot be a Modbus/TCP frame.
    """
    return cut_frames(buffer, HEADER_SIZE, frame_size)


def claims(frame: bytes) -> bool:
    return True  # any complete MBAP frame is Modbus


def opening_requests(unit: int) -> tuple[bytes, ...]:
    return (build_device_id_request(unit=unit),)


def enumeration(unit: int, first: bytes) -> Generator[bytes, bytes, None]:
    """After the probe's reply ``first``, each request sent back its reply: FC 0x2B continuations while the last
    reply parses and says more objects follow, at most ``MAX_CONTINUATIONS``, then FC 0x11."""
    reply = first
    for _round in range(MAX_CONTINUATIONS):
        try:
            ident = parse_device_id_response(reply)
        except (DecodeError, FormatError):  # an exception reply, say: the device has no more objects to give
            break
        if not ident.more_follows:
            break
        reply = yield build_device_id_request(unit=unit, object_id=ident.next_object_id)
    yield build_report_slave_id_request(unit)


def exception_frame(transaction_id: int, unit_id: int, function: int, code: int) -> bytes:
    return frame(transaction_id, unit_id, function | 0x80, bytes([code]))


def build_device_id_request(
    unit: int,
    transaction_id: int = 1,
    read_code: int = DEVICE_ID_BASIC,
    object_id: int = OBJ_VENDOR_NAME,
) -> bytes:
    """FC 0x2B / MEI 0x0E read request, basic category by default."""
    return frame(transaction_id, unit, FC_ENCAPSULATED, bytes([MEI_DEVICE_ID, read_code, object_id]))


def build_device_id_response(
    transaction_id: int,
    unit: int,
    objects: dict[int, str],
    read_code: int = DEVICE_ID_BASIC,
    conformity: int = DEVICE_ID_BASIC,
    more_follows: bool = False,
    next_object_id: int = 0,
) -> bytes:
    if not objects:
        raise ValueError("an empty object list, which parse_device_id_response refuses")
    body = bytearray([MEI_DEVICE_ID, read_code, conformity, 0xFF if more_follows else 0x00, next_object_id, len(objects)])
    for object_id in sorted(objects):
        text = objects[object_id]
        if not text.isascii() or len(text) > 0xFF:
            raise ValueError(f"object 0x{object_id:02x} value {text!r} is not ASCII text of at most 255 bytes")
        body += bytes([object_id, len(text)]) + text.encode("ascii")
    return frame(transaction_id, unit, FC_ENCAPSULATED, bytes(body))


def parse_device_id_response(data: bytes) -> DeviceIdentification:
    """Parse an FC 0x2B reply frame into its identification objects.

    The ``more_follows`` flag is surfaced so the caller can iterate
    with ``next_object_id``.
    """
    _, pdu = decode_modbus(data)
    if pdu.is_exception:
        raise ModbusExceptionResponse(pdu.function & 0x7F, pdu.exception_code)
    if pdu.function != FC_ENCAPSULATED:
        raise FormatError(f"expected FC 0x2B reply, got 0x{pdu.function:02x}")
    payload = pdu.payload
    if len(payload) < 6:
        raise Truncated("device identification reply too short")
    if payload[0] != MEI_DEVICE_ID:
        raise FormatError(f"unexpected MEI type 0x{payload[0]:02x}")
    more = payload[3]
    if more not in (0x00, 0xFF):
        raise FormatError(f"bad more-follows flag 0x{more:02x}")
    count = payload[5]
    if count == 0:
        raise FormatError("empty object list")
    objects: dict[int, str] = {}
    offset = 6
    for _ in range(count):
        if offset + 2 > len(payload):
            raise Truncated("object header beyond frame end")
        object_id, length = payload[offset], payload[offset + 1]
        offset += 2
        if offset + length > len(payload):
            raise Truncated("object value beyond frame end")
        objects[object_id] = payload[offset : offset + length].decode("ascii", errors="replace")
        offset += length
    if offset != len(payload):
        raise FormatError(f"{len(payload) - offset} trailing bytes after object list")
    return DeviceIdentification(
        objects=objects,
        conformity=payload[2],
        more_follows=more == 0xFF,
        next_object_id=payload[4],
    )


def build_report_slave_id_request(unit: int, transaction_id: int = 1) -> bytes:
    return frame(transaction_id, unit, FC_REPORT_SLAVE_ID)


def build_report_slave_id_response(
    transaction_id: int, unit: int, slave_id: int, running: bool = True, additional: bytes = b""
) -> bytes:
    body = bytes([slave_id, 0xFF if running else 0x00]) + additional
    return frame(transaction_id, unit, FC_REPORT_SLAVE_ID, bytes([len(body)]) + body)


def parse_report_slave_id_response(data: bytes) -> SlaveId:
    _, pdu = decode_modbus(data)
    if pdu.is_exception:
        raise ModbusExceptionResponse(pdu.function & 0x7F, pdu.exception_code)
    if pdu.function != FC_REPORT_SLAVE_ID:
        raise FormatError(f"expected FC 0x11 reply, got 0x{pdu.function:02x}")
    payload = pdu.payload
    if len(payload) < 3:
        raise Truncated("report server id reply too short")
    byte_count = payload[0]
    if byte_count != len(payload) - 1:
        raise LengthMismatch(f"byte count {byte_count} vs {len(payload) - 1} actual")
    return SlaveId(slave_id=payload[1], running=payload[2] == 0xFF, additional=bytes(payload[3:]))


@encoder
def build_read_holding_request(unit: int, start: int, count: int, transaction_id: int = 1) -> bytes:
    return frame(transaction_id, unit, FC_READ_HOLDING, READ_HOLDING.pack(start, count))


@encoder
def build_read_holding_response(transaction_id: int, unit: int, registers: list[int]) -> bytes:
    body = bytes([2 * len(registers)]) + b"".join(struct.pack(">H", r) for r in registers)
    return frame(transaction_id, unit, FC_READ_HOLDING, body)


def _device_id_reply(device, tx: int = 0, unit: int = 0) -> bytes:
    objects = {object_id: device.identity.get(key) for object_id, key in OBJECT_KEYS.items()}
    return build_device_id_response(tx, unit, {k: v for k, v in objects.items() if v})


def _slave_id_reply(device, tx: int = 0, unit: int = 0) -> bytes:
    slave_id = int(device.identity.get("slave_id", device.unit_id))
    extra = device.identity.get("product_code", "").encode("ascii")  # UnicodeEncodeError, a ValueError, at load
    return build_report_slave_id_response(tx, unit, slave_id, running=True, additional=extra)


SERVES = {DEVICE_ID_FLAG: _device_id_reply, SLAVE_ID_FLAG: _slave_id_reply}
EXCHANGES = frozenset(SERVES)
DEVICE_FIELDS = {"unit_id": 1}


def respond(device, session: dict, request: bytes) -> tuple[bytes | None, bool]:
    """A device's reply, never hanging up: FC 0x2B and FC 0x11 under their flags, reads, else an exception."""
    header, pdu = decode_modbus(request)
    tx, unit = header.transaction_id, header.unit_id
    if unit not in (device.unit_id, 0x00, 0xFF):
        return exception_frame(tx, unit, pdu.function, 0x0B), False  # gateway-style: the unit is not present
    device_id = pdu.function == FC_ENCAPSULATED and pdu.payload[:1] == bytes([MEI_DEVICE_ID])
    if device_id and DEVICE_ID_FLAG in device.feature_flags:
        return _device_id_reply(device, tx, unit), False
    if pdu.function == FC_REPORT_SLAVE_ID and SLAVE_ID_FLAG in device.feature_flags:
        return _slave_id_reply(device, tx, unit), False
    if pdu.function == FC_READ_HOLDING and len(pdu.payload) == READ_HOLDING.size:
        _start, count = READ_HOLDING.unpack(pdu.payload)
        if 1 <= count <= 125:
            return build_read_holding_response(tx, unit, [0] * count), False
    return exception_frame(tx, unit, pdu.function, EXC_ILLEGAL_FUNCTION), False


def identity_key(wire: bytes) -> bytes | None:
    """The bytes of a reply that ``identity_fields`` reads, all but the transaction id; None for one it skips.

    Only FC 0x2B and FC 0x11 replies carry identity: not register polls, exception replies or runts.
    """
    if len(wire) < 8 or wire[7] not in _IDENTITY_FUNCTIONS:
        return None
    return wire[2:]


def identity_fields(replies: Iterable[bytes]) -> tuple[dict[str, str], dict[str, str]]:
    """Static and deployment fields from a server's reply frames; never raises.

    FC 0x2B objects read back as their ``OBJECT_KEYS``, merging across
    continuation rounds (later ones win), and FC 0x11 as the slave id and
    the replying unit. Frames without an ``identity_key`` are skipped
    before decoding, and frames that do not decode are skipped.
    """
    values, unit = {}, {}
    for wire in replies:
        if identity_key(wire) is None:
            continue
        try:
            if wire[7] == FC_ENCAPSULATED:
                objects = parse_device_id_response(wire).objects
                values.update((OBJECT_KEYS[k], v) for k, v in objects.items() if k in OBJECT_KEYS)
            else:
                values["slave_id"] = str(parse_report_slave_id_response(wire).slave_id)
                unit["unit_id"] = str(wire[6])  # the MBAP unit id of the reply
        except (DecodeError, FormatError):
            continue
    static, deployment = identity_split(IDENTITY, values)
    return static, deployment | unit
