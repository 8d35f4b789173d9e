"""EtherNet/IP encapsulation with the ListIdentity service.

Encapsulation header is exactly 24 bytes, little-endian:

    command u16 | length u16 (payload bytes, at most 8192) | session u32 |
    status u32 | sender context (8 bytes) | options u32

A ListIdentity reply carries one CPF item of type 0x000C: protocol
version u16, a 16-byte socket address (big-endian inside), then the
identity object: vendor u16, device type u16, product code u16,
revision (u8, u8), status u16, serial u32, length-prefixed product
name, state u8. The product name is ASCII: the encoder refuses any other
text.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Generator, Iterable, NamedTuple

from . import cut_frames, encoder, identity_split, version
from ..errors import DecodeError, FormatError, LengthMismatch, Truncated, UnexpectedCommand
from ..ouidb import load_enip_vendors

NAME = "enip"
PORT = 44818
ENCAP_HEADER = struct.Struct("<HHII8sI")
HEADER_SIZE = ENCAP_HEADER.size
LIST_IDENTITY_FLAG = "list_identity"  # the simulator's feature flag

CMD_NOP = 0x0000
CMD_LIST_SERVICES = 0x0004
CMD_LIST_IDENTITY = 0x0063
CMD_LIST_INTERFACES = 0x0064
CMD_REGISTER_SESSION = 0x0065
CMD_UNREGISTER_SESSION = 0x0066
CMD_SEND_RR_DATA = 0x006F

KNOWN_COMMANDS = {
    CMD_NOP,
    CMD_LIST_SERVICES,
    CMD_LIST_IDENTITY,
    CMD_LIST_INTERFACES,
    CMD_REGISTER_SESSION,
    CMD_UNREGISTER_SESSION,
    CMD_SEND_RR_DATA,
}

_LIST_IDENTITY = CMD_LIST_IDENTITY.to_bytes(2, "little")

ITEM_IDENTITY = 0x000C
CPF_ITEM = struct.Struct("<HHH")  # item count, then the first item's type id and length
SOCKET_ADDRESS = struct.Struct(">HH4s8s")  # family, port, IPv4 address, zero
# protocol version, socket address, vendor, device type, product code, revision (major, minor), status, serial
IDENTITY_FIXED = struct.Struct(f"<H{SOCKET_ADDRESS.size}sHHHBBHI")

# identity key -> inventory field: the vendor by the shipped vendor table, the revision major.minor, the serial 0x%08X
IDENTITY = {"vendor_id": "manufacturer", "product_name": "model", "firmware_version": "firmware_version",
            "serial_number": "serial", "device_type": None, "product_code_number": None, "status": None}


class CipIdentity(NamedTuple):
    vendor_id: int
    device_type: int
    product_code: int
    revision: tuple[int, int]
    status: int
    serial: int
    product_name: str
    state: int = 0


class EnipMessage(NamedTuple):
    command: int
    length: int
    session: int = 0
    status: int = 0
    options: int = 0


@encoder
def encode_header(command: int, payload: bytes, session: int = 0, status: int = 0, options: int = 0) -> bytes:
    """Prefix the encapsulation header; raises ValueError for a frame ``frame_size`` would not return whole."""
    wire = ENCAP_HEADER.pack(command, len(payload), session, status, bytes(8), options) + payload
    if frame_size(wire) != len(wire):
        raise ValueError(f"a payload of {len(payload)} bytes is not one frame_size accepts")
    return wire


def decode_header(data: bytes) -> tuple[EnipMessage, bytes]:
    """Decode the header of a frame ``frame_size`` returns whole."""
    if len(data) < HEADER_SIZE:
        raise Truncated(f"encapsulation header needs {HEADER_SIZE} bytes, got {len(data)}")
    command, length, session, status, _context, options = ENCAP_HEADER.unpack_from(data)
    if frame_size(data) != len(data):
        raise LengthMismatch(f"header declares {length} payload bytes, got {len(data) - HEADER_SIZE}")
    return EnipMessage(command, length, session, status, options), bytes(data[HEADER_SIZE:])


def frame_size(buf: bytes, at: int = 0) -> int | None:
    """Total length of the encapsulation frame starting at ``at``: payload of at most 8192 bytes.

    Any command frames; whether it is a known one is up to the caller.
    """
    length = ENCAP_HEADER.unpack_from(buf, at)[1]
    return HEADER_SIZE + length if length <= 8192 else None


def extract_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Cut complete encapsulation frames off the front of a stream."""
    return cut_frames(buffer, HEADER_SIZE, frame_size)


def build_list_identity() -> bytes:
    """The 24-byte ListIdentity request: command 0x0063, length 0."""
    return encode_header(CMD_LIST_IDENTITY, b"")


def claims(frame: bytes) -> bool:
    """A frame with a known command is EtherNet/IP."""
    try:
        return decode_header(frame)[0].command in KNOWN_COMMANDS
    except (DecodeError, FormatError):
        return False


def opening_requests(unit: int) -> tuple[bytes, ...]:
    return (build_list_identity(),)


def confirm(reply: bytes) -> None:
    """Only a ListIdentity reply confirms EtherNet/IP."""
    message, _ = decode_header(reply)
    if message.command != CMD_LIST_IDENTITY:
        raise FormatError(f"probe got command 0x{message.command:04x}")


def enumeration(unit: int, first: bytes) -> Generator[bytes, bytes, None]:
    """No request follows: the ListIdentity reply ``first`` that confirmed EtherNet/IP is all there is to read."""
    yield from ()


@encoder
def encode_identity_item(identity: CipIdentity, ip: str = "0.0.0.0", port: int = PORT) -> bytes:
    if not identity.product_name.isascii() or len(identity.product_name) > 0xFF:
        raise ValueError(f"product name {identity.product_name!r} is not ASCII text of at most 255 bytes")
    name = identity.product_name.encode("ascii")
    address = SOCKET_ADDRESS.pack(2, port, ipaddress.IPv4Address(ip).packed, bytes(8))  # a dotted quad, or ValueError
    item = IDENTITY_FIXED.pack(
        1, address, identity.vendor_id, identity.device_type, identity.product_code, *identity.revision,
        identity.status, identity.serial,
    )
    item += bytes([len(name)]) + name + bytes([identity.state])
    return CPF_ITEM.pack(1, ITEM_IDENTITY, len(item)) + item


def build_list_identity_response(identity: CipIdentity, ip: str = "0.0.0.0", port: int = PORT) -> bytes:
    return encode_header(CMD_LIST_IDENTITY, encode_identity_item(identity, ip, port))


def _list_identity_reply(device) -> bytes:
    identity = device.identity
    cip = CipIdentity(
        vendor_id=int(identity.get("vendor_id", "1")),
        device_type=int(identity.get("device_type", "14")),
        product_code=int(identity.get("product_code_number", "0") or 0),
        revision=version(identity.get("firmware_version", "1.0")),
        status=int(identity.get("status", "0x0060"), 0),
        serial=int(identity.get("serial_number", "0"), 0),
        product_name=identity.get("product_name", device.name),
        state=3,
    )
    return build_list_identity_response(cip, ip=device.ip, port=device.listen_port)


SERVES = {LIST_IDENTITY_FLAG: _list_identity_reply}
EXCHANGES = frozenset(SERVES)
DEVICE_FIELDS = {}


def respond(device, session: dict, request: bytes) -> tuple[bytes | None, bool]:
    """A device's reply, never hanging up: ListIdentity under its flag, any other command status 0x0001."""
    message, _payload = decode_header(request)
    if message.command == CMD_LIST_IDENTITY and LIST_IDENTITY_FLAG in device.feature_flags:
        return _list_identity_reply(device), False
    return encode_header(message.command, b"", status=0x0001), False


def parse_list_identity(data: bytes) -> CipIdentity:
    """Extract the identity object from a ListIdentity reply."""
    message, payload = decode_header(data)
    if message.command != CMD_LIST_IDENTITY:
        raise UnexpectedCommand(f"expected ListIdentity reply, got command 0x{message.command:04x}")
    if len(payload) < CPF_ITEM.size:
        raise Truncated("reply carries no identity item")
    item_count, item_type, item_length = CPF_ITEM.unpack_from(payload)
    if item_count < 1 or item_type != ITEM_IDENTITY:
        raise FormatError(f"expected identity item, got type 0x{item_type:04x} (count {item_count})")
    item = payload[CPF_ITEM.size : CPF_ITEM.size + item_length]
    if len(item) < item_length:
        raise Truncated("identity item beyond frame end")
    name_at = IDENTITY_FIXED.size + 1  # after the fixed part and the name's length byte
    if len(item) < name_at:
        raise Truncated(f"identity item needs >= {name_at} bytes, got {len(item)}")
    _version, _address, vendor_id, device_type, product_code, rev_major, rev_minor, status, serial = (
        IDENTITY_FIXED.unpack_from(item)
    )
    name_end = name_at + item[IDENTITY_FIXED.size]
    if len(item) < name_end:
        raise Truncated("product name beyond item end")
    name = item[name_at:name_end].decode("ascii", errors="replace")
    state = item[name_end] if len(item) > name_end else 0
    return CipIdentity(
        vendor_id=vendor_id,
        device_type=device_type,
        product_code=product_code,
        revision=(rev_major, rev_minor),
        status=status,
        serial=serial,
        product_name=name,
        state=state,
    )


def identity_key(wire: bytes, at: int = 0, end: int | None = None) -> bytes | None:
    """The bytes of the reply ``wire[at:end]``, read where it lies, that ``identity_fields`` reads, all but the session
    handle and sender context; None for a frame of another command, which it skips.
    """
    end = len(wire) if end is None else end
    if end - at < HEADER_SIZE or wire[at : at + 2] != _LIST_IDENTITY:
        return None
    return wire[at : at + 4] + wire[at + 8 : at + 12] + wire[at + 20 : end]


def identity_fields(replies: Iterable[bytes]) -> tuple[dict[str, str], dict[str, str]]:
    """Static fields from a server's ListIdentity replies; never raises.

    Vendor ids are named by the shipped table; other commands and frames
    that do not decode are skipped. The identity object carries nothing
    operator-set, so the deployment fields are always empty.
    """
    static: dict[str, str] = {}
    for wire in replies:
        try:
            identity = parse_list_identity(wire)
        except (DecodeError, FormatError):
            continue
        static.update(identity_to_fields(identity, load_enip_vendors().get(identity.vendor_id)))
    return static, {}


def identity_to_fields(identity: CipIdentity, vendor_name: str | None) -> dict[str, str]:
    """Map a CIP identity onto static-info fields, each named by ``IDENTITY``."""
    values = {"vendor_id": vendor_name, "product_name": identity.product_name,
              "firmware_version": "%d.%d" % identity.revision, "serial_number": f"0x{identity.serial:08X}"}
    return identity_split(IDENTITY, values)[0]
