"""ISO-on-TCP transport and the S7 status-list subset.

Framing, outermost first (all big-endian):

    TPKT (4 bytes): version u8 (=3) | reserved u8 (=0) | length u16
        (total frame length including this header, 5..8192)
    COTP class 0: length-indicator u8 | pdu type | type-specific body
        CR 0xE0 / CC 0xD0: dst_ref u16, src_ref u16, class u8, then
            parameters (code, len, value): 0xC0 tpdu-size, 0xC1 calling
            TSAP, 0xC2 called TSAP
        DR 0x80: dst_ref u16, src_ref u16, reason u8
        DT 0xF0: tpdu number | end-of-TSDU bit (0x80), then user data
    S7 (inside DT): 0x32 | rosctr u8 | redundancy u16 | pdu_ref u16 |
        param_len u16 | data_len u16 [| error u16 for acks]

Status-list reads travel as userdata (rosctr 7). Two lists are
implemented, as :data:`SZL_LISTS` states them: 0x0011 module
identification (28-byte records: index, 20-char order number, type word,
two version words) and 0x001C component identification (34-byte records:
index, 32-char text). Anything beyond that subset is out of scope here.
Record texts are ASCII, and a userdata sequence number is one byte: the
encoders refuse anything else.
"""

from __future__ import annotations

import struct
from typing import Generator, Iterable, NamedTuple

from . import cut_frames, encoder, identity_split, version
from ..errors import ConnectionRefusedByTsap, DecodeError, FormatError, LengthMismatch, Truncated

NAME = "s7comm"
PORT = 102
TPKT_VERSION = 3
TPKT = struct.Struct(">BBH")  # version, reserved, length of the whole frame
HEADER_SIZE = TPKT.size

COTP_CR = 0xE0
COTP_CC = 0xD0
COTP_DR = 0x80
COTP_DT = 0xF0

PARAM_TPDU_SIZE = 0xC0
PARAM_SRC_TSAP = 0xC1
PARAM_DST_TSAP = 0xC2

COTP_FIXED = struct.Struct(">BBHHB")  # length indicator, PDU type, dst_ref, src_ref, then class (CR/CC) or reason (DR)

S7_PROTOCOL_ID = 0x32
ROSCTR_JOB = 0x01
ROSCTR_ACK_DATA = 0x03
ROSCTR_USERDATA = 0x07
S7_HEADER = struct.Struct(">BBHHHH")  # protocol id, rosctr, redundancy, pdu_ref, param_len, data_len
S7_ACK_HEADER = struct.Struct(">BBHHHHH")  # the same, then an ack's error word

SETUP_PARAMS = struct.Struct(">BBHHH")  # function 0xF0, reserved, max AmQ caller, max AmQ callee, PDU length

USERDATA_HEAD = b"\x00\x01\x12"
USERDATA_PARAMS = struct.Struct(">3sBBBBB")  # head, length of what follows, method, group, subfunction, sequence
USERDATA_REPLY_PARAMS = struct.Struct(">3sBBBBBBBH")  # the same, then data unit ref, last unit, error code

SZL_READ = struct.Struct(">BBHHH")  # return code, transport size, length of what follows it, list id, list index
SZL_REPLY = struct.Struct(">BBHHHHH")  # the same, then record length and record count

SZL_MODULE_ID = 0x0011
SZL_COMPONENT_ID = 0x001C

# a status-list reply in a standard COTP DT: DT header (length indicator 2, type), S7 id and rosctr, userdata method
_STANDARD_DT = bytes([2, COTP_DT])
_USERDATA = bytes([S7_PROTOCOL_ID, ROSCTR_USERDATA])
_METHOD_AT = HEADER_SIZE + 3 + S7_HEADER.size + 4  # after the TPKT, DT and S7 headers, userdata head and length
_PDU_REF_AT = HEADER_SIZE + 3 + 4  # after the TPKT and DT headers, protocol id, rosctr and redundancy

# Default TSAP pairs offered when connecting, in order. These mirror
# common rack/slot conventions.
DEFAULT_TSAP_PAIRS = ((0x0100, 0x0102), (0x0100, 0x0200), (0x0100, 0x0201))

_MODULE_ID_INDEX_ORDER = 0x0001

# list 0x0011 record index -> identity key and how many parts of its version the record's words carry (0: the
# record's text, the order number every record carries), for building and decoding alike
MODULE_KEYS = {_MODULE_ID_INDEX_ORDER: ("module_order_number", 0), 0x0006: ("hardware_version", 2),
               0x0007: ("firmware_version", 3)}

# list 0x001C entry index -> identity key, for building and decoding alike
COMPONENT_KEYS = {
    0x0001: "system_name",
    0x0002: "module_name",
    0x0003: "plant_id",
    0x0004: "copyright",
    0x0005: "serial",
}

# identity key -> inventory field; a copyright naming Siemens reads back as Siemens
IDENTITY = {"module_order_number": "model", "hardware_version": "hardware_version",
            "firmware_version": "firmware_version", "system_name": "system_name", "module_name": "module_name",
            "plant_id": "plant_id", "copyright": "manufacturer", "serial": "serial"}


class SzlList(NamedTuple):
    """One status list of the subset: its record and the simulator's feature flag for serving it."""

    record: struct.Struct  # index u16, text, then ``words`` u16 words
    width: int  # of the record's text, padded with spaces
    words: int
    flag: str


SZL_LISTS = {
    szl_id: SzlList(struct.Struct(f">H{width}s{words}H"), width, words, flag)
    for szl_id, width, words, flag in ((SZL_MODULE_ID, 20, 3, "szl_0011"), (SZL_COMPONENT_ID, 32, 0, "szl_001c"))
}


class CotpConnectionRequest(NamedTuple):
    src_tsap: int
    dst_tsap: int
    dst_ref: int = 0
    src_ref: int = 1
    tpdu_size: int = 0x0A


class CotpConnectionConfirm(NamedTuple):
    src_tsap: int
    dst_tsap: int
    dst_ref: int = 1
    src_ref: int = 2
    tpdu_size: int = 0x0A


class CotpDisconnectRequest(NamedTuple):
    reason: int = 0
    dst_ref: int = 0
    src_ref: int = 0


class CotpData(NamedTuple):
    payload: bytes
    last: bool = True


Cotp = CotpConnectionRequest | CotpConnectionConfirm | CotpDisconnectRequest | CotpData


class TpktCotpEnvelope(NamedTuple):
    cotp: Cotp
    tpkt_version: int = TPKT_VERSION
    tpkt_length: int = 0


class S7SetupCommunication(NamedTuple):
    is_request: bool
    pdu_ref: int = 0
    max_amq_caller: int = 1
    max_amq_callee: int = 1
    pdu_length: int = 480


class SzlEntry(NamedTuple):
    """One raw partlist entry; ``words`` only used by list 0x0011."""

    index: int
    text: str
    words: tuple[int, int, int] = (0, 0, 0)


class S7SzlRequest(NamedTuple):
    szl_id: int
    szl_index: int = 0
    pdu_ref: int = 0
    sequence: int = 0


class S7SzlResponse(NamedTuple):
    szl_id: int
    szl_index: int
    entries: tuple[SzlEntry, ...]
    pdu_ref: int = 0
    sequence: int = 0
    error_code: int = 0


S7Message = S7SetupCommunication | S7SzlRequest | S7SzlResponse


def _need(data: bytes, count: int, what: str) -> None:
    if len(data) < count:
        raise Truncated(f"{what}: need {count} bytes, got {len(data)}")


def encode_tpkt(payload: bytes) -> bytes:
    """Prefix the TPKT header; raises ValueError for a frame ``frame_size`` would not return whole."""
    # a length over 16 bits wraps to one that cannot equal the frame's, so frame_size refuses it below
    wire = TPKT.pack(TPKT_VERSION, 0, (HEADER_SIZE + len(payload)) & 0xFFFF) + payload
    if frame_size(wire) != len(wire):
        raise ValueError(f"a TPKT frame of {len(wire)} bytes is not one frame_size accepts")
    return wire


def decode_tpkt(data: bytes) -> bytes:
    """Strip the TPKT header of a frame ``frame_size`` returns whole, returning the COTP bytes."""
    if len(data) < HEADER_SIZE:
        raise Truncated(f"TPKT header: need {HEADER_SIZE} bytes, got {len(data)}")
    size = frame_size(data)
    if size != len(data):
        if size is None:
            raise FormatError(f"TPKT header {bytes(data[:HEADER_SIZE]).hex()} cannot start a frame")
        raise LengthMismatch(f"TPKT declares {size} bytes, got {len(data)}")
    return bytes(data[HEADER_SIZE:])


def frame_size(buf: bytes, at: int = 0) -> int | None:
    """Total length of the TPKT frame starting at ``at``: version 3, reserved 0, length 5..8192."""
    version, reserved, length = TPKT.unpack_from(buf, at)
    return length if version == TPKT_VERSION and reserved == 0 and 5 <= length <= 8192 else None


def extract_tpkt_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Cut complete TPKT frames off the front of a stream buffer."""
    return cut_frames(buffer, HEADER_SIZE, frame_size)


@encoder
def encode_cotp(cotp: Cotp) -> bytes:
    if isinstance(cotp, CotpData):
        return bytes([2, COTP_DT, 0x80 if cotp.last else 0x00]) + cotp.payload
    if isinstance(cotp, CotpDisconnectRequest):
        return COTP_FIXED.pack(COTP_FIXED.size - 1, COTP_DR, cotp.dst_ref, cotp.src_ref, cotp.reason)
    if isinstance(cotp, (CotpConnectionRequest, CotpConnectionConfirm)):
        params = struct.pack(">BBB", PARAM_TPDU_SIZE, 1, cotp.tpdu_size)
        params += struct.pack(">BBH", PARAM_SRC_TSAP, 2, cotp.src_tsap)
        params += struct.pack(">BBH", PARAM_DST_TSAP, 2, cotp.dst_tsap)
        pdu_type = COTP_CR if isinstance(cotp, CotpConnectionRequest) else COTP_CC
        return COTP_FIXED.pack(COTP_FIXED.size - 1 + len(params), pdu_type, cotp.dst_ref, cotp.src_ref, 0x00) + params
    raise TypeError(f"not a COTP value: {cotp!r}")


def _decode_params(raw: bytes) -> dict[int, bytes]:
    params: dict[int, bytes] = {}
    offset = 0
    while offset < len(raw):
        _need(raw, offset + 2, "COTP parameter header")
        code, length = raw[offset], raw[offset + 1]
        offset += 2
        _need(raw, offset + length, "COTP parameter value")
        params[code] = raw[offset : offset + length]
        offset += length
    return params


def decode_cotp(data: bytes) -> Cotp:
    _need(data, 2, "COTP header")
    li, pdu_type = data[0], data[1]
    if pdu_type == COTP_DT:
        if li != 2:
            raise FormatError(f"DT length indicator {li}, expected 2")
        _need(data, 3, "DT TPDU number")
        return CotpData(payload=bytes(data[3:]), last=bool(data[2] & 0x80))
    header_end = 1 + li
    _need(data, header_end, "COTP fixed part")
    if pdu_type not in (COTP_CR, COTP_CC, COTP_DR):
        raise FormatError(f"unsupported COTP PDU type 0x{pdu_type:02x}")
    if header_end < COTP_FIXED.size:
        raise FormatError(f"COTP length indicator {li} too small")
    _, _, dst_ref, src_ref, last = COTP_FIXED.unpack_from(data)
    if pdu_type == COTP_DR:
        return CotpDisconnectRequest(reason=last, dst_ref=dst_ref, src_ref=src_ref)
    params = _decode_params(data[COTP_FIXED.size : header_end])
    try:
        src_tsap = struct.unpack(">H", params[PARAM_SRC_TSAP])[0]
        dst_tsap = struct.unpack(">H", params[PARAM_DST_TSAP])[0]
    except (KeyError, struct.error) as exc:
        raise FormatError("connect PDU missing TSAP parameters") from exc
    size = params.get(PARAM_TPDU_SIZE, b"\x0a")
    tpdu_size = size[0] if size else 0x0A
    cls = CotpConnectionConfirm if pdu_type == COTP_CC else CotpConnectionRequest
    return cls(src_tsap=src_tsap, dst_tsap=dst_tsap, dst_ref=dst_ref, src_ref=src_ref, tpdu_size=tpdu_size)


def encode_envelope(cotp: Cotp) -> bytes:
    return encode_tpkt(encode_cotp(cotp))


def decode_envelope(data: bytes) -> TpktCotpEnvelope:
    cotp = decode_cotp(decode_tpkt(data))
    return TpktCotpEnvelope(cotp=cotp, tpkt_version=data[0], tpkt_length=len(data))


def claims(frame: bytes) -> bool:
    """A frame that carries a COTP envelope is S7."""
    try:
        return bool(decode_envelope(frame))
    except (DecodeError, FormatError):
        return False


def opening_requests(unit: int) -> tuple[bytes, ...]:
    return tuple(build_cotp_connect(src, dst) for src, dst in DEFAULT_TSAP_PAIRS)  # one CR per pair, in order


def confirm(reply: bytes) -> None:
    """A CC confirms S7; a DR refuses the TSAP pair."""
    cotp = decode_envelope(reply).cotp
    if isinstance(cotp, CotpDisconnectRequest):
        raise ConnectionRefusedByTsap("TSAP pair refused")
    if not isinstance(cotp, CotpConnectionConfirm):
        raise FormatError(f"unexpected COTP answer {type(cotp).__name__}")


def enumeration(unit: int, first: bytes) -> Generator[bytes, bytes, None]:
    """After the probe's reply ``first``, each request sent back its reply: setup communication, then, if a COTP
    data TPDU answers it, one read per list of :data:`SZL_LISTS`."""
    reply = yield build_setup_communication(pdu_ref=1)
    try:
        answered = isinstance(decode_envelope(reply).cotp, CotpData)
    except (DecodeError, FormatError):
        return
    for szl_id in SZL_LISTS if answered else ():
        yield build_szl_read(szl_id, pdu_ref=2)


def build_cotp_connect(src_tsap: int, dst_tsap: int) -> bytes:
    return encode_envelope(CotpConnectionRequest(src_tsap=src_tsap, dst_tsap=dst_tsap))


def build_cotp_confirm(request: CotpConnectionRequest) -> bytes:
    return encode_envelope(
        CotpConnectionConfirm(
            src_tsap=request.src_tsap,
            dst_tsap=request.dst_tsap,
            dst_ref=request.src_ref,
            src_ref=(request.src_ref + 1) & 0xFFFF,  # wraps in its 16-bit word, so a CR with src_ref 0xFFFF is answered
            tpdu_size=request.tpdu_size,
        )
    )


def build_cotp_disconnect(reason: int = 0) -> bytes:
    return encode_envelope(CotpDisconnectRequest(reason=reason))


@encoder
def encode_s7(message: S7Message) -> bytes:
    if isinstance(message, S7SetupCommunication):
        params = SETUP_PARAMS.pack(
            0xF0, 0x00, message.max_amq_caller, message.max_amq_callee, message.pdu_length
        )
        if message.is_request:
            head = S7_HEADER.pack(S7_PROTOCOL_ID, ROSCTR_JOB, 0, message.pdu_ref, len(params), 0)
        else:
            head = S7_ACK_HEADER.pack(S7_PROTOCOL_ID, ROSCTR_ACK_DATA, 0, message.pdu_ref, len(params), 0, 0)
        return head + params

    if isinstance(message, (S7SzlRequest, S7SzlResponse)) and not 0 <= message.sequence <= 0xFF:
        raise ValueError(f"userdata sequence number {message.sequence} does not fit its byte")
    if isinstance(message, S7SzlRequest):
        params = USERDATA_PARAMS.pack(USERDATA_HEAD, USERDATA_PARAMS.size - 4, 0x11, 0x44, 0x01, message.sequence)
        data = SZL_READ.pack(0xFF, 0x09, SZL_READ.size - 4, message.szl_id, message.szl_index)
    elif isinstance(message, S7SzlResponse):
        params = USERDATA_REPLY_PARAMS.pack(
            USERDATA_HEAD, USERDATA_REPLY_PARAMS.size - 4, 0x12, 0x84, 0x01, message.sequence,
            0x00, 0x00, message.error_code,
        )
        if message.error_code:
            data = bytes([0x0A, 0x00, 0x00, 0x00])  # return code 0x0A and no list
        else:
            record_len, records = _encode_szl_records(message.szl_id, message.entries)
            data = SZL_REPLY.pack(
                0xFF, 0x09, SZL_REPLY.size - 4 + len(records), message.szl_id, message.szl_index, record_len,
                len(message.entries),
            ) + records
    else:
        raise TypeError(f"not an S7 message: {message!r}")
    return S7_HEADER.pack(S7_PROTOCOL_ID, ROSCTR_USERDATA, 0, message.pdu_ref, len(params), len(data)) + params + data


@encoder
def _encode_szl_records(szl_id: int, entries: Iterable[SzlEntry]) -> tuple[int, bytes]:
    """A list's record length and records; ValueError for a record it cannot carry (any, outside SZL_LISTS)."""
    szl = SZL_LISTS.get(szl_id)
    records = []
    for entry in entries:
        if szl is None or not entry.text.isascii() or len(entry.text) > szl.width:
            raise ValueError(f"list 0x{szl_id:04x} cannot carry the text {entry.text!r}")
        text = entry.text.encode("ascii").ljust(szl.width)
        records.append(szl.record.pack(entry.index, text, *entry.words[: szl.words]))
    return (szl.record.size if szl else 0), b"".join(records)


def _decode_szl_entries(szl_id: int, count: int, record_len: int, raw: bytes) -> tuple[SzlEntry, ...]:
    szl = SZL_LISTS.get(szl_id)
    if szl is None:
        raise FormatError(f"unknown status list id 0x{szl_id:04x}")
    if record_len != szl.record.size:
        raise FormatError(f"list 0x{szl_id:04x} record length {record_len}, expected {szl.record.size}")
    _need(raw, count * record_len, "status list records")
    return tuple([
        SzlEntry(index, text.decode("ascii", errors="replace").rstrip(), tuple(words) or (0, 0, 0))
        for index, text, *words in szl.record.iter_unpack(raw[: count * record_len])
    ])


def decode_s7(data: bytes) -> S7Message:
    """Decode S7 bytes carried in a COTP data TPDU."""
    _need(data, S7_HEADER.size, "S7 header")
    protocol_id, rosctr, _redundancy, pdu_ref, param_len, data_len = S7_HEADER.unpack_from(data)
    if protocol_id != S7_PROTOCOL_ID:
        raise FormatError(f"S7 protocol id 0x{protocol_id:02x}, expected 0x32")
    offset = S7_HEADER.size
    if rosctr in (0x02, ROSCTR_ACK_DATA):
        offset = S7_ACK_HEADER.size
        _need(data, offset, "S7 ack error field")
    _need(data, offset + param_len + data_len, "S7 body")
    params = data[offset : offset + param_len]
    body = data[offset + param_len : offset + param_len + data_len]

    if rosctr in (ROSCTR_JOB, ROSCTR_ACK_DATA):
        if param_len >= SETUP_PARAMS.size and params[0] == 0xF0:
            _function, _reserved, caller, callee, pdu_length = SETUP_PARAMS.unpack_from(params)
            return S7SetupCommunication(rosctr == ROSCTR_JOB, pdu_ref, caller, callee, pdu_length)
        raise FormatError(f"unsupported S7 job function (rosctr {rosctr})")

    if rosctr != ROSCTR_USERDATA:
        raise FormatError(f"unsupported rosctr 0x{rosctr:02x}")
    if param_len < USERDATA_PARAMS.size or params[:3] != USERDATA_HEAD:
        raise FormatError("bad userdata parameter block")
    _head, _length, method, _group, _subfunction, sequence = USERDATA_PARAMS.unpack_from(params)
    if method == 0x11:  # request
        _need(body, SZL_READ.size, "status list request data")
        _code, _size, _length, szl_id, szl_index = SZL_READ.unpack_from(body)
        return S7SzlRequest(szl_id=szl_id, szl_index=szl_index, pdu_ref=pdu_ref, sequence=sequence)
    if method == 0x12:  # response
        if param_len < USERDATA_REPLY_PARAMS.size:
            raise FormatError("userdata response parameters too short")
        error_code = USERDATA_REPLY_PARAMS.unpack_from(params)[-1]
        _need(body, 4, "status list response data")
        return_code = body[0]
        if error_code or return_code != 0xFF:
            return S7SzlResponse(
                szl_id=0, szl_index=0, entries=(), pdu_ref=pdu_ref, sequence=sequence,
                error_code=error_code or return_code,
            )
        _need(body, SZL_REPLY.size, "status list response header")
        _code, _size, _length, szl_id, szl_index, record_len, count = SZL_REPLY.unpack_from(body)
        entries = _decode_szl_entries(szl_id, count, record_len, body[SZL_REPLY.size :])
        return S7SzlResponse(
            szl_id=szl_id, szl_index=szl_index, entries=entries, pdu_ref=pdu_ref, sequence=sequence
        )
    raise FormatError(f"unsupported userdata method 0x{method:02x}")


def build_setup_communication(pdu_ref: int = 1) -> bytes:
    return encode_envelope(CotpData(encode_s7(S7SetupCommunication(is_request=True, pdu_ref=pdu_ref))))


def build_setup_ack(pdu_ref: int) -> bytes:
    return encode_envelope(CotpData(encode_s7(S7SetupCommunication(is_request=False, pdu_ref=pdu_ref))))


def build_szl_read(szl_id: int, szl_index: int = 0, pdu_ref: int = 2, sequence: int = 0) -> bytes:
    return encode_envelope(
        CotpData(encode_s7(S7SzlRequest(szl_id=szl_id, szl_index=szl_index, pdu_ref=pdu_ref, sequence=sequence)))
    )


def build_szl_response_frame(response: S7SzlResponse) -> bytes:
    return encode_envelope(CotpData(encode_s7(response)))


def module_id_entries(identity: dict[str, str]) -> tuple[SzlEntry, ...]:
    """Identity fields -> list 0x0011 entries (order nr, hw, fw); raises ValueError for one the list cannot carry."""
    order = identity.get(MODULE_KEYS[_MODULE_ID_INDEX_ORDER][0], "")
    entries = tuple(
        SzlEntry(index, order, _module_words(identity[key], parts) if parts else (0, 0, 0))
        for index, (key, parts) in MODULE_KEYS.items() if not parts or identity.get(key)
    )
    _encode_szl_records(SZL_MODULE_ID, entries)
    return entries


def component_id_entries(identity: dict[str, str]) -> tuple[SzlEntry, ...]:
    """Identity fields -> list 0x001C entries; raises ValueError for one the list cannot carry, or for none at all."""
    entries = tuple(
        SzlEntry(index=index, text=identity[key]) for index, key in COMPONENT_KEYS.items() if identity.get(key)
    )
    if not entries:
        raise ValueError(f"a list 0x001C reply needs a record, and none of {', '.join(COMPONENT_KEYS.values())} is set")
    _encode_szl_records(SZL_COMPONENT_ID, entries)
    return entries


SERVES = {
    SZL_LISTS[SZL_MODULE_ID].flag: lambda device: module_id_entries(device.identity),
    SZL_LISTS[SZL_COMPONENT_ID].flag: lambda device: component_id_entries(device.identity),
}
EXCHANGES = frozenset(SERVES)
DEVICE_FIELDS = {"accepted_tsaps": None}  # None: any called TSAP


def respond(device, session: dict, request: bytes) -> tuple[bytes | None, bool]:
    """A device's reply (or None) and hang-up: connect (kept in ``session``), setup, lists under their flags."""
    cotp = decode_envelope(request).cotp
    if isinstance(cotp, CotpConnectionRequest):
        if device.accepted_tsaps is not None and cotp.dst_tsap not in device.accepted_tsaps:
            return build_cotp_disconnect(reason=0x83), True
        session["connected"] = True
        return build_cotp_confirm(cotp), False
    if not session.get("connected") or not isinstance(cotp, CotpData):
        return None, True
    message = decode_s7(cotp.payload)
    if isinstance(message, S7SetupCommunication) and message.is_request:
        return build_setup_ack(message.pdu_ref), False
    if isinstance(message, S7SzlRequest):
        szl = SZL_LISTS.get(message.szl_id)
        entries, error = (), 0x8104  # refused: a list this device does not serve
        if szl and szl.flag in device.feature_flags:
            entries, error = SERVES[szl.flag](device), 0
        response = S7SzlResponse(
            szl_id=message.szl_id, szl_index=message.szl_index, entries=entries,
            pdu_ref=message.pdu_ref, sequence=message.sequence, error_code=error,
        )
        return build_szl_response_frame(response), False
    raise FormatError("unsupported S7 request")


def _module_words(text: str, parts: int) -> tuple[int, int, int]:
    """A version's list 0x0011 words: major.minor, then a patch where ``parts`` is 3 (none over 16 bits fits)."""
    major, minor = version(text)
    return 0, (major << 8) | minor, int([*text.split("."), "0", "0"][2]) if parts == 3 else 0


def _module_value(entry: SzlEntry) -> str:
    """The identity value a list 0x0011 record carries: its text, or the version ``_module_words`` packed."""
    parts = MODULE_KEYS[entry.index][1]
    return ".".join(map(str, (*divmod(entry.words[1], 0x100), entry.words[2])[:parts])) if parts else entry.text


def parse_szl_response(data: bytes) -> tuple[dict[str, str], dict[str, str]]:
    """Parse a status-list reply frame into static and deployment fields: each record's nonempty value, by ``IDENTITY``.

    Refusals surface as a FormatError carrying the device's error code;
    ``decode_s7`` refuses list ids outside :data:`SZL_LISTS` with a FormatError too.
    """
    envelope = decode_envelope(data)
    if not isinstance(envelope.cotp, CotpData):
        raise FormatError(f"expected COTP data TPDU, got {type(envelope.cotp).__name__}")
    message = decode_s7(envelope.cotp.payload)
    if not isinstance(message, S7SzlResponse):
        raise FormatError(f"expected status list response, got {type(message).__name__}")
    if message.error_code:
        raise FormatError(f"status list read refused (code 0x{message.error_code:04x})")
    if not message.entries:
        raise FormatError("status list response with no records")
    if message.szl_id == SZL_MODULE_ID:
        values = {MODULE_KEYS[entry.index][0]: _module_value(entry) for entry in message.entries
                  if entry.index in MODULE_KEYS}
        values["copyright"] = "Siemens"  # the list names no maker, but status lists are a Siemens-family service
    else:
        values = {COMPONENT_KEYS[entry.index]: entry.text for entry in message.entries if entry.index in COMPONENT_KEYS}
        if "siemens" in values.get("copyright", "").lower():
            values["copyright"] = "Siemens"
    values = {key: value for key, value in values.items() if value}
    if not values:
        raise FormatError("status list response with no usable fields")
    return identity_split(IDENTITY, values)


def identity_key(wire: bytes) -> bytes | None:
    """The bytes of a reply that ``identity_fields`` reads, all but the PDU reference; None for one it skips.

    Only a status-list reply in a standard COTP DT (length indicator 2) can carry identity.
    """
    if len(wire) <= _METHOD_AT or wire[4:6] != _STANDARD_DT or wire[7:9] != _USERDATA or wire[_METHOD_AT] != 0x12:
        return None
    return wire[:_PDU_REF_AT] + wire[_PDU_REF_AT + 2 :]


def identity_fields(replies: Iterable[bytes]) -> tuple[dict[str, str], dict[str, str]]:
    """Static and deployment fields from a server's reply frames; never raises.

    Only status-list replies count: COTP confirms, setup acks, refusals
    and frames that do not decode are skipped. The first list to name a
    manufacturer keeps it; later lists win every other field.
    """
    static: dict[str, str] = {}
    deployment: dict[str, str] = {}
    for wire in replies:
        try:
            reply_static, reply_deployment = parse_szl_response(wire)
        except (DecodeError, FormatError):
            continue
        if IDENTITY["copyright"] in static:
            reply_static.pop(IDENTITY["copyright"], None)
        static.update(reply_static)
        deployment.update(reply_deployment)
    return static, deployment
