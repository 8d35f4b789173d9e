"""Bit-exact encoders/decoders for the three enumerated wire protocols.

Shared by the active scanner, the passive analyzer and the device
simulator, so both sides of every exchange speak from one table:
:data:`PROTOCOLS` maps each codec's ``NAME`` to the codec, which also
states its well-known ``PORT``.
Decoders raise only :class:`icsrecon.errors.DecodeError` /
:class:`icsrecon.errors.FormatError` subclasses, never anything else,
regardless of input. Each codec's ``IDENTITY`` names the inventory field
(or None) of each ``identity.<key>`` its device serves, for its builders
and for its ``identity_fields``, which turns reply frames into fields so
named for scanner and analyzer alike; its ``identity_key(buf, at=0,
end=None)`` gives the bytes of the frame ``buf[at:end]``, read where it
lies, that ``identity_fields`` reads, less the per-exchange identifiers,
or None for a frame it skips: the analyzer decodes each distinct set of
keys once per capture.

Each codec states its frame rule once, as ``HEADER_SIZE`` plus
``frame_size(buf, at)``: the length of the frame whose header starts at
``at``, or None when it cannot start one. ``netbase.recv_frame`` and
``cut_frames`` below both read it, and so do the codec's outer encoder and
decoder: they build and accept only a frame it returns whole, so its
bounds are written nowhere else. A header or record that is both built
and read is one ``struct.Struct``, used by its encoder and its decoder.
Every encoder raises ValueError for a field its wire format cannot carry.

The rest of each protocol is stated under names every codec shares, so
no caller switches on a protocol's name: ``claims(frame)`` (the passive
rule for a stream's first complete frame; never raises), the scanner's
probe ``opening_requests(unit)``, tried in order until ``confirm(reply)``
returns (it raises ``ConnectionRefusedByTsap`` to move on to the next),
its ``enumeration(unit, first)``, a generator of the requests that follow
the probe's confirmed reply ``first``, sent each reply in turn and
bounded by the codec alone, and a simulated device's side: its reply
(or None) and whether it hangs up, ``respond(device, session, request)``
from its config and a per-connection dict only the codec reads, and
``SERVES``, each feature flag's identity part, with ``EXCHANGES`` its keys,
and ``DEVICE_FIELDS``, the device config fields only its ``respond`` reads,
each with its value where a fixture leaves it out.
"""

import functools
import struct

from ..model import STATIC_FIELDS


def encoder(encode):
    """``encode`` raising ValueError, not ``struct.error``, for a field its wire format cannot carry."""
    @functools.wraps(encode)
    def checked(*args, **kwargs):
        try:
            return encode(*args, **kwargs)
        except struct.error as exc:
            raise ValueError(f"{encode.__name__}: a field out of range: {exc}") from exc
    return checked


def version(text: str) -> tuple[int, int]:
    """A version text's major and minor, a byte each: dotted decimal, minor 0 when absent, further parts ignored."""
    parts = [*text.split("."), "0"][:2]
    if not all(part.isdecimal() and int(part) <= 0xFF for part in parts):
        raise ValueError(f"version {text!r} is not dotted decimal with a major and a minor of 0..255")
    return int(parts[0]), int(parts[1])


def identity_split(identity: dict[str, str | None], values: dict[str, str]) -> tuple[dict[str, str], dict[str, str]]:
    """Values by identity key -> static and deployment fields, named by a codec's ``identity``; None values left out."""
    static, deployment = {}, {}
    for key, value in values.items():
        field = identity[key]
        if field and value is not None:
            (static if field in STATIC_FIELDS else deployment)[field] = value
    return static, deployment


def cut_frames(buffer: bytes, header_size: int, frame_size) -> tuple[list[bytes], bytes]:
    """Cut complete frames off the front of a stream by one codec's frame rule.

    Stops, returning the rest untouched, at a header the rule rejects or
    at a frame that is not complete yet. A ``bytearray`` is copied once,
    and each frame is sliced from that copy.
    """
    buffer = bytes(buffer)
    frames: list[bytes] = []
    start = 0
    while len(buffer) - start >= header_size:
        size = frame_size(buffer, start)
        if size is None or len(buffer) - start < size:
            break
        frames.append(buffer[start : start + size])
        start += size
    return frames, buffer[start:]


from . import enip, modbus, s7  # noqa: E402  (the codecs import their shared helpers from here)

PROTOCOLS = {codec.NAME: codec for codec in (modbus, s7, enip)}  # in classification order

__all__ = ["PROTOCOLS", "cut_frames", "encoder", "identity_split", "version", "modbus", "s7", "enip"]
