"""Bit-exact encoders/decoders for the three enumerated wire protocols.

Shared by the active scanner, the passive analyzer and the device
simulator, so both sides of every exchange speak from one table.
Decoders raise only :class:`icsrecon.errors.DecodeError` /
:class:`icsrecon.errors.FormatError` subclasses, never anything else,
regardless of input. Each codec's ``identity_fields`` turns reply
frames into static / deployment fields for scanner and analyzer alike.
"""

from . import enip, modbus, s7

__all__ = ["modbus", "s7", "enip"]
