"""Exception hierarchy shared across the toolkit.

Decoders and loaders raise subclasses of :class:`DecodeError` /
:class:`FormatError`; operational failures (privilege, binding, config)
get their own leaf types so the CLI can map them to exit codes.
"""

from __future__ import annotations


class IcsReconError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(IcsReconError):
    """A scan or fixture configuration is invalid."""


class FormatError(IcsReconError):
    """A document or frame does not follow its declared format."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class FramingError(FormatError):
    """A stream's next bytes cannot start a frame, so the stream is out of step."""


class DecodeError(IcsReconError):
    """Base for wire-decoding failures; decoders raise nothing else."""


class Truncated(DecodeError):
    """Input ended before the frame was complete."""


class NotModbus(DecodeError):
    """MBAP protocol identifier was not zero."""


class LengthMismatch(DecodeError):
    """A length field disagrees with the actual byte count."""


class UnexpectedCommand(DecodeError):
    """Reply carried a different command than the request."""


MODBUS_EXCEPTION_NAMES = {
    0x01: "IllegalFunction",
    0x02: "IllegalDataAddress",
    0x03: "IllegalDataValue",
    0x04: "ServerDeviceFailure",
    0x05: "Acknowledge",
    0x06: "ServerDeviceBusy",
    0x0A: "GatewayPathUnavailable",
    0x0B: "GatewayTargetFailedToRespond",
}


class ModbusExceptionResponse(DecodeError):
    """The server answered with a Modbus exception frame."""

    def __init__(self, function: int, code: int):
        self.function = function
        self.code = code
        name = MODBUS_EXCEPTION_NAMES.get(code, f"code 0x{code:02x}")
        super().__init__(f"modbus exception {name} for function 0x{function:02x}")


class ConnectionRefusedByTsap(IcsReconError):
    """COTP connect was rejected for the offered TSAP pair."""


class AddressMismatch(IcsReconError):
    """Evidence folded into an asset with a different IP."""


class PrivilegeRequired(IcsReconError):
    """The requested capture or probe method needs elevated privilege."""

    def __init__(self, method: str):
        self.method = method
        super().__init__(f"method {method!r} requires elevated privilege")


class PortUnavailable(IcsReconError):
    """A simulated device could not bind its listen port."""


class ValidationRequired(IcsReconError):
    """A tool profile must pass validation before it can be rendered."""
