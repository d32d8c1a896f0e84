"""Canonical byte encoding shared by every public type.

Rules (cross-replica hash agreement depends on these):
  - integers are big-endian fixed width (u8 / u32 / u64);
  - variable-length byte strings carry a u32 big-endian length prefix;
  - strings are UTF-8 and encoded like byte strings;
  - fields appear in the documented order with no padding;
  - the bloom snapshot format (neat module) is the one little-endian
    exception, by its own wire contract.

Decoding is strict: trailing bytes, truncation, or out-of-range values
raise WireError. A flag byte is 0 or 1, so every value has exactly one
encoding and re-encoding a decoded value gives back the bytes it came
from.
"""

from __future__ import annotations

import struct

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class WireError(ValueError):
    """Malformed canonical bytes."""


def pack_u8(value: int) -> bytes:
    if not 0 <= value < 1 << 8:
        raise WireError(f"u8 out of range: {value}")
    return value.to_bytes(1, "big")


def pack_u32(value: int) -> bytes:
    if not 0 <= value < 1 << 32:
        raise WireError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def pack_u64(value: int) -> bytes:
    if not 0 <= value < 1 << 64:
        raise WireError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def pack_bytes(data: bytes) -> bytes:
    return pack_u32(len(data)) + bytes(data)


def pack_str(text: str) -> bytes:
    return pack_bytes(text.encode("utf-8"))


class Reader:
    """Sequential strict decoder over a bytes buffer.

    A bytes input is read in place; any other buffer (bytearray,
    memoryview) is copied first, so a later change to it cannot reach a
    decoded value.
    """

    def __init__(self, data: bytes):
        self._data = data if type(data) is bytes else bytes(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        start = self._pos
        end = start + n
        if n < 0 or end > len(self._data):
            raise WireError("truncated buffer")
        self._pos = end
        return self._data[start:end]

    def u8(self) -> int:
        pos = self._pos
        try:
            value = self._data[pos]
        except IndexError:
            raise WireError("truncated buffer") from None
        self._pos = pos + 1
        return value

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise WireError(f"flag byte must be 0 or 1, not {value}")
        return value == 1

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def _unpack(self, fmt: struct.Struct) -> int:
        # unpack_from reads in place and makes the one bounds check
        pos = self._pos
        try:
            (value,) = fmt.unpack_from(self._data, pos)
        except struct.error:
            raise WireError("truncated buffer") from None
        self._pos = pos + fmt.size
        return value

    def bytes_(self) -> bytes:
        return self.take(self.u32())

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8: {exc}") from None

    def framed(self, read):
        """Decodes ``bytes(x)`` in place: ``read(self)`` must consume
        exactly the length the u32 prefix gives. Returns read's value and
        the frame as carried, prefix included."""
        start = self._pos
        end = start + 4 + self.u32()
        value = read(self)
        if self._pos != end:
            raise WireError("length prefix does not match its content")
        return value, self._data[start:end]

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining():
            raise WireError(f"{self.remaining()} trailing bytes")
