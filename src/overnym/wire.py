"""Canonical byte encoding shared by every public type.

Rules (cross-replica hash agreement depends on these):
  - integers are big-endian fixed width (u8 / u32 / u64, and i64 in
    two's complement for a predicate's threshold);
  - variable-length byte strings carry a u32 big-endian length prefix;
  - strings are UTF-8 and encoded like byte strings;
  - fields appear in the documented order with no padding;
  - the bloom snapshot format (neat module) is the one little-endian
    exception, by its own wire contract.

Decoding is strict: trailing bytes, truncation, or out-of-range values
raise WireError. A flag byte is 0 or 1, so every value has exactly one
encoding and re-encoding a decoded value gives back the bytes it came
from. Reader.unpack reads a run of fixed-width fields (a ``struct``
layout) as one group with one bounds check; u32 and u64 are its
one-field cases.
"""

from __future__ import annotations

import struct

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class WireError(ValueError):
    """Malformed canonical bytes."""


def _not_a(expected: str, value) -> WireError:
    return WireError(f"{expected}, not {type(value).__name__}")


# Each packer refuses a value of the wrong type with WireError, caught
# from the TypeError or AttributeError the packing itself raises: no type
# test runs on the common path. A bool packs as the int it is.
def pack_u8(value: int) -> bytes:
    try:
        if 0 <= value < 1 << 8:
            return value.to_bytes(1, "big")
    except (TypeError, AttributeError):
        raise _not_a("u8 must be an int", value) from None
    raise WireError(f"u8 out of range: {value}")


def pack_u32(value: int) -> bytes:
    try:
        if 0 <= value < 1 << 32:
            return value.to_bytes(4, "big")
    except (TypeError, AttributeError):
        raise _not_a("u32 must be an int", value) from None
    raise WireError(f"u32 out of range: {value}")


def pack_u64(value: int) -> bytes:
    try:
        if 0 <= value < 1 << 64:
            return value.to_bytes(8, "big")
    except (TypeError, AttributeError):
        raise _not_a("u64 must be an int", value) from None
    raise WireError(f"u64 out of range: {value}")


def pack_i64(value: int) -> bytes:
    try:
        if -(1 << 63) <= value < 1 << 63:
            return value.to_bytes(8, "big", signed=True)
    except (TypeError, AttributeError):
        raise _not_a("i64 must be an int", value) from None
    raise WireError(f"i64 out of range: {value}")


def pack_bytes(data: bytes) -> bytes:
    return pack_u32(len(data)) + bytes(data)


def pack_field(name: str, value: bytes, size: int | None = None) -> bytes:
    """A bytes field of a record: exactly size bytes as they are, or any
    length after a u32 length prefix when size is None. A value that is
    not bytes, or not size bytes long, is refused with WireError naming
    the field, so it cannot shift the fields after it."""
    if not isinstance(value, bytes):
        raise WireError(f"{name} must be bytes, not {type(value).__name__}")
    if size is None:
        return pack_u32(len(value)) + value
    if len(value) != size:
        raise WireError(f"{name} must be {size} bytes")
    return value


def pack_count(name: str, items: tuple | list) -> bytes:
    """The u32 item count that starts a sequence field of a record. A
    value that is not a tuple or list is refused with WireError naming
    the field."""
    if not isinstance(items, (tuple, list)):
        raise WireError(f"{name} must be a tuple or list, not {type(items).__name__}")
    return pack_u32(len(items))


def pack_str(text: str) -> bytes:
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        raise WireError(f"not encodable as utf-8: {exc}") from None
    except AttributeError:
        raise _not_a("text must be a str", text) from None
    return pack_bytes(data)


class Reader:
    """Sequential strict decoder over a bytes buffer.

    A bytes input is read in place; any other buffer (bytearray,
    memoryview) is copied first, so a later change to it cannot reach a
    decoded value. pos is the offset of the next byte to read: callers
    read it, and only the read methods move it.
    """

    def __init__(self, data: bytes):
        self._data = data if type(data) is bytes else bytes(data)
        self.pos = 0

    def take(self, n: int) -> bytes:
        start = self.pos
        end = start + n
        if n < 0 or end > len(self._data):
            raise WireError("truncated buffer")
        self.pos = end
        return self._data[start:end]

    def u8(self) -> int:
        pos = self.pos
        try:
            value = self._data[pos]
        except IndexError:
            raise WireError("truncated buffer") from None
        self.pos = pos + 1
        return value

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise WireError(f"flag byte must be 0 or 1, not {value}")
        return value == 1

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def unpack(self, fmt: struct.Struct) -> tuple:
        """Reads the fixed-width fields of fmt, a big-endian layout with
        no padding, as one group: their values in order, a ``Ns`` field
        as N bytes."""
        # unpack_from reads in place and makes the one bounds check
        pos = self.pos
        try:
            values = fmt.unpack_from(self._data, pos)
        except struct.error:
            raise WireError("truncated buffer") from None
        self.pos = pos + fmt.size
        return values

    def bytes_(self) -> bytes:
        (length,) = self.unpack(_U32)
        return self.take(length)

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8: {exc}") from None

    def since(self, start: int) -> bytes:
        """The bytes from offset start up to pos, as carried."""
        return self._data[start:self.pos]

    def remaining(self) -> int:
        return len(self._data) - self.pos

    def expect_end(self) -> None:
        if self.remaining():
            raise WireError(f"{self.remaining()} trailing bytes")
