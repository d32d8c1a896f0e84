"""Canonical byte encoding shared by every public type.

Rules (cross-replica hash agreement depends on these):
  - integers are big-endian fixed width (u8 / u32 / u64);
  - variable-length byte strings carry a u32 big-endian length prefix;
  - strings are UTF-8 and encoded like byte strings;
  - fields appear in the documented order with no padding;
  - the bloom snapshot format (neat module) is the one little-endian
    exception, by its own wire contract.

Decoding is strict: trailing bytes, truncation, or out-of-range values
raise WireError.
"""

from __future__ import annotations


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
    """Sequential strict decoder over a bytes buffer."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise WireError("truncated buffer")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def bytes_(self) -> bytes:
        return self.take(self.u32())

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8: {exc}") from None

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining():
            raise WireError(f"{self.remaining()} trailing bytes")
