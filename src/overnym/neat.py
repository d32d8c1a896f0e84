"""Encrypted-address translation: per-segment locator tables.

Each network segment keeps an exact map from 32-byte identity keys
(chain addresses or service ids) to network locators, fronted by a bloom
filter. A global lookup consults every segment's filter and probes the
exact map only where the filter says "maybe", so the expected number of
exact-map probes for an absent key is the segment count times the
filter's false-positive rate.

Filter index hashes are domain-separated instances of the package-wide
hash (one primitive to audit). A filter holds its bit array as one int
whose bit p is filter bit p, so its little-endian bytes are the
snapshot's bit array; testing a key is one `bits & mask == mask`.

Bloom filters cannot delete, so a table counts its bits (Fan, Cao,
Almeida & Broder's counting filter, kept beside the plain one): for each
set bit, how many of its keys set it. Counts exist for set bits only, so
they grow with the keys, not with m. A table hashes each key once: it
keeps the bit positions that BloomFilter.add returned for every live
key. remove unbinds at once but leaves the key's bits set (stale) until
rebuild_filter, which takes the removed keys' counts back and clears
only the bits whose count reaches zero. A rebuild therefore costs O(k)
per removed key, whatever the table's size, and gives the filter that
adding each live key afresh would.

A global lookup hashes the key once per filter geometry (m, k), not once
per segment: every table with that geometry is tested against the same
mask. With the usual single geometry that is k hashes per lookup
whatever the segment count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .hashing import DIGEST_SIZE, TAG_BLOOM, owf
from .wire import WireError, pack_u32

DEFAULT_TARGET_FPR = 0.01


class SegmentMismatch(Exception):
    """Locator tagged for a different segment than the table's."""


@dataclass(frozen=True)
class NetworkLocator:
    """Where a bound identity is reachable in the underlay."""

    device_id: str
    port: int
    segment: int

    def __post_init__(self):
        if not self.device_id:
            raise ValueError("device_id must be non-empty")
        if not 0 <= self.port < 1 << 16:
            raise ValueError("port must fit in 16 bits")


def filter_params(n: int, target_fpr: float = DEFAULT_TARGET_FPR) -> tuple[int, int]:
    """Standard sizing: m = ceil(-n ln p / ln^2 2), k = round(m/n ln 2).

    For p = 1% this is about 9.59 bits per element and k = 7.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < target_fpr < 1:
        raise ValueError("target_fpr must be in (0, 1)")
    m = max(8, math.ceil(-n * math.log(target_fpr) / math.log(2) ** 2))
    k = max(1, round(m / n * math.log(2)))
    return m, k


def fpr_analytic(m: int, k: int, n: int) -> float:
    """Closed-form expected false-positive rate (1 - e^(-kn/m))^k."""
    if m < 1 or k < 1 or n < 0:
        raise ValueError("m and k must be positive, n non-negative")
    if n == 0:
        return 0.0  # no bits set, no false positives
    return (1.0 - math.exp(-k * n / m)) ** k


def _bit_mask(positions: Iterable[int]) -> int:
    """The int with exactly the given bit positions set."""
    mask = 0
    for pos in positions:
        mask |= 1 << pos
    return mask


class BloomFilter:
    """Fixed-size bit array with k domain-separated index hashes.

    The bit array is one int, bit p for filter bit p: its m-bit
    little-endian bytes are the snapshot's bit array, and no bit at or
    past m is ever set.
    """

    __slots__ = ("m", "k", "count", "_bits")

    def __init__(self, m: int, k: int):
        if m < 8:
            raise ValueError("m must be at least 8")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.m = m
        self.k = k
        self.count = 0
        self._bits = 0

    def positions(self, key: bytes) -> list[int]:
        return [
            int.from_bytes(owf(TAG_BLOOM, pack_u32(i), key)[:8], "big") % self.m
            for i in range(self.k)
        ]

    def mask(self, key: bytes) -> int:
        """The key's bits under this geometry, as one int."""
        return _bit_mask(self.positions(key))

    def add(self, key: bytes) -> list[int]:
        """Hash key into the filter; returns its bit positions."""
        positions = self.positions(key)
        self._bits |= _bit_mask(positions)
        self.count += 1
        return positions

    def might_contain(self, key: bytes) -> bool:
        if self.count == 0:
            return False
        mask = self.mask(key)
        return self._bits & mask == mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (self.m, self.k, self.count, self._bits) == (other.m, other.k, other.count, other._bits)

    # Snapshot wire format (the one little-endian format in the package):
    # m u32 LE | k u8 | count u32 LE | bit array, (m+7)//8 bytes.
    def to_bytes(self) -> bytes:
        return (
            self.m.to_bytes(4, "little")
            + self.k.to_bytes(1, "little")
            + self.count.to_bytes(4, "little")
            + self._bits.to_bytes((self.m + 7) // 8, "little")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Decode a snapshot; refuses one whose padding bits past m are
        set, so each filter has exactly one snapshot."""
        if len(data) < 9:
            raise WireError("bloom snapshot too short")
        m = int.from_bytes(data[0:4], "little")
        k = data[4]
        count = int.from_bytes(data[5:9], "little")
        if m < 8 or k < 1:
            raise WireError("bad bloom snapshot header")
        if len(data) - 9 != (m + 7) // 8:
            raise WireError("bloom snapshot bit-array length mismatch")
        bits = int.from_bytes(data[9:], "little")
        if bits >> m:
            raise WireError("bloom snapshot sets a padding bit past m")
        snapshot = cls(m, k)
        snapshot.count = count
        snapshot._bits = bits
        return snapshot


class NeatTable:
    """One segment's translation table: bloom filter over an exact map.

    lookup_global is the one lookup: it probes the exact map only where
    the filter says maybe, and its probes and LookupStats count those
    probes, so tests and metrics can observe the filter short-circuiting.
    """

    def __init__(self, segment: int, *, capacity: int = 1024,
                 target_fpr: float = DEFAULT_TARGET_FPR,
                 m: int | None = None, k: int | None = None):
        self.segment = segment
        if m is None or k is None:
            m, k = filter_params(capacity, target_fpr)
        self.filter = BloomFilter(m, k)
        self._exact: dict[bytes, NetworkLocator] = {}
        # Live key -> its bit positions in self.filter; the same keys as _exact.
        self._positions: dict[bytes, list[int]] = {}
        # Set bit -> how many positions lists set it: the live keys' and
        # those in _removed. A bit is set iff it has a count here.
        self._counts: dict[int, int] = {}
        # Positions of the keys removed since the last rebuild_filter.
        self._removed: list[list[int]] = []

    def keys(self) -> Iterable[bytes]:
        return self._exact.keys()

    def insert(self, key: bytes, locator: NetworkLocator) -> None:
        """Bind key -> locator; re-inserting overwrites (the newest
        attachment wins)."""
        if len(key) != DIGEST_SIZE:
            raise ValueError("keys are 32 bytes")
        if locator.segment != self.segment:
            raise SegmentMismatch(
                f"locator is for segment {locator.segment}, table serves {self.segment}"
            )
        key = bytes(key)
        if key not in self._exact:
            positions = self._positions[key] = self.filter.add(key)
            counts = self._counts
            for pos in positions:
                counts[pos] = counts.get(pos, 0) + 1
        self._exact[key] = locator

    def remove(self, key: bytes) -> None:
        """Unbind the key and keep its positions for rebuild_filter; its
        stale filter bits persist until then."""
        key = bytes(key)
        self._exact.pop(key, None)
        positions = self._positions.pop(key, None)
        if positions is not None:
            self._removed.append(positions)

    def rebuild_filter(self) -> None:
        """Make the filter the one that adding each live key afresh would
        give (same geometry), touching only the keys removed since the
        last rebuild: their counts are taken back, and a bit is cleared
        when its count reaches zero. No key is hashed or re-added."""
        counts = self._counts
        cleared = 0
        for positions in self._removed:
            for pos in positions:
                left = counts[pos] - 1
                if left:
                    counts[pos] = left
                else:
                    del counts[pos]
                    cleared |= 1 << pos
        self._removed.clear()
        bloom = self.filter
        bloom._bits &= ~cleared
        bloom.count = len(self._positions)

    def snapshot(self) -> bytes:
        return self.filter.to_bytes()


class GlobalLookup(NamedTuple):
    locator: NetworkLocator | None
    probes: int  # segments whose exact map was consulted


@dataclass
class LookupStats:
    """Filter-accuracy counters accumulated across global lookups."""

    false_positives: int = 0
    true_negatives: int = 0
    hits: int = 0
    probe_counts: list[int] = field(default_factory=list)

    def observed_fpr(self) -> float:
        absent = self.false_positives + self.true_negatives
        return self.false_positives / absent if absent else 0.0


def lookup_global(
    tables: Mapping[int, NeatTable],
    key: bytes,
    stats: LookupStats | None = None,
) -> GlobalLookup:
    """Probe segments in id order, exact map only where the filter says
    maybe; first exact hit wins. probes counts exact-map consultations."""
    ordered = [tables[segment] for segment in sorted(tables)]
    key = bytes(key)
    masks: dict[tuple[int, int], int] = {}  # (m, k) -> the key's mask
    probes = 0
    result: NetworkLocator | None = None
    for table in ordered:
        bloom = table.filter
        maybe = False
        if bloom.count > 0:
            geometry = (bloom.m, bloom.k)
            mask = masks.get(geometry)
            if mask is None:
                mask = masks[geometry] = bloom.mask(key)
            maybe = bloom._bits & mask == mask
        if not maybe:
            if stats is not None:
                stats.true_negatives += 1
            continue
        probes += 1
        found = table._exact.get(key)
        if found is not None:
            result = found
            if stats is not None:
                stats.hits += 1
            break
        if stats is not None:
            stats.false_positives += 1
    if stats is not None:
        stats.probe_counts.append(probes)
    return GlobalLookup(result, probes)
