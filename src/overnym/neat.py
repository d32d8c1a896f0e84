"""Encrypted-address translation: per-segment locator tables.

Each network segment keeps an exact map from 32-byte identity keys
(chain addresses or service ids) to network locators, fronted by a bloom
filter. A global lookup consults every segment's filter and probes the
exact map only where the filter says "maybe", so the expected number of
exact-map probes for an absent key is the segment count times the
filter's false-positive rate.

Filter index hashes are domain-separated instances of the package-wide
hash (one primitive to audit); bloom filters cannot delete, so removal
marks the exact map and rebuild_filter regenerates the filter over the
live keys.

A global lookup hashes the key once per filter geometry (m, k), not once
per segment: every table with that geometry is tested against the same
bit positions. With the usual single geometry that is k hashes per
lookup whatever the segment count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .hashing import TAG_BLOOM, owf, u32
from .wire import WireError

KEY_SIZE = 32
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


class BloomFilter:
    """Fixed-size bit array with k domain-separated index hashes."""

    __slots__ = ("m", "k", "count", "_bits")

    def __init__(self, m: int, k: int):
        if m < 8:
            raise ValueError("m must be at least 8")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.m = m
        self.k = k
        self.count = 0
        self._bits = bytearray((m + 7) // 8)

    def positions(self, key: bytes) -> list[int]:
        return [
            int.from_bytes(owf(TAG_BLOOM, u32(i), key)[:8], "big") % self.m
            for i in range(self.k)
        ]

    def add(self, key: bytes) -> None:
        for pos in self.positions(key):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self.count += 1

    def might_contain(self, key: bytes) -> bool:
        return self.count > 0 and self.has_bits(self.positions(key))

    def has_bits(self, positions: Iterable[int]) -> bool:
        """True iff every given bit is set: might_contain for a key whose
        positions under this filter's geometry were computed already."""
        bits = self._bits
        return all(bits[pos >> 3] >> (pos & 7) & 1 for pos in positions)

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
            + bytes(self._bits)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        if len(data) < 9:
            raise WireError("bloom snapshot too short")
        m = int.from_bytes(data[0:4], "little")
        k = data[4]
        count = int.from_bytes(data[5:9], "little")
        bits = data[9:]
        if m < 8 or k < 1:
            raise WireError("bad bloom snapshot header")
        if len(bits) != (m + 7) // 8:
            raise WireError("bloom snapshot bit-array length mismatch")
        snapshot = cls(m, k)
        snapshot.count = count
        snapshot._bits = bytearray(bits)
        return snapshot


class NeatTable:
    """One segment's translation table: bloom filter over an exact map.

    exact_probes counts how many times the exact map was consulted, so
    tests and metrics can observe the filter short-circuiting.
    """

    def __init__(self, segment: int, *, capacity: int = 1024,
                 target_fpr: float = DEFAULT_TARGET_FPR,
                 m: int | None = None, k: int | None = None):
        self.segment = segment
        if m is None or k is None:
            m, k = filter_params(capacity, target_fpr)
        self.filter = BloomFilter(m, k)
        self._exact: dict[bytes, NetworkLocator] = {}
        self.exact_probes = 0

    def __len__(self) -> int:
        return len(self._exact)

    def keys(self) -> Iterable[bytes]:
        return self._exact.keys()

    def insert(self, key: bytes, locator: NetworkLocator) -> None:
        """Bind key -> locator; re-inserting overwrites (newest
        attachment wins, mirroring association supersession)."""
        if len(key) != KEY_SIZE:
            raise ValueError("keys are 32 bytes")
        if locator.segment != self.segment:
            raise SegmentMismatch(
                f"locator is for segment {locator.segment}, table serves {self.segment}"
            )
        key = bytes(key)
        if key not in self._exact:
            self.filter.add(key)
        self._exact[key] = locator

    def lookup_local(self, key: bytes) -> NetworkLocator | None:
        """Filter first; a negative never touches the exact map."""
        if not self.filter.might_contain(bytes(key)):
            return None
        self.exact_probes += 1
        return self._exact.get(bytes(key))

    def remove(self, key: bytes) -> None:
        """Unbind; stale filter bits persist until rebuild_filter."""
        self._exact.pop(bytes(key), None)

    def rebuild_filter(self) -> None:
        """Regenerate the filter over live keys only (same geometry)."""
        fresh = BloomFilter(self.filter.m, self.filter.k)
        for key in self._exact:
            fresh.add(key)
        self.filter = fresh

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
    tables: Mapping[int, NeatTable] | Iterable[NeatTable],
    key: bytes,
    stats: LookupStats | None = None,
) -> GlobalLookup:
    """Probe segments in id order, exact map only where the filter says
    maybe; first exact hit wins. probes counts exact-map consultations."""
    if isinstance(tables, Mapping):
        ordered = [tables[segment] for segment in sorted(tables)]
    else:
        ordered = sorted(tables, key=lambda t: t.segment)
    key = bytes(key)
    positions: dict[tuple[int, int], list[int]] = {}  # (m, k) -> bit positions
    probes = 0
    result: NetworkLocator | None = None
    for table in ordered:
        bloom = table.filter
        maybe = False
        if bloom.count > 0:
            geometry = (bloom.m, bloom.k)
            if geometry not in positions:
                positions[geometry] = bloom.positions(key)
            maybe = bloom.has_bits(positions[geometry])
        if not maybe:
            if stats is not None:
                stats.true_negatives += 1
            continue
        probes += 1
        found = table._exact.get(key)
        table.exact_probes += 1
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
