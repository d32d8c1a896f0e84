"""Entity discovery and inter-segment routing.

The segment graph is built from ledger topology updates (applied in seq
order, idempotently); identities resolve to their serving access points
through ledger association records. Pathfinding is minimum total
hop-cost with a fixed tie-break: among equal-cost routes, the
lexicographically smallest segment-id sequence wins, so equal inputs
always produce byte-identical paths.

OverlayGraph keeps two indexes beside its segment and link tables, so
Dijkstra and endpoint resolution never scan the whole graph: an
adjacency map (segment -> neighbour -> cost), maintained by
apply_topology, and an access-point -> segment index, maintained by
add_segment. Whether a neighbour has an access point is still checked
when neighbors() is called.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .hashing import TAG_GRAPH, owf, u64
from .ledger import Ledger, TopologyUpdate
from .wire import pack_str, pack_u64


class Unresolvable(Exception):
    """An endpoint has no live association record."""


class Disconnected(Exception):
    """No path between the endpoint segments."""


@dataclass(frozen=True)
class RoutePath:
    """Access-point hops, source-serving first, destination-serving last."""

    hops: tuple[str, ...]
    total_cost: int

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a route has at least one hop")

    def to_bytes(self) -> bytes:
        body = pack_u64(self.total_cost) + pack_u64(len(self.hops))
        for hop in self.hops:
            body += pack_str(hop)
        return body

    def reversed(self) -> "RoutePath":
        return RoutePath(tuple(reversed(self.hops)), self.total_cost)


class OverlayGraph:
    """Undirected segment graph versioned by ledger seq.

    Links are stored once per unordered pair; re-announcing a pair
    replaces its cost. Updates at or below the current version are
    stale and only counted; links naming unknown segments are rejected
    individually while the rest of the update applies.

    An access point listed in several segments belongs to the segment
    that was added first.
    """

    def __init__(self):
        self._segments: dict[int, set[str]] = {}
        self._links: dict[tuple[int, int], int] = {}
        self._adjacent: dict[int, dict[int, int]] = {}
        self._ap_segment: dict[str, int] = {}
        self._rank: dict[int, int] = {}  # segment -> order in which it was added
        self.version: int | None = None
        self.stale_updates = 0
        self.rejected_links: list[tuple[int, tuple[int, int, int], str]] = []

    def add_segment(self, segment_id: int, access_points: Iterable[str] = ()) -> None:
        if segment_id not in self._segments:
            self._rank[segment_id] = len(self._segments)
            self._segments[segment_id] = set()
        rank = self._rank[segment_id]
        for ap in access_points:
            self._segments[segment_id].add(ap)
            current = self._ap_segment.get(ap)
            if current is None or rank < self._rank[current]:
                self._ap_segment[ap] = segment_id

    def add_access_point(self, segment_id: int, access_point: str) -> None:
        self.add_segment(segment_id, [access_point])

    def links(self) -> list[tuple[int, int, int]]:
        return [(a, b, cost) for (a, b), cost in sorted(self._links.items())]

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def segment_of(self, access_point: str) -> int | None:
        return self._ap_segment.get(access_point)

    def access_points_of(self, segment_id: int) -> frozenset[str]:
        return frozenset(self._segments.get(segment_id, ()))

    def apply_topology(self, updates: Iterable[tuple[int, TopologyUpdate]]) -> "OverlayGraph":
        """Apply (ledger seq, update) pairs in seq order; idempotent per seq."""
        for seq, update in updates:
            if self.version is not None and seq <= self.version:
                self.stale_updates += 1
                continue
            for link in update.links:
                a, b, cost = link
                if a not in self._segments or b not in self._segments:
                    missing = a if a not in self._segments else b
                    self.rejected_links.append((seq, link, f"unknown segment {missing}"))
                    continue
                if a == b or cost < 1:
                    self.rejected_links.append((seq, link, "invalid link"))
                    continue
                self._links[(min(a, b), max(a, b))] = cost
                self._adjacent.setdefault(a, {})[b] = cost
                self._adjacent.setdefault(b, {})[a] = cost
            self.version = seq
        return self

    def neighbors(self, segment_id: int) -> list[tuple[int, int]]:
        """(neighbor, cost), only segments that have an access point."""
        segments = self._segments
        return sorted((other, cost) for other, cost in self._adjacent.get(segment_id, {}).items()
                      if segments[other])

    def graph_hash(self) -> bytes:
        blob = b""
        for seg in sorted(self._segments):
            blob += pack_u64(seg)
            for ap in sorted(self._segments[seg]):
                blob += pack_str(ap)
        for (a, b), cost in sorted(self._links.items()):
            blob += pack_u64(a) + pack_u64(b) + pack_u64(cost)
        blob += u64(self.version + 1 if self.version is not None else 0)
        return owf(TAG_GRAPH, blob)

    def dump(self) -> dict:
        return {
            "segments": {str(seg): sorted(aps) for seg, aps in sorted(self._segments.items())},
            "links": [[a, b, cost] for a, b, cost in self.links()],
            "version": self.version,
        }


def segment_route(graph: OverlayGraph, src: int, dst: int) -> tuple[tuple[int, ...], int]:
    """Min-cost segment sequence with lexicographic tie-break.

    Dijkstra keyed on (cost, segment sequence): positive hop costs mean
    every predecessor on a min-cost path settles first, so the first pop
    of a segment carries its minimal cost and, among equal costs, the
    lexicographically smallest sequence.
    """
    if not graph.has_segment(src) or not graph.has_segment(dst):
        raise Disconnected(f"unknown segment {dst if graph.has_segment(src) else src}")
    if src == dst:
        return (src,), 0
    heap: list[tuple[int, tuple[int, ...]]] = [(0, (src,))]
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return path, cost
        for neighbor, hop_cost in graph.neighbors(node):
            if neighbor not in settled:
                heapq.heappush(heap, (cost + hop_cost, path + (neighbor,)))
    raise Disconnected(f"no path between segments {src} and {dst}")


def resolve_access_point(ledger: Ledger, subject: bytes) -> str | None:
    """Serving access point per the latest association record, if any."""
    record = ledger.query_association(subject)
    return record.attachment if record is not None else None


def _hops_for(graph: OverlayGraph, segments: Sequence[int],
              first_ap: str, last_ap: str) -> tuple[str, ...]:
    if len(segments) == 1:
        return (first_ap,) if first_ap == last_ap else (first_ap, last_ap)
    hops = [first_ap]
    for seg in segments[1:-1]:
        hops.append(min(graph.access_points_of(seg)))
    hops.append(last_ap)
    return tuple(hops)


def find_path(graph: OverlayGraph, ledger: Ledger, src: bytes, dst: bytes) -> RoutePath:
    """Route between the access points serving two associated addresses.

    Endpoint hops are the recorded attachments; intermediate segments
    contribute their lowest-id access point. Both endpoints on one access
    point is the identity route: a single hop at cost 0.
    """
    src_ap = resolve_access_point(ledger, src)
    dst_ap = resolve_access_point(ledger, dst)
    if src_ap is None or dst_ap is None:
        missing = "source" if src_ap is None else "destination"
        raise Unresolvable(f"{missing} address has no association record")
    if src_ap == dst_ap:
        return RoutePath((src_ap,), 0)
    src_seg = graph.segment_of(src_ap)
    dst_seg = graph.segment_of(dst_ap)
    if src_seg is None or dst_seg is None:
        raise Unresolvable("an endpoint's access point is not in the graph")
    segments, cost = segment_route(graph, src_seg, dst_seg)
    return RoutePath(_hops_for(graph, segments, src_ap, dst_ap), cost)


def route_to_segment(graph: OverlayGraph, src_ap: str, dst_segment: int) -> RoutePath:
    """Route from a known access point to a segment's lowest-id access
    point; used when discovery yields only the destination's locator."""
    src_seg = graph.segment_of(src_ap)
    if src_seg is None:
        raise Unresolvable(f"access point {src_ap!r} serves no segment")
    dst_aps = graph.access_points_of(dst_segment)
    if not dst_aps:
        raise Unresolvable(f"segment {dst_segment} has no access points")
    segments, cost = segment_route(graph, src_seg, dst_segment)
    return RoutePath(_hops_for(graph, segments, src_ap, min(dst_aps)), cost)
