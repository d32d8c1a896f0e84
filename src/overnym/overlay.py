"""Entity discovery and inter-segment routing.

The segment graph is built from ledger topology updates (applied in seq
order, idempotently). Discovery (the NEAT tables) yields the segment
that serves an identity; a router then routes from itself to that
segment. Pathfinding is minimum total hop-cost with a fixed tie-break:
among equal-cost routes, the lexicographically smallest segment-id
sequence wins, so equal inputs always produce byte-identical paths.

OverlayGraph holds its links once, in an adjacency map (segment ->
neighbour -> cost) maintained by apply_topology, and keeps an
access-point -> segment index beside its segment table, maintained by
add_segment, so route searches and route endpoints never scan the whole
graph. Whether a neighbour has an access point is checked in
neighbors(), through which cost maps are built; the route walk reads
the adjacency itself and keeps only neighbours that are in the map,
which are exactly those with an access point.

Routes are computed per destination, as distance-vector routing does
(RIP, RFC 1058): a cost map holds, for one destination segment, the
minimum cost from every segment that can reach it. Many routers route
to few server segments, so one map serves every source. A map lives
until the graph changes: add_segment and every link apply_topology sets
clear them all; a stale update or a rejected link leaves them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .ledger import TopologyUpdate, link_fault


class Unresolvable(Exception):
    """A route endpoint has no access point: the source serves no
    segment, or the destination segment has none."""


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

    def reversed(self) -> "RoutePath":
        return RoutePath(tuple(reversed(self.hops)), self.total_cost)


class OverlayGraph:
    """Undirected segment graph versioned by ledger seq.

    A link is one unordered pair, held under both of its ends;
    re-announcing a pair replaces its cost. Updates at or below the
    current version are stale and skipped; a link naming an unknown
    segment, or one the ledger's link rule (ledger.link_fault) refuses,
    is rejected individually while the rest of the update applies.

    An access point listed in several segments belongs to the segment
    that was added first.
    """

    def __init__(self):
        self._segments: dict[int, set[str]] = {}
        self._adjacent: dict[int, dict[int, int]] = {}
        self._ap_segment: dict[str, int] = {}
        self._rank: dict[int, int] = {}  # segment -> order in which it was added
        self._costs: dict[int, dict[int, int]] = {}  # destination -> its cost map
        self.version: int | None = None
        self.rejected_links: list[tuple[int, tuple[int, int, int], str]] = []

    def add_segment(self, segment_id: int, access_points: Iterable[str] = ()) -> None:
        self._costs.clear()
        if segment_id not in self._segments:
            self._rank[segment_id] = len(self._segments)
            self._segments[segment_id] = set()
        rank = self._rank[segment_id]
        for ap in access_points:
            self._segments[segment_id].add(ap)
            current = self._ap_segment.get(ap)
            if current is None or rank < self._rank[current]:
                self._ap_segment[ap] = segment_id

    def links(self) -> list[tuple[int, int, int]]:
        return sorted((a, b, cost) for a, adjacent in self._adjacent.items()
                      for b, cost in adjacent.items() if a < b)

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
                continue
            for link in update.links:
                a, b, cost = link
                if a not in self._segments or b not in self._segments:
                    missing = a if a not in self._segments else b
                    self.rejected_links.append((seq, link, f"unknown segment {missing}"))
                    continue
                fault = link_fault(link)
                if fault is not None:
                    self.rejected_links.append((seq, link, fault))
                    continue
                self._adjacent.setdefault(a, {})[b] = cost
                self._adjacent.setdefault(b, {})[a] = cost
                self._costs.clear()
            self.version = seq
        return self

    def neighbors(self, segment_id: int) -> list[tuple[int, int]]:
        """(neighbor, cost), only segments that have an access point."""
        segments = self._segments
        return sorted((other, cost) for other, cost in self._adjacent.get(segment_id, {}).items()
                      if segments[other])

    def costs_to(self, dst: int) -> dict[int, int]:
        """Cost map of ``dst``: segment -> minimum cost from it to dst.

        Built by one Dijkstra outward from dst over neighbors(); links are
        undirected, so the cost out of dst is the cost into it. Every
        segment in the map but dst has an access point, and so does every
        neighbour that neighbors() gives of a segment in the map.
        """
        costs = self._costs.get(dst)
        if costs is None:
            costs = self._costs[dst] = {}
            heap = [(0, dst)]
            while heap:
                cost, node = heapq.heappop(heap)
                if node in costs:
                    continue
                costs[node] = cost
                for neighbor, hop_cost in self.neighbors(node):
                    if neighbor not in costs:
                        heapq.heappush(heap, (cost + hop_cost, neighbor))
        return costs

    def dump(self) -> dict:
        return {
            "segments": {str(seg): sorted(aps) for seg, aps in sorted(self._segments.items())},
            "links": [[a, b, cost] for a, b, cost in self.links()],
            "version": self.version,
        }


def segment_route(graph: OverlayGraph, src: int, dst: int) -> tuple[tuple[int, ...], int]:
    """Min-cost segment sequence with lexicographic tie-break.

    A greedy walk down dst's cost map: from each segment, step to the
    smallest-id neighbour n that minimises hop cost + cost(n). Every
    suffix of a min-cost route is a min-cost route, so the smallest
    first step that keeps the minimum starts the lexicographically
    smallest min-cost sequence, and so on from there. Hop costs are at
    least 1, so each step descends strictly and the walk ends at dst.

    The walk reads the adjacency unsorted: min() breaks ties by id. A
    neighbour of a segment in the map is in it iff it has an access
    point, so ``n in costs`` does neighbors()' filtering. A destination
    without an access point gets an empty map, so no walk enters it.
    """
    if not graph.has_segment(src) or not graph.has_segment(dst):
        raise Disconnected(f"unknown segment {dst if graph.has_segment(src) else src}")
    if src == dst:
        return (src,), 0
    costs = graph.costs_to(dst) if graph.access_points_of(dst) else {}
    adjacent = graph._adjacent
    # src alone may lack an access point or lie outside the map
    total, node = min(((hop_cost + costs[n], n) for n, hop_cost in adjacent.get(src, {}).items()
                       if n in costs), default=(0, None))
    if node is None:
        raise Disconnected(f"no path between segments {src} and {dst}")
    path = [src, node]
    while node != dst:
        node = min((hop_cost + costs[n], n) for n, hop_cost in adjacent[node].items()
                   if n in costs)[1]
        path.append(node)
    return tuple(path), total


def _hops_for(graph: OverlayGraph, segments: Sequence[int],
              first_ap: str, last_ap: str) -> tuple[str, ...]:
    if len(segments) == 1:
        return (first_ap,) if first_ap == last_ap else (first_ap, last_ap)
    hops = [first_ap]
    for seg in segments[1:-1]:
        hops.append(min(graph.access_points_of(seg)))
    hops.append(last_ap)
    return tuple(hops)


def route_to_segment(graph: OverlayGraph, src_ap: str, dst_segment: int) -> RoutePath:
    """Route from a known access point to a segment's lowest-id access
    point. Intermediate segments contribute their lowest-id access point;
    a source that is that access point is the identity route: one hop at
    cost 0."""
    src_seg = graph.segment_of(src_ap)
    if src_seg is None:
        raise Unresolvable(f"access point {src_ap!r} serves no segment")
    dst_aps = graph.access_points_of(dst_segment)
    if not dst_aps:
        raise Unresolvable(f"segment {dst_segment} has no access points")
    segments, cost = segment_route(graph, src_seg, dst_segment)
    return RoutePath(_hops_for(graph, segments, src_ap, min(dst_aps)), cost)
