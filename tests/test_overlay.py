import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overnym.ledger import TopologyUpdate
from overnym.overlay import (
    Disconnected,
    OverlayGraph,
    RoutePath,
    Unresolvable,
    route_to_segment,
    segment_route,
)

from oracles import (
    bellman_ford_cost,
    connected_random_graph,
    dijkstra_best_path,
    enumerate_best_path,
)


def graph_with(segments, links, aps=None):
    graph = OverlayGraph()
    for seg in segments:
        graph.add_segment(seg, (aps or {}).get(seg, [f"ap{seg}"]))
    graph.apply_topology([(0, TopologyUpdate(links=tuple(links), origin="ap"))])
    return graph


class TestApplyTopology:
    def test_empty_update_list_unchanged(self):
        graph = graph_with([1, 2], [(1, 2, 1)])
        before = graph.dump()
        graph.apply_topology([])
        assert graph.dump() == before

    def test_same_seq_reapplied_is_stale(self):
        graph = graph_with([1, 2], [])
        update = TopologyUpdate(links=((1, 2, 1),), origin="ap1")
        graph.apply_topology([(5, update)])
        # A stale update changes nothing, even one that would change a cost.
        rival = TopologyUpdate(links=((1, 2, 7),), origin="ap2")
        graph.apply_topology([(5, update), (5, rival), (4, rival)])
        assert graph.version == 5
        assert graph.links() == [(1, 2, 1)]

    def test_unknown_segment_rejected_rest_applied(self):
        graph = graph_with([1, 2], [])
        update = TopologyUpdate(links=((1, 9, 1), (1, 2, 3)), origin="ap1")
        graph.apply_topology([(1, update)])
        assert graph.links() == [(1, 2, 3)]
        assert len(graph.rejected_links) == 1
        assert "unknown segment 9" in graph.rejected_links[0][2]

    def test_a_link_the_ledger_refuses_is_rejected_with_its_reason(self):
        graph = graph_with([1, 2, 3], [])
        update = TopologyUpdate(links=((1, 2, 0), (2, 2, 1), (2, 3, 1)), origin="ap1")
        graph.apply_topology([(1, update)])
        # Checked first: with the zero-cost link in the graph, the route
        # walk below would never end. The reasons are the decoder's.
        assert graph.rejected_links == [(1, (1, 2, 0), "hop-cost must be >= 1"),
                                        (1, (2, 2, 1), "self-loop link on segment 2")]
        assert graph.links() == [(2, 3, 1)]
        with pytest.raises(Disconnected):
            segment_route(graph, 1, 3)

    def test_version_advances(self):
        graph = graph_with([1, 2], [])
        graph.apply_topology([(3, TopologyUpdate(links=((1, 2, 1),), origin="a"))])
        assert graph.version == 3

    def test_reannounced_link_replaces_cost(self):
        graph = graph_with([1, 2], [(1, 2, 4)])
        graph.apply_topology([(9, TopologyUpdate(links=((2, 1, 2),), origin="a"))])
        assert graph.links() == [(1, 2, 2)]

    def test_monotone_reapplication_hash_stable(self):
        updates = [(i, TopologyUpdate(links=((1, 2, 1 + i % 3),), origin="a"))
                   for i in range(6)]
        one = graph_with([1, 2], [])
        one.apply_topology(updates)
        two = graph_with([1, 2], [])
        two.apply_topology(updates)
        two.apply_topology(updates)  # replay of the same prefix
        assert one.dump() == two.dump()


class TestFindPath:
    """Path finding as a router does it: from itself to the segment that
    discovery names."""

    def test_same_access_point_zero_cost(self):
        graph = graph_with([1], [])
        path = route_to_segment(graph, "ap1", 1)
        assert path == RoutePath(("ap1",), 0)

    def test_line_graph_matches_bfs_oracle(self):
        links = [(1, 2, 1), (2, 3, 1)]
        graph = graph_with([1, 2, 3], links)
        path = route_to_segment(graph, "ap1", 3)
        oracle_cost = bellman_ford_cost([1, 2, 3], links, 1, 3)
        assert path.total_cost == oracle_cost == 2
        assert path.hops == ("ap1", "ap2", "ap3")

    def test_equal_cost_tie_breaks_to_lower_segment(self):
        # 1-2-5 and 1-4-5 both cost 2; the 2-route wins.
        links = [(1, 2, 1), (2, 5, 1), (1, 4, 1), (4, 5, 1)]
        graph = graph_with([1, 2, 4, 5], links)
        path = route_to_segment(graph, "ap1", 5)
        assert path.total_cost == 2
        assert path.hops == ("ap1", "ap2", "ap5")

    def test_disconnected_graph(self):
        graph = graph_with([1, 2], [])
        with pytest.raises(Disconnected):
            route_to_segment(graph, "ap1", 2)

    def test_same_segment_distinct_aps(self):
        graph = graph_with([1], [], aps={1: ["apA", "apB"]})
        path = route_to_segment(graph, "apB", 1)
        assert path == RoutePath(("apB", "apA"), 0)

    def test_lowest_ap_of_its_own_segment_is_the_identity_route(self):
        graph = graph_with([1], [], aps={1: ["apA", "apB"]})
        assert route_to_segment(graph, "apA", 1) == RoutePath(("apA",), 0)

    def test_intermediate_segment_uses_lowest_ap(self):
        graph = graph_with([1, 2, 3], [(1, 2, 1), (2, 3, 1)],
                           aps={2: ["apZ", "apA"]})
        path = route_to_segment(graph, "ap1", 3)
        assert path.hops[1] == "apA"

    def test_deterministic_and_byte_identical(self):
        # 1-2-3-4, 1-2-4 and 1-3-4 all cost 4; the smallest sequence wins
        links = [(1, 2, 2), (2, 3, 1), (1, 3, 3), (3, 4, 1), (2, 4, 2)]
        graph = graph_with([1, 2, 3, 4], links)
        one = route_to_segment(graph, "ap1", 4)
        two = route_to_segment(graph, "ap1", 4)
        assert one == two == RoutePath(("ap1", "ap2", "ap3", "ap4"), 4)

    def test_route_to_segment_lowest_destination_ap(self):
        graph = graph_with([1, 2], [(1, 2, 1)], aps={2: ["apY", "apB"]})
        path = route_to_segment(graph, "ap1", 2)
        assert path.hops == ("ap1", "apB")

    def test_route_to_segment_without_aps_unresolvable(self):
        graph = OverlayGraph()
        graph.add_segment(1, ["ap1"])
        graph.add_segment(2)
        graph.apply_topology([(0, TopologyUpdate(links=((1, 2, 1),), origin="x"))])
        with pytest.raises(Unresolvable, match="segment 2 has no access points"):
            route_to_segment(graph, "ap1", 2)
        with pytest.raises(Unresolvable, match="'ap9' serves no segment"):
            route_to_segment(graph, "ap9", 1)


class TestOracleEquivalence:
    def test_random_graphs_match_bellman_ford(self):
        rng = random.Random(13)
        for trial in range(30):
            n = rng.randrange(3, 20)
            nodes, edges = connected_random_graph(rng, n, extra_edges=rng.randrange(0, n))
            graph = graph_with(nodes, edges)
            for _ in range(10):
                src, dst = rng.sample(nodes, 2)
                segments, cost = segment_route(graph, src, dst)
                assert cost == bellman_ford_cost(nodes, edges, src, dst)
                assert segments[0] == src and segments[-1] == dst

    def test_small_graphs_match_exhaustive_tie_break(self):
        # On small graphs the full enumeration also pins the documented
        # lexicographic tie-break, not just the cost.
        rng = random.Random(14)
        for trial in range(40):
            n = rng.randrange(3, 8)
            nodes, edges = connected_random_graph(rng, n, extra_edges=rng.randrange(0, 4))
            graph = graph_with(nodes, edges)
            src, dst = rng.sample(nodes, 2)
            segments, cost = segment_route(graph, src, dst)
            best_cost, best_path = enumerate_best_path(nodes, edges, src, dst)
            assert cost == best_cost
            assert segments == best_path

    @pytest.mark.parametrize("max_cost", [1, 4])
    def test_wide_graph_matches_path_dijkstra(self, max_cost):
        # As wide and tied as the wide_overlay benchmark: 128 segments, a
        # tree plus 32 chords, every source routed into 16 destinations.
        rng = random.Random(15 + max_cost)
        nodes, edges = connected_random_graph(rng, 128, 32, max_cost=max_cost)
        graph = graph_with(nodes, edges)
        for dst in rng.sample(nodes, 16):
            for src in nodes:
                cost, path = dijkstra_best_path(nodes, edges, src, dst)
                assert segment_route(graph, src, dst) == (path, cost)
                route = route_to_segment(graph, f"ap{src}", dst)
                assert route == RoutePath(tuple(f"ap{seg}" for seg in path), cost)


class ScanGraph:
    """Brute-force reference for OverlayGraph's indexes: segment_of scans
    segments in the order they were added and neighbors scans every
    link, as the graph did before it kept an adjacency map."""

    def __init__(self):
        self.segments: dict[int, set[str]] = {}
        self.links: dict[tuple[int, int], int] = {}

    def add_segment(self, seg, aps):
        self.segments.setdefault(seg, set()).update(aps)

    def apply(self, links):
        for a, b, cost in links:
            if a in self.segments and b in self.segments and a != b and cost >= 1:
                self.links[(min(a, b), max(a, b))] = cost

    def segment_of(self, ap):
        for seg, aps in self.segments.items():
            if ap in aps:
                return seg
        return None

    def neighbors(self, seg):
        out = []
        for (a, b), cost in self.links.items():
            if a == seg and self.segments.get(b):
                out.append((b, cost))
            elif b == seg and self.segments.get(a):
                out.append((a, cost))
        return sorted(out)


SEGMENT_IDS = st.integers(0, 6)
AP_NAMES = st.sampled_from(["a", "b", "c", "d"])
OPS = st.lists(st.one_of(
    # segments may come without access points, or gain them after links
    st.tuples(st.just("segment"), SEGMENT_IDS, st.lists(AP_NAMES, max_size=2)),
    # links may name unknown segments, loop, cost < 1 or re-announce a pair
    st.tuples(st.just("links"), st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 4)), max_size=4)),
), max_size=14)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_indexes_match_brute_force_scan(ops):
    graph, reference = OverlayGraph(), ScanGraph()
    for seq, op in enumerate(ops):
        if op[0] == "segment":
            graph.add_segment(op[1], op[2])
            reference.add_segment(op[1], op[2])
        else:
            graph.apply_topology([(seq, TopologyUpdate(links=tuple(op[1]), origin="x"))])
            reference.apply(op[1])
        for seg in range(8):
            assert graph.neighbors(seg) == reference.neighbors(seg)
            assert graph.has_segment(seg) == (seg in reference.segments)
        for ap in "abcdz":
            assert graph.segment_of(ap) == reference.segment_of(ap)
        assert graph.links() == sorted((a, b, c) for (a, b), c in reference.links.items())


@settings(max_examples=150, deadline=None)
@given(OPS)
# a link joins 0 to 2 through 1 after a route into 2 was read
@example([("segment", 0, ["a"]), ("segment", 1, ["b"]), ("segment", 2, ["c"]),
          ("links", [(0, 1, 1)]), ("links", [(1, 2, 1)])])
# segment 1 gains an access point after a route into 2 was read
@example([("segment", 0, ["a"]), ("segment", 1, []), ("segment", 2, ["b"]),
          ("links", [(0, 1, 1), (1, 2, 1)]), ("segment", 1, ["c"])])
def test_routes_read_between_changes_match_exhaustive_search(ops):
    # Routes are read after every op, so a cost map kept across a change
    # of the graph shows as a wrong route.
    graph, reference = OverlayGraph(), ScanGraph()
    for seq, op in enumerate(ops):
        if op[0] == "segment":
            graph.add_segment(op[1], op[2])
            reference.add_segment(op[1], op[2])
        else:
            graph.apply_topology([(seq, TopologyUpdate(links=tuple(op[1]), origin="x"))])
            reference.apply(op[1])
        segments = reference.segments
        for src in range(8):
            for dst in range(8):
                if src not in segments or dst not in segments:
                    expected = None
                elif src == dst:
                    expected = ((src,), 0)
                elif not segments[dst]:
                    expected = None
                else:
                    # every segment on a route but its source has an access point
                    links = [(a, b, cost) for (a, b), cost in reference.links.items()
                             if (segments[a] or a == src) and (segments[b] or b == src)]
                    cost, path = enumerate_best_path(segments, links, src, dst)
                    expected = None if cost is None else (path, cost)
                if expected is None:
                    with pytest.raises(Disconnected):
                        segment_route(graph, src, dst)
                else:
                    assert segment_route(graph, src, dst) == expected
