"""Synthetic scenario generators for the benchmark.

Each generator takes ``(seed, size)`` and returns scenario text in the
canonical form ``overnym.scenario.format_scenario`` writes, so the text
round-trips through ``parse_scenario`` byte for byte. The seed picks
placements, server choices and timings; ``size`` is the user count. Every
handshake, payload stream and the rotation total carries an ``expect``
line, so a run whose protocol work fails exits non-zero.

All links cost 1, so a route between segments at hop distance ``d``
crosses ``d + 1`` access points. The handshake then takes a fixed number
of ticks after ``connect`` (request, grant, hello out, challenge and
response back), which lets a generator time each user's first payload one
tick after its session is established instead of padding with idle ticks
that only add heartbeats.
"""

from __future__ import annotations

from collections import deque
from random import Random

FIRST_CONNECT = 5  # registrations commit by t=3 and binds land at t=4


def connect_ticks(distance: int) -> int:
    """Ticks from a user's connect action to its established record."""
    return 2 * (distance + 1) + 4


class _Script:
    """Collects statements and renders them in format_scenario order."""

    def __init__(self, seed: int):
        self.seed = seed
        self.horizon: int | None = None
        self.segments: list[int] = []
        self.links: list[tuple[int, int]] = []
        self.nodes: list[str] = []
        self.actions: list[tuple[int, int, str]] = []
        self.expects: list[str] = []

    def network(self, segments: list[int], links: list[tuple[int, int]]) -> None:
        """Segments, unit-cost links, one router per segment, and the
        sequencer in the first segment."""
        self.segments = list(segments)
        self.links = list(links)
        self.nodes += [f"node ap{seg} router {seg}" for seg in segments]
        self.nodes.append(f"node seq sequencer {segments[0]}")

    def node(self, name: str, kind: str, segment: int, *props: str) -> None:
        self.nodes.append(" ".join(("node", name, kind, str(segment)) + props))

    def at(self, time: int, *words: str) -> None:
        self.actions.append((time, len(self.actions), " ".join(words)))

    def expect(self, *words: str) -> None:
        self.expects.append(" ".join(("expect",) + words))

    def text(self) -> str:
        lines = [f"seed {self.seed}"]
        if self.horizon is not None:
            lines.append(f"horizon {self.horizon}")
        lines += [f"segment {seg}" for seg in self.segments]
        lines += [f"link {a} {b} 1" for a, b in self.links]
        lines += self.nodes
        lines += [f"at {t} {words}" for t, _, words in sorted(self.actions)]
        lines += self.expects
        return "\n".join(lines) + "\n"


def _distances(segments: list[int], links: list[tuple[int, int]]) -> dict[int, dict[int, int]]:
    """Hop distance between every pair of segments (BFS from each)."""
    adjacent: dict[int, list[int]] = {seg: [] for seg in segments}
    for a, b in links:
        adjacent[a].append(b)
        adjacent[b].append(a)
    table = {}
    for origin in segments:
        dist = {origin: 0}
        queue = deque([origin])
        while queue:
            here = queue.popleft()
            for nxt in adjacent[here]:
                if nxt not in dist:
                    dist[nxt] = dist[here] + 1
                    queue.append(nxt)
        table[origin] = dist
    return table


def _users(script: _Script, rng: Random, size: int, segments: list[int],
           servers: dict[str, int]) -> list[tuple[str, int, str]]:
    """Declare ``size`` users; returns (user, segment, server). Users take
    (segment, server) pairs from shuffled rounds of all pairs, so every
    seed spreads them alike and only who goes where changes."""
    width = len(str(size))
    pool: list[tuple[int, str]] = []
    out = []
    for i in range(1, size + 1):
        if not pool:
            pool = [(seg, srv) for seg in segments for srv in sorted(servers)]
            rng.shuffle(pool)
        segment, server = pool.pop()
        user = f"u{i:0{width}d}"
        script.node(user, "user", segment)
        out.append((user, segment, server))
    return out


def _open_sessions(script: _Script, rng: Random, users, servers: dict[str, int],
                   distances, acl: dict[str, list[str]] | None = None) -> dict[str, int]:
    """Register and bind everyone, then time each connect so that every
    session is established within 2 ticks of the slowest path's earliest
    finish. Servers are open-access unless ``acl`` lists their tokens.
    Returns each user's establishment tick."""
    for server in sorted(servers):
        access = ("tokens", *acl[server]) if acl else ("open-access",)
        script.at(1, "register", server, *access)
    for user, _, _ in users:
        script.at(1, "register", user)
    for name in sorted(servers) + [u for u, _, _ in users]:
        script.at(3, "bind", name)
    slowest = max(connect_ticks(distances[seg][servers[srv]]) for _, seg, srv in users)
    established = {}
    for user, segment, server in users:
        done = FIRST_CONNECT + slowest + rng.randrange(2)
        script.at(done - connect_ticks(distances[segment][servers[server]]),
                  "connect", user, server)
        script.expect("handshake", user, server, "success")
        established[user] = done
    return established


def _one_payload_each(script: _Script, users, established: dict[str, int]) -> None:
    """Each user sends one payload the tick after its session is up; the
    horizon is the last of them, so heartbeats are few."""
    for user, _, server in users:
        script.at(established[user] + 1, "send", user, server, "1")
        script.expect("payloads", user, server, "1", "complete")
    script.horizon = max(established.values()) + 1


def handshake_storm(seed: int, size: int = 1000) -> str:
    """8-segment ring, ``size`` users, 8 open-access servers, one per
    segment. Every user connects within 10 ticks and sends one payload."""
    rng = Random(f"handshake_storm:{seed}")
    script = _Script(seed)
    segments = list(range(1, 9))
    links = [(seg, seg % 8 + 1) for seg in segments]
    script.network(segments, links)
    placement = segments[:]
    rng.shuffle(placement)
    servers = {f"srv{i}": seg for i, seg in enumerate(placement, start=1)}
    for name, seg in servers.items():
        script.node(name, "app-server", seg, f"service={name}")
    users = _users(script, rng, size, segments, servers)
    established = _open_sessions(script, rng, users, servers,
                                 _distances(segments, links))
    _one_payload_each(script, users, established)
    return script.text()


def wide_overlay(seed: int, size: int = 400) -> str:
    """128 segments: a random recursive tree plus 32 chords (159 links,
    under the ledger's topology-update cap), ``size`` users and 16
    servers on distinct segments. One payload per user.

    The tree, chords and server positions come from one fixed draw and
    the seed relabels the segments, so every seed routes over the same
    shape and the connect-tick percentiles stay comparable across seeds.
    """
    # Draw 7 keeps the connect-tick percentiles inside one tick value for
    # every seed rather than on the edge between two.
    shape = Random("wide_overlay:shape:7")
    links = [(shape.randint(1, seg - 1), seg) for seg in range(2, 129)]
    linked = {frozenset(link) for link in links}
    while len(links) < 127 + 32:
        a, b = shape.sample(range(1, 129), 2)
        if frozenset((a, b)) not in linked:
            linked.add(frozenset((a, b)))
            links.append((a, b))
    positions = shape.sample(range(1, 129), 16)

    rng = Random(f"wide_overlay:{seed}")
    segments = list(range(1, 129))
    label = dict(zip(segments, rng.sample(segments, len(segments))))
    links = [(label[a], label[b]) for a, b in links]
    script = _Script(seed)
    script.network(segments, links)
    servers = {f"srv{i}": label[pos] for i, pos in enumerate(positions, start=1)}
    for name, seg in servers.items():
        script.node(name, "app-server", seg, f"service={name}")
    users = _users(script, rng, size, segments, servers)
    established = _open_sessions(script, rng, users, servers,
                                 _distances(segments, links))
    _one_payload_each(script, users, established)
    return script.text()


def session_stream(seed: int, size: int = 40) -> str:
    """3 segments in a line, ``size`` users, 4 servers placed on the
    segments in turn. Sessions open early, then every user sends a burst
    of 2 payloads every 5 ticks up to t=300 while heartbeats run every
    tick."""
    rng = Random(f"session_stream:{seed}")
    script = _Script(seed)
    segments, links = [1, 2, 3], [(1, 2), (2, 3)]
    script.network(segments, links)
    servers = {f"srv{i}": segments[(i - 1) % 3] for i in range(1, 5)}
    for name, seg in servers.items():
        script.node(name, "app-server", seg, f"service={name}")
    users = _users(script, rng, size, segments, servers)
    established = _open_sessions(script, rng, users, servers,
                                 _distances(segments, links))
    first_burst = max(established.values()) + 1
    bursts = range(first_burst, 301, 5)
    for t in bursts:
        for user, _, server in users:
            script.at(t, "send", user, server, "2")
    for user, _, server in users:
        script.expect("payloads", user, server, str(2 * len(bursts)), "complete")
    return script.text()


ROTATIONS = 10


def rotation_churn(seed: int, size: int = 100) -> str:
    """3 segments in a line, ``size`` users, servers placed on the
    segments in turn and gated by one NFT per user. Each user rotates its
    identity 10 times and sends one payload after every rotation; the
    horizon is the last payload."""
    rng = Random(f"rotation_churn:{seed}")
    script = _Script(seed)
    segments, links = [1, 2, 3], [(1, 2), (2, 3)]
    script.network(segments, links)
    count = max(4, size // 25)  # keeps each server's token list under the tx cap
    servers = {f"srv{i}": segments[(i - 1) % 3] for i in range(1, count + 1)}
    for name, seg in servers.items():
        script.node(name, "app-server", seg, f"service={name}")
    users = _users(script, rng, size, segments, servers)
    acl = {server: [f"tok-{user}" for user, _, srv in users if srv == server] or [f"tok-{server}"]
           for server in servers}
    for user, _, _ in users:
        script.at(2, "mint-nft", f"tok-{user}", user)
    distances = _distances(segments, links)
    established = _open_sessions(script, rng, users, servers, distances, acl)
    # A payload sent at t reaches the server at t + hops + 1. A rotation at
    # t moves the token to the new address in the commit at t + 2, and the
    # server checks ownership on arrival, so each payload leaves 3 ticks
    # after its rotation and lands before the next rotation's commit.
    hops = {user: distances[seg][servers[srv]] + 1 for user, seg, srv in users}
    period = max(hops.values()) + 3
    for user, _, server in users:
        script.at(established[user] + 1, "send", user, server, "1")
        start = established[user] + hops[user] + 1 + rng.randrange(period)
        for r in range(ROTATIONS):
            t = start + r * period
            script.at(t, "rotate", user)
            script.at(t + 3, "send", user, server, "1")
        script.expect("payloads", user, server, str(ROTATIONS + 1), "complete")
    script.expect("rotations", str(ROTATIONS * size))
    script.horizon = max(t for t, _, _ in script.actions)
    return script.text()


# name -> (generator, benchmark size)
WORKLOADS = {
    "handshake_storm": (handshake_storm, 1000),
    "wide_overlay": (wide_overlay, 400),
    "session_stream": (session_stream, 40),
    "rotation_churn": (rotation_churn, 100),
}


def generate(name: str, seed: int, size: int | None = None) -> str:
    """Scenario text for a workload at its benchmark size unless given."""
    generator, default = WORKLOADS[name]
    return generator(seed, default if size is None else size)
