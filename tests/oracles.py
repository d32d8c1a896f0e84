"""Independent oracles used to generate and check expected test values.

Nothing in here imports the package under test. The hash oracle is a
from-scratch FIPS 180-4 SHA-256 whose round constants are derived from
prime roots with exact integer arithmetic, so it shares no code (and no
constant tables) with hashlib. The routing oracles are plain Bellman-Ford
relaxation, a path-carrying Dijkstra (the package's search before it
kept cost maps) and, for small graphs, exhaustive simple-path
enumeration.
"""

from __future__ import annotations

import heapq


# ---------------------------------------------------------------------------
# SHA-256, from the standard: constants generated from prime roots
# ---------------------------------------------------------------------------

def _primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def _iroot(value: int, degree: int) -> int:
    """Exact integer floor of value ** (1/degree), by binary search."""
    lo, hi = 0, 1
    while hi ** degree <= value:
        hi <<= 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** degree <= value:
            lo = mid
        else:
            hi = mid
    return lo


# First 32 bits of the fractional parts of the square roots of the first
# 8 primes, and of the cube roots of the first 64 primes.
_H0 = tuple(_iroot(p << 64, 2) & 0xFFFFFFFF for p in _primes(8))
_K = tuple(_iroot(p << 96, 3) & 0xFFFFFFFF for p in _primes(64))

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def sha256_oracle(message: bytes) -> bytes:
    """Pure-Python SHA-256 (FIPS 180-4), independent of hashlib."""
    length = len(message)
    padded = message + b"\x80"
    padded += b"\x00" * ((55 - length) % 64)
    padded += (length * 8).to_bytes(8, "big")

    h = list(_H0)
    for offset in range(0, len(padded), 64):
        block = padded[offset:offset + 64]
        w = [int.from_bytes(block[i:i + 4], "big") for i in range(0, 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK)

        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (hh + big_s1 + ch + _K[t] + w[t]) & _MASK
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (big_s0 + maj) & _MASK
            a, b, c, d, e, f, g, hh = (
                (temp1 + temp2) & _MASK, a, b, c,
                (d + temp1) & _MASK, e, f, g,
            )

        h = [(x + y) & _MASK for x, y in zip(h, (a, b, c, d, e, f, g, hh))]

    return b"".join(x.to_bytes(4, "big") for x in h)


# Published FIPS 180-4 example digests; sha256_oracle must reproduce them
# before any derived value is trusted.
FIPS_VECTORS = {
    b"": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    b"abc": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
}


def self_check() -> None:
    for message, digest_hex in FIPS_VECTORS.items():
        got = sha256_oracle(message).hex()
        if got != digest_hex:
            raise AssertionError(f"oracle broken on {message!r}: {got}")


# ---------------------------------------------------------------------------
# Shortest path oracles
# ---------------------------------------------------------------------------

def bellman_ford_cost(nodes, edges, src, dst):
    """Min path cost by exhaustive edge relaxation; None if unreachable.

    edges: iterable of undirected (a, b, cost).
    """
    dist = {n: None for n in nodes}
    dist[src] = 0
    edge_list = list(edges)
    for _ in range(len(list(nodes)) or 1):
        changed = False
        for a, b, cost in edge_list:
            for u, v in ((a, b), (b, a)):
                if dist[u] is not None and (dist[v] is None or dist[u] + cost < dist[v]):
                    dist[v] = dist[u] + cost
                    changed = True
        if not changed:
            break
    return dist[dst]


def enumerate_best_path(nodes, edges, src, dst):
    """All-simple-paths search: (min cost, lexicographically smallest
    min-cost node sequence). Only viable for small graphs."""
    adjacency: dict = {n: [] for n in nodes}
    for a, b, cost in edges:
        adjacency[a].append((b, cost))
        adjacency[b].append((a, cost))

    best: list = [None, None]  # cost, path

    def walk(node, cost, path, seen):
        if best[0] is not None and cost > best[0]:
            return
        if node == dst:
            if best[0] is None or cost < best[0] or (cost == best[0] and tuple(path) < best[1]):
                best[0], best[1] = cost, tuple(path)
            return
        for nxt, w in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                walk(nxt, cost + w, path, seen)
                path.pop()
                seen.discard(nxt)

    walk(src, 0, [src], {src})
    return (best[0], best[1])


def dijkstra_best_path(nodes, edges, src, dst):
    """Dijkstra keyed on (cost, node sequence): (min cost, lexicographically
    smallest min-cost node sequence), or (None, None) if unreachable.

    Positive edge costs mean every predecessor on a min-cost path settles
    first, so the first pop of a node carries its minimal cost and, among
    equal costs, the smallest sequence.
    """
    adjacency: dict = {n: [] for n in nodes}
    for a, b, cost in edges:
        adjacency[a].append((b, cost))
        adjacency[b].append((a, cost))
    heap = [(0, (src,))]
    settled = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return cost, path
        for neighbor, hop_cost in adjacency[node]:
            if neighbor not in settled:
                heapq.heappush(heap, (cost + hop_cost, path + (neighbor,)))
    return None, None


def connected_random_graph(rng, n_segments, extra_edges, max_cost=4):
    """Random connected undirected graph: a random spanning tree plus
    extra random edges, costs uniform in 1..max_cost."""
    nodes = list(range(1, n_segments + 1))
    order = nodes[:]
    rng.shuffle(order)
    edges = []
    seen_pairs = set()
    for i in range(1, len(order)):
        a = order[rng.randrange(i)]
        b = order[i]
        pair = (min(a, b), max(a, b))
        seen_pairs.add(pair)
        edges.append((pair[0], pair[1], rng.randint(1, max_cost)))
    attempts = 0
    while extra_edges > 0 and attempts < extra_edges * 20:
        attempts += 1
        a, b = rng.sample(nodes, 2)
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        edges.append((pair[0], pair[1], rng.randint(1, max_cost)))
        extra_edges -= 1
    return nodes, edges


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
    for label, preimage in [
        ("bcadd zero-seed epoch-0", b"bcadd:" + bytes(32) + (0).to_bytes(8, "big")),
    ]:
        print(label, sha256_oracle(preimage).hex())
