"""Scenario execution: build the simulated network, script the actions,
run to idle, evaluate expectations, write trace and metrics.

The runner owns the scenario's script. Each action, and each probe an
expectation needs, is a simulator control event (Simulator.call_at): it
calls a node's `do_*` step or reads its state, and nothing is delivered
to the node. An action or probe whose acting node has crashed by then is
skipped without a record; a fault has no acting node, so it always arms.

A run is a pure function of (scenario text, seed): traces and metrics
files are byte-identical across repeat runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

from . import ahead, session
from .ledger import MAX_PAYLOAD_BYTES, Ledger, NftOwnership, TopologyUpdate, encode_payload
from .neat import NeatTable
from .nodes import (
    AccessPointNode,
    AppServerNode,
    Metrics,
    RegulatorNode,
    SequencerNode,
    UserNode,
    World,
    token_id_for,
)
from .overlay import OverlayGraph
from .scenario import Action, Expectation, Scenario
from .simnet import Simulator, Trace, record

# Trace record writers, one per record shape; each is called as
# writer(trace, time, *values), in the order of its fields.
_trace_action = record("action", "action", "args")
_trace_no_session = record("access", "node", "peer", allowed=False, reason="no-session",
                           probe=True)
_trace_probe = record("probe", "node", "peer", "label", "alive")
_trace_ledger_entry = record("ledger-entry", "seq", "prev_hash", "payload_kind",
                             "payload_hash", "entry_hash")
_trace_graph = record("graph", "segments", "links", "version")
_trace_summary = record("summary", "metrics", "expectations", "ledger_head", "state_hash")


@dataclass
class RunResult:
    trace: Trace
    metrics: Metrics
    checks: list[tuple[str, bool, str]]  # (expectation text, passed, detail)
    exit_code: int

    def metrics_json(self) -> str:
        return json.dumps(self.metrics.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class _Built:
    sim: Simulator
    world: World
    users: dict[str, UserNode]
    servers: dict[str, AppServerNode]
    routers: dict[str, AccessPointNode]


def build_simulation(sc: Scenario, *, seed: int | None = None) -> _Built:
    seed = sc.seed if seed is None else seed
    horizon = sc.effective_horizon()

    sim = Simulator(seed)
    world = World(
        ledger=Ledger(),
        graph=OverlayGraph(),
        tables={},
        metrics=Metrics(),
        sequencer="",
        regulator="",
        strict_registration=sc.strict_registration,
        horizon=horizon,
    )

    for seg in sc.segments:
        world.graph.add_segment(seg)
        world.tables[seg] = NeatTable(seg, capacity=64)

    users: dict[str, UserNode] = {}
    servers: dict[str, AppServerNode] = {}
    routers: dict[str, AccessPointNode] = {}

    # Routers first so segment access-point sets exist before anyone
    # resolves them; then the rest in declaration order.
    for decl in sc.nodes:
        if decl.kind == "router":
            node = AccessPointNode(decl.name, decl.segment, world)
            sim.add_node(node)
            routers[decl.name] = node
            world.graph.add_segment(decl.segment, [decl.name])

    def ap_for(segment: int) -> str:
        # parse_scenario refuses a user or server on a segment without a router
        return min(world.graph.access_points_of(segment))

    for decl in sc.nodes:
        if decl.kind == "router":
            continue
        if decl.kind == "sequencer":
            node = SequencerNode(decl.name, decl.segment, world)
            sim.add_node(node)
            world.sequencer = decl.name
        elif decl.kind == "regulator":
            node = RegulatorNode(decl.name, decl.segment, world)
            sim.add_node(node)
            world.regulator = decl.name
        elif decl.kind == "user":
            node = UserNode(decl.name, decl.segment, world,
                            access_point=ap_for(decl.segment),
                            attributes=dict(decl.attributes))
            sim.add_node(node)
            users[decl.name] = node
        elif decl.kind == "app-server":
            node = AppServerNode(decl.name, decl.segment, world,
                                 access_point=ap_for(decl.segment),
                                 service_id=decl.service)
            sim.add_node(node)
            servers[decl.name] = node

    return _Built(sim, world, users, servers, routers)


def _schedule_actions(built: _Built, sc: Scenario) -> None:
    sim, world = built.sim, built.world
    sequencer = sim.nodes[world.sequencer]
    sequencer.start()

    # Bootstrap at t=0: routers register themselves and publish the
    # declared inter-segment links as ledger topology updates.
    for name in sorted(built.routers):
        built.routers[name].register_self()
    if sc.links:
        origin = min(built.routers)  # parse_scenario refuses links without a router
        for update in _topology_updates(sc.links, origin):
            built.routers[origin].submit_tx(update)

    driver = _ActionDriver(built)
    for action in sc.actions:
        sim.call_at(action.time, partial(driver.run_action, action))


def _topology_updates(links: list[tuple[int, int, int]], origin: str) -> list[TopologyUpdate]:
    """The declared links as TopologyUpdates the ledger accepts: in
    declaration order, each within MAX_PAYLOAD_BYTES, and only one when
    they all fit in one."""
    # Each link adds three u64s to the encoded update.
    per_update = (MAX_PAYLOAD_BYTES - len(encode_payload(TopologyUpdate((), origin)))) // 24
    if len(links) > per_update:
        # The updates commit in one round, ordered by nonce, not in the order
        # sent. Keep only each pair's last declaration, so its later cost wins.
        pairs = [(min(a, b), max(a, b)) for a, b, _ in links]
        last = {pair: i for i, pair in enumerate(pairs)}
        links = [link for i, (link, pair) in enumerate(zip(links, pairs)) if last[pair] == i]
    return [TopologyUpdate(tuple(links[i:i + per_update]), origin)
            for i in range(0, len(links), per_update)]


class _ActionDriver:
    """Runs the scripted actions, one control event each."""

    def __init__(self, built: _Built):
        self.built = built
        self.token_owner: dict[str, str] = {}

    def run_action(self, action: Action) -> None:
        built = self.built
        sim = built.sim
        if action.actor in sim.crashed:
            return
        now = sim.now
        _trace_action(sim.trace, now, action.kind, list(action.args))
        kind, values = action.kind, action.values
        if kind == "register":
            node = sim.nodes[action.actor]
            if isinstance(node, UserNode):
                node.do_register(now)
            else:
                _, open_access, tokens = values
                node.do_register(now, tokens=tuple(token_id_for(t) for t in tokens),
                                 open_access=open_access)
        elif kind == "bind":
            sim.nodes[action.actor].do_bind(now)
        elif kind in ("mint-nft", "transfer-nft"):
            token, owner = values
            owner_node = sim.nodes[owner]
            previous = self.token_owner.get(token)
            if previous is not None and previous in sim.nodes:
                sim.nodes[previous].tokens.discard(token_id_for(token))
            self.token_owner[token] = owner
            owner_node.tokens.add(token_id_for(token))
            owner_node.submit_tx(NftOwnership(
                token_id=token_id_for(token), owner=owner_node.bcadd.address,
            ))
        elif kind == "connect":
            user, server, service = values
            built.users[user].do_connect(built.servers[server].appid.id, service, now)
        elif kind == "rotate":
            built.users[action.actor].do_rotate(now)
        elif kind == "send":
            user, server, count = values
            built.users[user].do_send_payloads(server, count, now)
        elif kind == "authorize":
            user, server = values
            sim.call_at(now, partial(_probe_access, built, user, server))
        elif kind == "fault":
            fault, params = values
            sim.inject_fault(fault, dict(params), now)


def _probe_access(built: _Built, user: str, server: str) -> None:
    """The server's access decision for its session with user, traced as
    a probe; with no session there is nothing to authorize."""
    sim = built.sim
    if server in sim.crashed:
        return
    server_node = built.servers[server]
    sess = server_node.session_with(user)
    if sess is None:
        _trace_no_session(sim.trace, sim.now, server, user)
    else:
        server_node.evaluate_access(sess, sim.now, probe=True)


def _probe_session(built: _Built, user: str, server: str, label: str) -> None:
    """Trace whether user's session with server is alive now."""
    sim = built.sim
    if user in sim.crashed:
        return
    sess = built.users[user].session_with(server)
    alive = sess is not None and session.check_alive(sess, sim.now).alive
    _trace_probe(sim.trace, sim.now, user, server, label, alive)


def _schedule_probes(built: _Built, sc: Scenario) -> None:
    # session-alive expectations observe through a scheduled probe so the
    # answer is part of the deterministic trace.
    for exp in sc.expectations:
        if exp.at is not None:
            user, server, _ = exp.values
            built.sim.call_at(exp.at, partial(_probe_session, built, user, server, exp.label))


def _last(trace: Trace, found: dict[str, list[dict]], kind: str, **match) -> dict | None:
    """The last record of kind whose fields equal match, or None. found
    keeps each kind's records once read, so a run parses its trace at
    most once per kind however many expectations it has."""
    records = found.get(kind)
    if records is None:
        records = found[kind] = trace.find(kind)
    return next((r for r in reversed(records)
                 if all(r.get(k) == v for k, v in match.items())), None)


def _evaluate(built: _Built, exp: Expectation, found: dict[str, list[dict]]) -> tuple[bool, str]:
    """Whether the run meets exp, and what it saw. found is the per-kind
    record cache that _last fills."""
    trace, metrics = built.sim.trace, built.world.metrics
    if exp.kind == "handshake":
        user, server, success = exp.values
        sess = built.users[user].session_with(server)
        established = sess is not None
        return (established == success,
                "session established" if established else "no established session")

    if exp.kind == "authorize":
        user, server, wanted = exp.values
        server_node = built.servers[server]
        sess = server_node.session_with(user)
        if sess is None:
            return False, "no session between the pair"
        last = _last(trace, found, "access", session=sess.session_id.hex()[:16])
        if last is None:
            return False, "no access decisions recorded"
        allowed = bool(last["allowed"])
        return (allowed == wanted,
                f"last access decision: allowed={allowed} reason={last['reason']}")

    if exp.kind == "session":
        user, _server, wanted = exp.values
        probe = _last(trace, found, "probe", node=user, label=exp.label)
        if probe is None:
            return False, "probe never fired"
        alive = bool(probe["alive"])
        return alive == wanted, f"probe at t={exp.at}: alive={alive}"

    if exp.kind == "payloads":
        user, server, n = exp.values
        sess = built.servers[server].session_with(user)
        if sess is None:
            return False, "no session between the pair"
        # Accepted seqs strictly increase, so n of them ending at n - 1 are 0..n-1.
        ok = sess.payloads_accepted == n and sess.highest_seq == n - 1
        return ok, (f"accepted {sess.payloads_accepted} payloads up to seq "
                    f"{sess.highest_seq} vs {n} up to {n - 1}")

    if exp.kind == "rotations":
        (wanted,) = exp.values
        return (metrics.rotations_completed == wanted,
                f"rotations_completed={metrics.rotations_completed}")

    user, wanted = exp.values  # admitted
    last = _last(trace, found, "admit", client=user)
    if last is None:
        return False, "no admission decisions recorded"
    decision = bool(last["decision"])
    return decision == wanted, f"last admission decision={decision}"


def run_scenario(sc: Scenario, *, seed: int | None = None) -> RunResult:
    built = build_simulation(sc, seed=seed)
    _schedule_actions(built, sc)
    _schedule_probes(built, sc)
    # Linkage proofs signed in the run are verified ahead of their delivery,
    # and each rotating user's next rotation proof is signed ahead.
    with ahead.AHEAD.scope():
        built.sim.run_until_idle()

    found: dict[str, list[dict]] = {}
    checks = [(exp.text, *_evaluate(built, exp, found)) for exp in sc.expectations]
    metrics = built.world.metrics

    # Close the trace stream with the chain dump (one entry per line),
    # the final overlay graph, and the summary record.
    trace, now = built.sim.trace, built.sim.now
    for entry in built.world.ledger.entries:
        _trace_ledger_entry(trace, now, entry.seq, entry.prev_hash.hex(),
                            type(entry.payload).__name__, entry.payload_hash.hex(),
                            entry.entry_hash.hex())
    graph = built.world.graph.dump()
    _trace_graph(trace, now, graph["segments"], graph["links"], graph["version"])
    _trace_summary(trace, now, metrics.to_dict(),
                   [{"text": t, "passed": p} for t, p, _ in checks],
                   built.world.ledger.head_seq, built.world.ledger.state_hash().hex()[:16])
    exit_code = 0 if all(p for _, p, _ in checks) else 1
    result = RunResult(built.sim.trace, metrics, checks, exit_code)
    # Each node holds the simulator (Node.attach); drop the simulator's
    # hold on them so the finished run is freed without a cyclic GC pass.
    built.sim.nodes.clear()
    return result


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks, in order, as UTF-8 with no newline
    translation, via temp-then-rename so readers never see partial
    output. An OSError raised here names path, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-overnym-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_outputs(result: RunResult, trace_path: str, metrics_path: str) -> None:
    write_atomic(trace_path, result.trace.chunks())
    write_atomic(metrics_path, (result.metrics_json(),))
