"""Scenario execution: build the simulated network, script the actions,
run to idle, evaluate expectations, write trace and metrics.

A run is a pure function of (scenario text, seed): traces and metrics
files are byte-identical across repeat runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .ledger import Ledger, NftOwnership, TopologyUpdate
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
from .scenario import Scenario, ValidationError
from .simnet import Simulator, Timer, Trace


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


def build_simulation(sc: Scenario, *, seed: int | None = None,
                     strict: bool | None = None) -> _Built:
    seed = sc.seed if seed is None else seed
    strict = sc.strict_registration if strict is None else strict
    horizon = sc.effective_horizon()

    sim = Simulator(seed)
    world = World(
        ledger=Ledger(),
        graph=OverlayGraph(),
        tables={},
        metrics=Metrics(),
        sequencer="",
        regulator="",
        strict_registration=strict,
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
            world.graph.add_access_point(decl.segment, decl.name)

    def ap_for(segment: int, name: str) -> str:
        aps = world.graph.access_points_of(segment)
        if not aps:
            raise ValidationError(name, f"segment {segment} has no router")
        return min(aps)

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
            attributes = {k: _coerce(v) for k, v in decl.props}
            node = UserNode(decl.name, decl.segment, world,
                            access_point=ap_for(decl.segment, decl.name),
                            attributes=attributes)
            sim.add_node(node)
            users[decl.name] = node
        elif decl.kind == "app-server":
            service = decl.prop("service", decl.name)
            node = AppServerNode(decl.name, decl.segment, world,
                                 access_point=ap_for(decl.segment, decl.name),
                                 service_id=service)
            sim.add_node(node)
            servers[decl.name] = node

    return _Built(sim, world, users, servers, routers)


def _coerce(value: str) -> int | str:
    try:
        return int(value)
    except ValueError:
        return value


def _schedule_actions(built: _Built, sc: Scenario) -> None:
    sim, world = built.sim, built.world
    sequencer = sim.nodes[world.sequencer]
    sequencer.start()

    # Bootstrap at t=0: routers register themselves and publish the
    # declared inter-segment links as ledger topology updates.
    for name in sorted(built.routers):
        built.routers[name].register_self()
    if sc.links:
        origin = min(built.routers) if built.routers else ""
        built.routers[origin].submit_tx(TopologyUpdate(links=tuple(sc.links), origin=origin))

    for idx, action in enumerate(sc.actions):
        sim.schedule(action.time, _action_host(built, action), Timer("action", (idx, action)))


def _action_host(built: _Built, action) -> str:
    # Most actions run on the acting node; token actions run on the
    # owner named in the action; faults arm from the sequencer.
    if action.kind in ("mint-nft", "transfer-nft"):
        return action.args[1]
    if action.kind == "authorize":
        return action.args[1]
    if action.kind == "fault":
        return built.world.sequencer
    return action.args[0]


class _ActionDriver:
    """Runs the scripted actions: becomes every protocol node's
    ``action_driver``."""

    def __init__(self, built: _Built):
        self.built = built
        self.token_owner: dict[str, str] = {}
        for node in built.sim.nodes.values():
            node.action_driver = self

    def run_action(self, node, action, now: int) -> None:
        built = self.built
        sim = built.sim
        sim.trace.emit("action", now, action=action.kind, args=list(action.args))
        if action.kind == "register":
            if isinstance(node, UserNode):
                node.do_register(now)
            else:
                tokens = ()
                open_access = False
                if len(action.args) >= 2 and action.args[1] == "open-access":
                    open_access = True
                elif len(action.args) >= 2 and action.args[1] == "tokens":
                    tokens = tuple(token_id_for(t) for t in action.args[2:])
                node.do_register(now, tokens=tokens, open_access=open_access)
        elif action.kind == "bind":
            node.do_bind(now)
        elif action.kind in ("mint-nft", "transfer-nft"):
            token, owner = action.args
            owner_node = sim.nodes[owner]
            previous = self.token_owner.get(token)
            if previous is not None and previous in sim.nodes:
                sim.nodes[previous].tokens.discard(token_id_for(token))
            self.token_owner[token] = owner
            owner_node.tokens.add(token_id_for(token))
            owner_node.submit_tx(NftOwnership(
                token_id=token_id_for(token), owner=owner_node.bcadd.address,
            ))
        elif action.kind == "connect":
            user, server = action.args[0], action.args[1]
            server_node = built.servers[server]
            service = server_node.service.service_id
            if len(action.args) == 3:
                service = action.args[2].split("=", 1)[1]
            built.users[user].do_connect(server_node.appid.id, service, now)
        elif action.kind == "rotate":
            node.do_rotate(now)
        elif action.kind == "send":
            user, server, count = action.args
            built.users[user].do_send_payloads(server, int(count), now)
        elif action.kind == "authorize":
            user, server = action.args
            sim.schedule(now, server, Timer("authorize-probe", user))
        elif action.kind == "fault":
            fault = action.args[0]
            if fault == "crash-node":
                sim.inject_fault("crash-node", {"node": action.args[1]}, now)
            elif fault == "drop-link":
                params = {"a": action.args[1], "b": action.args[2]}
                if len(action.args) == 4:
                    params["p"] = float(action.args[3])
                sim.inject_fault("drop-link", params, now)
            elif fault == "delay-link":
                sim.inject_fault("delay-link", {
                    "a": action.args[1], "b": action.args[2],
                    "extra": int(action.args[3]),
                }, now)


def _schedule_probes(built: _Built, sc: Scenario) -> None:
    # session-alive expectations observe through a scheduled probe so the
    # answer is part of the deterministic trace.
    for exp in sc.expectations:
        if exp.kind == "session":
            user, server, _state, _at, t = exp.args
            label = " ".join(exp.args)
            built.sim.schedule(int(t), user, Timer("probe-alive", (server, label)))


def _evaluate(built: _Built, sc: Scenario) -> list[tuple[str, bool, str]]:
    trace, metrics = built.sim.trace, built.world.metrics
    results: list[tuple[str, bool, str]] = []
    for exp in sc.expectations:
        text = f"expect {exp.kind} " + " ".join(exp.args)
        passed, detail = _evaluate_one(built, exp, trace, metrics)
        results.append((text, passed, detail))
    return results


def _evaluate_one(built: _Built, exp, trace: Trace, metrics: Metrics) -> tuple[bool, str]:
    if exp.kind == "handshake":
        user, server, wanted = exp.args
        sess = built.users[user].session_with(server)
        established = sess is not None and sess.key is not None
        if wanted == "success":
            return established, "session established" if established else "no established session"
        return (not established,
                "no established session" if not established else "session established")

    if exp.kind == "authorize":
        user, server, wanted = exp.args
        server_node = built.servers[server]
        sess = server_node.session_with(user)
        if sess is None:
            return False, "no session between the pair"
        records = trace.find("access", session=sess.session_id.hex()[:16])
        if not records:
            return False, "no access decisions recorded"
        last = records[-1]
        allowed = bool(last["allowed"])
        ok = allowed == (wanted == "allowed")
        return ok, f"last access decision: allowed={allowed} reason={last['reason']}"

    if exp.kind == "session":
        user, server, state, _at, t = exp.args
        label = " ".join(exp.args)
        probes = trace.find("probe", node=user, label=label)
        if not probes:
            return False, "probe never fired"
        alive = bool(probes[-1]["alive"])
        ok = alive == (state == "alive")
        return ok, f"probe at t={t}: alive={alive}"

    if exp.kind == "payloads":
        user, server, n, _ = exp.args
        server_node = built.servers[server]
        sess = server_node.session_with(user)
        if sess is None:
            return False, "no session between the pair"
        got = server_node.delivered.get(sess.session_id, [])
        expected = list(range(int(n)))
        ok = got == expected
        return ok, f"accepted seqs {got[:8]}{'...' if len(got) > 8 else ''} vs 0..{int(n) - 1}"

    if exp.kind == "rotations":
        wanted = int(exp.args[0])
        return (metrics.rotations_completed == wanted,
                f"rotations_completed={metrics.rotations_completed}")

    if exp.kind == "admitted":
        user, wanted = exp.args
        records = trace.find("admit", client=user)
        if not records:
            return False, "no admission decisions recorded"
        decision = bool(records[-1]["decision"])
        return decision == (wanted == "true"), f"last admission decision={decision}"

    return False, f"unknown expectation {exp.kind}"


def run_scenario(sc: Scenario, *, seed: int | None = None,
                 strict: bool | None = None) -> RunResult:
    built = build_simulation(sc, seed=seed, strict=strict)
    _ActionDriver(built)
    _schedule_actions(built, sc)
    _schedule_probes(built, sc)
    built.sim.run_until_idle()

    checks = _evaluate(built, sc)
    metrics = built.world.metrics

    # Close the trace stream with the chain dump (one entry per line),
    # the final overlay graph, and the summary record.
    for entry in built.world.ledger.entries:
        built.sim.trace.emit("ledger-entry", built.sim.now, seq=entry.seq,
                             prev_hash=entry.prev_hash.hex(),
                             payload_kind=type(entry.payload).__name__,
                             payload_hash=entry.payload_hash.hex(),
                             entry_hash=entry.entry_hash.hex())
    built.sim.trace.emit("graph", built.sim.now, **built.world.graph.dump())
    built.sim.trace.emit("summary", built.sim.now,
                         metrics=metrics.to_dict(),
                         expectations=[{"text": t, "passed": p} for t, p, _ in checks],
                         ledger_head=built.world.ledger.head_seq,
                         state_hash=built.world.ledger.state_hash().hex()[:16])
    exit_code = 0 if all(p for _, p, _ in checks) else 1
    return RunResult(built.sim.trace, metrics, checks, exit_code)


def write_atomic(path: str, content: str) -> None:
    """Write via temp-then-rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-overnym-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_outputs(result: RunResult, trace_path: str, metrics_path: str) -> None:
    write_atomic(trace_path, result.trace.to_jsonl())
    write_atomic(metrics_path, result.metrics_json())
