"""Protocol behavior of the five node kinds inside the simulator.

Users, access points (routers), application servers, the regulator, and
the single sequencer exchange the messages defined here. Control-plane
writes (registrations, associations, token ownership, topology) travel
to the sequencer and commit in rounds; the committed ledger is readable
by every node between rounds. Data-plane messages ride Envelopes hop by
hop along computed access-point routes.

Traces record message kinds, decisions, and key-check digests; key
material never appears in a trace or on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import identity, neat, overlay, session
from .hashing import TAG_NFT, owf
from .identity import APPID, BCADD, IdentitySecret, LinkageProof, ServiceProps
from .ledger import AssociationRecord, InvalidTx, Ledger, NftOwnership, RegistrationTx
from .neat import LookupStats, NeatTable, NetworkLocator
from .overlay import OverlayGraph, RoutePath
from .session import (
    ClientHandshake,
    HandshakeMessage,
    PeerCredentials,
    ServerHandshake,
    Session,
)
from .simnet import Delivery, Node, Simulator, Timer
from .wire import WireError

HEARTBEAT_PERIOD = 1


def token_id_for(name: str) -> bytes:
    """Stable 32-byte token id for a scenario-level token name."""
    return owf(TAG_NFT, name.encode("utf-8"))


@dataclass
class Metrics:
    """Counters aggregated over a run; all non-negative by construction."""

    handshakes_attempted: int = 0
    handshakes_succeeded: int = 0
    admissions_rejected: dict[str, int] = field(default_factory=dict)
    lookup_stats: LookupStats = field(default_factory=LookupStats)
    path_cost_histogram: dict[int, int] = field(default_factory=dict)
    rotations_completed: int = 0
    payloads_sent: int = 0
    payloads_accepted: int = 0
    payloads_denied: int = 0

    def reject_admission(self, reason: str) -> None:
        self.admissions_rejected[reason] = self.admissions_rejected.get(reason, 0) + 1

    def record_path(self, cost: int) -> None:
        self.path_cost_histogram[cost] = self.path_cost_histogram.get(cost, 0) + 1

    def validate(self) -> None:
        numbers = [
            self.handshakes_attempted, self.handshakes_succeeded,
            self.rotations_completed, self.payloads_sent,
            self.payloads_accepted, self.payloads_denied,
            *self.admissions_rejected.values(),
            *self.path_cost_histogram.values(),
        ]
        if any(n < 0 for n in numbers):
            raise ValueError("negative counter")
        if self.handshakes_succeeded > self.handshakes_attempted:
            raise ValueError("succeeded exceeds attempted")

    def to_dict(self) -> dict:
        self.validate()
        return {
            "handshakes_attempted": self.handshakes_attempted,
            "handshakes_succeeded": self.handshakes_succeeded,
            "admissions_rejected": dict(sorted(self.admissions_rejected.items())),
            "global_lookups": len(self.lookup_stats.probe_counts),
            "global_lookup_probes": sum(self.lookup_stats.probe_counts),
            "observed_bloom_fpr": round(self.lookup_stats.observed_fpr(), 6),
            "path_cost_histogram": {str(k): v for k, v in sorted(self.path_cost_histogram.items())},
            "rotations_completed": self.rotations_completed,
            "payloads_sent": self.payloads_sent,
            "payloads_accepted": self.payloads_accepted,
            "payloads_denied": self.payloads_denied,
        }


@dataclass
class World:
    """Shared control-plane state every node can read between rounds."""

    ledger: Ledger
    graph: OverlayGraph
    tables: dict[int, NeatTable]
    metrics: Metrics
    sequencer: str
    regulator: str
    strict_registration: bool = False
    horizon: int = 0


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmitTx:
    payload: Any
    nonce: bytes
    submitter: str


@dataclass(frozen=True)
class Envelope:
    """Data-plane wrapper forwarded hop by hop along an access-point
    route; origin_time is when the originator sent it, for end-to-end
    latency."""

    route: tuple[str, ...]
    hop: int
    src: str
    dst: str
    inner: Any
    origin_time: int
    route_cost: int = 0


@dataclass(frozen=True)
class ConnectRequest:
    client: str
    server_key: bytes  # APPID id to discover
    bcadd: BCADD
    appid: APPID
    proof: LinkageProof
    nonce: bytes


@dataclass(frozen=True)
class ConnectGrant:
    server_key: bytes
    route: tuple[str, ...]
    cost: int
    server_device: str


@dataclass(frozen=True)
class ConnectRefused:
    server_key: bytes
    reason: str


@dataclass(frozen=True)
class BindRequest:
    subject: bytes
    locator: NetworkLocator
    epoch: int = 0


@dataclass(frozen=True)
class UnbindRequest:
    subject: bytes


@dataclass(frozen=True)
class FilterSnapshot:
    segment: int
    snapshot: bytes


@dataclass(frozen=True)
class RegisterAttributes:
    subject: bytes
    attributes: dict


@dataclass(frozen=True)
class HandshakeEnvelope:
    message: HandshakeMessage


@dataclass(frozen=True)
class AppPayload:
    session_id: bytes
    seq: int
    body: bytes
    tag: bytes


@dataclass(frozen=True)
class PayloadReceipt:
    session_id: bytes
    seq: int
    accepted: bool
    reason: str


@dataclass(frozen=True)
class Heartbeat:
    session_id: bytes


@dataclass(frozen=True)
class RotationEnvelope:
    session_id: bytes
    notice: session.RotationNotice


# ---------------------------------------------------------------------------
# Node base
# ---------------------------------------------------------------------------

class ProtocolNode(Node):
    """Node with an identity, ledger access, and tx-submission plumbing."""

    # Runs the scenario's scripted actions: an object whose
    # run_action(node, action, now) each Timer("action", (index, action))
    # goes to. The runner sets it; without one, actions are ignored.
    action_driver: Any = None

    def __init__(self, name: str, segment: int, world: World):
        super().__init__(name, segment)
        self.world = world
        self._tx_counter = 0
        self.tokens: set[bytes] = set()  # tokens this node's current address owns

    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        seed = bytes(self.rng.getrandbits(8) for _ in range(identity.SEED_SIZE))
        self.secret = IdentitySecret(seed)
        self.bcadd = identity.derive_bcadd(self.secret, 0)

    def submit_tx(self, payload: Any) -> None:
        self._tx_counter += 1
        nonce = owf(b"txnonce:", self.name.encode(), self._tx_counter.to_bytes(8, "big"))[:16]
        self.sim.send(self.name, self.world.sequencer,
                      SubmitTx(payload=payload, nonce=nonce, submitter=self.name))

    def my_locator(self) -> NetworkLocator:
        return NetworkLocator(device_id=self.name, port=9000, segment=self.segment)

    def handle(self, payload: Any, now: int) -> None:
        if isinstance(payload, Delivery):
            message = payload.message
            if isinstance(message, Envelope) and not isinstance(self, AccessPointNode):
                # terminal hop: unwrap and keep provenance for replies
                self.on_routed(message, now)
            else:
                self.on_message(payload.src, message, now, payload.sent_at)
        elif isinstance(payload, Timer):
            if payload.tag != "action":
                self.on_timer(payload.tag, payload.data, now)
            elif self.action_driver is not None:
                self.action_driver.run_action(self, payload.data[1], now)

    def on_routed(self, envelope: Envelope, now: int) -> None:
        self.on_message(envelope.src, envelope.inner, now, envelope.origin_time)

    def on_message(self, src: str, message: Any, now: int, sent_at: int) -> None:
        pass

    def on_timer(self, tag: str, data: Any, now: int) -> None:
        pass


class SequencerNode(ProtocolNode):
    """Hosts the ledger; commits queued transactions every tick."""

    kind = "sequencer"

    def start(self) -> None:
        for tick in range(1, self.world.horizon + 1):
            self.sim.schedule(tick, self.name, Timer("commit"))

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, SubmitTx):
            try:
                self.world.ledger.submit(
                    message.payload, submitter=message.submitter,
                    at_time=now, nonce=message.nonce,
                )
            except (InvalidTx, WireError) as exc:  # refused, traced, dropped
                self.sim.trace.emit("tx-refused", now, submitter=message.submitter,
                                    reason=str(exc))

    def on_timer(self, tag, data, now):
        if tag == "commit":
            entries = self.world.ledger.commit_round()
            if entries:
                self.sim.trace.emit(
                    "commit", now,
                    count=len(entries),
                    head=entries[-1].entry_hash.hex()[:16],
                    seqs=[entry.seq for entry in entries],
                )


class RegulatorNode(ProtocolNode):
    """Holds the attribute registry behind identity.Regulator."""

    kind = "regulator"

    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        self.regulator = identity.Regulator(
            bytes(self.rng.getrandbits(8) for _ in range(32))
        )

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, RegisterAttributes):
            self.regulator.register(message.subject, message.attributes)
            self.sim.trace.emit("attributes-registered", now,
                                subject=message.subject.hex()[:16],
                                count=len(message.attributes))


class AccessPointNode(ProtocolNode):
    """Router: admission checks, discovery, routing, NEAT table custody."""

    kind = "router"

    def __init__(self, name: str, segment: int, world: World):
        super().__init__(name, segment, world)
        self.seen_nonces: set[bytes] = set()
        self.remote_filters: dict[int, bytes] = {}

    def register_self(self) -> None:
        self.submit_tx(RegistrationTx(
            kind="overlay-node", subject=self.bcadd.address,
            public_key=self.bcadd.public_key, epoch=self.bcadd.epoch,
        ))

    def _table(self) -> NeatTable:
        return self.world.tables[self.segment]

    def _push_snapshot(self) -> None:
        snapshot = FilterSnapshot(self.segment, self._table().snapshot())
        for node in self.sim.nodes.values():
            if isinstance(node, AccessPointNode) and node.name != self.name:
                self.sim.send(self.name, node.name, snapshot)

    def _refresh_graph(self) -> None:
        applied = self.world.graph.version
        updates = [(seq, upd) for seq, upd in self.world.ledger.query_topology()
                   if applied is None or seq > applied]
        if updates:
            self.world.graph.apply_topology(updates)

    def on_message(self, src, message, now, sent_at):
        # Forwards are nearly every router delivery, so test for them first;
        # the message types are disjoint, so the order changes nothing else.
        if isinstance(message, Envelope):
            self._forward(message)
        elif isinstance(message, BindRequest):
            self._handle_bind(message, now)
        elif isinstance(message, UnbindRequest):
            table = self._table()
            table.remove(message.subject)
            table.rebuild_filter()
            self.sim.trace.emit("neat-unbind", now, segment=self.segment,
                                key=message.subject.hex()[:16])
            self._push_snapshot()
        elif isinstance(message, FilterSnapshot):
            self.remote_filters[message.segment] = message.snapshot
        elif isinstance(message, ConnectRequest):
            self._handle_connect(message, now)

    def _handle_bind(self, message: BindRequest, now: int) -> None:
        table = self._table()
        try:
            table.insert(message.subject, message.locator)
        except neat.SegmentMismatch as exc:
            self.sim.trace.emit("neat-bind-refused", now, segment=self.segment, reason=str(exc))
            return
        self.sim.trace.emit("neat-bind", now, segment=self.segment,
                            key=message.subject.hex()[:16],
                            device=message.locator.device_id)
        self.submit_tx(AssociationRecord(
            subject=message.subject, attachment=self.name,
            segment=self.segment, epoch=message.epoch,
        ))
        self._push_snapshot()

    def _handle_connect(self, request: ConnectRequest, now: int) -> None:
        self._refresh_graph()
        if request.nonce in self.seen_nonces:
            self._refuse(request, session.ADMIT_STALE_NONCE, now)
            return
        reason = session.admission(
            request.appid, request.bcadd, request.proof, request.nonce,
            self.world.ledger, require_registration=self.world.strict_registration,
        )
        # A bad proof does not consume the nonce: anyone can send one, so
        # it must not be able to lock the honest holder out.
        if reason != session.ADMIT_BAD_PROOF:
            self.seen_nonces.add(request.nonce)
        if reason != session.ADMIT_OK:
            self._refuse(request, reason, now)
            return
        self.sim.trace.emit("admit", now, router=self.name, client=request.client,
                            decision=True)

        found, probes = neat.lookup_global(
            self.world.tables, request.server_key, self.world.metrics.lookup_stats
        )
        self.sim.trace.emit("lookup", now, key=request.server_key.hex()[:16],
                            probes=probes, found=found is not None)
        if found is None:
            self.sim.send(self.name, request.client,
                          ConnectRefused(request.server_key, "not-found"))
            return
        try:
            route = overlay.route_to_segment(self.world.graph, self.name, found.segment)
        except (overlay.Unresolvable, overlay.Disconnected) as exc:
            self.sim.trace.emit("route-failed", now, reason=str(exc))
            self.sim.send(self.name, request.client,
                          ConnectRefused(request.server_key, "no-route"))
            return
        self.world.metrics.record_path(route.total_cost)
        self.sim.trace.emit("route", now, hops=list(route.hops), cost=route.total_cost)
        self.sim.send(self.name, request.client, ConnectGrant(
            server_key=request.server_key, route=route.hops,
            cost=route.total_cost, server_device=found.device_id,
        ))

    def _refuse(self, request: ConnectRequest, reason: str, now: int) -> None:
        self.world.metrics.reject_admission(reason)
        self.sim.trace.emit("admit", now, router=self.name, client=request.client,
                            decision=False, reason=reason)
        self.sim.send(self.name, request.client, ConnectRefused(request.server_key, reason))

    def _forward(self, envelope: Envelope) -> None:
        if envelope.hop + 1 < len(envelope.route):
            nxt = envelope.route[envelope.hop + 1]
            self.sim.send(self.name, nxt, Envelope(
                envelope.route, envelope.hop + 1, envelope.src, envelope.dst,
                envelope.inner, envelope.origin_time, envelope.route_cost,
            ))
        else:
            self.sim.send(self.name, envelope.dst, envelope)


class _SessionEnd(ProtocolNode):
    """Session-endpoint behavior shared by users and app servers. Each
    session holds the route its messages take; a session without a key
    is closed."""

    def __init__(self, name: str, segment: int, world: World):
        super().__init__(name, segment, world)
        self.sessions: dict[bytes, Session] = {}
        self.peers: dict[bytes, str] = {}

    def session_with(self, peer: str) -> Session | None:
        for session_id, device in self.peers.items():
            if device == peer:
                return self.sessions.get(session_id)
        return None

    def send_routed(self, session_id: bytes, message: Any) -> None:
        route = self.sessions[session_id].route.hops
        self.sim.send(self.name, route[0], Envelope(
            route=route, hop=0, src=self.name, dst=self.peers[session_id],
            inner=message, origin_time=self.sim.now,
        ))

    def adopt_session(self, sess: Session, peer: str, now: int) -> None:
        self.sessions[sess.session_id] = sess
        self.peers[sess.session_id] = peer
        session.heartbeat(sess, now)
        self.sim.schedule(now + HEARTBEAT_PERIOD, self.name,
                          Timer("heartbeat", sess.session_id))

    def on_timer(self, tag, data, now):
        if tag == "heartbeat":
            sess = self.sessions.get(data)
            if sess is None or sess.key is None or now > self.world.horizon:
                return
            self.send_routed(data, Heartbeat(session_id=data))
            self.sim.schedule(now + HEARTBEAT_PERIOD, self.name, Timer("heartbeat", data))
        elif tag == "probe-alive":
            peer, label = data
            sess = self.session_with(peer)
            alive = False
            if sess is not None and sess.key is not None:
                alive = session.check_alive(sess, now).alive
            self.sim.trace.emit("probe", now, node=self.name, peer=peer,
                                label=label, alive=alive)

    def on_heartbeat(self, session_id: bytes, now: int, sent_at: int) -> None:
        sess = self.sessions.get(session_id)
        if sess is None or sess.key is None:
            return
        session.heartbeat(sess, now)
        session.record_delivery(sess, now - sent_at)


class UserNode(_SessionEnd):
    kind = "user"

    def __init__(self, name: str, segment: int, world: World,
                 access_point: str, attributes: dict[str, int | str] | None = None):
        super().__init__(name, segment, world)
        self.access_point = access_point
        self.attributes = dict(attributes or {})
        self.appids: dict[str, APPID] = {}
        # Handshakes in flight: server key -> (service id, machine, server
        # device); the machine and device arrive with the router's grant.
        self.pending: dict[bytes, tuple[str, ClientHandshake | None, str]] = {}
        self.next_seq: dict[bytes, int] = {}

    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        if self.attributes:
            self.secret = IdentitySecret(self.secret.seed, self.attributes)
            self.bcadd = identity.derive_bcadd(self.secret, 0)

    # -- scripted actions -----------------------------------------------------

    def do_register(self, now: int) -> None:
        self.submit_tx(RegistrationTx(
            kind="user", subject=self.bcadd.address,
            public_key=self.bcadd.public_key, epoch=self.bcadd.epoch,
        ))
        if self.attributes:
            self.sim.send(self.name, self.world.regulator,
                          RegisterAttributes(self.bcadd.address, dict(self.attributes)))

    def do_bind(self, now: int) -> None:
        self.sim.send(self.name, self.access_point,
                      BindRequest(subject=self.bcadd.address, locator=self.my_locator(),
                                  epoch=self.bcadd.epoch))

    def do_connect(self, server_key: bytes, service_id: str, now: int) -> None:
        service = ServiceProps(service_id)
        appid = self.appids.get(service_id)
        if appid is None or appid.epoch != self.bcadd.epoch:
            appid = identity.derive_appid(self.secret, self.bcadd, service)
            self.appids[service_id] = appid
        nonce = bytes(self.rng.getrandbits(8) for _ in range(identity.NONCE_SIZE))
        proof = identity.make_linkage_proof(self.secret, self.bcadd, appid, nonce)
        self.world.metrics.handshakes_attempted += 1
        self.pending[server_key] = (service_id, None, "")
        self.sim.send(self.name, self.access_point, ConnectRequest(
            client=self.name, server_key=server_key,
            bcadd=self.bcadd, appid=appid, proof=proof, nonce=nonce,
        ))

    def do_send_payloads(self, server: str, count: int, now: int) -> None:
        sess = self.session_with(server)
        if sess is None or sess.key is None:
            self.sim.trace.emit("payload-skip", now, node=self.name, reason="no-session")
            return
        for _ in range(count):
            seq = self.next_seq.get(sess.session_id, 0)
            self.next_seq[sess.session_id] = seq + 1
            body = b"payload-" + str(seq).encode()
            tag = session.message_tag(sess.key, seq, body)
            self.world.metrics.payloads_sent += 1
            self.send_routed(sess.session_id, AppPayload(sess.session_id, seq, body, tag))

    def do_rotate(self, now: int) -> None:
        """Advance the epoch: register and bind the new chain address,
        carry owned tokens over to it, announce the new APPID inside
        each live session."""
        services = [ServiceProps(s) for s in sorted(self.appids)]
        old_bcadd = self.bcadd
        new_bcadd, new_appids = identity.rotate(self.secret, old_bcadd, services)
        self.bcadd = new_bcadd
        by_service = {a.service.service_id: a for a in new_appids}
        self.submit_tx(RegistrationTx(
            kind="user", subject=new_bcadd.address,
            public_key=new_bcadd.public_key, epoch=new_bcadd.epoch,
        ))
        for token in sorted(self.tokens):
            # ledger-kept assets follow the holder across epochs
            self.submit_tx(NftOwnership(token_id=token, owner=new_bcadd.address))
        if self.attributes:
            self.sim.send(self.name, self.world.regulator,
                          RegisterAttributes(new_bcadd.address, dict(self.attributes)))
        self.sim.send(self.name, self.access_point, UnbindRequest(subject=old_bcadd.address))
        self.sim.send(self.name, self.access_point,
                      BindRequest(subject=new_bcadd.address, locator=self.my_locator(),
                                  epoch=new_bcadd.epoch))
        self.appids.update(by_service)
        for session_id, sess in self.sessions.items():
            if sess.key is None:
                continue
            new_appid = by_service.get(sess.client_appid.service.service_id)
            if new_appid is None:
                continue
            notice = session.make_rotation_notice(sess, self.secret, new_bcadd, new_appid)
            self.send_routed(session_id, RotationEnvelope(session_id, notice))
            session.rotate_session(sess, notice)  # sender switches immediately
            self.sim.trace.emit("rotation-sent", now, node=self.name,
                                session=session_id.hex()[:16], epoch=new_bcadd.epoch)

    # -- inbound ----------------------------------------------------------------

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, ConnectGrant):
            self._start_handshake(message, now)
        elif isinstance(message, ConnectRefused):
            self.sim.trace.emit("connect-refused", now, client=self.name,
                                reason=message.reason)
        elif isinstance(message, HandshakeEnvelope):
            self._continue_handshake(message.message, now)
        elif isinstance(message, Heartbeat):
            self.on_heartbeat(message.session_id, now, sent_at)
        elif isinstance(message, PayloadReceipt):
            if message.accepted:
                self.world.metrics.payloads_accepted += 1
            else:
                self.world.metrics.payloads_denied += 1

    def _start_handshake(self, grant: ConnectGrant, now: int) -> None:
        entry = self.pending.get(grant.server_key)
        if entry is None:
            return
        service_id = entry[0]
        creds = PeerCredentials(self.secret, self.bcadd, self.appids[service_id])
        route = RoutePath(grant.route, grant.cost)
        machine = ClientHandshake(creds, route, self.world.ledger, self.rng)
        self.pending[grant.server_key] = (service_id, machine, grant.server_device)
        hello = machine.hello()
        self.sim.trace.emit("handshake", now, phase="hello", node=self.name)
        self.sim.send(self.name, grant.route[0], Envelope(
            route=grant.route, hop=0, src=self.name, dst=grant.server_device,
            inner=HandshakeEnvelope(hello), origin_time=now, route_cost=grant.cost,
        ))

    def _continue_handshake(self, message: HandshakeMessage, now: int) -> None:
        server_key = message.sender_appid.id
        _, machine, device = self.pending.get(server_key, (None, None, None))
        if machine is None:
            return
        try:
            if message.phase == "challenge":
                machine.on_challenge(message)
                self.sim.trace.emit("handshake", now, phase="challenge", node=self.name)
            elif message.phase == "response":
                machine.on_response(message)
                confirm = machine.confirm()
                sess = machine.session()
                del self.pending[server_key]
                route = sess.route.hops
                self.sim.send(self.name, route[0], Envelope(
                    route=route, hop=0, src=self.name, dst=device,
                    inner=HandshakeEnvelope(confirm), origin_time=now,
                ))
                self.world.metrics.handshakes_succeeded += 1
                self.adopt_session(sess, device, now)
                self.sim.trace.emit(
                    "handshake", now, phase="established", node=self.name,
                    session=sess.session_id.hex()[:16],
                    key_check=sess.key_check().hex(),
                )
        except session.AuthFailed as exc:
            # The handshake stays open: a refused message proves nothing
            # about the server, since anyone can send one under its APPID.
            self.sim.trace.emit("handshake-failed", now, node=self.name,
                                phase=exc.phase, reason=exc.reason)


class AppServerNode(_SessionEnd):
    kind = "app-server"

    def __init__(self, name: str, segment: int, world: World,
                 access_point: str, service_id: str):
        super().__init__(name, segment, world)
        self.access_point = access_point
        self.service = ServiceProps(service_id)
        # Handshakes in flight: client APPID id -> (machine, client device).
        self.pending: dict[bytes, tuple[ServerHandshake, str]] = {}
        self.delivered: dict[bytes, list[int]] = {}

    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        self.appid = identity.derive_appid(self.secret, self.bcadd, self.service)

    def do_register(self, now: int, tokens: tuple[bytes, ...] = (),
                    open_access: bool = False) -> None:
        # Service-facing registration (subject = APPID) carries the
        # access-control list; identity-facing registration (subject =
        # chain address) anchors handshake verification.
        for subject in (self.appid.id, self.bcadd.address):
            self.submit_tx(RegistrationTx(
                kind="app-server", subject=subject,
                public_key=self.bcadd.public_key, epoch=self.bcadd.epoch,
                access_control=tokens, open_access=open_access,
            ))

    def do_bind(self, now: int) -> None:
        for subject in (self.appid.id, self.bcadd.address):
            self.sim.send(self.name, self.access_point,
                          BindRequest(subject=subject, locator=self.my_locator(),
                                      epoch=self.bcadd.epoch))

    def on_routed(self, envelope: Envelope, now: int) -> None:
        inner = envelope.inner
        if isinstance(inner, HandshakeEnvelope) and inner.message.phase == "hello":
            self._handle_hello(inner.message, envelope, now)
        else:
            self.on_message(envelope.src, inner, now, envelope.origin_time)

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, HandshakeEnvelope):
            if message.message.phase == "confirm":
                self._handle_confirm(message.message, now)
        elif isinstance(message, AppPayload):
            self._handle_payload(message, now, sent_at)
        elif isinstance(message, Heartbeat):
            self.on_heartbeat(message.session_id, now, sent_at)
        elif isinstance(message, RotationEnvelope):
            self._handle_rotation(message, now)

    def on_timer(self, tag, data, now):
        if tag == "authorize-probe":
            sess = self.session_with(data)
            if sess is None:
                self.sim.trace.emit("access", now, node=self.name, peer=data,
                                    allowed=False, reason="bad-proof", probe=True)
                return
            self._evaluate_access(sess, now, probe=True)
        else:
            super().on_timer(tag, data, now)

    def _handle_hello(self, message: HandshakeMessage, envelope: Envelope, now: int) -> None:
        creds = PeerCredentials(self.secret, self.bcadd, self.appid)
        forward = RoutePath(envelope.route, envelope.route_cost)
        machine = ServerHandshake(creds, forward, self.world.ledger, self.rng)
        try:
            challenge, response = machine.on_hello(message)
        except session.AuthFailed as exc:
            self.sim.trace.emit("handshake-failed", now, node=self.name,
                                phase=exc.phase, reason=exc.reason)
            return
        reply = tuple(reversed(envelope.route))
        self.pending[message.sender_appid.id] = (machine, envelope.src)
        for out in (challenge, response):
            self.sim.send(self.name, reply[0], Envelope(
                route=reply, hop=0, src=self.name, dst=envelope.src,
                inner=HandshakeEnvelope(out), origin_time=now,
            ))
        self.sim.trace.emit("handshake", now, phase="challenge", node=self.name)

    def _handle_confirm(self, message: HandshakeMessage, now: int) -> None:
        entry = self.pending.get(message.sender_appid.id)
        if entry is None:
            self.sim.trace.emit("handshake-failed", now, node=self.name,
                                phase="confirm", reason="no-pending-handshake")
            return
        machine, client = entry
        try:
            sess = machine.on_confirm(message)
        except session.AuthFailed as exc:
            # The handshake stays open for the client's own confirm.
            self.sim.trace.emit("handshake-failed", now, node=self.name,
                                phase=exc.phase, reason=exc.reason)
            return
        del self.pending[message.sender_appid.id]
        self.adopt_session(sess, client, now)
        self.sim.trace.emit(
            "handshake", now, phase="established", node=self.name,
            session=sess.session_id.hex()[:16], key_check=sess.key_check().hex(),
        )
        self._evaluate_access(sess, now)

    def _evaluate_access(self, sess: Session, now: int, probe: bool = False):
        decision = session.authorize(sess, self.world.ledger)
        self.sim.trace.emit("access", now, node=self.name,
                            session=sess.session_id.hex()[:16],
                            allowed=decision.allowed, reason=decision.reason,
                            probe=probe)
        return decision

    def _handle_payload(self, payload: AppPayload, now: int, sent_at: int) -> None:
        sess = self.sessions.get(payload.session_id)
        if sess is None or sess.key is None:
            return
        if not session.verify_message(sess, payload.seq, payload.body, payload.tag):
            self.sim.trace.emit("payload", now, node=self.name, seq=payload.seq,
                                accepted=False, reason="bad-tag")
            self.send_routed(payload.session_id,
                             PayloadReceipt(payload.session_id, payload.seq, False, "bad-tag"))
            return
        decision = self._evaluate_access(sess, now)
        if not decision.allowed:
            self.sim.trace.emit("payload", now, node=self.name, seq=payload.seq,
                                accepted=False, reason=decision.reason)
            self.send_routed(payload.session_id,
                             PayloadReceipt(payload.session_id, payload.seq, False,
                                            decision.reason))
            return
        self.delivered.setdefault(payload.session_id, []).append(payload.seq)
        session.record_delivery(sess, now - sent_at)
        self.sim.trace.emit("payload", now, node=self.name, seq=payload.seq, accepted=True)
        self.send_routed(payload.session_id,
                         PayloadReceipt(payload.session_id, payload.seq, True, "ok"))

    def _handle_rotation(self, envelope: RotationEnvelope, now: int) -> None:
        sess = self.sessions.get(envelope.session_id)
        if sess is None:
            return
        try:
            session.rotate_session(sess, envelope.notice)
        except session.ContinuityRejected as exc:
            self.sim.trace.emit("rotation-rejected", now, node=self.name, reason=str(exc))
            return
        self.world.metrics.rotations_completed += 1
        self.sim.trace.emit("rotation", now, node=self.name,
                            session=envelope.session_id.hex()[:16],
                            epoch=sess.client_appid.epoch,
                            key_check=sess.key_check().hex())
