"""Protocol behavior of the five node kinds inside the simulator.

Users, access points (routers), application servers, the regulator, and
the single sequencer exchange the messages defined here. Control-plane
writes (registrations, token ownership, topology) travel to the
sequencer and commit in rounds; the committed ledger is readable by
every node between rounds. A router keeps who is bound where in its
segment's NEAT table only, never on the ledger. Data-plane messages
ride Envelopes hop by hop along computed access-point routes.

Traces record message kinds, decisions, and key-check digests; key
material never appears in a trace or on the wire.

Nodes model the protocol only. The scenario's script (its actions and
the probes behind its expectations) is run by the runner as simulator
control events, which call the `do_*` steps here and enter no node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from . import ahead, identity, neat, overlay, session
from .hashing import TAG_NFT, owf
from .identity import APPID, BCADD, IdentitySecret, LinkageProof, ServiceProps
from .ledger import InvalidTx, Ledger, NftOwnership, RegistrationTx
from .neat import LookupStats, NeatTable, NetworkLocator
from .overlay import OverlayGraph, RoutePath
from .session import (
    ClientHandshake,
    HandshakeMessage,
    PeerCredentials,
    ServerHandshake,
    Session,
)
from .simnet import Delivery, Node, Simulator, Timer, UnknownTarget, new_tuple, record
from .wire import pack_u64

# A session end sends a Heartbeat only after a whole period with no other
# in-session message for that session: any message refreshes liveness. Its
# timer is re-armed a period after the last in-session send. The peer's
# timeout is session.HEARTBEAT_TIMEOUT (5), so it tolerates one lost
# heartbeat, and two in a row read as not alive.
HEARTBEAT_PERIOD = 2
_PUSH_SUMMARY = Timer("push-summary")
_FLUSH_RECEIPTS = Timer("flush-receipts")
_COMMIT = Timer("commit")

# Trace record writers, one per record shape; each is called as
# writer(trace, time, *values), in the order of its fields.
_trace_tx_refused = record("tx-refused", "submitter", "reason")
_trace_commit = record("commit", "count", "head", "seqs")
_trace_attributes_refused = record("attributes-refused", "submitter", "reason")
_trace_attributes_registered = record("attributes-registered", "subject", "count")
_trace_router_dropped = record("envelope-dropped", "router", "target", reason="unknown-node")
_trace_end_dropped = record("envelope-dropped", "node", "target", reason="unknown-node")
_trace_neat_bind = record("neat-bind", "segment", "key", "device")
_trace_neat_bind_refused = record("neat-bind-refused", "segment", "reason")
_trace_neat_unbind = record("neat-unbind", "segment", "key")
_trace_admitted = record("admit", "router", "client", decision=True)
_trace_admit_refused = record("admit", "router", "client", "reason", decision=False)
_trace_lookup = record("lookup", "key", "probes", "found")
_trace_route = record("route", "hops", "cost")
_trace_route_failed = record("route-failed", "reason")
_trace_connect_refused = record("connect-refused", "client", "reason")
_trace_hello = record("handshake", "node", phase="hello")
_trace_challenge = record("handshake", "node", phase="challenge")
_trace_established = record("handshake", "node", "session", "key_check", phase="established")
_trace_handshake_failed = record("handshake-failed", "node", "phase", "reason")
_trace_payload_skip = record("payload-skip", "node", reason="no-session")
_trace_rotation_sent = record("rotation-sent", "node", "session", "epoch")
_trace_access = record("access", "node", "session", "allowed", "reason", "probe")
_trace_payload_accepted = record("payload", "node", "seq", accepted=True)
_trace_payload_refused = record("payload", "node", "seq", "reason", accepted=False)
_trace_rotation = record("rotation", "node", "session", "epoch", "key_check")
_trace_rotation_rejected = record("rotation-rejected", "node", "reason")


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

    def to_dict(self) -> dict:
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
    """A ledger write; the sequencer takes its submitter from the sender."""

    payload: Any
    nonce: bytes


class Envelope(NamedTuple):
    """Data-plane wrapper forwarded hop by hop along an access-point
    route; origin_time is when the originator sent it, for end-to-end
    latency. A NamedTuple, because every hop builds one: the forward and
    in-session paths build it with simnet.new_tuple, every field given."""

    route: tuple[str, ...]
    hop: int
    src: str
    dst: str
    inner: Any
    origin_time: int
    route_cost: int = 0


@dataclass(frozen=True)
class ConnectRequest:
    """Sent by the client to its own router, which answers the sender."""

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
    """The server's answers to one session's payloads of one tick, as
    (seq, accepted, reason) in arrival order."""

    session_id: bytes
    results: tuple[tuple[int, bool, str], ...]


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
        nonce = owf(b"txnonce:", self.name.encode(), pack_u64(self._tx_counter))[:16]
        self.sim.send(self.name, self.world.sequencer, SubmitTx(payload=payload, nonce=nonce))

    def _register(self, kind: str, subject: bytes | None = None, **access: Any) -> None:
        """Register subject (by default the current chain address) under
        the current key and epoch."""
        bcadd = self.bcadd
        self.submit_tx(RegistrationTx(
            kind=kind, subject=bcadd.address if subject is None else subject,
            public_key=bcadd.public_key, epoch=bcadd.epoch, **access,
        ))

    def handle(self, payload: Any, now: int) -> None:
        # Each subclass defines on_message, and on_timer if it schedules
        # timers to itself; none overrides handle: the benchmark's tracer
        # rebinds handle on every node class to this one.
        if isinstance(payload, Delivery):
            message = payload.message
            if isinstance(message, Envelope):
                self.on_routed(message, now)
            else:
                self.on_message(payload.src, message, now, payload.sent_at)
        elif isinstance(payload, Timer):
            self.on_timer(payload.tag, payload.data, now)

    def on_routed(self, envelope: Envelope, now: int) -> None:
        """An Envelope arrived. At a session end it is the last hop:
        unwrap it and keep its provenance for replies."""
        self.on_message(envelope.src, envelope.inner, now, envelope.origin_time)


class SequencerNode(ProtocolNode):
    """Hosts the ledger; commits queued transactions every tick."""

    kind = "sequencer"

    def start(self) -> None:
        for tick in range(1, self.world.horizon + 1):
            self.sim.schedule(tick, self.name, _COMMIT)

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, SubmitTx):
            try:
                self.world.ledger.submit(message.payload, submitter=src,
                                         at_time=now, nonce=message.nonce)
            except InvalidTx as exc:  # refused, traced, dropped
                _trace_tx_refused(self.sim.trace, now, src, str(exc))

    def on_timer(self, tag, data, now):
        if tag == "commit":
            entries = self.world.ledger.commit_round()
            if entries:
                _trace_commit(self.sim.trace, now, len(entries),
                              entries[-1].entry_hash.hex()[:16], [entry.seq for entry in entries])


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
            try:
                self.regulator.register(message.subject, message.attributes)
            except ValueError as exc:  # refused, traced, dropped
                _trace_attributes_refused(self.sim.trace, now, src, str(exc))
                return
            _trace_attributes_registered(self.sim.trace, now, message.subject.hex()[:16],
                                         len(message.attributes))


class AccessPointNode(ProtocolNode):
    """Router: admission checks, discovery, routing, NEAT table custody."""

    kind = "router"

    def __init__(self, name: str, segment: int, world: World):
        super().__init__(name, segment, world)
        self.seen_nonces: set[bytes] = set()
        self.remote_filters: dict[int, bytes] = {}
        self._summary_dirty = False  # a push is scheduled for this tick
        self._peers: list[str] | None = None  # the other routers, on first push

    def register_self(self) -> None:
        self._register("overlay-node")

    def _table(self) -> NeatTable:
        return self.world.tables[self.segment]

    def _mark_summary_dirty(self, now: int) -> None:
        """Push the table's summary once this tick's other events are done:
        at most one push per tick, however many binds and unbinds."""
        if not self._summary_dirty:
            self._summary_dirty = True
            self.sim.schedule(now, self.name, _PUSH_SUMMARY)

    def _push_snapshot(self) -> None:
        if self._peers is None:
            # Every router is added before the run starts, in declaration order.
            self._peers = [node.name for node in self.sim.nodes.values()
                           if isinstance(node, AccessPointNode) and node is not self]
        snapshot = FilterSnapshot(self.segment, self._table().snapshot())
        send, name = self.sim.send, self.name
        for peer in self._peers:
            send(name, peer, snapshot)

    def _refresh_graph(self) -> None:
        applied = self.world.graph.version
        updates = [(seq, upd) for seq, upd in self.world.ledger.query_topology()
                   if applied is None or seq > applied]
        if updates:
            self.world.graph.apply_topology(updates)

    def on_routed(self, envelope: Envelope, now: int) -> None:
        route, hop, src, dst, inner, origin_time, route_cost = envelope
        hop += 1
        # The sender wrote the route and dst: one naming no node is dropped.
        try:
            if hop < len(route):
                self.sim.send(self.name, route[hop], new_tuple(
                    Envelope, (route, hop, src, dst, inner, origin_time, route_cost)))
            else:
                self.sim.send(self.name, dst, envelope)
        except UnknownTarget as exc:
            _trace_router_dropped(self.sim.trace, now, self.name, str(exc))

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, BindRequest):
            self._handle_bind(message, now)
        elif isinstance(message, UnbindRequest):
            table = self._table()
            table.remove(message.subject)
            table.rebuild_filter()
            _trace_neat_unbind(self.sim.trace, now, self.segment, message.subject.hex()[:16])
            self._mark_summary_dirty(now)
        elif isinstance(message, FilterSnapshot):
            self.remote_filters[message.segment] = message.snapshot
        elif isinstance(message, ConnectRequest):
            self._handle_connect(src, message, now)

    def on_timer(self, tag, data, now):
        if tag == "push-summary":
            self._summary_dirty = False
            self._push_snapshot()

    def _handle_bind(self, message: BindRequest, now: int) -> None:
        table = self._table()
        try:
            table.insert(message.subject, message.locator)
        except (neat.SegmentMismatch, ValueError) as exc:
            _trace_neat_bind_refused(self.sim.trace, now, self.segment, str(exc))
            return
        _trace_neat_bind(self.sim.trace, now, self.segment, message.subject.hex()[:16],
                         message.locator.device_id)
        self._mark_summary_dirty(now)

    def _handle_connect(self, client: str, request: ConnectRequest, now: int) -> None:
        self._refresh_graph()
        if request.nonce in self.seen_nonces:
            self._refuse(client, request, session.ADMIT_STALE_NONCE, now)
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
            self._refuse(client, request, reason, now)
            return
        _trace_admitted(self.sim.trace, now, self.name, client)

        found, probes = neat.lookup_global(
            self.world.tables, request.server_key, self.world.metrics.lookup_stats
        )
        _trace_lookup(self.sim.trace, now, request.server_key.hex()[:16], probes,
                      found is not None)
        if found is None:
            self.sim.send(self.name, client, ConnectRefused(request.server_key, "not-found"))
            return
        try:
            route = overlay.route_to_segment(self.world.graph, self.name, found.segment)
        except (overlay.Unresolvable, overlay.Disconnected) as exc:
            _trace_route_failed(self.sim.trace, now, str(exc))
            self.sim.send(self.name, client, ConnectRefused(request.server_key, "no-route"))
            return
        self.world.metrics.record_path(route.total_cost)
        _trace_route(self.sim.trace, now, list(route.hops), route.total_cost)
        self.sim.send(self.name, client, ConnectGrant(
            server_key=request.server_key, route=route.hops,
            cost=route.total_cost, server_device=found.device_id,
        ))

    def _refuse(self, client: str, request: ConnectRequest, reason: str, now: int) -> None:
        self.world.metrics.reject_admission(reason)
        _trace_admit_refused(self.sim.trace, now, self.name, client, reason)
        self.sim.send(self.name, client, ConnectRefused(request.server_key, reason))


class _Held:
    """All a session end keeps per held session: the Session, its peer and
    route hops, its two heartbeat timers (each carries this record) and
    its Heartbeat, each built once, the tick of its last in-session send
    or queued send, from which the wake timer is re-armed, a user's next
    payload seq and a server's payload results queued this tick for one
    receipt."""

    __slots__ = ("session", "peer", "hops", "timer", "beat_timer", "beat", "last_sent",
                 "next_seq", "results")

    def __init__(self, sess: Session, peer: str):
        self.session = sess
        self.peer = peer
        self.hops = sess.route.hops
        self.timer = Timer("heartbeat", self)
        self.beat_timer = Timer("beat", self)
        self.beat = Heartbeat(sess.session_id)
        self.last_sent: int | None = None
        self.next_seq = 0
        self.results: list[tuple[int, bool, str]] = []


class _SessionEnd(ProtocolNode):
    """Session-endpoint behavior shared by users and app servers. Each
    session holds the route its messages take.

    Every session an end holds has a key: adopt_session takes only
    sessions a handshake established. A session ends only by its end
    dropping its _Held record; nothing in the simulator does so yet, so
    an end tests only whether it holds the session.

    Liveness is the gap since the last accepted in-session message. A
    session's wake timer fires HEARTBEAT_PERIOD ticks after this end's
    last in-session send (or after the session opens); a busy session's
    finds a newer send and is re-armed from it. If the end has been silent
    a whole period, the beat timer runs at the end of the tick and sends
    a Heartbeat unless the tick's deliveries made the end send, or queue,
    another in-session message for that session; the peer takes that
    message as liveness."""

    def __init__(self, name: str, segment: int, world: World, access_point: str):
        super().__init__(name, segment, world)
        self.access_point = access_point
        self.held: dict[bytes, _Held] = {}
        # peer -> the first session adopted with it, which stays held:
        # nothing removes a held session
        self._first_with: dict[str, _Held] = {}

    def session_with(self, peer: str) -> Session | None:
        """The first session this end adopted with peer, if any."""
        held = self._first_with.get(peer)
        return None if held is None else held.session

    def _bind(self, subject: bytes) -> None:
        locator = NetworkLocator(device_id=self.name, port=9000, segment=self.segment)
        self.sim.send(self.name, self.access_point, BindRequest(subject, locator))

    def send_routed(self, route: tuple[str, ...], dst: str, inner: Any, cost: int = 0) -> None:
        """Wrap inner in an Envelope to dst and send it to the route's first
        hop. The route came in a message: one whose first hop names no node
        is dropped."""
        now = self.sim.now
        try:
            self.sim.send(self.name, route[0], Envelope(route, 0, self.name, dst, inner, now, cost))
        except UnknownTarget as exc:
            _trace_end_dropped(self.sim.trace, now, self.name, str(exc))

    def send_in_session(self, held: _Held, message: Any) -> None:
        """Send message to the peer of a held session, along its route."""
        now = held.last_sent = self.sim.now
        self.sim.send(self.name, held.hops[0], new_tuple(
            Envelope, (held.hops, 0, self.name, held.peer, message, now, 0)))

    def adopt_session(self, sess: Session, peer: str, now: int) -> None:
        """Open an established session with peer and start its heartbeats."""
        held = self.held[sess.session_id] = _Held(sess, peer)
        self._first_with.setdefault(peer, held)
        session.heartbeat(sess, now)
        self.sim.schedule(now + HEARTBEAT_PERIOD, self.name, held.timer)
        _trace_established(self.sim.trace, now, self.name, sess.session_id.hex()[:16],
                           sess.key_check().hex())

    def _handshake_failed(self, phase: str, reason: str, now: int) -> None:
        _trace_handshake_failed(self.sim.trace, now, self.name, phase, reason)

    def on_timer(self, tag, data, now):
        # Both heartbeat timers carry their held session's record.
        held = data
        if tag == "heartbeat" and now <= self.world.horizon:
            if held.last_sent is None or now - held.last_sent >= HEARTBEAT_PERIOD:
                # Silent for a period: decide once the deliveries already
                # queued for this tick have run, so that a reply they cause
                # stands in for the beat.
                self.sim.schedule(now, self.name, held.beat_timer)
                return
        elif tag == "beat":
            if held.last_sent != now:
                self.send_in_session(held, held.beat)
        else:
            return
        self.sim.schedule(held.last_sent + HEARTBEAT_PERIOD, self.name, held.timer)

    def on_heartbeat(self, session_id: bytes, now: int, sent_at: int) -> None:
        held = self.held.get(session_id)
        if held is None:
            return
        sess = held.session
        session.heartbeat(sess, now)
        session.record_delivery(sess, now - sent_at)


class UserNode(_SessionEnd):
    kind = "user"

    def __init__(self, name: str, segment: int, world: World,
                 access_point: str, attributes: dict[str, int | str] | None = None):
        super().__init__(name, segment, world, access_point)
        self.attributes = dict(attributes or {})
        self.appids: dict[str, APPID] = {}
        # Handshakes in flight: server key -> (service id, machine, server
        # device); the machine and device arrive with the router's grant.
        self.pending: dict[bytes, tuple[str, ClientHandshake | None, str]] = {}

    # -- scripted actions -----------------------------------------------------

    def do_register(self, now: int) -> None:
        self._register("user")
        if self.attributes:
            self.sim.send(self.name, self.world.regulator,
                          RegisterAttributes(self.bcadd.address, dict(self.attributes)))

    def do_bind(self, now: int) -> None:
        self._bind(self.bcadd.address)

    def do_connect(self, server_key: bytes, service_id: str, now: int) -> None:
        appid = identity.derive_appid(self.secret, self.bcadd, ServiceProps(service_id))
        self.appids[service_id] = appid
        nonce = bytes(self.rng.getrandbits(8) for _ in range(identity.NONCE_SIZE))
        proof = identity.make_linkage_proof(self.secret, self.bcadd, appid, nonce)
        self.world.metrics.handshakes_attempted += 1
        self.pending[server_key] = (service_id, None, "")
        self.sim.send(self.name, self.access_point, ConnectRequest(
            server_key=server_key, bcadd=self.bcadd, appid=appid, proof=proof, nonce=nonce,
        ))

    def do_send_payloads(self, server: str, count: int, now: int) -> None:
        held = self._first_with.get(server)
        if held is None:
            _trace_payload_skip(self.sim.trace, now, self.name)
            return
        sess = held.session
        for _ in range(count):
            seq = held.next_seq
            held.next_seq = seq + 1
            body = b"payload-" + str(seq).encode()
            tag = session.message_tag(sess.key, seq, body)
            self.world.metrics.payloads_sent += 1
            self.send_in_session(held, AppPayload(sess.session_id, seq, body, tag))

    def do_rotate(self, now: int) -> None:
        """Advance the epoch: register and bind the new chain address,
        carry owned tokens over to it, announce the new APPID inside
        each live session."""
        services = [ServiceProps(s) for s in sorted(self.appids)]
        old_bcadd = self.bcadd
        new_bcadd, new_appids = identity.rotate(self.secret, old_bcadd, services)
        self.bcadd = new_bcadd
        by_service = {a.service.service_id: a for a in new_appids}
        self._register("user")
        for token in sorted(self.tokens):
            # ledger-kept assets follow the holder across epochs
            self.submit_tx(NftOwnership(token_id=token, owner=new_bcadd.address))
        if self.attributes:
            self.sim.send(self.name, self.world.regulator,
                          RegisterAttributes(new_bcadd.address, dict(self.attributes)))
        self.sim.send(self.name, self.access_point, UnbindRequest(subject=old_bcadd.address))
        self._bind(new_bcadd.address)
        self.appids.update(by_service)
        for session_id, held in self.held.items():
            sess = held.session
            new_appid = by_service.get(sess.client_appid.service.service_id)
            if new_appid is None:
                continue
            notice = session.make_rotation_notice(sess, self.secret, new_bcadd, new_appid)
            self.send_in_session(held, RotationEnvelope(session_id, notice))
            # The sender switches at once, to the chain address it derived:
            # the notice is its own, so it has nothing to verify.
            session.switch_session(sess, notice, new_bcadd)
            # The next rotation's proof message is fixed now: sign it ahead,
            # where the helper takes submissions.
            if ahead.AHEAD.submitting:
                identity.sign_linkage_ahead(self.secret, new_bcadd.epoch + 1, new_appid.service,
                                            session.next_rotation_nonce(sess))
            _trace_rotation_sent(self.sim.trace, now, self.name, session_id.hex()[:16],
                                 new_bcadd.epoch)

    # -- inbound ----------------------------------------------------------------

    def on_message(self, src, message, now, sent_at):
        if isinstance(message, ConnectGrant):
            self._start_handshake(message, now)
        elif isinstance(message, ConnectRefused):
            _trace_connect_refused(self.sim.trace, now, self.name, message.reason)
        elif isinstance(message, HandshakeEnvelope):
            self._continue_handshake(message.message, now)
        elif isinstance(message, Heartbeat):
            self.on_heartbeat(message.session_id, now, sent_at)
        elif isinstance(message, PayloadReceipt):
            # Only a receipt for a held session counts, as liveness and
            # as payloads answered.
            held = self.held.get(message.session_id)
            if held is None:
                return
            session.heartbeat(held.session, now)
            accepted = sum(1 for _, ok, _ in message.results if ok)
            self.world.metrics.payloads_accepted += accepted
            self.world.metrics.payloads_denied += len(message.results) - accepted

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
        _trace_hello(self.sim.trace, now, self.name)
        self.send_routed(grant.route, grant.server_device, HandshakeEnvelope(hello), grant.cost)

    def _continue_handshake(self, message: HandshakeMessage, now: int) -> None:
        server_key = message.sender_appid.id
        _, machine, device = self.pending.get(server_key, (None, None, None))
        if machine is None:
            return
        try:
            if message.phase == "challenge":
                machine.on_challenge(message)
                _trace_challenge(self.sim.trace, now, self.name)
            elif message.phase == "response":
                machine.on_response(message)
                confirm = machine.confirm()
                sess = machine.session()
                del self.pending[server_key]
                self.send_routed(sess.route.hops, device, HandshakeEnvelope(confirm))
                self.world.metrics.handshakes_succeeded += 1
                self.adopt_session(sess, device, now)
        except session.AuthFailed as exc:
            # The handshake stays open: a refused message proves nothing
            # about the server, since anyone can send one under its APPID.
            self._handshake_failed(exc.phase, exc.reason, now)


class AppServerNode(_SessionEnd):
    kind = "app-server"

    def __init__(self, name: str, segment: int, world: World,
                 access_point: str, service_id: str):
        super().__init__(name, segment, world, access_point)
        self.service = ServiceProps(service_id)
        # Handshakes in flight: client APPID id -> (machine, client device).
        self.pending: dict[bytes, tuple[ServerHandshake, str]] = {}
        # The held sessions with payload results queued this tick, each
        # answered with one receipt once the tick's other events are done,
        # heartbeat timers included.
        self._unanswered: list[_Held] = []

    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        self.appid = identity.derive_appid(self.secret, self.bcadd, self.service)

    def do_register(self, now: int, tokens: tuple[bytes, ...] = (),
                    open_access: bool = False) -> None:
        # Service-facing registration (subject = APPID) carries the
        # access-control list; identity-facing registration (subject =
        # chain address) anchors handshake verification.
        for subject in (self.appid.id, self.bcadd.address):
            self._register("app-server", subject,
                           access_control=tokens, open_access=open_access)

    def do_bind(self, now: int) -> None:
        for subject in (self.appid.id, self.bcadd.address):
            self._bind(subject)

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
        if tag == "flush-receipts":
            unanswered, self._unanswered = self._unanswered, []
            for held in unanswered:
                results, held.results = held.results, []
                self.send_in_session(held, PayloadReceipt(held.session.session_id, tuple(results)))
        else:
            super().on_timer(tag, data, now)

    def _queue_receipt(self, held: _Held, seq: int, accepted: bool,
                       reason: str, now: int) -> None:
        """Queue a payload's result for the tick's receipt to its session.
        A queued receipt counts as sent, so the session's heartbeat timer
        sends nothing if it fires later in the tick; the flush itself runs
        after the tick's heartbeat timers."""
        if not held.results:
            if not self._unanswered:
                self.sim.schedule(now, self.name, _FLUSH_RECEIPTS)
            self._unanswered.append(held)
            held.last_sent = now
        held.results.append((seq, accepted, reason))

    def _handle_hello(self, message: HandshakeMessage, envelope: Envelope, now: int) -> None:
        creds = PeerCredentials(self.secret, self.bcadd, self.appid)
        forward = RoutePath(envelope.route, envelope.route_cost)
        machine = ServerHandshake(creds, forward, self.world.ledger, self.rng)
        try:
            challenge, response = machine.on_hello(message)
        except session.AuthFailed as exc:
            self._handshake_failed(exc.phase, exc.reason, now)
            return
        reply = tuple(reversed(envelope.route))
        self.pending[message.sender_appid.id] = (machine, envelope.src)
        for out in (challenge, response):
            self.send_routed(reply, envelope.src, HandshakeEnvelope(out))
        _trace_challenge(self.sim.trace, now, self.name)

    def _handle_confirm(self, message: HandshakeMessage, now: int) -> None:
        entry = self.pending.get(message.sender_appid.id)
        if entry is None:
            self._handshake_failed("confirm", "no-pending-handshake", now)
            return
        machine, client = entry
        try:
            sess = machine.on_confirm(message)
        except session.AuthFailed as exc:
            # The handshake stays open for the client's own confirm.
            self._handshake_failed(exc.phase, exc.reason, now)
            return
        del self.pending[message.sender_appid.id]
        self.adopt_session(sess, client, now)
        self.evaluate_access(sess, now)

    def evaluate_access(self, sess: Session, now: int, probe: bool = False):
        decision = session.authorize(sess, self.world.ledger)
        _trace_access(self.sim.trace, now, self.name, sess.session_id.hex()[:16],
                      decision.allowed, decision.reason, probe)
        return decision

    def _handle_payload(self, payload: AppPayload, now: int, sent_at: int) -> None:
        held = self.held.get(payload.session_id)
        if held is None:
            return
        sess = held.session
        if not session.verify_message(sess, payload.seq, payload.body, payload.tag):
            refused = "bad-tag"
        elif payload.seq <= sess.highest_seq:
            refused = "replay"
        else:
            # Authentic and fresh: the client is alive, whatever access says.
            session.heartbeat(sess, now)
            decision = self.evaluate_access(sess, now)
            refused = None if decision.allowed else decision.reason
        if refused is not None:
            _trace_payload_refused(self.sim.trace, now, self.name, payload.seq, refused)
            self._queue_receipt(held, payload.seq, False, refused, now)
            return
        sess.payloads_accepted += 1
        sess.highest_seq = payload.seq
        session.record_delivery(sess, now - sent_at)
        _trace_payload_accepted(self.sim.trace, now, self.name, payload.seq)
        self._queue_receipt(held, payload.seq, True, "ok", now)

    def _handle_rotation(self, envelope: RotationEnvelope, now: int) -> None:
        held = self.held.get(envelope.session_id)
        if held is None:
            return
        sess = held.session
        try:
            session.rotate_session(sess, envelope.notice)
        except session.ContinuityRejected as exc:
            _trace_rotation_rejected(self.sim.trace, now, self.name, str(exc))
            return
        session.heartbeat(sess, now)
        self.world.metrics.rotations_completed += 1
        _trace_rotation(self.sim.trace, now, self.name, envelope.session_id.hex()[:16],
                        sess.client_appid.epoch, sess.key_check().hex())
