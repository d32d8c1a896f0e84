"""Mutually authenticated service sessions between APPIDs.

Four-phase handshake: hello (client nonce + key share), challenge
(server nonce + key share), response (server's linkage proof), confirm
(client's linkage proof). Both proofs bind the combined session nonce,
and each side checks the peer's proof against the peer's ledger-
registered chain address, so authentication is mutual and anchored in
the ledger rather than any certificate authority.

The session key is derived from an ephemeral X25519 exchange and the
running transcript hash; no message field carries key material. APPID
rotation rides inside the established session: the notice is
authenticated with the old key, the key is re-derived, and the old
key stops verifying anything.

A session is open exactly while it holds a key: the handshake gives it
one, rotation replaces it, and close() drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from .hashing import (
    TAG_HS_NONCE,
    TAG_KEYCHECK,
    TAG_MSG_AUTH,
    TAG_REKEY,
    TAG_ROT_AUTH,
    TAG_ROT_NONCE,
    TAG_SESSION_ID,
    TAG_SESSION_KEY,
    TAG_TRANSCRIPT,
    owf,
    u32,
    u64,
)
from .identity import (
    APPID,
    BCADD,
    NONCE_SIZE,
    IdentitySecret,
    LinkageProof,
    make_linkage_proof,
    verify_linkage,
)
from .ledger import Ledger
from .overlay import RoutePath
from .wire import Reader, WireError, pack_bytes, pack_str, pack_u8

# A peer is alive while its last heartbeat is at most this many ticks old.
HEARTBEAT_TIMEOUT = 5

ADMIT_OK = "admitted"
ADMIT_BAD_PROOF = "bad-proof"
ADMIT_UNREGISTERED = "unregistered"
ADMIT_STALE_NONCE = "stale-nonce"


class AuthFailed(Exception):
    """Handshake aborted; carries the phase and the reason."""

    def __init__(self, phase: str, reason: str):
        super().__init__(f"{phase}: {reason}")
        self.phase = phase
        self.reason = reason


class ContinuityRejected(Exception):
    """Rotation notice refused (bad proof or not delivered in-session)."""


@dataclass(frozen=True)
class HandshakeMessage:
    phase: str
    sender_appid: APPID
    nonce: bytes
    ephemeral_public: bytes  # X25519 share on hello/challenge, empty after
    transcript_hash: bytes   # digest of all prior phases
    linkage: LinkageProof | None = None  # response/confirm only

    def to_bytes(self) -> bytes:
        body = (
            pack_str(self.phase)
            + pack_bytes(self.sender_appid.to_bytes())
            + self.nonce
            + pack_bytes(self.ephemeral_public)
            + self.transcript_hash
        )
        if self.linkage is None:
            return body + pack_u8(0)
        return body + pack_u8(1) + pack_bytes(self.linkage.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "HandshakeMessage":
        r = Reader(data)
        phase = r.str_()
        appid = APPID.from_bytes(r.bytes_())
        nonce = r.take(NONCE_SIZE)
        ephemeral = r.bytes_()
        transcript = r.take(32)
        linkage = LinkageProof.from_bytes(r.bytes_()) if r.u8() else None
        r.expect_end()
        return cls(phase, appid, nonce, ephemeral, transcript, linkage)


@dataclass
class ServiceStatus:
    """Peer liveness and delivery quality, in sim-time units."""

    alive: bool = True
    last_heartbeat: int = 0
    quality: float = 0.0
    deliveries: int = 0

    def beat(self, now: int) -> None:
        self.last_heartbeat = now
        self.alive = True

    def record_delivery(self, latency: float) -> None:
        self.deliveries += 1
        self.quality += (latency - self.quality) / self.deliveries

    def check(self, now: int, timeout: int) -> bool:
        self.alive = (now - self.last_heartbeat) <= timeout
        return self.alive


@dataclass
class Session:
    """One endpoint's view of an established tunnel: the path its
    messages take to the peer, and the client's proven chain address.

    Both endpoints hold equal keys after a successful handshake. The
    session is open iff it holds a key; close() drops the key.
    """

    session_id: bytes
    client_appid: APPID
    server_appid: APPID
    route: RoutePath
    key: bytes | None
    client_bcadd: BCADD
    status: ServiceStatus = field(default_factory=ServiceStatus)
    rotation_count: int = 0

    def key_check(self) -> bytes:
        """Safe-to-compare digest of the key; never put the key itself
        on the wire or in a trace."""
        if self.key is None:
            raise ValueError("no key: the session is closed")
        return owf(TAG_KEYCHECK, self.key)[:16]

    def close(self) -> None:
        self.key = None


@dataclass(frozen=True)
class AccessDecision:
    allowed: bool
    reason: str  # nft-owned | open-access | no-token | unregistered | bad-proof

    def __post_init__(self):
        if self.allowed and self.reason not in ("nft-owned", "open-access"):
            raise ValueError("allowed decisions must cite nft-owned or open-access")


# ---------------------------------------------------------------------------
# Linkage and ledger anchor, shared by admission, handshake and rotation
# ---------------------------------------------------------------------------

class _Unproven(Exception):
    """A linkage proof failed; malformed: its commitment did not decode."""

    def __init__(self, malformed: bool):
        super().__init__()
        self.malformed = malformed


def _proven_bcadd(appid: APPID, proof: LinkageProof, nonce: bytes) -> BCADD:
    """The chain address the proof commits to, once the proof shows that
    appid's holder controls it, bound to nonce. Raises _Unproven."""
    try:
        claimed = proof.claimed_bcadd()
    except (WireError, ValueError):
        raise _Unproven(malformed=True) from None
    if not verify_linkage(claimed, appid, proof, nonce):
        raise _Unproven(malformed=False)
    return claimed


def _anchor(bcadd: BCADD, ledger: Ledger) -> str:
    """ADMIT_OK iff the ledger registers bcadd's address under bcadd's own
    key; ADMIT_UNREGISTERED, or ADMIT_BAD_PROOF for another key."""
    registration = ledger.query_registration(bcadd.address)
    if registration is None:
        return ADMIT_UNREGISTERED
    if registration.public_key != bcadd.public_key:
        return ADMIT_BAD_PROOF
    return ADMIT_OK


# ---------------------------------------------------------------------------
# Admission at the first router
# ---------------------------------------------------------------------------

def admission(
    appid: APPID,
    bcadd: BCADD,
    proof: LinkageProof,
    nonce: bytes,
    ledger: Ledger,
    require_registration: bool = True,
) -> str:
    """First-router check: the APPID's holder controls a valid chain
    address, bound to this nonce, and (in strict scenarios) the ledger
    anchors that address to the same key. Sees only public artifacts.

    Returns ADMIT_OK, or ADMIT_BAD_PROOF / ADMIT_UNREGISTERED naming the
    first check that failed. The proof is verified once."""
    if not verify_linkage(bcadd, appid, proof, nonce):
        return ADMIT_BAD_PROOF
    return _anchor(bcadd, ledger) if require_registration else ADMIT_OK


def router_admit(
    appid: APPID,
    bcadd: BCADD,
    proof: LinkageProof,
    nonce: bytes,
    ledger: Ledger,
    require_registration: bool = True,
) -> bool:
    """True iff admission() admits."""
    return admission(appid, bcadd, proof, nonce, ledger, require_registration) == ADMIT_OK


# ---------------------------------------------------------------------------
# Handshake state machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeerCredentials:
    """What one endpoint brings to a handshake."""

    secret: IdentitySecret
    bcadd: BCADD
    appid: APPID


def _session_nonce(client_nonce: bytes, server_nonce: bytes) -> bytes:
    return owf(TAG_HS_NONCE, client_nonce, server_nonce)[:NONCE_SIZE]


def _session_id(client_nonce: bytes, server_nonce: bytes) -> bytes:
    return owf(TAG_SESSION_ID, client_nonce, server_nonce)[:16]


def _initial_transcript() -> bytes:
    return owf(TAG_TRANSCRIPT)


def _absorb(transcript: bytes, message: HandshakeMessage) -> bytes:
    return owf(TAG_TRANSCRIPT, transcript, message.to_bytes())


def _rng_bytes(rng: Random, n: int) -> bytes:
    return rng.getrandbits(8 * n).to_bytes(n, "big")


class _Handshake:
    """What both sides of the handshake hold, and the steps they share:
    sending and checking messages, and opening the session. Each side
    sends its nonce and key share first (hello, challenge), then its
    linkage proof (response, confirm)."""

    _CLIENT: bool

    def __init__(self, creds: PeerCredentials, route: RoutePath, ledger: Ledger, rng: Random):
        self._creds = creds
        self._route = route
        self._ledger = ledger
        self._nonce = _rng_bytes(rng, NONCE_SIZE)
        self._ephemeral = X25519PrivateKey.from_private_bytes(_rng_bytes(rng, 32))
        self._transcript = _initial_transcript()
        self._peer_nonce: bytes | None = None
        self._peer_share: bytes | None = None
        self._peer_appid: APPID | None = None
        self._peer_bcadd: BCADD | None = None
        self._session: Session | None = None

    def _pair(self, own, peer):
        """(client's, server's), given this side's and the peer's."""
        return (own, peer) if self._CLIENT else (peer, own)

    def _proof_nonce(self) -> bytes:
        return _session_nonce(*self._pair(self._nonce, self._peer_nonce))

    def _send(self, phase: str) -> HandshakeMessage:
        """This side's next message, absorbed into the transcript: hello
        and challenge carry the key share, response and confirm the
        linkage proof bound to the session nonce."""
        creds = self._creds
        if phase in ("hello", "challenge"):
            share, proof = self._ephemeral.public_key().public_bytes_raw(), None
        else:
            share, proof = b"", make_linkage_proof(
                creds.secret, creds.bcadd, creds.appid, self._proof_nonce())
        message = HandshakeMessage(phase, creds.appid, self._nonce, share, self._transcript, proof)
        self._transcript = _absorb(self._transcript, message)
        return message

    def _take_share(self, message: HandshakeMessage, phase: str) -> None:
        """Accept the peer's hello or challenge: its nonce, share and APPID."""
        if message.phase != phase:
            raise AuthFailed(phase, f"unexpected phase {message.phase}")
        if message.transcript_hash != self._transcript:
            raise AuthFailed(phase, "transcript-mismatch")
        self._peer_nonce = message.nonce
        self._peer_share = message.ephemeral_public
        self._peer_appid = message.sender_appid
        self._transcript = _absorb(self._transcript, message)

    def _take_proof(self, message: HandshakeMessage, phase: str) -> None:
        """Accept the peer's response or confirm: a linkage proof for the
        APPID it opened with, bound to the session nonce, whose chain
        address the ledger anchors to the same key."""
        if message.phase != phase or self._peer_nonce is None:
            raise AuthFailed(phase, "out-of-order message")
        if message.transcript_hash != self._transcript:
            raise AuthFailed(phase, "transcript-mismatch")
        if message.sender_appid != self._peer_appid:
            raise AuthFailed(phase, "bad-proof")
        if message.linkage is None:
            raise AuthFailed(phase, "missing-proof")
        try:
            claimed = _proven_bcadd(message.sender_appid, message.linkage, self._proof_nonce())
        except _Unproven:
            raise AuthFailed(phase, "bad-proof") from None
        anchored = _anchor(claimed, self._ledger)
        if anchored != ADMIT_OK:
            raise AuthFailed(phase, anchored)
        self._peer_bcadd = claimed
        self._transcript = _absorb(self._transcript, message)

    def _establish(self) -> Session:
        """Key from the X25519 exchange and the whole transcript; the
        client's session keeps the route, the server's its reverse."""
        try:
            shared = self._ephemeral.exchange(
                X25519PublicKey.from_public_bytes(self._peer_share)
            )
        except ValueError:
            raise AuthFailed("confirm", "bad-key-share") from None
        client_appid, server_appid = self._pair(self._creds.appid, self._peer_appid)
        self._session = Session(
            session_id=_session_id(*self._pair(self._nonce, self._peer_nonce)),
            client_appid=client_appid,
            server_appid=server_appid,
            route=self._route if self._CLIENT else self._route.reversed(),
            key=owf(TAG_SESSION_KEY, shared, self._transcript),
            client_bcadd=self._creds.bcadd if self._CLIENT else self._peer_bcadd,
        )
        return self._session

    def session(self) -> Session:
        if self._session is None:
            raise AuthFailed("confirm", "handshake not complete")
        return self._session


# The public steps and session() sit in each class's own body, where a
# profiler that wraps vars(cls) finds them.

class ClientHandshake(_Handshake):
    """Client side: emits hello and confirm, consumes challenge and
    response. session() is available once confirm has been sent."""

    _CLIENT = True

    def hello(self) -> HandshakeMessage:
        return self._send("hello")

    def on_challenge(self, message: HandshakeMessage) -> None:
        self._take_share(message, "challenge")

    def on_response(self, message: HandshakeMessage) -> None:
        self._take_proof(message, "response")

    def confirm(self) -> HandshakeMessage:
        if self._peer_bcadd is None:
            raise AuthFailed("confirm", "server not yet authenticated")
        message = self._send("confirm")
        self._establish()
        return message

    session = _Handshake.session


class ServerHandshake(_Handshake):
    """Server side: consumes hello and confirm, emits challenge and
    response (its own proof). The route parameter is the path the
    client's messages took; the server's session holds its reverse."""

    _CLIENT = False

    def on_hello(self, message: HandshakeMessage) -> tuple[HandshakeMessage, HandshakeMessage]:
        """Consume hello, emit (challenge, response)."""
        self._take_share(message, "hello")
        return self._send("challenge"), self._send("response")

    def on_confirm(self, message: HandshakeMessage) -> Session:
        self._take_proof(message, "confirm")
        return self._establish()

    session = _Handshake.session


@dataclass(frozen=True)
class HandshakeResult:
    client: Session
    server: Session
    transcript: tuple[HandshakeMessage, ...]


def handshake(
    client: PeerCredentials,
    server: PeerCredentials,
    route: RoutePath,
    ledger: Ledger,
    rng: Random,
) -> HandshakeResult:
    """Run the 4-phase exchange in memory and return both endpoints'
    sessions plus the wire transcript. Raises AuthFailed (and retains no
    session state) if either side rejects the other."""
    client_side = ClientHandshake(client, route, ledger, rng)
    server_side = ServerHandshake(server, route, ledger, rng)
    hello = client_side.hello()
    challenge, response = server_side.on_hello(hello)
    client_side.on_challenge(challenge)
    client_side.on_response(response)
    confirm = client_side.confirm()
    server_session = server_side.on_confirm(confirm)
    return HandshakeResult(
        client=client_side.session(),
        server=server_session,
        transcript=(hello, challenge, response, confirm),
    )


# ---------------------------------------------------------------------------
# Access control
# ---------------------------------------------------------------------------

def authorize(session: Session, ledger: Ledger) -> AccessDecision:
    """Evaluate the server's access-control list against current ledger
    state. Always re-reads the ledger: a token transfer between calls
    changes the answer. A closed session (no key) is denied as bad-proof."""
    if session.key is None:
        return AccessDecision(False, "bad-proof")
    registration = ledger.query_registration(session.server_appid.id)
    if registration is None:
        return AccessDecision(False, "unregistered")
    if registration.open_access:
        return AccessDecision(True, "open-access")
    for item in registration.access_control:
        if isinstance(item, bytes) and ledger.query_owner(item) == session.client_bcadd.address:
            return AccessDecision(True, "nft-owned")
    return AccessDecision(False, "no-token")


# ---------------------------------------------------------------------------
# In-session APPID rotation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationNotice:
    """Client's announcement of its next APPID, delivered in-session.

    auth_tag binds the notice to the old session key; without it the
    notice is indistinguishable from an out-of-session forgery and is
    rejected.
    """

    new_appid: APPID
    proof: LinkageProof
    auth_tag: bytes

    def body_bytes(self) -> bytes:
        return pack_bytes(self.new_appid.to_bytes()) + pack_bytes(self.proof.to_bytes())

    def to_bytes(self) -> bytes:
        return self.body_bytes() + pack_bytes(self.auth_tag)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RotationNotice":
        r = Reader(data)
        appid = APPID.from_bytes(r.bytes_())
        proof = LinkageProof.from_bytes(r.bytes_())
        tag = r.bytes_()
        r.expect_end()
        return cls(appid, proof, tag)


def rotation_nonce(session_id: bytes, rotation_index: int) -> bytes:
    return owf(TAG_ROT_NONCE, session_id, u32(rotation_index))[:NONCE_SIZE]


def make_rotation_notice(
    session: Session,
    secret: IdentitySecret,
    new_bcadd: BCADD,
    new_appid: APPID,
) -> RotationNotice:
    """Client side: prove the new APPID against the new BCADD, bound to
    this session's next rotation nonce, and tag with the old key. The
    session must be open (hold a key)."""
    if session.key is None:
        raise ContinuityRejected("session is closed")
    nonce = rotation_nonce(session.session_id, session.rotation_count + 1)
    proof = make_linkage_proof(secret, new_bcadd, new_appid, nonce)
    notice = RotationNotice(new_appid, proof, b"")
    tag = owf(TAG_ROT_AUTH, session.key, notice.body_bytes())
    return RotationNotice(new_appid, proof, tag)


def rotate_session(session: Session, notice: RotationNotice) -> Session:
    """Apply a rotation notice to either endpoint's session.

    The session must be open, and the notice must carry a tag under its
    current key (in-session delivery) and a valid linkage proof for the
    new APPID under the new chain address. On success the session keeps
    its id and status but speaks only the new APPID and a re-derived key.
    """
    if session.key is None:
        raise ContinuityRejected("session is closed")
    expected_tag = owf(TAG_ROT_AUTH, session.key, notice.body_bytes())
    if notice.auth_tag != expected_tag:
        raise ContinuityRejected("notice was not delivered inside this session")
    nonce = rotation_nonce(session.session_id, session.rotation_count + 1)
    try:
        claimed = _proven_bcadd(notice.new_appid, notice.proof, nonce)
    except _Unproven as exc:
        raise ContinuityRejected("malformed continuity proof" if exc.malformed
                                 else "continuity proof does not verify") from None
    if notice.new_appid == session.client_appid:
        raise ContinuityRejected("new APPID equals the current one")
    session.client_appid = notice.new_appid
    session.client_bcadd = claimed
    session.key = owf(TAG_REKEY, session.key, owf(TAG_TRANSCRIPT, session.session_id, notice.body_bytes()))
    session.rotation_count += 1
    return session


# ---------------------------------------------------------------------------
# Application messages, heartbeats, liveness
# ---------------------------------------------------------------------------

def message_tag(key: bytes, seq: int, payload: bytes) -> bytes:
    """Authentication tag for an in-session application message."""
    return owf(TAG_MSG_AUTH, key, u64(seq), payload)[:16]


def verify_message(session: Session, seq: int, payload: bytes, tag: bytes) -> bool:
    """True iff the tag was computed under the session's current key; a
    tag made with a superseded (pre-rotation) key fails."""
    if session.key is None:
        return False
    return message_tag(session.key, seq, payload) == tag


def heartbeat(session: Session, now: int) -> ServiceStatus:
    """Record a heartbeat at now; only an open session (one holding a
    key) takes one."""
    if session.key is None:
        raise ValueError("heartbeat on a closed session")
    session.status.beat(now)
    return session.status


def check_alive(session: Session, now: int) -> ServiceStatus:
    """alive iff the heartbeat gap is within HEARTBEAT_TIMEOUT (boundary
    inclusive: a gap of exactly the timeout is still alive)."""
    session.status.check(now, HEARTBEAT_TIMEOUT)
    return session.status


def record_delivery(session: Session, latency: float) -> ServiceStatus:
    session.status.record_delivery(latency)
    return session.status
