import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from overnym import identity, session
from overnym.hashing import TAG_APPID, TAG_TRANSCRIPT, owf
from overnym.identity import (
    LinkageProof,
    ServiceProps,
    derive_appid,
    derive_bcadd,
    make_linkage_proof,
    rotate,
    verify_linkage,
)
from overnym.ledger import Ledger, NftOwnership, RegistrationTx
from overnym.overlay import RoutePath
from overnym.session import (
    ADMIT_BAD_PROOF,
    HEARTBEAT_TIMEOUT,
    AuthFailed,
    ClientHandshake,
    ContinuityRejected,
    HoldingProof,
    HoldingRefused,
    PeerCredentials,
    RotationNotice,
    ServerHandshake,
    admission,
    authorize,
    check_alive,
    handshake,
    heartbeat,
    holding_nonce,
    make_holding_proof,
    make_rotation_notice,
    message_tag,
    record_delivery,
    rotate_session,
    rotation_nonce,
    rotation_tag,
    router_admit,
    switch_session,
    take_holding_proof,
    verify_message,
)

from conftest import forge_key_linkage, make_secret, register_identity

ROUTE = RoutePath(("ap1", "ap2"), 1)
SERVICE = ServiceProps("storefront")


def peer(index: int, service=SERVICE) -> PeerCredentials:
    secret = make_secret(300 + index)
    bcadd = derive_bcadd(secret, 0)
    return PeerCredentials(secret, bcadd, derive_appid(secret, bcadd, service))


@pytest.fixture
def ledger():
    return Ledger()


@pytest.fixture
def client(ledger):
    creds = peer(0)
    register_identity(ledger, creds.bcadd)
    return creds


def register_server(ledger, creds, **extra):
    """Both registrations an app server carries: identity-facing
    (subject = chain address) and service-facing (subject = APPID)."""
    register_identity(ledger, creds.bcadd, kind="app-server",
                      nonce=creds.bcadd.address[:16], **extra)
    ledger.submit(RegistrationTx(kind="app-server", subject=creds.appid.id,
                                 public_key=creds.bcadd.public_key,
                                 epoch=creds.bcadd.epoch, **extra),
                  submitter="t", at_time=0, nonce=creds.appid.id[:16])
    ledger.commit_round()


@pytest.fixture
def server(ledger):
    creds = peer(1)
    register_server(ledger, creds, open_access=True)
    return creds


def run_handshake(client, server, ledger, seed=0):
    return handshake(client, server, ROUTE, ledger, random.Random(seed))


class TestRouterAdmit:
    def test_registered_with_valid_proof(self, ledger, client):
        nonce = b"n" * 16
        proof = make_linkage_proof(client.secret, client.bcadd, client.appid, nonce)
        assert router_admit(client.appid, client.bcadd, proof, nonce, ledger)

    def test_unregistered_rejected_in_strict_mode(self, ledger):
        creds = peer(2)
        nonce = b"n" * 16
        proof = make_linkage_proof(creds.secret, creds.bcadd, creds.appid, nonce)
        assert not router_admit(creds.appid, creds.bcadd, proof, nonce, ledger,
                                require_registration=True)
        assert router_admit(creds.appid, creds.bcadd, proof, nonce, ledger,
                            require_registration=False)

    def test_replayed_proof_with_stale_nonce(self, ledger, client):
        old_nonce = b"o" * 16
        proof = make_linkage_proof(client.secret, client.bcadd, client.appid, old_nonce)
        current = b"c" * 16
        assert not router_admit(client.appid, client.bcadd, proof, current, ledger)

    def test_registered_address_with_another_key_is_bad_proof(self, ledger, client):
        nonce = b"n" * 16
        forged, appid, proof = forge_key_linkage(client.bcadd, SERVICE, nonce)
        assert verify_linkage(forged, appid, proof, nonce)
        assert admission(appid, forged, proof, nonce, ledger) == ADMIT_BAD_PROOF
        assert not router_admit(appid, forged, proof, nonce, ledger)


class TestHandshake:
    def test_honest_peers_establish_equal_keys(self, ledger, client, server):
        result = run_handshake(client, server, ledger)
        assert result.client.key is not None
        assert result.server.key is not None
        assert result.client.key_check() == result.server.key_check()
        assert result.client.session_id == result.server.session_id
        assert [m.phase for m in result.transcript] == [
            "hello", "challenge", "response", "confirm"]

    def test_server_proof_under_foreign_key_fails_at_response(self, ledger, client):
        # server's registered key differs from the one signing its proofs
        rogue = peer(3)
        wrong_key = derive_bcadd(make_secret(777), 0)
        ledger.submit(RegistrationTx(kind="app-server", subject=rogue.bcadd.address,
                                     public_key=wrong_key.public_key, open_access=True),
                      submitter="t", at_time=0, nonce=b"w" * 16)
        ledger.commit_round()
        with pytest.raises(AuthFailed) as err:
            run_handshake(client, rogue, ledger)
        assert err.value.phase == "response"
        assert err.value.reason == "bad-proof"

    def test_unregistered_server_fails_at_response(self, ledger, client):
        with pytest.raises(AuthFailed) as err:
            run_handshake(client, peer(4), ledger)
        assert err.value.phase == "response"
        assert err.value.reason == "unregistered"

    def test_unregistered_client_fails_at_confirm(self, ledger, server):
        with pytest.raises(AuthFailed) as err:
            run_handshake(peer(5), server, ledger)
        assert err.value.phase == "confirm"
        assert err.value.reason == "unregistered"

    def test_no_key_retained_after_failure(self, ledger, server):
        from overnym.session import ClientHandshake, ServerHandshake
        rng = random.Random(1)
        bad_client = peer(6)  # unregistered
        cs = ClientHandshake(bad_client, ROUTE, ledger, rng)
        ss = ServerHandshake(server, ROUTE, ledger, rng)
        challenge, response = ss.on_hello(cs.hello())
        cs.on_challenge(challenge)
        cs.on_response(response)
        with pytest.raises(AuthFailed):
            ss.on_confirm(cs.confirm())
        with pytest.raises(AuthFailed, match="not complete"):
            ss.session()

    def test_wire_transcript_carries_no_key_material(self, ledger, client, server):
        # The observer check: recompute the key only from endpoint state,
        # then show nothing on the wire equals or hashes to it.
        result = run_handshake(client, server, ledger)
        key = result.client.key
        wire_fields: list[bytes] = []
        for message in result.transcript:
            wire_fields += [
                message.to_bytes(),
                message.nonce,
                message.ephemeral_public,
                message.transcript_hash,
                message.sender_appid.to_bytes(),
            ]
            if message.linkage is not None:
                wire_fields += [message.linkage.to_bytes(),
                                message.linkage.signature,
                                message.linkage.commitment]
        for blob in wire_fields:
            assert key not in blob
            assert blob != key
            assert owf(b"probe:", blob) != key

    def test_crossed_pairs_only_diagonal_succeeds(self, ledger):
        peers = [peer(10 + i) for i in range(3)]
        for creds in peers:
            register_identity(ledger, creds.bcadd, kind="app-server", open_access=True,
                              nonce=creds.bcadd.address[:16])
        for i, client_creds in enumerate(peers):
            for j, server_creds in enumerate(peers):
                if i == j:
                    continue  # self-handshake is not a protocol case
                result = run_handshake(client_creds, server_creds, ledger, seed=i * 7 + j)
                assert result.client.key_check() == result.server.key_check()

    def test_forged_server_identity_fails(self, ledger, client, server):
        # A message claiming the honest server's APPID but carrying a
        # proof for someone else's chain address must die at response.
        from overnym.session import ClientHandshake, ServerHandshake, _session_nonce
        rng = random.Random(2)
        cs = ClientHandshake(client, ROUTE, ledger, rng)
        ss = ServerHandshake(server, ROUTE, ledger, rng)
        hello = cs.hello()
        challenge, response = ss.on_hello(hello)
        cs.on_challenge(challenge)
        imposter = peer(20)
        register_identity(ledger, imposter.bcadd, kind="app-server", open_access=True,
                          nonce=b"imp" + b"0" * 13)
        forged_proof = make_linkage_proof(
            imposter.secret, imposter.bcadd, imposter.appid,
            _session_nonce(hello.nonce, challenge.nonce))
        with pytest.raises(AuthFailed) as err:
            cs.on_response(replace(response, linkage=forged_proof))
        assert err.value.phase == "response"
        assert err.value.reason == "bad-proof"


class TestAppidDigests:
    """A proof checks its APPID against the digest its epoch already
    holds: only a derivation and a verify hash an APPID digest."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        counts = Counter()
        hash_, verify = identity.owf, session.verify_linkage

        def counting_owf(tag, *parts):
            if tag == TAG_APPID:
                counts["digest"] += 1
            return hash_(tag, *parts)

        def counting_verify(*args):
            counts["verify"] += 1
            return verify(*args)

        monkeypatch.setattr(identity, "owf", counting_owf)
        monkeypatch.setattr(session, "verify_linkage", counting_verify)
        return counts

    def test_a_handshake_hashes_one_digest_per_verify(self, ledger, client, server, hashed):
        run_handshake(client, server, ledger)
        assert hashed == {"digest": 2, "verify": 2}

    def test_a_rotation_notice_hashes_no_digest(self, ledger, client, server, hashed):
        result = run_handshake(client, server, ledger)
        new_bcadd, (new_appid,) = rotate(client.secret, client.bcadd, [SERVICE])
        hashed.clear()
        make_rotation_notice(result.client, client.secret, new_bcadd, new_appid)
        assert hashed == {}


class TestAuthorize:
    def make_session(self, ledger, client, server):
        return run_handshake(client, server, ledger).server

    def test_open_access(self, ledger, client, server):
        sess = self.make_session(ledger, client, server)
        decision = authorize(sess, ledger)
        assert decision.allowed and decision.reason == "open-access"

    def test_nft_owned(self, ledger, client):
        token = b"t" * 32
        gated = peer(30)
        register_identity(ledger, gated.bcadd, kind="app-server",
                          access_control=(token,), nonce=b"g" * 16)
        ledger.submit(RegistrationTx(kind="app-server", subject=gated.appid.id,
                                     public_key=gated.bcadd.public_key,
                                     access_control=(token,)),
                      submitter="t", at_time=1, nonce=b"ga" * 8)
        ledger.submit(NftOwnership(token, client.bcadd.address),
                      submitter="t", at_time=1, nonce=b"to" * 8)
        ledger.commit_round()
        sess = self.make_session(ledger, client, gated)
        decision = authorize(sess, ledger)
        assert decision.allowed and decision.reason == "nft-owned"

        # token transferred away: the same session re-evaluates to denied
        ledger.submit(NftOwnership(token, peer(31).bcadd.address),
                      submitter="t", at_time=2, nonce=b"tr" * 8)
        ledger.commit_round()
        decision = authorize(sess, ledger)
        assert not decision.allowed and decision.reason == "no-token"

    def test_unregistered_service(self, ledger, client, server):
        sess = self.make_session(ledger, client, server)
        bare = Ledger()
        decision = authorize(sess, bare)
        assert not decision.allowed and decision.reason == "unregistered"


class TestRotation:
    def rotated(self, client):
        new_bcadd, (new_appid,) = rotate(client.secret, client.bcadd, [SERVICE])
        return new_bcadd, new_appid

    def test_honest_rotation_keeps_session_id(self, ledger, client, server):
        result = run_handshake(client, server, ledger)
        old_id = result.client.session_id
        old_key_check = result.client.key_check()
        new_bcadd, new_appid = self.rotated(client)
        notice = make_rotation_notice(result.client, client.secret, new_bcadd, new_appid)
        rotate_session(result.client, notice)
        rotate_session(result.server, notice)
        for sess in (result.client, result.server):
            assert sess.key is not None
            assert sess.session_id == old_id
            assert sess.client_appid == new_appid
        assert result.client.key_check() == result.server.key_check()
        assert result.client.key_check() != old_key_check

    def test_out_of_session_notice_rejected(self, ledger, client, server):
        result = run_handshake(client, server, ledger)
        new_bcadd, new_appid = self.rotated(client)
        nonce = rotation_nonce(result.server.session_id, 1)
        proof = make_linkage_proof(client.secret, new_bcadd, new_appid, nonce)
        plain = RotationNotice(new_appid, proof, auth_tag=b"\x00" * 32)
        with pytest.raises(ContinuityRejected, match="inside this session"):
            rotate_session(result.server, plain)

    def test_old_key_rejected_after_rotation(self, ledger, client, server):
        result = run_handshake(client, server, ledger)
        old_key = result.server.key
        new_bcadd, new_appid = self.rotated(client)
        notice = make_rotation_notice(result.client, client.secret, new_bcadd, new_appid)
        rotate_session(result.server, notice)
        stale_tag = message_tag(old_key, 7, b"hello")
        assert not verify_message(result.server, 7, b"hello", stale_tag)
        fresh_tag = message_tag(result.server.key, 7, b"hello")
        assert verify_message(result.server, 7, b"hello", fresh_tag)

    def test_replayed_notice_rejected(self, ledger, client, server):
        result = run_handshake(client, server, ledger)
        new_bcadd, new_appid = self.rotated(client)
        notice = make_rotation_notice(result.client, client.secret, new_bcadd, new_appid)
        rotate_session(result.server, notice)
        with pytest.raises(ContinuityRejected):
            rotate_session(result.server, notice)  # key changed; tag now stale

    def test_notice_round_trip(self, ledger, client, server):
        result = run_handshake(client, server, ledger)
        new_bcadd, new_appid = self.rotated(client)
        notice = make_rotation_notice(result.client, client.secret, new_bcadd, new_appid)
        assert RotationNotice.from_bytes(notice.to_bytes()) == notice


class TestStatus:
    def make_session(self, ledger, client, server):
        return run_handshake(client, server, ledger).client

    def test_alive_at_exact_timeout_boundary(self, ledger, client, server):
        sess = self.make_session(ledger, client, server)
        heartbeat(sess, 10)
        assert check_alive(sess, 10 + HEARTBEAT_TIMEOUT).alive

    def test_dead_one_past_timeout(self, ledger, client, server):
        sess = self.make_session(ledger, client, server)
        heartbeat(sess, 10)
        assert not check_alive(sess, 11 + HEARTBEAT_TIMEOUT).alive

    def test_quality_is_running_mean(self, ledger, client, server):
        sess = self.make_session(ledger, client, server)
        for latency in (2, 4, 6):
            record_delivery(sess, latency)
        assert sess.status.quality == pytest.approx(4.0)
        assert sess.status.deliveries == 3



# ---------------------------------------------------------------------------
# Every failure reason, pinned: each case drives the state machines (or a
# rotation) into one refusal and names the exact (phase, reason) or text.
# ---------------------------------------------------------------------------

ZERO_HASH = bytes(32)


class _Steps:
    """A client and server machine pair, run up to the server's reply."""

    def __init__(self, client, server, ledger):
        rng = random.Random(5)
        self.server_creds, self.ledger = server, ledger
        self.client = ClientHandshake(client, ROUTE, ledger, rng)
        self.server = ServerHandshake(server, ROUTE, ledger, rng)
        self.hello = self.client.hello()
        self.challenge, self.response = self.server.on_hello(self.hello)

    def fresh_server(self):
        return ServerHandshake(self.server_creds, ROUTE, self.ledger, random.Random(9))

    def respond(self, **changes):
        self.client.on_challenge(self.challenge)
        self.client.on_response(replace(self.response, **changes))

    def confirm(self):
        self.respond()
        return self.client.confirm()


def _bad_key_share(h):
    # A challenge whose share is not an X25519 key, with a response that
    # matches the transcript the client then holds: only the key
    # exchange in confirm can refuse it.
    challenge = replace(h.challenge, ephemeral_public=b"")
    h.client.on_challenge(challenge)
    seen = owf(TAG_TRANSCRIPT)
    for message in (h.hello, challenge):
        seen = owf(TAG_TRANSCRIPT, seen, message.to_bytes())
    h.client.on_response(replace(h.response, transcript_hash=seen))
    h.client.confirm()


HANDSHAKE_FAILURES = {
    "hello-unexpected-phase": ("hello", "unexpected phase confirm",
        lambda h: h.fresh_server().on_hello(replace(h.hello, phase="confirm"))),
    "challenge-unexpected-phase": ("challenge", "unexpected phase response",
        lambda h: h.client.on_challenge(h.response)),
    "response-out-of-order": ("response", "out-of-order message",
        lambda h: h.client.on_response(h.response)),
    "confirm-out-of-order": ("confirm", "out-of-order message",
        lambda h: h.fresh_server().on_confirm(h.confirm())),
    "hello-transcript-mismatch": ("hello", "transcript-mismatch",
        lambda h: h.fresh_server().on_hello(replace(h.hello, transcript_hash=ZERO_HASH))),
    "challenge-transcript-mismatch": ("challenge", "transcript-mismatch",
        lambda h: h.client.on_challenge(replace(h.challenge, transcript_hash=ZERO_HASH))),
    "response-transcript-mismatch": ("response", "transcript-mismatch",
        lambda h: h.respond(transcript_hash=ZERO_HASH)),
    "confirm-transcript-mismatch": ("confirm", "transcript-mismatch",
        lambda h: h.server.on_confirm(replace(h.confirm(), transcript_hash=ZERO_HASH))),
    "hello-malformed": ("hello", "malformed",
        lambda h: h.fresh_server().on_hello(
            replace(h.hello, sender_appid=replace(h.hello.sender_appid, epoch=1 << 64)))),
    "challenge-malformed": ("challenge", "malformed",
        lambda h: h.client.on_challenge(replace(h.challenge, sender_appid=replace(
            h.challenge.sender_appid, service=ServiceProps("\ud800"))))),
    # Fields no signature covers, rewritten in flight: each would enter
    # only the receiver's transcript and key.
    "response-proof-nonce-rewritten": ("response", "malformed",
        lambda h: h.respond(linkage=replace(h.response.linkage, session_nonce=bytes(16)))),
    "confirm-share-added": ("confirm", "malformed",
        lambda h: h.server.on_confirm(replace(h.confirm(), ephemeral_public=bytes(32)))),
    "confirm-nonce-rewritten": ("confirm", "malformed",
        lambda h: h.server.on_confirm(replace(h.confirm(), nonce=bytes(16)))),
    "response-missing-proof": ("response", "missing-proof",
        lambda h: h.respond(linkage=None)),
    "response-malformed-commitment": ("response", "bad-proof",
        lambda h: h.respond(linkage=LinkageProof(b"junk", b"", bytes(16)))),
    "response-sender-swapped": ("response", "bad-proof",
        lambda h: h.respond(sender_appid=h.hello.sender_appid)),
    "confirm-sender-swapped": ("confirm", "bad-proof",
        lambda h: h.server.on_confirm(replace(h.confirm(), sender_appid=h.challenge.sender_appid))),
    "confirm-bad-key-share": ("confirm", "bad-key-share", _bad_key_share),
    "confirm-before-response": ("confirm", "server not yet authenticated",
        lambda h: h.client.confirm()),
    "client-session-before-confirm": ("confirm", "handshake not complete",
        lambda h: h.client.session()),
    "server-session-before-confirm": ("confirm", "handshake not complete",
        lambda h: h.server.session()),
}


@pytest.mark.parametrize("case", sorted(HANDSHAKE_FAILURES))
def test_every_handshake_failure_reason(case, ledger, client, server):
    phase, reason, drive = HANDSHAKE_FAILURES[case]
    with pytest.raises(AuthFailed) as err:
        drive(_Steps(client, server, ledger))
    assert (err.value.phase, err.value.reason) == (phase, reason)


def _tagged(sess, new_appid, proof):
    body = RotationNotice(new_appid, proof, b"").body_bytes()
    return RotationNotice(new_appid, proof, rotation_tag(sess.key, body))


def _proof(creds, bcadd, appid, sess, index):
    return make_linkage_proof(creds.secret, bcadd, appid, rotation_nonce(sess.session_id, index))


ROTATION_FAILURES = {
    "untagged": ("notice was not delivered inside this session",
        lambda sess, creds, bcadd, appid: RotationNotice(
            appid, _proof(creds, bcadd, appid, sess, 1), b"\x00" * 32)),
    "malformed-proof": ("malformed continuity proof",
        lambda sess, creds, bcadd, appid: _tagged(
            sess, appid, LinkageProof(b"junk", b"", bytes(16)))),
    "malformed-notice": ("malformed notice",
        lambda sess, creds, bcadd, appid: RotationNotice(
            replace(appid, epoch=1 << 64), _proof(creds, bcadd, appid, sess, 1), b"\x00" * 32)),
    "wrong-nonce": ("continuity proof does not verify",
        lambda sess, creds, bcadd, appid: _tagged(
            sess, appid, _proof(creds, bcadd, appid, sess, 2))),
}


@pytest.mark.parametrize("case", sorted(ROTATION_FAILURES))
def test_every_rotation_refusal(case, ledger, client, server):
    text, make_notice = ROTATION_FAILURES[case]
    sess = run_handshake(client, server, ledger).server
    new_bcadd, (new_appid,) = rotate(client.secret, client.bcadd, [SERVICE])
    with pytest.raises(ContinuityRejected) as err:
        rotate_session(sess, make_notice(sess, client, new_bcadd, new_appid))
    assert str(err.value) == text


GATED = peer(40)
TOKENS = [bytes([i]) * 32 for i in range(3)]  # a server's ACL names the first two


class HoldingModel(RuleBasedStateMachine):
    """Sessions between two users and a token-gated server, under random
    mints and transfers, rotations inside the open sessions, new sessions
    and holding proofs, honest or forged. The model keeps each session's
    proven addresses and each token's holder itself; the server's session
    must prove the same addresses and allow access exactly when one of
    them holds a token its ACL names."""

    def __init__(self):
        super().__init__()
        self.ledger = Ledger()
        register_server(self.ledger, GATED, access_control=tuple(TOKENS[:2]))
        self.users = [peer(41), peer(42)]
        for creds in self.users:
            register_identity(self.ledger, creds.bcadd)
        self.holder: dict[bytes, bytes] = {}
        self.sessions = []  # [user index, client session, server session, proven]
        self.clock = 0

    def _write(self, payload):
        self.clock += 1
        self.ledger.submit(payload, submitter="t", at_time=self.clock,
                           nonce=self.clock.to_bytes(16, "big"))
        self.ledger.commit_round()

    @rule(token=st.sampled_from(TOKENS), user=st.integers(0, 1))
    def give(self, token, user):
        # A mint, or a transfer, to the user's current address.
        address = self.users[user].bcadd.address
        self._write(NftOwnership(token, address))
        self.holder[token] = address

    @rule(user=st.integers(0, 1))
    def connect(self, user):
        result = handshake(self.users[user], GATED, ROUTE, self.ledger, random.Random(self.clock))
        self.clock += 1
        self.sessions.append([user, result.client, result.server,
                              {self.users[user].bcadd.address}])

    @rule(user=st.integers(0, 1))
    def rotate(self, user):
        creds = self.users[user]
        new_bcadd, (new_appid,) = rotate(creds.secret, creds.bcadd, [SERVICE])
        self._write(RegistrationTx(kind="user", subject=new_bcadd.address,
                                   public_key=new_bcadd.public_key, epoch=new_bcadd.epoch))
        self.users[user] = PeerCredentials(creds.secret, new_bcadd, new_appid)
        for owner, client, server, proven in self.sessions:
            if owner == user:
                notice = make_rotation_notice(client, creds.secret, new_bcadd, new_appid)
                switch_session(client, notice, new_bcadd)
                rotate_session(server, notice)
                proven.add(new_bcadd.address)

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 99), epoch=st.integers(0, 3))
    def prove_holding(self, pick, epoch):
        # The client proves one of its addresses; one past its current
        # epoch is not registered, so it is refused.
        user, client, server, proven = self.sessions[pick % len(self.sessions)]
        creds = self.users[user]
        holding = derive_bcadd(creds.secret, epoch)
        proof = make_holding_proof(client, creds.secret, holding)
        if epoch <= creds.bcadd.epoch:
            assert take_holding_proof(server, proof, self.ledger) == holding
            proven.add(holding.address)
        else:
            with pytest.raises(HoldingRefused, match="^unregistered$"):
                take_holding_proof(server, proof, self.ledger)

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 99), victim=st.integers(0, 1))
    def forge_holding(self, pick, victim):
        # The client claims a current address of either user's under a key
        # of its own: the ledger registers the address under another key.
        _, client, server, _ = self.sessions[pick % len(self.sessions)]
        client.holding_count += 1
        nonce = holding_nonce(client.session_id, client.holding_count)
        _, appid, proof = forge_key_linkage(self.users[victim].bcadd, SERVICE, nonce)
        body = HoldingProof(appid, proof, b"").body_bytes()
        with pytest.raises(HoldingRefused, match="^bad-proof$"):
            take_holding_proof(server, HoldingProof(appid, proof, rotation_tag(client.key, body)),
                               self.ledger)

    @invariant()
    def allowed_iff_a_token_holder_is_proven(self):
        for _, _, server, proven in self.sessions:
            assert server.proven == proven
            wanted = any(self.holder.get(token) in proven for token in TOKENS[:2])
            decision = authorize(server, self.ledger)
            assert (decision.allowed, decision.reason) == (
                (True, "nft-owned") if wanted else (False, "no-token"))


HoldingModel.TestCase.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)
TestHoldingModel = HoldingModel.TestCase
