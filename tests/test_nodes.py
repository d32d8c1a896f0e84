"""Node-level protocol checks: the first router's admission, the
sequencer's handling of submissions and commits, and handshakes in
flight at the session ends."""

from dataclasses import replace

import pytest

from overnym import identity, session
from overnym.hashing import owf
from overnym.identity import ServiceProps, derive_appid, make_linkage_proof
from overnym.ledger import NftOwnership, RegistrationTx, TopologyUpdate
from overnym.neat import NetworkLocator
from overnym.nodes import (
    AccessPointNode,
    AppPayload,
    BindRequest,
    ConnectGrant,
    ConnectRefused,
    ConnectRequest,
    Envelope,
    HandshakeEnvelope,
    Heartbeat,
    Metrics,
    PayloadReceipt,
    RegisterAttributes,
    RotationEnvelope,
    SubmitTx,
    UnbindRequest,
)
from overnym.runner import _schedule_actions, build_simulation
from overnym.scenario import parse_scenario
from overnym.session import HandshakeMessage
from overnym.simnet import Delivery

from conftest import forge_key_linkage, settle

SCENARIO = """
seed 3
segment 1
node ap router 1
node seq sequencer 1
node u user 1
node s app-server 1 service=echo
at 1 register s open-access
at 3 bind s
"""


def settled(strict=False, register_user=False, text=SCENARIO):
    if register_user:
        text = text.replace("at 3", "at 1 register u\nat 3")
    sc = parse_scenario(text)
    built = build_simulation(replace(sc, strict_registration=strict))
    _schedule_actions(built, sc)
    built.sim.run_until_idle()
    return built


def connect(built, nonce, proof_nonce=None, credentials=None):
    """Deliver one ConnectRequest from u to its router; return the router's
    admission record for it. credentials: (bcadd, appid, proof) to send in
    place of u's own."""
    user, server = built.users["u"], built.servers["s"]
    if credentials is None:
        appid = derive_appid(user.secret, user.bcadd, ServiceProps("echo"))
        proof = make_linkage_proof(user.secret, user.bcadd, appid, proof_nonce or nonce)
        credentials = (user.bcadd, appid, proof)
    bcadd, appid, proof = credentials
    built.sim.send("u", "ap", ConnectRequest(
        server_key=server.appid.id, bcadd=bcadd, appid=appid, proof=proof, nonce=nonce,
    ))
    before = len(built.sim.trace.find("admit"))
    built.sim.run_until_idle()
    admits = built.sim.trace.find("admit")
    assert len(admits) == before + 1
    return admits[-1]


@pytest.fixture
def router_verifies(monkeypatch):
    """Number of verify_linkage calls made inside each router connect."""
    calls, per_connect = [0], []
    original = identity.verify_linkage

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(identity, "verify_linkage", counting)
    monkeypatch.setattr(session, "verify_linkage", counting)
    handle_connect = AccessPointNode._handle_connect

    def measured(self, client, request, now):
        start = calls[0]
        handle_connect(self, client, request, now)
        per_connect.append(calls[0] - start)

    monkeypatch.setattr(AccessPointNode, "_handle_connect", measured)
    return per_connect


class TestRouterAdmission:
    def test_admitted_request_verifies_proof_once(self, router_verifies):
        built = settled()
        record = connect(built, b"n" * 16)
        assert record["decision"] is True
        assert router_verifies == [1]

    def test_bad_proof_traced(self, router_verifies):
        built = settled()
        record = connect(built, b"n" * 16, proof_nonce=b"o" * 16)
        assert (record["decision"], record["reason"]) == (False, session.ADMIT_BAD_PROOF)
        assert router_verifies == [1]
        assert built.world.metrics.admissions_rejected == {"bad-proof": 1}

    def test_unregistered_traced_in_strict_mode(self, router_verifies):
        built = settled(strict=True)
        record = connect(built, b"n" * 16)
        assert (record["decision"], record["reason"]) == (False, session.ADMIT_UNREGISTERED)
        assert router_verifies == [1]
        assert connect(settled(strict=True, register_user=True), b"m" * 16)["decision"] is True

    def test_stale_nonce_traced_without_verifying(self, router_verifies):
        built = settled()
        assert connect(built, b"n" * 16)["decision"] is True
        record = connect(built, b"n" * 16)
        assert (record["decision"], record["reason"]) == (False, session.ADMIT_STALE_NONCE)
        assert router_verifies == [1, 0]

    def test_bad_proof_does_not_burn_the_nonce(self):
        built = settled()
        forged = connect(built, b"n" * 16, proof_nonce=b"o" * 16)
        assert (forged["decision"], forged["reason"]) == (False, session.ADMIT_BAD_PROOF)
        assert connect(built, b"n" * 16)["decision"] is True
        replay = connect(built, b"n" * 16)
        assert (replay["decision"], replay["reason"]) == (False, session.ADMIT_STALE_NONCE)

    def test_forged_key_is_bad_proof_and_does_not_burn_the_nonce(self):
        built = settled(strict=True, register_user=True)
        victim = built.users["u"].bcadd
        forged = connect(built, b"n" * 16,
                         credentials=forge_key_linkage(victim, ServiceProps("echo"), b"n" * 16))
        assert (forged["decision"], forged["reason"]) == (False, session.ADMIT_BAD_PROOF)
        assert built.world.metrics.admissions_rejected == {"bad-proof": 1}
        assert connect(built, b"n" * 16)["decision"] is True


class TestSequencer:
    def submit(self, built, payload):
        sequencer = built.sim.nodes[built.world.sequencer]
        sequencer.on_message("u", SubmitTx(payload=payload, nonce=b"x" * 16),
                             now=built.sim.now, sent_at=built.sim.now)

    def test_invalid_tx_is_refused_and_traced(self):
        built = settled()
        self.submit(built, RegistrationTx(kind="bogus", subject=bytes(32), public_key=b""))
        refused = built.sim.trace.find("tx-refused")
        assert len(refused) == 1 and "unknown registration kind" in refused[0]["reason"]

    @pytest.mark.parametrize("payload, reason", [
        (NftOwnership(token_id=bytes(32), owner=bytes(32), seq=1 << 64), "u64 out of range"),
        (TopologyUpdate(links=((1, 2, 1),), origin="\ud800"), "not encodable as utf-8"),
        # wrong-typed fields: a bare AttributeError or TypeError before
        (RegistrationTx(kind=5, subject=bytes(32), public_key=b"k"),
         "text must be a str, not int"),
        (RegistrationTx(kind="user", subject=bytes(32), public_key=b"k", epoch="1"),
         "u64 must be an int, not str"),
        (RegistrationTx(kind="user", subject=bytes(32), public_key=b"k", epoch=1.0),
         "u64 must be an int, not float"),
        (NftOwnership(token_id=bytes(32), owner=bytes(32), seq=None),
         "u64 must be an int, not NoneType"),
    ], ids=["seq 2^64", "surrogate origin", "kind int", "epoch str", "epoch float", "seq None"])
    def test_an_unencodable_write_is_refused_and_the_run_goes_on(self, payload, reason):
        built = settled()
        user = built.users["u"]
        built.sim.send("u", "seq", SubmitTx(payload=payload, nonce=b"x" * 16))
        user.do_register(built.sim.now)
        built.sim.run_until_idle()
        refused = built.sim.trace.find("tx-refused")
        assert len(refused) == 1 and reason in refused[0]["reason"]
        ledger = built.world.ledger
        ledger.commit_round()  # the scripted commit ticks are over
        assert ledger.query_registration(user.bcadd.address) is not None

    def test_unrelated_error_propagates(self):
        class Broken(str):
            def encode(self, *args):
                raise RuntimeError("bug in a payload field")

        built = settled()
        with pytest.raises(RuntimeError, match="bug in a payload field"):
            self.submit(built, RegistrationTx(kind=Broken("user"), subject=bytes(32), public_key=b""))
        assert built.sim.trace.find("tx-refused") == []

    def test_commit_head_is_last_committed_entry(self):
        built = settled(register_user=True)
        by_seq = {entry.seq: entry for entry in built.world.ledger.entries}
        commits = built.sim.trace.find("commit")
        assert commits
        for record in commits:
            assert record["head"] == by_seq[record["seqs"][-1]].entry_hash.hex()[:16]


class TestSenderIsTheSubmitter:
    """The sequencer and the router take who is asking from the delivery,
    so no node can act under another's name."""

    def test_a_copied_tx_nonce_does_not_drop_the_owners_tx(self):
        built = settled()
        user, server = built.users["u"], built.servers["s"]
        # u's first tx nonce, which anyone can compute
        nonce = owf(b"txnonce:", b"u", (1).to_bytes(8, "big"))[:16]
        forged = RegistrationTx(kind="user", subject=bytes([7]) * 32,
                                public_key=server.bcadd.public_key)
        built.sim.send("s", "seq", SubmitTx(payload=forged, nonce=nonce))
        user.do_register(built.sim.now)
        built.sim.run_until_idle()
        ledger = built.world.ledger
        ledger.commit_round()  # the scripted commit ticks are over
        assert ledger.query_registration(user.bcadd.address) is not None
        assert ledger.query_registration(bytes([7]) * 32) is not None
        assert built.sim.trace.find("tx-refused") == []

    def test_the_router_answers_the_sender(self):
        built = settled()
        admits = len(built.sim.trace.find("admit"))
        user, server = built.users["u"], built.servers["s"]
        appid = derive_appid(user.secret, user.bcadd, ServiceProps("echo"))
        nonce = b"n" * 16
        built.sim.send("s", "ap", ConnectRequest(
            server_key=server.appid.id, bcadd=user.bcadd, appid=appid,
            proof=make_linkage_proof(user.secret, user.bcadd, appid, nonce), nonce=nonce,
        ))
        built.sim.run_until_idle()
        assert [r["client"] for r in built.sim.trace.find("admit")[admits:]] == ["s"]
        assert [r["dst"] for r in built.sim.trace.find("send", msg="ConnectGrant")] == ["s"]


def deliver_at_server(built, payload):
    """The last router on the session's path hands payload to s; run."""
    route = built.servers["s"].session_with("u").route.hops
    built.sim.send(route[-1], "s", Envelope(route, len(route) - 1, "u", "s",
                                            payload, built.sim.now))
    built.sim.run_until_idle()


def connected(gated=False):
    """u holds an established session with s, past the horizon, so no
    heartbeat runs. gated: s admits only holders of a token u lacks."""
    text = SCENARIO.replace("open-access", "tokens pass") if gated else SCENARIO
    built = settled(register_user=True, text=text)
    user, server = built.users["u"], built.servers["s"]
    user.do_connect(server.appid.id, "echo", built.sim.now)
    built.sim.run_until_idle()
    return built, user, server


class TestPayloadReplay:
    def test_a_replayed_payload_is_refused(self):
        built, user, server = connected()
        user.do_send_payloads("s", 1, built.sim.now)
        built.sim.run_until_idle()
        sess = server.session_with("u")
        heard = sess.status.last_heartbeat
        # The last router on the path sends a captured payload again.
        body = b"payload-0"
        deliver_at_server(built, AppPayload(sess.session_id, 0, body,
                                            session.message_tag(sess.key, 0, body)))
        records = built.sim.trace.find("payload", node="s")
        payloads = [(r["seq"], r["accepted"], r.get("reason")) for r in records]
        assert payloads == [(0, True, None), (0, False, "replay")]
        assert (sess.payloads_accepted, sess.highest_seq) == (1, 0)
        metrics = built.world.metrics
        assert (metrics.payloads_accepted, metrics.payloads_denied) == (1, 1)
        # The replay proves nothing about the client: liveness stays where
        # the original put it.
        assert heard == records[0]["time"] < records[1]["time"]
        assert sess.status.last_heartbeat == heard


class TestLivenessFromTraffic:
    """Only an authenticated in-session message refreshes a session's
    liveness; a receipt answers every payload of its tick."""

    # A seq outside u64 has no tag at all: it too is refused as bad-tag,
    # and the run goes on.
    @pytest.mark.parametrize("seq", [0, -1, 1 << 64], ids=["0", "-1", "2^64"])
    def test_a_payload_with_a_bad_tag_refreshes_nothing(self, seq):
        built, user, server = connected()
        sess = server.session_with("u")
        heard = sess.status.last_heartbeat
        deliver_at_server(built, AppPayload(sess.session_id, seq, b"forged", bytes(16)))
        (record,) = built.sim.trace.find("payload", node="s")
        assert (record["seq"], record["accepted"], record["reason"]) == (seq, False, "bad-tag")
        assert heard < record["time"]
        assert sess.status.last_heartbeat == heard
        user.do_send_payloads("s", 1, built.sim.now)
        built.sim.run_until_idle()
        assert len(built.sim.trace.find("payload", node="s", accepted=True)) == 1

    def test_an_authentic_payload_denied_access_refreshes_liveness(self):
        built, user, server = connected(gated=True)
        user.do_send_payloads("s", 1, built.sim.now)
        built.sim.run_until_idle()
        (record,) = built.sim.trace.find("payload", node="s")
        assert (record["accepted"], record["reason"]) == (False, "no-token")
        assert server.session_with("u").status.last_heartbeat == record["time"]

    def test_one_receipt_with_two_results_counts_two_payloads(self):
        built, user, server = connected()
        sent = len(built.sim.trace.find("send", src="s"))
        user.do_send_payloads("s", 2, built.sim.now)
        built.sim.run_until_idle()
        assert len(built.sim.trace.find("payload", node="s", accepted=True)) == 2
        (receipt,) = built.sim.trace.find("send", src="s")[sent:]
        metrics = built.world.metrics
        assert (metrics.payloads_sent, metrics.payloads_accepted, metrics.payloads_denied) == (2, 2, 0)
        # The receipt is the client's news of the server.
        assert user.session_with("s").status.last_heartbeat > receipt["time"]

    def test_a_receipt_for_a_session_the_user_does_not_hold_counts_nothing(self):
        built, user, server = connected()
        heard = user.session_with("s").status.last_heartbeat
        built.sim.send("ap", "u", PayloadReceipt(bytes(16), ((0, True, "ok"), (1, False, "replay"))))
        built.sim.run_until_idle()
        metrics = built.world.metrics
        assert (metrics.payloads_accepted, metrics.payloads_denied) == (0, 0)
        assert user.session_with("s").status.last_heartbeat == heard


class TestRotatingSender:
    def test_the_sender_switches_to_the_receivers_session_without_verifying(self, monkeypatch):
        built = settled(register_user=True)
        user, server = built.users["u"], built.servers["s"]
        user.do_connect(server.appid.id, "echo", built.sim.now)
        built.sim.run_until_idle()
        calls = []
        original = identity.verify_linkage

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(identity, "verify_linkage", counting)
        monkeypatch.setattr(session, "verify_linkage", counting)
        user.do_rotate(built.sim.now)
        assert calls == []
        built.sim.run_until_idle()
        assert len(calls) == 1  # the server's check of the notice
        (rotation,) = built.sim.trace.find("rotation", node="s")
        sent, received = user.session_with("s"), server.session_with("u")
        assert received.status.last_heartbeat == rotation["time"]  # an accepted notice is news

        def switched(sess):
            return sess.key, sess.client_appid, sess.client_bcadd, sess.rotation_count

        assert switched(sent) == switched(received)
        assert (sent.client_bcadd, sent.rotation_count) == (user.bcadd, 1)

    def test_a_notice_delivered_again_is_rejected_and_changes_nothing(self):
        built, user, server = connected()
        notices, send = [], built.sim.send

        def recorded(src, dst, message, note=None):
            if src == "u" and isinstance(message, Envelope):
                notices.append(message.inner)
            send(src, dst, message, note)

        built.sim.send = recorded
        user.do_rotate(built.sim.now)
        built.sim.run_until_idle()
        (notice,) = [m for m in notices if isinstance(m, RotationEnvelope)]
        rotations = built.world.metrics.rotations_completed
        assert rotations == 1
        # The last router on the path hands the same notice to s again:
        # its tag is under the key the first delivery replaced.
        deliver_at_server(built, notice)
        (rejected,) = built.sim.trace.find("rotation-rejected")
        assert {k: v for k, v in rejected.items() if k not in ("kind", "time")} == {
            "node": "s", "reason": "notice was not delivered inside this session"}
        assert built.world.metrics.rotations_completed == rotations
        assert user.session_with("s").key_check() == server.session_with("u").key_check()


class TestRefusedHandshakeMessage:
    """A message the handshake refuses, or a refusal that arrives after
    the router's grant, leaves it open: anyone can send one under the
    peer's name."""

    def connect(self, built):
        user, server = built.users["u"], built.servers["s"]
        user.do_connect(server.appid.id, "echo", built.sim.now)
        built.sim.run_until_idle()
        return user, server

    def established(self, built, node):
        return built.sim.trace.find("handshake", phase="established", node=node)

    def failures(self, built, node):
        return [(r["phase"], r["reason"])
                for r in built.sim.trace.find("handshake-failed", node=node)]

    def test_forged_confirm_leaves_the_server_handshake_open(self):
        built = settled(register_user=True)
        server = built.servers["s"]
        accept_hello = server._handle_hello

        def then_forge(hello, envelope, now):
            accept_hello(hello, envelope, now)
            built.sim.send("ap", "s", HandshakeEnvelope(replace(hello, phase="confirm")))

        server._handle_hello = then_forge
        user, server = self.connect(built)
        assert self.failures(built, "s") == [("confirm", "transcript-mismatch")]
        assert len(self.established(built, "s")) == 1
        assert server.pending == {} and user.pending == {}
        assert user.session_with("s").key_check() == server.session_with("u").key_check()

    def test_a_confirm_rewritten_in_flight_is_a_bad_proof_with_the_helper_on(self, helper):
        # The helper has answered for the signature the client made; a
        # confirm carrying another signature finds no answer and is refused.
        built = settled(register_user=True)
        server = built.servers["s"]
        accept_confirm = server._handle_confirm

        def rewritten_first(confirm, now):
            settle(helper)
            answered = len(helper._answers)
            signature = confirm.linkage.signature
            bent = replace(confirm.linkage, signature=bytes([signature[0] ^ 1]) + signature[1:])
            accept_confirm(replace(confirm, linkage=bent), now)
            assert len(helper._answers) == answered
            accept_confirm(confirm, now)
            assert len(helper._answers) == answered - 1

        server._handle_confirm = rewritten_first
        with helper.scope():
            user, server = self.connect(built)
        assert self.failures(built, "s") == [("confirm", "bad-proof")]
        assert len(self.established(built, "s")) == 1
        assert helper._answers == {}

    def test_forged_challenge_leaves_the_client_handshake_open(self):
        built = settled(register_user=True)
        user, server = built.users["u"], built.servers["s"]
        start = user._start_handshake

        def then_forge(grant, now):
            start(grant, now)
            forged = HandshakeMessage("challenge", server.appid, bytes(16), bytes(32), bytes(32))
            built.sim.send("ap", "u", HandshakeEnvelope(forged))

        user._start_handshake = then_forge
        self.connect(built)
        assert self.failures(built, "u") == [("challenge", "transcript-mismatch")]
        assert len(self.established(built, "u")) == 1
        assert user.pending == {}
        assert user.session_with("s").key_check() == server.session_with("u").key_check()

    def test_refusal_after_the_grant_leaves_the_client_handshake_open(self):
        built = settled(register_user=True)
        user = built.users["u"]
        start = user._start_handshake

        def then_refuse(grant, now):
            start(grant, now)
            built.sim.send("ap", "u", ConnectRefused(grant.server_key, "not-found"))

        user._start_handshake = then_refuse
        self.connect(built)
        assert len(built.sim.trace.find("connect-refused", client="u")) == 1
        assert len(self.established(built, "u")) == 1


class TestRouterBind:
    def test_a_bind_submits_nothing_to_the_ledger(self):
        # The binding lives in the segment's NEAT table; the router puts no
        # association of the subject with itself on the shared ledger.
        built = settled()
        sim = built.sim
        before = len(sim.trace.find("send", src="ap", msg="SubmitTx"))
        locator = NetworkLocator(device_id="u", port=9000, segment=1)
        sim.schedule(sim.now + 1, "ap", Delivery("u", BindRequest(b"b" * 32, locator), sim.now))
        sim.run_until_idle()
        assert len(sim.trace.find("neat-bind", key=(b"b" * 32).hex()[:16])) == 1
        assert len(sim.trace.find("send", src="ap", msg="SubmitTx")) == before


class TestRouterSummaryPush:
    """A router pushes its table's summary at most once per tick."""

    TEXT = """
seed 6
segment 1
segment 2
segment 3
link 1 2 1
link 2 3 1
node ap1 router 1
node ap2 router 2
node ap3 router 3
node seq sequencer 1
"""

    def test_binds_and_unbinds_in_one_tick_push_once(self):
        sc = parse_scenario(self.TEXT)
        built = build_simulation(sc)
        _schedule_actions(built, sc)
        built.sim.run_until_idle()
        sim, start = built.sim, built.sim.now + 1

        def deliver(at, router, message):
            sim.schedule(at, router, Delivery("d", message, at - 1))

        def bind(subject, segment):
            locator = NetworkLocator(device_id="d", port=1, segment=segment)
            return BindRequest(subject=bytes([subject]) * 32, locator=locator)

        for subject in (1, 2, 3):  # three binds in one tick
            deliver(start, "ap1", bind(subject, 1))
        deliver(start + 2, "ap1", bind(4, 1))  # a bind and an unbind in one tick
        deliver(start + 2, "ap1", UnbindRequest(subject=bytes([1]) * 32))
        deliver(start + 4, "ap1", bind(5, 1))  # a later tick pushes again
        deliver(start + 4, "ap2", bind(6, 2))
        sim.run_until_idle()

        pushes = {}
        for record in sim.trace.find("send", msg="FilterSnapshot"):
            pushes.setdefault((record["src"], record["time"]), []).append(record["dst"])
        assert pushes == {
            ("ap1", start): ["ap2", "ap3"],
            ("ap1", start + 2): ["ap2", "ap3"],
            ("ap1", start + 4): ["ap2", "ap3"],
            ("ap2", start + 4): ["ap1", "ap3"],
        }
        tables = built.world.tables
        assert len(tables[1].keys()) == 4
        for name, router in built.routers.items():
            pushed = {1, 2} - {router.segment}
            assert router.remote_filters == {s: tables[s].snapshot() for s in pushed}


class TestAnOutOfRangeValueIsRefusedNotRaised:
    """A message with a value out of its range is refused where the value
    enters, with a traced reason, and the run goes on: the network, not
    only an honest peer, writes the messages a node handles."""

    def test_a_connect_with_an_epoch_past_u64_is_a_bad_proof(self):
        built = settled()
        user, server = built.users["u"], built.servers["s"]
        appid = derive_appid(user.secret, user.bcadd, ServiceProps("echo"))
        nonce = b"n" * 16
        proof = make_linkage_proof(user.secret, user.bcadd, appid, nonce)
        record = connect(built, nonce,
                         credentials=(replace(user.bcadd, epoch=1 << 64), appid, proof))
        assert (record["decision"], record["reason"]) == (False, "bad-proof")
        assert built.world.metrics.admissions_rejected == {"bad-proof": 1}
        # The refusal used up nothing: the honest request with that nonce goes through.
        assert connect(built, nonce)["decision"] is True

    # A payload whose seq is outside u64: TestLivenessFromTraffic.
    def bind_after(self, built, message, dst):
        """Deliver message to dst, then a good bind to the router in the
        same tick; run. The good bind is traced only if the run went on."""
        sim = built.sim
        locator = NetworkLocator(device_id="u", port=9000, segment=1)
        sim.schedule(sim.now + 1, dst, Delivery("u", message, sim.now))
        sim.schedule(sim.now + 1, "ap", Delivery("u", BindRequest(b"b" * 32, locator), sim.now))
        sim.run_until_idle()
        assert len(sim.trace.find("neat-bind", key=(b"b" * 32).hex()[:16])) == 1

    def test_a_bind_of_a_subject_not_32_bytes_is_refused(self):
        built = settled()
        binds = len(built.sim.trace.find("neat-bind"))
        locator = NetworkLocator(device_id="u", port=9000, segment=1)
        self.bind_after(built, BindRequest(b"b" * 24, locator), "ap")
        (refused,) = built.sim.trace.find("neat-bind-refused")
        assert (refused["segment"], refused["reason"]) == (1, "keys are 32 bytes")
        assert len(built.sim.trace.find("neat-bind")) == binds + 1
        assert b"b" * 24 not in built.world.tables[1].keys()

    def test_a_registration_of_a_subject_not_32_bytes_is_refused(self):
        text = SCENARIO.replace("node u user 1", "node reg regulator 1\nnode u user 1")
        built = settled(text=text)
        self.bind_after(built, RegisterAttributes(b"r" * 7, {"age": 30}), "reg")
        (refused,) = built.sim.trace.find("attributes-refused")
        assert refused["submitter"] == "u"
        assert refused["reason"] == "subject must be a 32-byte address"
        assert built.sim.trace.find("attributes-registered") == []

    @pytest.mark.parametrize("route, dst", [(("ap", "nowhere"), "s"), (("ap",), "nowhere")],
                             ids=["next hop", "dst"])
    def test_an_envelope_to_a_name_that_is_no_node_is_dropped(self, route, dst):
        built = settled()
        envelope = Envelope(route, 0, "u", dst, Heartbeat(bytes(16)), built.sim.now)
        self.bind_after(built, envelope, "ap")
        (dropped,) = built.sim.trace.find("envelope-dropped")
        assert dropped == {"kind": "envelope-dropped", "time": dropped["time"],
                           "router": "ap", "target": "nowhere", "reason": "unknown-node"}
        assert built.sim.trace.find("send", src="ap", dst="nowhere") == []

    def test_a_grant_whose_route_starts_at_no_node_is_dropped_at_the_user(self):
        built = settled(register_user=True)
        user, server = built.users["u"], built.servers["s"]
        user.do_connect(server.appid.id, "echo", built.sim.now)
        sim = built.sim
        # The router's grant arrives rewritten, before the honest one.
        sim.schedule(sim.now + 1, "u", Delivery("ap", ConnectGrant(
            server.appid.id, ("nowhere",), 0, "s"), sim.now))
        sim.run_until_idle()
        (dropped,) = sim.trace.find("envelope-dropped")
        assert dropped == {"kind": "envelope-dropped", "time": dropped["time"],
                           "node": "u", "target": "nowhere", "reason": "unknown-node"}
        # The honest grant that follows still opens the session.
        assert sim.trace.find("handshake", phase="established", node="u")


@pytest.mark.parametrize("counters, reason", [
    ({"payloads_sent": -1}, "negative counter"),
    ({"admissions_rejected": {"bad-proof": -1}}, "negative counter"),
    ({"handshakes_attempted": 1, "handshakes_succeeded": 2}, "succeeded exceeds attempted"),
], ids=["negative payload count", "negative rejection count", "more successes than attempts"])
def test_inconsistent_metrics_are_not_written(counters, reason):
    with pytest.raises(ValueError, match=reason):
        Metrics(**counters).to_dict()
