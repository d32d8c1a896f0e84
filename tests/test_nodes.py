"""Node-level protocol checks: the first router's admission, the
sequencer's handling of submissions and commits, and handshakes in
flight at the session ends."""

from dataclasses import replace

import pytest

from overnym import identity, session
from overnym.identity import ServiceProps, derive_appid, make_linkage_proof
from overnym.ledger import RegistrationTx
from overnym.nodes import (
    AccessPointNode,
    ConnectRefused,
    ConnectRequest,
    HandshakeEnvelope,
    SubmitTx,
)
from overnym.runner import _ActionDriver, _schedule_actions, build_simulation
from overnym.scenario import parse_scenario
from overnym.session import HandshakeMessage

from conftest import forge_key_linkage

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


def settled(strict=False, register_user=False):
    text = SCENARIO.replace("at 3", "at 1 register u\nat 3") if register_user else SCENARIO
    sc = parse_scenario(text)
    built = build_simulation(sc, strict=strict)
    _ActionDriver(built)
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
        client="u", server_key=server.appid.id, bcadd=bcadd,
        appid=appid, proof=proof, nonce=nonce,
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

    def measured(self, request, now):
        start = calls[0]
        handle_connect(self, request, now)
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
        sequencer.on_message("u", SubmitTx(payload=payload, nonce=b"x" * 16, submitter="u"),
                             now=built.sim.now, sent_at=built.sim.now)

    def test_invalid_tx_is_refused_and_traced(self):
        built = settled()
        self.submit(built, RegistrationTx(kind="bogus", subject=bytes(32), public_key=b""))
        refused = built.sim.trace.find("tx-refused")
        assert len(refused) == 1 and "unknown registration kind" in refused[0]["reason"]

    def test_unrelated_error_propagates(self):
        class Broken(RegistrationTx):
            def validate(self):
                raise RuntimeError("bug in a payload type")

        built = settled()
        with pytest.raises(RuntimeError, match="bug in a payload type"):
            self.submit(built, Broken(kind="user", subject=bytes(32), public_key=b""))
        assert built.sim.trace.find("tx-refused") == []

    def test_commit_head_is_last_committed_entry(self):
        built = settled(register_user=True)
        by_seq = {entry.seq: entry for entry in built.world.ledger.entries}
        commits = built.sim.trace.find("commit")
        assert commits
        for record in commits:
            assert record["head"] == by_seq[record["seqs"][-1]].entry_hash.hex()[:16]


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
