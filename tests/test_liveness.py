"""No session end goes silent, and none wastes a heartbeat.

A session end sends a Heartbeat only after a whole heartbeat period P
(nodes.HEARTBEAT_PERIOD, 2 ticks) with no other in-session message for
that session: the peer takes any accepted in-session message as liveness.
Its timer is re-armed P ticks after the last in-session send, and a beat
that falls due waits for the end of its tick, so that a message sent
later in the tick (a server's receipt) stands in for it. A server
answers one tick's payloads of a session with one receipt, at the end of
the tick. The peer reads a session alive while its last news is at most
session.HEARTBEAT_TIMEOUT (5) ticks old, so with P = 2 it tolerates one
lost heartbeat, and two in a row make it read not-alive.

Send records name only the outer message (Envelope). The run therefore
records every send's message as it is made, and the check first asserts
that these sends are, one for one, the trace's send records.
"""

from collections import Counter, defaultdict
from math import ceil
from pathlib import Path

import pytest

from overnym import session
from overnym.nodes import (
    HEARTBEAT_PERIOD,
    AppPayload,
    Envelope,
    Heartbeat,
    PayloadReceipt,
    RotationEnvelope,
    UserNode,
)
from overnym.runner import _schedule_actions, _schedule_probes, build_simulation
from overnym.scenario import parse_scenario

ROOT = Path(__file__).parent.parent
FIXTURES = sorted((ROOT / "scenarios").glob("*.scn"))
IN_SESSION = (Heartbeat, AppPayload, PayloadReceipt, RotationEnvelope)

# Payload bursts from two users to a gated server in the same ticks, and
# to an open one: a user without the token (denied until the transfer), a
# rotation, and a denied payload after the token moves.
BURSTS = """
seed 5
segment 1
segment 2
link 1 2 1
node ap1 router 1
node ap2 router 2
node seq sequencer 1
node ann user 1
node ben user 1
node shop app-server 2 service=shop
node echo app-server 1 service=echo
at 1 register ann
at 1 register ben
at 1 register shop tokens pass
at 1 register echo open-access
at 4 bind ann
at 4 bind ben
at 4 bind shop
at 4 bind echo
at 5 mint-nft pass ann
at 8 connect ann shop
at 8 connect ben shop
at 9 connect ann echo
at 20 send ann shop 3
at 20 send ben shop 2
at 20 send ann echo 1
at 24 rotate ann
at 25 send ann shop 1
at 26 send ann echo 2
at 30 transfer-nft pass ben
at 33 send ann shop 2
at 33 send ben shop 1
expect handshake ann shop success
expect handshake ben shop success
expect handshake ann echo success
expect rotations 2
"""


def run_recorded(text, lose=None, each_tick=None):
    """Run a scenario; return what it built and each send as
    (time, src, dst, message), in the order sent. A send for which
    lose(time, src, message) is true is lost at its sender: neither made
    nor recorded. each_tick(built, now), if given, runs first in every
    tick up to the horizon."""
    sc = parse_scenario(text)
    built = build_simulation(sc)
    sim, sends = built.sim, []
    send = sim.send

    def recorded(src, dst, message, note=None):
        if lose is None or not lose(sim.now, src, message):
            sends.append((sim.now, src, dst, message))
            send(src, dst, message, note)

    sim.send = recorded
    if each_tick is not None:
        for tick in range(built.world.horizon + 1):
            sim.call_at(tick, lambda: each_tick(built, sim.now))
    _schedule_actions(built, sc)
    _schedule_probes(built, sc)
    sim.run_until_idle()
    traced = [(r["time"], r["src"], r["dst"], r["msg"])
              for r in sim.trace.records if r["kind"] == "send"]
    assert traced == [(t, src, dst, type(m).__name__) for t, src, dst, m in sends]
    return built, sends


def in_session_sends(sends):
    """(device, session prefix) -> tick -> the in-session messages the
    device sent into that session in that tick."""
    out = defaultdict(lambda: defaultdict(list))
    for time, src, _, message in sends:
        if (isinstance(message, Envelope) and message.hop == 0 and message.src == src
                and isinstance(message.inner, IN_SESSION)):
            out[(src, message.inner.session_id.hex()[:16])][time].append(message.inner)
    return out


def check_liveness(built, sends):
    """Per heartbeat period P: each end of each established session sends
    in-session at least once in every P ticks from the tick it was
    established, up to the horizon or its crash; a Heartbeat goes only at
    exactly P ticks after the end's previous send (or after the session
    opened), and alone in its tick. At P = 1 that is a send in every
    tick, with a Heartbeat only in a tick with no other message."""
    trace, horizon, period = built.sim.trace, built.world.horizon, HEARTBEAT_PERIOD
    crashed_at = {r["node"]: r["time"] for r in trace.find("fault", fault="crash-node")}
    by_end = in_session_sends(sends)
    for record in trace.find("handshake", phase="established"):
        end = (record["node"], record["session"])
        ticks = sorted({record["time"], *by_end[end]})
        # A crash takes effect at the end of its tick.
        last = min(horizon, crashed_at.get(end[0], horizon + 1) - 1)
        upto = [t for t in ticks if t <= last]
        gaps = [(a, b) for a, b in zip(upto, [*upto[1:], last + 1]) if b - a > period]
        assert gaps == [], f"{end} silent for more than {period} ticks after {gaps}"
        for previous, tick in zip([None, *ticks], ticks):
            kinds = Counter(type(m).__name__ for m in by_end[end][tick])
            assert kinds["Heartbeat"] == 0 or (
                kinds == {"Heartbeat": 1} and previous is not None
                and tick == previous + period), (end, tick, kinds)
            assert kinds["PayloadReceipt"] <= 1, (end, tick, kinds)
    assert set(by_end) <= {(r["node"], r["session"])
                           for r in trace.find("handshake", phase="established")}


def check_receipts(built, sends):
    """Each server tick's receipts carry exactly that tick's payload results."""
    trace = built.sim.trace
    for server in built.servers:
        answered, receipted = Counter(), Counter()
        for r in trace.find("payload", node=server):
            answered[(r["time"], r["seq"], r["accepted"], r.get("reason", "ok"))] += 1
        for time, src, _, message in sends:
            if src == server and isinstance(message, Envelope) and message.hop == 0 \
                    and isinstance(message.inner, PayloadReceipt):
                assert message.inner.results
                for result in message.inner.results:
                    receipted[(time, *result)] += 1
        assert receipted == answered


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_no_end_goes_silent_and_none_sends_a_needless_heartbeat(path):
    built, sends = run_recorded(path.read_text())
    check_liveness(built, sends)
    check_receipts(built, sends)


@pytest.mark.parametrize("text", [path.read_text() for path in FIXTURES] + [BURSTS],
                         ids=[path.stem for path in FIXTURES] + ["bursts"])
def test_every_held_session_keeps_its_key(text):
    # Session ends test only for a missing session: nothing in the
    # simulator closes one, so every session they hold keeps a key.
    built, _ = run_recorded(text)
    ends = [*built.users.values(), *built.servers.values()]
    held = [(end.name, held.session) for end in ends for held in end.held.values()]
    assert len(held) == len(built.sim.trace.find("handshake", phase="established"))
    assert [name for name, sess in held if sess.key is None] == []


# BURSTS with a second session from ann to echo.
RECONNECT = BURSTS.replace("at 24 rotate ann\n", "at 22 connect ann echo\nat 24 rotate ann\n")


@pytest.mark.parametrize("text", [path.read_text() for path in FIXTURES] + [BURSTS, RECONNECT],
                         ids=[path.stem for path in FIXTURES] + ["bursts", "reconnect"])
def test_session_with_gives_the_first_session_held_with_a_peer(text):
    built, _ = run_recorded(text)
    if text is RECONNECT:
        peers = [held.peer for held in built.users["ann"].held.values()]
        assert peers.count("echo") == 2
    for end in [*built.users.values(), *built.servers.values()]:
        first = {}
        for held in end.held.values():
            first.setdefault(held.peer, held.session)
        for peer in [*built.users, *built.servers]:
            assert end.session_with(peer) is first.get(peer)


def test_bursts_rotation_and_denials_keep_every_end_heard():
    built, sends = run_recorded(BURSTS)
    assert len(built.sim.trace.find("handshake", phase="established")) == 6
    check_liveness(built, sends)
    check_receipts(built, sends)
    # What the run must contain for the check to mean something: receipts
    # that answer several payloads, two sessions answered in one tick, a
    # denied payload, and heartbeats skipped beside other messages.
    receipts = [(t, m.inner) for t, src, _, m in sends
                if isinstance(m, Envelope) and m.hop == 0 and src == "shop"
                and isinstance(m.inner, PayloadReceipt)]
    assert max(len(r.results) for _, r in receipts) == 3
    assert max(Counter(t for t, _ in receipts).values()) == 2
    assert any(not ok for _, r in receipts for _, ok, _ in r.results)
    assert built.sim.trace.find("rotation-sent", node="ann")
    for (device, _), ticks in in_session_sends(sends).items():
        if device == "ann":
            assert ticks[24] and not any(isinstance(m, Heartbeat) for m in ticks[24])


def test_a_server_that_crashes_with_a_receipt_pending_never_sends_it():
    # The crash, moved to the tick the payloads arrive in, runs after them
    # but before the tick's receipt flush.
    text = (ROOT / "scenarios" / "crash_server.scn").read_text()
    built, sends = run_recorded(text.replace("at 26 fault", "at 25 fault"))
    trace = built.sim.trace
    assert [(r["time"], r["seq"], r["accepted"]) for r in trace.find("payload")] == [
        (25, 0, True), (25, 1, True)]
    assert [r["time"] for r in trace.find("fault", fault="crash-node")] == [25]
    receipts = [t for t, src, _, m in sends
                if src == "relay" and isinstance(m, Envelope) and isinstance(m.inner, PayloadReceipt)]
    assert receipts == []
    metrics = built.world.metrics
    assert (metrics.payloads_sent, metrics.payloads_accepted, metrics.payloads_denied) == (2, 0, 0)


# BURSTS with a quiet stretch after its last payload, to lose heartbeats in.
QUIET = BURSTS + "horizon 70\n"


def lost_and_not_alive(losses):
    """Run QUIET, losing ann's first `losses` heartbeats to echo after tick
    40. Returns the ticks they were lost in, and the ticks in which echo
    reads its session with ann not alive."""
    lost, not_alive = [], []

    def lose(time, src, message):
        if (time > 40 and len(lost) < losses and src == "ann" and isinstance(message, Envelope)
                and message.hop == 0 and message.dst == "echo"
                and isinstance(message.inner, Heartbeat)):
            lost.append(time)
            return True
        return False

    def probe(built, now):
        sess = built.servers["echo"].session_with("ann")
        if sess is not None and not session.check_alive(sess, now).alive:
            not_alive.append(now)

    run_recorded(QUIET, lose, probe)
    return lost, not_alive


def test_one_lost_heartbeat_never_reads_as_not_alive():
    lost, not_alive = lost_and_not_alive(1)
    assert len(lost) == 1
    assert not_alive == []


def test_two_heartbeats_lost_in_a_row_read_as_not_alive():
    lost, not_alive = lost_and_not_alive(2)
    assert lost == [lost[0], lost[0] + HEARTBEAT_PERIOD]
    assert not_alive and min(not_alive) > lost[1]


# BURSTS with ann sending echo a payload in every tick from 40 to 46.
BUSY = range(40, 47)
STREAMING = BURSTS + "".join(f"at {t} send ann echo 1\n" for t in BUSY)


def test_an_end_busy_every_tick_sends_no_heartbeat_and_wakes_once_a_period(monkeypatch):
    fired = []
    on_timer = UserNode.on_timer

    def recording(self, tag, data, now):
        if self.name == "ann" and getattr(data, "peer", None) == "echo":
            fired.append((now, tag))
        on_timer(self, tag, data, now)

    monkeypatch.setattr(UserNode, "on_timer", recording)
    built, sends = run_recorded(STREAMING)
    check_liveness(built, sends)
    sess = built.users["ann"].session_with("echo")
    ticks = in_session_sends(sends)[("ann", sess.session_id.hex()[:16])]
    assert all(ticks[t] and all(isinstance(m, AppPayload) for m in ticks[t]) for t in BUSY)
    # The timer wakes, finds the end busy and sends nothing: no beat is
    # scheduled, and the next wake is a period after the last send.
    busy = [(t, tag) for t, tag in fired if t in BUSY]
    assert {tag for _, tag in busy} == {"heartbeat"}
    assert len(busy) <= ceil(len(BUSY) / HEARTBEAT_PERIOD)
