"""The verify-ahead helper (ahead.py): the same bytes whether it answers
every verify, key and sign frame, cannot start, is not used on one CPU
or dies mid-run; an answer only for the exact frame it was sent, and no
wasted work where nothing is submitted; an answer of any kind read in
part; no wait on a full pipe; no entry left after a run; no helper
outside a run or after exit."""

import fcntl
import hashlib
import importlib.util
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from overnym import ahead, nodes, runner, session
from overnym.ahead import KEY, SIGN, VALID, VERIFY
from overnym.hashing import TAG_SIGKEY, owf
from overnym.identity import (
    MismatchedSecret,
    derive_appid,
    derive_bcadd,
    make_linkage_proof,
    sign_linkage_ahead,
    verify_linkage,
)
from overnym.runner import run_scenario, write_outputs
from overnym.scenario import parse_scenario
from overnym.session import rotation_nonce
from overnym.wire import pack_u64

from conftest import make_secret, settle

ROOT = Path(__file__).parent.parent
FIXTURES = sorted((ROOT / "scenarios").glob("*.scn"))

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class Frames:
    """Counts per frame kind (ahead.VERIFY, KEY or SIGN): the frames
    written to the helper ("sent"), the takes of a frame submitted in
    this scope and not yet claimed ("found"), and the takes that got the
    helper's answer ("answered"). With "wait" set, a take first waits for
    its frame's answer, so that every frame found is answered by the
    helper rather than computed inline."""

    def __init__(self):
        self.wait = False
        self.reset()

    def reset(self):
        self.sent, self.found, self.answered = Counter(), Counter(), Counter()


@pytest.fixture
def frames(monkeypatch):
    counts = Frames()
    send, take = ahead.VerifyAhead._send, ahead.VerifyAhead.take

    def counting_send(self, frame):
        written = send(self, frame)
        if written:
            counts.sent[frame[:1]] += 1
        return written

    def counting_take(self, frame):
        deadline = time.monotonic() + 20
        while counts.wait and frame in self._answers and self._answers[frame] is None:
            assert time.monotonic() < deadline, "the helper did not answer"
            self._receive()
            time.sleep(0.0002)
        if frame in self._answers:
            counts.found[frame[:1]] += 1
        answer = take(self, frame)
        if answer is not None:
            counts.answered[frame[:1]] += 1
        return answer

    monkeypatch.setattr(ahead.VerifyAhead, "_send", counting_send)
    monkeypatch.setattr(ahead.VerifyAhead, "take", counting_take)
    return counts


def cannot_start():
    raise OSError("no helper")


def outputs(text, tmp_path):
    """(trace sha256, metrics.json bytes) of one run, as `overnym run` writes them."""
    trace, metrics = tmp_path / "run.trace.jsonl", tmp_path / "run.metrics.json"
    write_outputs(run_scenario(parse_scenario(text)), str(trace), str(metrics))
    return hashlib.sha256(trace.read_bytes()).hexdigest(), metrics.read_bytes()


SOURCES = [pytest.param(path.read_text(), id=path.stem) for path in FIXTURES] + [
    pytest.param(workloads.generate(name, 1), id=name) for name in sorted(workloads.WORKLOADS)
]


@pytest.mark.parametrize("text", SOURCES)
def test_the_same_bytes_with_and_without_the_helper(text, helper, frames, monkeypatch, tmp_path):
    frames.wait = True
    on = outputs(text, tmp_path)
    assert frames.answered[VERIFY] == frames.found[VERIFY] > 0
    # Only a rotation submits key and sign frames, and every rotation
    # after a user's first takes both the helper's public key and its
    # signature.
    rotations = [action for action in parse_scenario(text).actions if action.kind == "rotate"]
    later = len(rotations) - len({action.args for action in rotations})
    assert (frames.sent[KEY] > 0) == (frames.sent[SIGN] > 0) == bool(rotations)
    assert frames.answered[KEY] == frames.found[KEY] == later <= frames.sent[KEY]
    assert frames.answered[SIGN] == frames.found[SIGN] == later <= frames.sent[SIGN]

    frames.reset()
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == on
    assert ahead.AHEAD._failed and ahead.AHEAD._proc is None
    assert frames.sent == frames.found == frames.answered == {}


def test_a_rotation_takes_every_key_and_signature_made_ahead_for_it(
        helper, frames, monkeypatch, tmp_path):
    # 20 users, one session each, 10 rotations each: every rotation
    # submits the next one's key and proof, and every rotation but a
    # user's first takes both; each user's last submissions are never
    # claimed.
    text = workloads.generate("rotation_churn", 1, size=20)
    frames.wait = True
    on = outputs(text, tmp_path)
    assert frames.sent[KEY] == frames.sent[SIGN] == 200
    assert frames.answered[KEY] == frames.found[KEY] == 180
    assert frames.answered[SIGN] == frames.found[SIGN] == 180
    assert helper._answers == {}

    frames.reset()
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == on
    assert frames.sent == frames.found == frames.answered == {}


@pytest.mark.parametrize("name, size", [("handshake_storm", 200), ("rotation_churn", 20)])
def test_on_one_cpu_no_helper_starts(name, size, monkeypatch, frames, tmp_path):
    text = workloads.generate(name, 1, size=size)
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_cpus", lambda: 2)
    on = outputs(text, tmp_path)
    assert ahead.AHEAD._proc is not None
    ahead.AHEAD.close()

    one = ahead.VerifyAhead()
    monkeypatch.setattr(ahead, "AHEAD", one)
    monkeypatch.setattr(ahead, "_cpus", lambda: 1)
    monkeypatch.setattr(ahead, "_spawn", cannot_start)  # not even tried
    frames.reset()
    assert outputs(text, tmp_path) == on
    assert one._proc is None and not one._failed
    assert frames.sent == frames.found == frames.answered == {}


def test_on_one_cpu_a_rotation_computes_one_nonce_per_held_session(monkeypatch, tmp_path):
    # Each held session's rotation notice needs its nonce; the nonce of
    # the next rotation, for the sign frame, is not computed where no
    # frame can be submitted.
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_cpus", lambda: 1)
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    nonce, rotate = session.rotation_nonce, nodes.UserNode.do_rotate
    computed, per_rotation = [], []

    def counting_nonce(session_id, rotation_index):
        computed.append((session_id, rotation_index))
        return nonce(session_id, rotation_index)

    def counting_rotate(self, now):
        computed.clear()
        rotate(self, now)
        held = sorted((session_id, held.session.rotation_count)
                      for session_id, held in self.held.items())
        per_rotation.append((sorted(computed), held))

    monkeypatch.setattr(session, "rotation_nonce", counting_nonce)
    monkeypatch.setattr(nodes.UserNode, "do_rotate", counting_rotate)
    text = workloads.generate("rotation_churn", 1, size=20)
    outputs(text, tmp_path)
    assert len(per_rotation) == 200
    for nonces, held in per_rotation:
        assert nonces == held and len(held) == 1


def test_a_helper_killed_mid_run_leaves_the_bytes_and_later_runs_inline(
        helper, frames, monkeypatch, tmp_path):
    text = workloads.generate("handshake_storm", 1, size=200)
    build = runner.build_simulation
    killed = []

    def kill():
        proc = helper._proc
        killed.append(proc is not None and proc.poll() is None)
        proc.kill()
        proc.wait()

    def build_with_kill(sc, **kwargs):
        built = build(sc, **kwargs)
        built.sim.call_at(15, kill)  # connects run from tick 5 to 14, proofs to 25
        return built

    monkeypatch.setattr(runner, "build_simulation", build_with_kill)
    killed_run = outputs(text, tmp_path)
    assert killed == [True]
    assert helper._failed and helper._proc is None

    monkeypatch.setattr(runner, "build_simulation", build)
    frames.reset()
    assert outputs(text, tmp_path) == killed_run
    assert frames.found == frames.answered == {} and helper._proc is None

    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == killed_run


def test_a_helper_killed_between_rotations_leaves_the_bytes(helper, frames, monkeypatch, tmp_path):
    text = workloads.generate("rotation_churn", 1, size=20)
    rotations = sorted(action.time for action in parse_scenario(text).actions
                       if action.kind == "rotate")
    build = runner.build_simulation
    at_kill = {}

    def kill():
        arrived = sum(answer is not None for frame, answer in helper._answers.items()
                      if frame[:1] == SIGN)
        at_kill.update(sent=frames.sent[SIGN], taken=frames.answered[SIGN],
                       alive=helper._proc.poll() is None, arrived=arrived)
        helper._proc.kill()
        helper._proc.wait()

    def build_with_kill(sc, **kwargs):
        built = build(sc, **kwargs)
        built.sim.call_at(rotations[len(rotations) // 2], kill)
        return built

    monkeypatch.setattr(runner, "build_simulation", build_with_kill)
    frames.wait = True
    killed_run = outputs(text, tmp_path)
    assert at_kill["alive"] and at_kill["taken"] > 0
    # After the kill only answers read before it are taken; every other
    # rotation signs inline, and nothing more is submitted.
    taken = frames.answered[SIGN]
    assert at_kill["taken"] <= taken <= at_kill["taken"] + at_kill["arrived"] < 180
    assert frames.sent[SIGN] == at_kill["sent"]
    assert helper._failed and helper._proc is None

    monkeypatch.setattr(runner, "build_simulation", build)
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == killed_run


CRASHED_ROUTER = """
seed 2
segment 1
node ap router 1
node seq sequencer 1
node u user 1
node s app-server 1 service=echo
at 1 register s open-access
at 3 bind s
at 5 fault crash-node ap
at 6 connect u s service=echo
"""


@pytest.mark.parametrize("text", [pytest.param(CRASHED_ROUTER, id="crashed-router")] + [
    pytest.param(path.read_text(), id=path.stem) for path in FIXTURES])
def test_a_finished_run_leaves_no_entry(text, helper, frames):
    run_scenario(parse_scenario(text))
    assert helper._proc is not None  # a proof was submitted
    assert helper._answers == {}
    assert len(helper._sent) <= ahead.WINDOW
    # end_to_end rotates once: its one key and sign answers are never claimed.
    rotates = text == (ROOT / "scenarios" / "end_to_end.scn").read_text()
    assert frames.sent[KEY] == frames.sent[SIGN] == rotates
    assert frames.found[KEY] == frames.found[SIGN] == 0


def test_an_answer_is_taken_for_its_own_frame_only(helper, secret, bcadd, appid):
    nonce = bytes(16)
    with helper.scope():
        proof = make_linkage_proof(secret, bcadd, appid, nonce)
        key, signature = bcadd.public_key, proof.signature
        (frame,) = helper._answers
        message = frame[1 + ahead.KEY_SIZE + ahead.SIGNATURE_SIZE:]
        assert frame == ahead.verify_frame(key, signature, message)
        settle(helper)
        assert helper._answers[frame] == VALID
        forged = bytes([signature[0] ^ 1]) + signature[1:]
        assert helper.take(ahead.verify_frame(key, forged, message)) is None
        assert helper.take(ahead.verify_frame(key, signature, message[:-1] + b"\x01")) is None
        assert helper.take(frame) == VALID
        assert helper.take(frame) is None  # claimed once
        make_linkage_proof(secret, bcadd, appid, bytes(15) + b"\x01")
    assert helper._answers == {}


def test_a_triple_split_at_other_lengths_finds_no_answer(helper, secret, bcadd, appid):
    # The same bytes as an answered frame, cut into a key or a signature
    # of another size: no frame, so no answer, and the answer stays.
    with helper.scope():
        proof = make_linkage_proof(secret, bcadd, appid, bytes(16))
        settle(helper)
        key, signature = bcadd.public_key, proof.signature
        (frame,) = helper._answers
        message = frame[1 + len(key) + len(signature):]
        for triple in ((key + signature[:1], signature[1:] + message[:1], message[1:]),
                       (key[:-1], key[-1:] + signature[:-1], signature[-1:] + message),
                       (key, signature + message[:1], message[1:]),
                       (key, signature[:-1], signature[-1:] + message)):
            assert VERIFY + b"".join(triple) == frame
            assert ahead.verify_frame(*triple) is None
            assert helper.take(ahead.verify_frame(*triple)) is None
        assert helper._answers == {frame: VALID}


SESSION_A, SESSION_B = bytes(16), bytes(15) + b"\x01"


def inline_proof(index, epoch, service, nonce):
    """The proof bytes a fresh secret makes with no helper at all."""
    fresh = make_secret(index)
    bcadd = derive_bcadd(fresh, epoch)
    return make_linkage_proof(fresh, bcadd, derive_appid(fresh, bcadd, service), nonce).to_bytes()


def epoch_seed(secret, epoch):
    return owf(TAG_SIGKEY, secret.seed, pack_u64(epoch))


def test_a_signature_is_taken_for_its_own_seed_and_message_only(helper, service):
    secret = make_secret(11)
    with helper.scope():
        derive_bcadd(secret, 0)
        sign_linkage_ahead(secret, 1, service, rotation_nonce(SESSION_A, 1))
        settle(helper)
        seed = epoch_seed(secret, 1)
        assert [frame[:1 + len(seed)] for frame in helper._answers] == [KEY + seed, SIGN + seed]
        bcadd = derive_bcadd(secret, 1)
        cache = secret._epoch_cache
        # The key frame is claimed and the key is deferred; the sign
        # frame waits for the proof.
        (sign_frame,) = helper._answers
        assert cache.key is None and sign_frame[:1] == SIGN
        appid = derive_appid(secret, bcadd, service)
        own = make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_A, 1))
        assert cache.key is None and sign_frame not in helper._answers  # the helper's signature
        # The session's rotation count moved on after the submission, and a
        # second session was adopted after it: both sign inline.
        moved = make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_A, 2))
        assert cache.key is not None
        second = make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_B, 1))
    assert helper._answers == {}
    for proof, nonce in ((own, rotation_nonce(SESSION_A, 1)), (moved, rotation_nonce(SESSION_A, 2)),
                         (second, rotation_nonce(SESSION_B, 1))):
        assert proof.to_bytes() == inline_proof(11, 1, service, nonce)


def test_a_signature_under_another_public_key_is_not_used(helper, service):
    secret = make_secret(12)
    nonces = [rotation_nonce(SESSION_A, 1), rotation_nonce(SESSION_B, 1)]
    with helper.scope():
        for nonce in nonces:
            sign_linkage_ahead(secret, 1, service, nonce)
        settle(helper)
        # One key frame for the seed, one sign frame per message.
        assert [frame[:1] for frame in helper._answers] == [KEY, SIGN, SIGN]
        second = list(helper._answers)[2]
        helper._answers[second] = bytes(31) + b"\x09" + bytes(64)  # another key's answer
        bcadd = derive_bcadd(secret, 1)  # the key frame's answer
        appid = derive_appid(secret, bcadd, service)
        proofs = [make_linkage_proof(secret, bcadd, appid, nonce) for nonce in nonces]
    assert secret._epoch_cache.key is not None  # the second proof was signed here
    for proof, nonce in zip(proofs, nonces):
        assert proof.to_bytes() == inline_proof(12, 1, service, nonce)


@pytest.mark.parametrize("session_id", [SESSION_A, SESSION_B], ids=["signed-ahead", "inline"])
def test_a_deferred_key_must_match_its_bcadd(helper, service, session_id):
    # The key frame's answer is another key: the helper's signature under
    # the seed's own key is not used, and the key built to sign inline
    # does not match the BCADD.
    secret = make_secret(13)
    with helper.scope():
        sign_linkage_ahead(secret, 1, service, rotation_nonce(SESSION_A, 1))
        settle(helper)
        helper._answers[KEY + epoch_seed(secret, 1)] = bytes(31) + b"\x09"
        bcadd = derive_bcadd(secret, 1)
        assert bcadd.public_key == bytes(31) + b"\x09"
        appid = derive_appid(secret, bcadd, service)
        with pytest.raises(MismatchedSecret):
            make_linkage_proof(secret, bcadd, appid, rotation_nonce(session_id, 1))


def test_outside_a_scope_nothing_is_submitted(helper, secret, bcadd, appid, service):
    proof = make_linkage_proof(secret, bcadd, appid, bytes(16))
    assert verify_linkage(bcadd, appid, proof, bytes(16))
    sign_linkage_ahead(secret, 1, service, bytes(16))
    assert helper._proc is None and not helper._sent and helper._answers == {}


def test_a_helper_gone_before_its_answers_leaves_them_inline(helper, monkeypatch, service):
    # A helper that reads two frames and exits without answering them.
    mute = [sys.executable, "-c",
            "import sys; f = sys.stdin.buffer\n"
            "for _ in range(2): f.read(int.from_bytes(f.read(4), 'big'))"]
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        mute, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    secret, nonce = make_secret(14), rotation_nonce(SESSION_A, 1)
    with helper.scope():
        sign_linkage_ahead(secret, 1, service, nonce)
        assert [frame[:1] for frame in helper._sent] == [KEY, SIGN]
        helper._proc.wait()
        bcadd = derive_bcadd(secret, 1)
        proof = make_linkage_proof(secret, bcadd, derive_appid(secret, bcadd, service), nonce)
        assert helper._failed and helper._answers == {}
    assert proof.to_bytes() == inline_proof(14, 1, service, nonce)


# Answers a key frame and a sign frame, each in two parts: the second
# part of each once a further frame comes.
HALVES = """
import os, sys
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
frames = sys.stdin.buffer
def frame():
    return frames.read(int.from_bytes(frames.read(4), "big"))
public = Ed25519PrivateKey.from_private_bytes(frame()[1:33]).public_key().public_bytes_raw()
os.write(1, public[:10])
signed = frame()
key = Ed25519PrivateKey.from_private_bytes(signed[1:33])
answer = key.public_key().public_bytes_raw() + key.sign(signed[33:])
os.write(1, public[10:] + answer[:50])
frames.read(4)
os.write(1, answer[50:])
frames.read()
"""


def test_an_answer_read_in_part_waits_for_the_rest(helper, monkeypatch):
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        [sys.executable, "-c", HALVES], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    seed, message = bytes(range(32)), b"message"
    key_frame, sign_frame = KEY + seed, SIGN + seed + message
    deadline = time.monotonic() + 20

    def receive_until(done, failure):
        while not done():
            assert time.monotonic() < deadline, failure
            helper._receive()
            time.sleep(0.002)

    with helper.scope():
        helper.submit(key_frame)
        receive_until(lambda: len(helper._partial) == 10, "no part of the key arrived")
        assert helper._answers[key_frame] is None and len(helper._sent) == 1
        helper.submit(sign_frame)
        receive_until(lambda: len(helper._partial) == 50, "no part of the signature arrived")
        assert helper._answers[sign_frame] is None and list(helper._sent) == [sign_frame]
        helper.submit(SIGN + seed + b"go on")
        receive_until(lambda: helper._answers[sign_frame] is not None,
                      "the rest of the signature did not arrive")
        assert helper._partial == b"" and len(helper._sent) == 1
        answers = helper.take(key_frame), helper.take(sign_frame)
    key = Ed25519PrivateKey.from_private_bytes(seed)
    public = key.public_key().public_bytes_raw()
    assert answers == (public, public + key.sign(message))
    assert helper._answers == {}


def test_past_the_window_a_proof_is_not_submitted(helper, monkeypatch, secret, bcadd, appid):
    silent = [sys.executable, "-c", "import sys; sys.stdin.buffer.read()"]  # never answers
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        silent, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    with helper.scope():
        nonces = [i.to_bytes(16, "big") for i in range(ahead.WINDOW + 50)]
        proofs = [make_linkage_proof(secret, bcadd, appid, nonce) for nonce in nonces]
        assert len(helper._sent) == len(helper._answers) == ahead.WINDOW
        assert verify_linkage(bcadd, appid, proofs[-1], nonces[-1])
    assert helper._answers == {}


def test_a_full_pipe_is_not_waited_on(helper, monkeypatch, secret, bcadd, appid):
    # A helper that never reads, behind a pipe of one page: the writes
    # that do not fit are refused at once, and those proofs are verified
    # inline.
    deaf = [sys.executable, "-c", "import time; time.sleep(600)"]
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        deaf, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    nonces = [i.to_bytes(16, "big") for i in range(100)]

    def waited(*_):
        raise AssertionError("a write waited on the full pipe")

    previous = signal.signal(signal.SIGALRM, waited)
    signal.alarm(30)
    try:
        with helper.scope():
            proofs = [make_linkage_proof(secret, bcadd, appid, nonces[0])]
            fcntl.fcntl(helper._to, fcntl.F_SETPIPE_SZ, 4096)
            proofs += [make_linkage_proof(secret, bcadd, appid, nonce) for nonce in nonces[1:]]
            assert 0 < len(helper._sent) < 4096 // 196 + 1
            assert all(verify_linkage(bcadd, appid, proof, nonce)
                       for proof, nonce in zip(proofs, nonces))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        helper._proc.kill()


def test_a_forked_child_verifies_inline(helper, secret, bcadd, appid):
    # The helper answers its parent's frames in order: a child that wrote
    # to the same pipe would take answers meant for its parent.
    with helper.scope():
        make_linkage_proof(secret, bcadd, appid, bytes(16))
        pid = os.fork()
        if pid == 0:
            make_linkage_proof(secret, bcadd, appid, bytes(15) + b"\x01")
            os._exit(0 if helper._failed and not helper._sent and not helper._answers else 1)
        _, status = os.waitpid(pid, 0)
        settle(helper)
        assert len(helper._answers) == 1
    assert os.waitstatus_to_exitcode(status) == 0


EXIT_CHECK = """
import atexit, sys
from overnym import ahead
from overnym.runner import run_scenario
from overnym.scenario import parse_scenario
ahead._cpus = lambda: 2  # a helper starts on a one-CPU host too
started = []
# Registered before the helper's own hook, so it runs after it.
atexit.register(lambda: print("exited" if started[0].poll() is not None else "running"))
with open(sys.argv[1]) as handle:
    run_scenario(parse_scenario(handle.read()))
started.append(ahead.AHEAD._proc)
print(started[0].pid)
"""


def test_no_helper_outlives_its_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", EXIT_CHECK, str(ROOT / "scenarios" / "end_to_end.scn")],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split()
    assert lines[-1] == "exited"
    assert "ResourceWarning" not in done.stderr, done.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(lines[-2]), 0)
