"""The verify-ahead helper (ahead.py): the same bytes whether it answers
every verify and sign, cannot start, is not used on one CPU or dies
mid-run; an answer only for the triple, or the (seed, message), it was
sent; a sign answer read in part; no wait on a full pipe; no entry left
after a run; no helper outside a run or after exit."""

import fcntl
import hashlib
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from overnym import ahead, identity, runner
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

from conftest import make_secret, settle

ROOT = Path(__file__).parent.parent
FIXTURES = sorted((ROOT / "scenarios").glob("*.scn"))

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture
def takes(monkeypatch):
    """Counts the verifies whose triple was sent to the helper ("sent")
    and those that took its answer ("answered"). With "wait" set, a
    verify first waits for its triple's answer, so that every triple sent
    is answered by the helper rather than inline."""
    counts = {"sent": 0, "answered": 0, "wait": False}
    take = ahead.VerifyAhead.take

    def counting(self, *triple):
        deadline = time.monotonic() + 20
        while counts["wait"] and self._known.get(triple, False) is None:
            assert time.monotonic() < deadline, "the helper did not answer"
            self._receive()
            time.sleep(0.0002)
        counts["sent"] += triple in self._known
        answer = take(self, *triple)
        counts["answered"] += answer is not None
        return answer

    monkeypatch.setattr(ahead.VerifyAhead, "take", counting)
    return counts


@pytest.fixture
def signs(monkeypatch):
    """Counts the sign frames written ("sent"), the answers claimed when
    an epoch key is derived ("claimed") and the signatures a proof took
    from the helper ("taken"). With "wait" set, a claim first waits for
    every answer owed for its seed."""
    counts = {"sent": 0, "claimed": 0, "taken": 0, "wait": False}
    send, take_signed, sign = (ahead.VerifyAhead._send, ahead.VerifyAhead.take_signed,
                               identity._EpochKey.sign)

    def counting_send(self, frame, entry):
        written = send(self, frame, entry)
        counts["sent"] += written and frame[:1] == ahead.SIGN
        return written

    def counting_take_signed(self, seed):
        deadline = time.monotonic() + 20
        while counts["wait"] and None in self._signed.get(seed, {}).values():
            assert time.monotonic() < deadline, "the helper did not answer"
            self._receive()
            time.sleep(0.0002)
        answers = take_signed(self, seed)
        counts["claimed"] += len(answers)
        return answers

    def counting_sign(self, message):
        answer = self.signed.get(message)
        signature = sign(self, message)
        counts["taken"] += answer is not None and answer[1] == signature
        return signature

    monkeypatch.setattr(ahead.VerifyAhead, "_send", counting_send)
    monkeypatch.setattr(ahead.VerifyAhead, "take_signed", counting_take_signed)
    monkeypatch.setattr(identity._EpochKey, "sign", counting_sign)
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
def test_the_same_bytes_with_and_without_the_helper(
        text, helper, takes, signs, monkeypatch, tmp_path):
    takes["wait"] = signs["wait"] = True
    on = outputs(text, tmp_path)
    assert takes["answered"] == takes["sent"] > 0
    # Only a rotation submits a sign frame; only a second one claims it.
    rotates = any(action.kind == "rotate" for action in parse_scenario(text).actions)
    assert (signs["sent"] > 0) == rotates
    assert signs["taken"] == signs["claimed"] <= signs["sent"]

    takes.update(sent=0, answered=0)
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == on
    assert ahead.AHEAD._failed and ahead.AHEAD._proc is None
    assert takes["sent"] == takes["answered"] == 0


def test_a_rotation_takes_every_signature_made_ahead_for_it(helper, signs, monkeypatch, tmp_path):
    # 20 users, one session each, 10 rotations each: every rotation
    # submits the next one's proof, and every rotation but a user's first
    # takes it; each user's last submission is never claimed.
    text = workloads.generate("rotation_churn", 1, size=20)
    signs["wait"] = True
    on = outputs(text, tmp_path)
    assert signs["sent"] == 200
    assert signs["taken"] == signs["claimed"] == 180
    assert helper._signed == {}

    signs.update(sent=0, claimed=0, taken=0)
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == on
    assert signs["sent"] == signs["claimed"] == signs["taken"] == 0


@pytest.mark.parametrize("name, size", [("handshake_storm", 200), ("rotation_churn", 20)])
def test_on_one_cpu_no_helper_starts(name, size, monkeypatch, takes, signs, tmp_path):
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
    takes.update(sent=0, answered=0)
    signs.update(sent=0, claimed=0, taken=0)
    assert outputs(text, tmp_path) == on
    assert one._proc is None and not one._failed
    assert takes["sent"] == takes["answered"] == 0
    assert signs["sent"] == signs["claimed"] == signs["taken"] == 0


def test_a_helper_killed_mid_run_leaves_the_bytes_and_later_runs_inline(
        helper, takes, monkeypatch, tmp_path):
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
    takes.update(sent=0, answered=0)
    assert outputs(text, tmp_path) == killed_run
    assert takes["sent"] == takes["answered"] == 0 and helper._proc is None

    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == killed_run


def test_a_helper_killed_between_rotations_leaves_the_bytes(helper, signs, monkeypatch, tmp_path):
    text = workloads.generate("rotation_churn", 1, size=20)
    rotations = sorted(action.time for action in parse_scenario(text).actions
                       if action.kind == "rotate")
    build = runner.build_simulation
    at_kill = {}

    def kill():
        arrived = sum(answer is not None for answers in helper._signed.values()
                      for answer in answers.values())
        at_kill.update(signs, alive=helper._proc.poll() is None, arrived=arrived)
        helper._proc.kill()
        helper._proc.wait()

    def build_with_kill(sc, **kwargs):
        built = build(sc, **kwargs)
        built.sim.call_at(rotations[len(rotations) // 2], kill)
        return built

    monkeypatch.setattr(runner, "build_simulation", build_with_kill)
    signs["wait"] = True
    killed_run = outputs(text, tmp_path)
    assert at_kill["alive"] and at_kill["taken"] > 0
    # After the kill only answers read before it are taken; every other
    # rotation signs inline, and nothing more is submitted.
    assert at_kill["taken"] <= signs["taken"] <= at_kill["taken"] + at_kill["arrived"] < 180
    assert signs["sent"] == at_kill["sent"]
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
def test_a_finished_run_leaves_no_entry(text, helper, signs):
    run_scenario(parse_scenario(text))
    assert helper._proc is not None  # a proof was submitted
    assert helper._known == {} and helper._signed == {}
    assert len(helper._sent) <= ahead.WINDOW
    # end_to_end rotates once: its one sign answer is never claimed.
    assert signs["sent"] == (text == (ROOT / "scenarios" / "end_to_end.scn").read_text())


def test_an_answer_is_taken_for_its_own_triple_only(helper, secret, bcadd, appid):
    nonce = bytes(16)
    with helper.scope():
        proof = make_linkage_proof(secret, bcadd, appid, nonce)
        key, signature = bcadd.public_key, proof.signature
        (triple,) = helper._known
        settle(helper)
        assert helper._known[triple] is True
        forged = bytes([signature[0] ^ 1]) + signature[1:]
        assert helper.take(key, forged, triple[2]) is None
        assert helper.take(key, signature, triple[2][:-1] + b"\x01") is None
        assert helper.take(key, signature, triple[2]) is True
        assert helper.take(key, signature, triple[2]) is None  # claimed once
        make_linkage_proof(secret, bcadd, appid, bytes(15) + b"\x01")
    assert helper._known == {}


SESSION_A, SESSION_B = bytes(16), bytes(15) + b"\x01"


def inline_proof(index, epoch, service, nonce):
    """The proof bytes a fresh secret makes with no helper at all."""
    fresh = make_secret(index)
    bcadd = derive_bcadd(fresh, epoch)
    return make_linkage_proof(fresh, bcadd, derive_appid(fresh, bcadd, service), nonce).to_bytes()


def test_a_signature_is_taken_for_its_own_seed_and_message_only(helper, service):
    secret = make_secret(11)
    with helper.scope():
        derive_bcadd(secret, 0)
        sign_linkage_ahead(secret, 1, service, rotation_nonce(SESSION_A, 1))
        settle(helper)
        bcadd = derive_bcadd(secret, 1)
        cache = secret._epoch_cache
        assert cache.key is None and len(cache.signed) == 1  # the key is deferred
        appid = derive_appid(secret, bcadd, service)
        own = make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_A, 1))
        assert cache.key is None and cache.signed == {}  # the helper's signature
        # The session's rotation count moved on after the submission, and a
        # second session was adopted after it: both sign inline.
        moved = make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_A, 2))
        assert cache.key is not None
        second = make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_B, 1))
    assert helper._signed == {}
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
        (answers,) = helper._signed.values()
        second = list(answers)[1]
        answers[second] = (bytes(31) + b"\x09", bytes(64))  # another key's answer
        bcadd = derive_bcadd(secret, 1)  # the first answer's key
        appid = derive_appid(secret, bcadd, service)
        proofs = [make_linkage_proof(secret, bcadd, appid, nonce) for nonce in nonces]
    assert secret._epoch_cache.key is not None  # the second proof was signed here
    for proof, nonce in zip(proofs, nonces):
        assert proof.to_bytes() == inline_proof(12, 1, service, nonce)


def test_a_deferred_key_must_match_its_bcadd(helper, service):
    secret = make_secret(13)
    with helper.scope():
        sign_linkage_ahead(secret, 1, service, rotation_nonce(SESSION_A, 1))
        settle(helper)
        (answers,) = helper._signed.values()
        ((message, (_, signature)),) = answers.items()
        answers[message] = (bytes(31) + b"\x09", signature)
        bcadd = derive_bcadd(secret, 1)
        assert bcadd.public_key == bytes(31) + b"\x09"
        appid = derive_appid(secret, bcadd, service)
        with pytest.raises(MismatchedSecret):
            make_linkage_proof(secret, bcadd, appid, rotation_nonce(SESSION_B, 1))


def test_outside_a_scope_nothing_is_submitted(helper, secret, bcadd, appid, service):
    proof = make_linkage_proof(secret, bcadd, appid, bytes(16))
    assert verify_linkage(bcadd, appid, proof, bytes(16))
    sign_linkage_ahead(secret, 1, service, bytes(16))
    assert helper._proc is None and not helper._sent and helper._known == {}
    assert helper._signed == {}


def test_a_helper_gone_before_its_sign_answer_leaves_it_inline(helper, monkeypatch, service):
    # A helper that reads one frame and exits without answering it.
    mute = [sys.executable, "-c",
            "import sys; f = sys.stdin.buffer; f.read(int.from_bytes(f.read(4), 'big'))"]
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        mute, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    secret, nonce = make_secret(14), rotation_nonce(SESSION_A, 1)
    with helper.scope():
        sign_linkage_ahead(secret, 1, service, nonce)
        assert len(helper._sent) == 1
        helper._proc.wait()
        bcadd = derive_bcadd(secret, 1)
        proof = make_linkage_proof(secret, bcadd, derive_appid(secret, bcadd, service), nonce)
        assert helper._failed and helper._signed == {}
    assert proof.to_bytes() == inline_proof(14, 1, service, nonce)


HALVES = """
import os, sys
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
frames = sys.stdin.buffer
frame = frames.read(int.from_bytes(frames.read(4), "big"))
key = Ed25519PrivateKey.from_private_bytes(frame[1:33])
answer = key.public_key().public_bytes_raw() + key.sign(frame[33:])
os.write(1, answer[:50])
frames.read(4)  # the rest once a second frame comes
os.write(1, answer[50:])
frames.read()
"""


def test_a_sign_answer_read_in_part_waits_for_the_rest(helper, monkeypatch):
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        [sys.executable, "-c", HALVES], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    seed, message = bytes(range(32)), b"message"
    with helper.scope():
        helper.submit_sign(seed, message)
        deadline = time.monotonic() + 20
        while len(helper._partial) < 50:
            assert time.monotonic() < deadline, "no part of the answer arrived"
            helper._receive()
            time.sleep(0.002)
        assert helper._signed[seed][message] is None and len(helper._sent) == 1
        helper.submit_sign(seed, b"go on")
        while helper._signed[seed][message] is None:
            assert time.monotonic() < deadline, "the rest of the answer did not arrive"
            helper._receive()
            time.sleep(0.002)
        assert helper._partial == b"" and len(helper._sent) == 1
        answers = helper.take_signed(seed)
    key = Ed25519PrivateKey.from_private_bytes(seed)
    assert answers == {message: (key.public_key().public_bytes_raw(), key.sign(message))}
    assert helper._signed == {}


def test_past_the_window_a_proof_is_not_submitted(helper, monkeypatch, secret, bcadd, appid):
    silent = [sys.executable, "-c", "import sys; sys.stdin.buffer.read()"]  # never answers
    monkeypatch.setattr(ahead, "_spawn", lambda: subprocess.Popen(
        silent, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0))
    with helper.scope():
        nonces = [i.to_bytes(16, "big") for i in range(ahead.WINDOW + 50)]
        proofs = [make_linkage_proof(secret, bcadd, appid, nonce) for nonce in nonces]
        assert len(helper._sent) == len(helper._known) == ahead.WINDOW
        assert verify_linkage(bcadd, appid, proofs[-1], nonces[-1])
    assert helper._known == {}


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
            os._exit(0 if helper._failed and not helper._sent and not helper._known else 1)
        _, status = os.waitpid(pid, 0)
        settle(helper)
        assert len(helper._known) == 1
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
