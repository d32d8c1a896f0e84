"""The verify-ahead helper (ahead.py): the same bytes whether it answers
every verify, cannot start, is not used on one CPU or dies mid-run; an
answer only for the triple it was sent; no wait on a full pipe; no entry
left after a run; no helper outside a run or after exit."""

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

from overnym import ahead, runner
from overnym.identity import make_linkage_proof, verify_linkage
from overnym.runner import run_scenario, write_outputs
from overnym.scenario import parse_scenario

from conftest import settle

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
def test_the_same_bytes_with_and_without_the_helper(text, helper, takes, monkeypatch, tmp_path):
    takes["wait"] = True
    on = outputs(text, tmp_path)
    assert takes["answered"] == takes["sent"] > 0

    takes.update(sent=0, answered=0)
    monkeypatch.setattr(ahead, "AHEAD", ahead.VerifyAhead())
    monkeypatch.setattr(ahead, "_spawn", cannot_start)
    assert outputs(text, tmp_path) == on
    assert ahead.AHEAD._failed and ahead.AHEAD._proc is None
    assert takes["sent"] == takes["answered"] == 0


def test_on_one_cpu_no_helper_starts(monkeypatch, takes, tmp_path):
    text = workloads.generate("handshake_storm", 1, size=200)
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
    assert outputs(text, tmp_path) == on
    assert one._proc is None and not one._failed
    assert takes["sent"] == takes["answered"] == 0


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
def test_a_finished_run_leaves_no_entry(text, helper):
    run_scenario(parse_scenario(text))
    assert helper._proc is not None  # a proof was submitted
    assert helper._known == {}
    assert len(helper._sent) <= ahead.WINDOW


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


def test_outside_a_scope_nothing_is_submitted(helper, secret, bcadd, appid):
    proof = make_linkage_proof(secret, bcadd, appid, bytes(16))
    assert verify_linkage(bcadd, appid, proof, bytes(16))
    assert helper._proc is None and not helper._sent and helper._known == {}


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
