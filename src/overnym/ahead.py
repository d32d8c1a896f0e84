"""Ed25519 verifies of linkage proofs, run ahead of need in a helper process.

A linkage proof is signed ticks before it is verified, and Ed25519 is
deterministic: a (public key, signature, message) triple has one answer
wherever it is computed. So when make_linkage_proof signs, it hands the
triple to one helper process, which verifies it on another CPU while
the simulation goes on; verify_linkage then takes the answer for the
exact triple it would verify, if that answer has already arrived, and
otherwise verifies inline. Either way the answer is Ed25519's on the same
bytes, so no trace, metrics or chain byte depends on the helper.

Only this process's own signatures reach the helper, so on an honest run
its answer is always "valid"; what it keeps is that every accepted proof
has had a real Ed25519 verify on its exact bytes. It saves no CPU time:
it moves the verifies to another CPU. A scope whose process may run on
one CPU only (its affinity mask) therefore submits nothing, since there
the helper would compete with the simulation for the same CPU.

The helper is a process, not a thread, because `cryptography`'s verify
holds the GIL. It is started lazily, on the first submission inside a
scope(), as `python -c HELPER overnym-verify-ahead`: it imports only
`cryptography`, holds no descriptor of this process but its own two
pipes, and exits on end of input. Frames in are a u32 length, the 32-byte
key, the 64-byte signature and the message; answers out are one byte per
frame (1 valid, 0 not), in order.

Nothing here waits on the helper. take() reads only answers that are
ready, and submit() writes only if the pipe has room: both ends are
non-blocking, and a frame, shorter than PIPE_BUF, is written whole or not
at all. At most WINDOW frames are outstanding; past that, or with the
pipe full, a triple is not submitted. When a scope ends, its unclaimed
entries are dropped. If the helper cannot start (OSError) or dies (end
of its output, or BrokenPipeError), every later verify in this process
is inline.
"""

from __future__ import annotations

import atexit
import os
import select
import subprocess
import sys
from collections import deque
from contextlib import contextmanager

# Frames outstanding at most: 256 linkage frames of 196 bytes (~50 KB)
# fit in a default 64 KiB pipe, and their 256 answer bytes in the other.
WINDOW = 256

KEY_SIZE = 32
SIGNATURE_SIZE = 64

# On the helper's command line, so it can be found with `pgrep -f`.
MARKER = "overnym-verify-ahead"

HELPER = """\
import os, sys
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
frames = sys.stdin.buffer
while True:
    head = frames.read(4)
    if len(head) < 4:
        break
    frame = frames.read(int.from_bytes(head, "big"))
    try:
        Ed25519PublicKey.from_public_bytes(frame[:32]).verify(frame[32:96], frame[96:])
        answer = b"\\x01"
    except (InvalidSignature, ValueError, TypeError):
        answer = b"\\x00"
    os.write(1, answer)
"""


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _spawn() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", HELPER, MARKER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        bufsize=0, close_fds=True,
    )


class VerifyAhead:
    """One helper and the answers it owes; scopes do not nest."""

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None
        self._to = self._from = -1  # our ends of the helper's pipes
        self._failed = False
        self._open = False  # inside a scope, with a helper that may be used
        self._sent: deque[tuple[bytes, bytes, bytes]] = deque()  # answers not read yet
        self._known: dict[tuple[bytes, bytes, bytes], bool | None] = {}  # None: on its way

    @contextmanager
    def scope(self):
        """Submissions are taken only inside, and only with a second CPU
        to verify on; on exit the answers that have arrived are read and
        every unclaimed entry is dropped."""
        self._open = not self._failed and _cpus() > 1
        try:
            yield
        finally:
            self._open = False
            self._receive()
            self._known.clear()

    def submit(self, key: bytes, signature: bytes, message: bytes) -> None:
        """Start verifying the triple in the helper, inside a scope with
        room in the window and the pipe; otherwise do nothing."""
        if not self._open:
            return
        if len(key) != KEY_SIZE or len(signature) != SIGNATURE_SIZE:
            return
        frame = key + signature + message
        if 4 + len(frame) > select.PIPE_BUF:  # might be written in part
            return
        if len(self._sent) >= WINDOW:
            self._receive()
            if len(self._sent) >= WINDOW:
                return
        if self._proc is None and not self._start():
            return
        try:
            os.write(self._to, len(frame).to_bytes(4, "big") + frame)
        except BlockingIOError:  # the pipe is full
            return
        except BrokenPipeError:
            self.close()
            return
        triple = (key, signature, message)
        self._sent.append(triple)
        self._known[triple] = None

    def take(self, key: bytes, signature: bytes, message: bytes) -> bool | None:
        """The helper's answer for exactly this triple if it has arrived,
        else None. Either way the triple's entry is claimed."""
        if not self._known:  # nothing submitted: one CPU, no scope, or no helper
            return None
        triple = (key, signature, message)
        try:
            answer = self._known[triple]
        except (KeyError, TypeError):  # not submitted; an unhashable field never is
            return None
        if answer is None:
            self._receive()
        return self._known.pop(triple, None)

    def _start(self) -> bool:
        try:
            self._proc = _spawn()
        except OSError:
            self.close()
            return False
        self._to = self._proc.stdin.fileno()
        self._from = self._proc.stdout.fileno()
        os.set_blocking(self._to, False)
        os.set_blocking(self._from, False)
        atexit.register(self.close)
        # A forked child must not read its parent's answers off the pipe.
        os.register_at_fork(after_in_child=self._drop)
        return True

    def _receive(self) -> None:
        """Read every answer that has arrived, without waiting."""
        if not self._sent or self._failed:
            return
        try:
            answers = os.read(self._from, len(self._sent))
        except BlockingIOError:  # none has arrived
            return
        if not answers:  # the helper has exited
            self.close()
            return
        sent, known = self._sent, self._known
        for answer in answers:
            triple = sent.popleft()
            if known.get(triple, False) is None:  # submitted in this scope, unclaimed
                known[triple] = answer == 1

    def _drop(self) -> None:
        """Verify inline for the rest of the process."""
        self._failed, self._open = True, False
        self._sent.clear()
        self._known.clear()

    def close(self) -> None:
        """Verify inline from now on; close the pipes and wait for the
        helper, which exits at the end of its input. Registered with
        atexit when the helper starts, and called when it fails."""
        self._drop()
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()


# The one helper of this process.
AHEAD = VerifyAhead()
