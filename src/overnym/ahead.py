"""Ed25519 work run ahead of need in a helper process: linkage verifies,
and the key and signature of each rotating user's next rotation proof.

Ed25519 is deterministic (RFC 8032, 5.1.5 and 5.1.6): a verify, a
public key and a signature are each a pure function of the bytes they
are computed from, wherever they are computed. Such work known ticks
before it is needed is sent as a frame to one helper process, which does
it on another CPU while the simulation goes on. A frame is its own key:
the one answer table maps each frame sent to the helper's answer, and a
caller takes the answer for the exact frame it would compute, if it has
arrived, and otherwise computes it inline. There are three kinds:

- verify: make_linkage_proof sends each (key, signature, message) it
  signs; verify_linkage takes the answer for the exact frame it would
  verify (verify_frame).
- key and sign: the message of a user's next rotation proof is fixed
  once its current rotation is done (next epoch, its address and APPIDs,
  the session's next rotation nonce). After a rotation,
  identity.sign_linkage_ahead sends the next epoch's signing seed, and
  per held session that seed with the message. The next rotation takes
  the public key for the seed when it first asks for the epoch's BCADD
  (identity._Epoch.bcadd), and the public key and signature for the
  exact (seed, message) when it signs (_Epoch.sign).

Either way the result is Ed25519's on the same bytes, so no trace,
metrics or chain byte depends on the helper.

Only this process's own signatures reach the helper as verifies, so on
an honest run that answer is always "valid"; what it keeps is that every
accepted proof has had a real Ed25519 verify on its exact bytes. The
helper saves no CPU time: it moves work to another CPU. A scope whose
process may run on one CPU only (its affinity mask) therefore submits
nothing, since there the helper would compete with the simulation for
the same CPU.

The helper is a process, not a thread, because `cryptography` holds the
GIL. It is started lazily, on the first submission inside a scope(), as
`python -c HELPER overnym-verify-ahead`: it imports only `cryptography`,
holds no descriptor of this process but its own two pipes, and exits on
end of input. Frames in are a u32 length, a kind byte and the kind's
fields: VERIFY then the 32-byte key, the 64-byte signature and the
message; KEY then a 32-byte signing seed; SIGN then the seed and the
message. Answers out are in frame order, sized by the frame's kind
(ANSWER_SIZES): a verify's is one byte (VALID or not), a key's the
32-byte public key, a sign's that key and the 64-byte signature. The
helper keeps the last seed's private key, so a key frame and the sign
frames that follow it with the same seed derive it once. A read may end
inside any answer; the part read waits for the rest.

Nothing here waits on the helper. Answers are read only when they are
ready, and a frame is written only if the pipe has room: both ends are
non-blocking, and a frame, shorter than PIPE_BUF, is written whole or not
at all. At most WINDOW frames are outstanding; past that, or with the
pipe full, nothing is submitted. An answer lasts until it is taken or
its scope ends: a run ends with at most one key frame per rotating user
and one sign frame per rotating session unclaimed, beside the verifies
of proofs that were never delivered. If the helper cannot start
(OSError) or dies (end of its output, or BrokenPipeError), every later
verify, key and signature in this process is computed inline.
"""

from __future__ import annotations

import atexit
import os
import select
import subprocess
import sys
from collections import deque
from contextlib import contextmanager

# Frames outstanding at most: 256 verify frames of 197 bytes (~50 KB)
# fit in a default 64 KiB pipe, and so do 256 answers of 96 bytes (24 KiB)
# in the other.
WINDOW = 256

KEY_SIZE = 32
SIGNATURE_SIZE = 64

# Frame kinds, the first byte after a frame's length, and the size of
# each kind's answer, indexed by the kind's value.
VERIFY, KEY, SIGN = b"\x00", b"\x01", b"\x02"
ANSWER_SIZES = (1, KEY_SIZE, KEY_SIZE + SIGNATURE_SIZE)
VALID = b"\x01"  # a verify's answer for a signature that verifies

# On the helper's command line, so it can be found with `pgrep -f`.
MARKER = "overnym-verify-ahead"

HELPER = """\
import os, sys
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
frames = sys.stdin.buffer
seed = None
while True:
    head = frames.read(4)
    if len(head) < 4:
        break
    frame = frames.read(int.from_bytes(head, "big"))
    if frame[0]:  # a key or a sign frame
        if frame[1:33] != seed:
            seed = frame[1:33]
            key = Ed25519PrivateKey.from_private_bytes(seed)
            public = key.public_key().public_bytes_raw()
        answer = public + key.sign(frame[33:]) if frame[0] == 2 else public
    else:
        try:
            Ed25519PublicKey.from_public_bytes(frame[1:33]).verify(frame[33:97], frame[97:])
            answer = b"\\x01"
        except (InvalidSignature, ValueError, TypeError):
            answer = b"\\x00"
    os.write(1, answer)
"""


def verify_frame(key: bytes, signature: bytes, message: bytes) -> bytes | None:
    """The frame that verifies the signature over the message under the
    key, or None if the key or the signature has another size: a frame is
    its own key, so its fields must split one way only."""
    if len(key) != KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return None
    return VERIFY + key + signature + message


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
        self._sent: deque[bytes] = deque()  # the frames whose answer is not read yet
        self._partial = b""  # the start of an answer read in part
        self._answers: dict[bytes, bytes | None] = {}  # frame -> answer, None on its way

    @contextmanager
    def scope(self):
        """Submissions are taken only inside, and only with a second CPU
        to work on; on exit the answers that have arrived are read and
        every unclaimed one is dropped."""
        self._open = not self._failed and _cpus() > 1
        try:
            yield
        finally:
            self._open = False
            self._receive()
            self._answers.clear()

    @property
    def submitting(self) -> bool:
        """True where a submission may be taken: inside a scope, with a
        second CPU and a helper that has not failed."""
        return self._open

    def submit(self, frame: bytes | None) -> None:
        """Start the frame's work in the helper, inside a scope with room
        in the window and the pipe, unless its answer is already owed;
        otherwise, or for None, do nothing."""
        if self._open and frame is not None and frame not in self._answers and self._send(frame):
            self._answers[frame] = None

    def take(self, frame: bytes | None) -> bytes | None:
        """The helper's answer to exactly this frame if it has arrived,
        else None. Either way the frame's entry is claimed."""
        answers = self._answers
        if not answers:  # nothing submitted: one CPU, no scope, or no helper
            return None
        if frame in answers and answers[frame] is None:
            self._receive()  # may find the helper gone, and drop every entry
        return answers.pop(frame, None)

    def _send(self, frame: bytes) -> bool:
        """Write one frame if the window and the pipe have room for it,
        starting the helper if need be; True if it was written."""
        if 4 + len(frame) > select.PIPE_BUF:  # might be written in part
            return False
        if len(self._sent) >= WINDOW:
            self._receive()
            if len(self._sent) >= WINDOW:
                return False
        if self._proc is None and not self._start():
            return False
        try:
            os.write(self._to, len(frame).to_bytes(4, "big") + frame)
        except BlockingIOError:  # the pipe is full
            return False
        except BrokenPipeError:
            self.close()
            return False
        self._sent.append(frame)
        return True

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
        sent = self._sent
        if not sent or self._failed:
            return
        try:
            data = os.read(self._from, len(sent) * ANSWER_SIZES[-1] - len(self._partial))
        except BlockingIOError:  # none has arrived
            return
        if not data:  # the helper has exited
            self.close()
            return
        if self._partial:
            data = self._partial + data
        answers = self._answers
        at, size = 0, len(data)
        while sent:
            frame = sent[0]
            end = at + ANSWER_SIZES[frame[0]]
            if end > size:
                break
            if frame in answers:  # submitted in this scope, unclaimed
                answers[frame] = data[at:end]
            at = end
            sent.popleft()
        self._partial = data[at:]

    def _drop(self) -> None:
        """Compute everything inline for the rest of the process."""
        self._failed, self._open = True, False
        self._sent.clear()
        self._partial = b""
        self._answers.clear()

    def close(self) -> None:
        """Compute everything inline from now on; close the pipes and wait
        for the helper, which exits at the end of its input. Registered
        with atexit when the helper starts, and called when it fails."""
        self._drop()
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()


# The one helper of this process.
AHEAD = VerifyAhead()
