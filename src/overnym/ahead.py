"""Ed25519 work run ahead of need in a helper process: linkage verifies,
and the signature of each rotating user's next rotation proof.

Ed25519 is deterministic: a (public key, signature, message) triple has
one answer, and a (signing seed, message) pair one public key and one
signature, wherever they are computed (RFC 8032, 5.1.5 and 5.1.6). Two
kinds of work are known ticks before they are needed, and handed to one
helper process that does them on another CPU while the simulation goes
on:

- verify: a linkage proof is signed ticks before it is verified. When
  make_linkage_proof signs, it submits the triple; verify_linkage then
  takes the answer for the exact triple it would verify, if that answer
  has already arrived, and otherwise verifies inline.
- sign: the message of a user's next rotation proof is fixed once its
  current rotation is done (next epoch, its address and APPIDs, the
  session's next rotation nonce). After a rotation, each held session's
  next (signing seed, message) is submitted. The next rotation takes the
  public key for its seed (identity._epoch_key) and the signature for the
  exact (seed, message) (make_linkage_proof), if they have arrived, and
  otherwise computes them inline.

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
message; SIGN then the 32-byte seed and the message. Answers out are in
frame order: a verify's is one byte (1 valid, 0 not), a sign's the
32-byte public key and the 64-byte signature. A read may end inside a
sign's answer; the part read waits for the rest.

Nothing here waits on the helper. Answers are read only when they are
ready, and a frame is written only if the pipe has room: both ends are
non-blocking, and a frame, shorter than PIPE_BUF, is written whole or not
at all. At most WINDOW frames are outstanding; past that, or with the
pipe full, nothing is submitted. When a scope ends, its unclaimed entries
of both kinds are dropped. If the helper cannot start (OSError) or dies
(end of its output, or BrokenPipeError), every later verify and sign in
this process is inline.
"""

from __future__ import annotations

import atexit
import os
import select
import subprocess
import sys
from collections import deque
from contextlib import contextmanager

# Frames outstanding at most: 256 linkage frames of 197 bytes (~50 KB)
# fit in a default 64 KiB pipe, and so do 256 answers of 96 bytes (24 KiB)
# in the other.
WINDOW = 256

KEY_SIZE = 32
SEED_SIZE = 32
SIGNATURE_SIZE = 64

# Frame kinds, the first byte after a frame's length.
VERIFY = b"\x00"
SIGN = b"\x01"
SIGN_ANSWER_SIZE = KEY_SIZE + SIGNATURE_SIZE

# On the helper's command line, so it can be found with `pgrep -f`.
MARKER = "overnym-verify-ahead"

HELPER = """\
import os, sys
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
frames = sys.stdin.buffer
while True:
    head = frames.read(4)
    if len(head) < 4:
        break
    frame = frames.read(int.from_bytes(head, "big"))
    if frame[:1] == b"\\x01":
        key = Ed25519PrivateKey.from_private_bytes(frame[1:33])
        answer = key.public_key().public_bytes_raw() + key.sign(frame[33:])
    else:
        try:
            Ed25519PublicKey.from_public_bytes(frame[1:33]).verify(frame[33:97], frame[97:])
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
        # Per frame whose answer is not read yet: its verify triple
        # (key, signature, message) or its sign pair (seed, message).
        self._sent: deque[tuple[bytes, ...]] = deque()
        self._partial = b""  # the start of a sign answer read in part
        self._known: dict[tuple[bytes, bytes, bytes], bool | None] = {}  # None: on its way
        # seed -> message -> (public key, signature), or None on its way
        self._signed: dict[bytes, dict[bytes, tuple[bytes, bytes] | None]] = {}

    @contextmanager
    def scope(self):
        """Submissions are taken only inside, and only with a second CPU
        to work on; on exit the answers that have arrived are read and
        every unclaimed entry is dropped."""
        self._open = not self._failed and _cpus() > 1
        try:
            yield
        finally:
            self._open = False
            self._receive()
            self._known.clear()
            self._signed.clear()

    @property
    def submitting(self) -> bool:
        """True where a submission may be taken: inside a scope, with a
        second CPU and a helper that has not failed."""
        return self._open

    def submit(self, key: bytes, signature: bytes, message: bytes) -> None:
        """Start verifying the triple in the helper, inside a scope with
        room in the window and the pipe; otherwise do nothing."""
        if not self._open:
            return
        if len(key) != KEY_SIZE or len(signature) != SIGNATURE_SIZE:
            return
        triple = (key, signature, message)
        if self._send(VERIFY + key + signature + message, triple):
            self._known[triple] = None

    def submit_sign(self, seed: bytes, message: bytes) -> None:
        """Start deriving the seed's public key and signing the message
        with it in the helper, under the same conditions as submit()."""
        if not self._open or len(seed) != SEED_SIZE:
            return
        if self._send(SIGN + seed + message, (seed, message)):
            self._signed.setdefault(seed, {})[message] = None

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

    def take_signed(self, seed: bytes) -> dict[bytes, tuple[bytes, bytes]]:
        """The helper's (public key, signature) per message submitted with
        this seed, for those that have arrived. Either way every entry for
        the seed is claimed."""
        answers = self._signed.get(seed) if self._signed else None
        if answers is None:
            return {}
        if None in answers.values():
            self._receive()  # may find the helper gone, and drop every entry
        self._signed.pop(seed, None)
        return {message: answer for message, answer in answers.items() if answer is not None}

    def _send(self, frame: bytes, entry: tuple[bytes, ...]) -> bool:
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
        self._sent.append(entry)
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
            answers = os.read(self._from, len(sent) * SIGN_ANSWER_SIZE - len(self._partial))
        except BlockingIOError:  # none has arrived
            return
        if not answers:  # the helper has exited
            self.close()
            return
        data = self._partial + answers if self._partial else answers
        known, signed = self._known, self._signed
        at, size = 0, len(data)
        while sent and at < size:
            entry = sent[0]
            if len(entry) == 3:  # a verify
                if known.get(entry, False) is None:  # submitted in this scope, unclaimed
                    known[entry] = data[at] == 1
                at += 1
            else:
                end = at + SIGN_ANSWER_SIZE
                if end > size:
                    break
                seed, message = entry
                answers_for_seed = signed.get(seed)
                if answers_for_seed is not None and message in answers_for_seed:
                    answers_for_seed[message] = (data[at:at + KEY_SIZE], data[at + KEY_SIZE:end])
                at = end
            sent.popleft()
        self._partial = data[at:]

    def _drop(self) -> None:
        """Verify and sign inline for the rest of the process."""
        self._failed, self._open = True, False
        self._sent.clear()
        self._partial = b""
        self._known.clear()
        self._signed.clear()

    def close(self) -> None:
        """Verify and sign inline from now on; close the pipes and wait
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
