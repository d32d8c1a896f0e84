"""Append-only hash-chained ledger for small control-plane records.

Consensus is collapsed to a single deterministic sequencer: submissions
queue up, commit_round orders them by (arrival time, submitter, dedup
nonce) and appends hash-chained entries. What the rest of the stack
relies on is exactly what this gives: tamper evidence, total order,
replica determinism, and latest-record-wins state queries.

Payloads are capped at 4 KiB; the chain carries registrations, topology
updates, and token ownership, nothing bulkier.

A payload is valid exactly when its bytes decode, and every path into
ledger state (submit, apply_entries, import_chain, verify_chain) decodes.

Entries and payloads are immutable named tuples. The decoders and
_new_entry build each one with tuple.__new__, every field given: one
allocation, without the generated __new__'s Python-level call. A value
equals only a value of its own class with equal fields, never a plain
tuple or a value of another class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .hashing import DIGEST_SIZE, TAG_ENTRY, TAG_LEDGER_STATE, TAG_PAYLOAD, owf
from .wire import (
    Reader,
    WireError,
    pack_bytes,
    pack_count,
    pack_field,
    pack_str,
    pack_u8,
    pack_u32,
    pack_u64,
)

GENESIS_PREV = bytes(DIGEST_SIZE)
MAX_PAYLOAD_BYTES = 4096

REGISTRATION_KINDS = ("overlay-node", "user", "app-server", "legacy-aaa")

CHAIN_MAGIC = b"OVNCHAIN1"

# Fixed-width field groups, each read with one Reader.unpack.
_DIGEST = f"{DIGEST_SIZE}s"
_SUBJECT_AND_LENGTH = struct.Struct(f">{_DIGEST}I")  # subject | u32 key length
_EPOCH_AND_COUNT = struct.Struct(">QI")  # u64 epoch | u32 access-control count
_THREE_U64 = struct.Struct(">QQQ")  # a topology link: segment, segment, hop-cost
_TOKEN_OWNER_SEQ = struct.Struct(f">{_DIGEST}{_DIGEST}Q")
_ENTRY_HEAD = struct.Struct(f">Q{_DIGEST}I")  # u64 seq | prev_hash | u32 payload length
_ENTRY_HASHES = struct.Struct(f">{_DIGEST}{_DIGEST}")  # payload_hash | entry_hash


class InvalidTx(Exception):
    """Submission rejected; the message carries the reason."""


def _same_class_eq(self, other) -> bool:
    """A ledger value's __eq__: equal fields and the very same class."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def _same_class_ne(self, other) -> bool:
    return not _same_class_eq(self, other)


def link_fault(link: tuple[int, int, int]) -> str | None:
    """Why the ledger refuses a topology link (a self-loop, or a hop-cost
    below 1), or None. TopologyUpdate.read and the overlay graph apply
    this one rule."""
    a, b, cost = link
    if a == b:
        return f"self-loop link on segment {a}"
    if cost < 1:
        return "hop-cost must be >= 1"
    return None


# ---------------------------------------------------------------------------
# Payload types
# ---------------------------------------------------------------------------

class RegistrationTx(NamedTuple):
    """Identity or service registration.

    app-server registrations must either list access-control entries
    (NFT token ids and/or legacy server addresses) or mark themselves
    open-access explicitly. read refuses one that does not, as it
    refuses an unknown kind or an empty server address.
    """

    kind: str
    subject: bytes  # BCADD address or APPID id
    public_key: bytes
    epoch: int = 0
    access_control: tuple[bytes | str, ...] = ()
    open_access: bool = False

    __eq__ = _same_class_eq
    __ne__ = _same_class_ne
    __hash__ = tuple.__hash__

    def to_bytes(self) -> bytes:
        acl = pack_count("access_control", self.access_control)
        for item in self.access_control:
            if isinstance(item, str):
                acl += pack_u8(1) + pack_str(item)
            else:
                acl += pack_u8(0) + pack_field("token ids", item, DIGEST_SIZE)
        return (
            pack_str(self.kind)
            + pack_field("subject", self.subject, DIGEST_SIZE)
            + pack_field("public_key", self.public_key)
            + pack_u64(self.epoch)
            + acl
            + pack_u8(1 if self.open_access else 0)
        )

    @classmethod
    def read(cls, r: Reader) -> "RegistrationTx":
        kind = r.str_()
        if kind not in REGISTRATION_KINDS:
            raise WireError(f"unknown registration kind {kind!r}")
        subject, key_length = r.unpack(_SUBJECT_AND_LENGTH)
        public_key = r.take(key_length)
        epoch, acl_count = r.unpack(_EPOCH_AND_COUNT)
        acl: list[bytes | str] = []
        for _ in range(acl_count):
            tag = r.u8()
            if tag == 0:
                acl.append(r.take(DIGEST_SIZE))
            elif tag == 1:
                server = r.str_()
                if not server:
                    raise WireError("access_control entries are token ids or server addresses")
                acl.append(server)
            else:
                raise WireError(f"bad access_control tag {tag}")
        open_access = r.flag()
        if kind == "app-server" and not acl and not open_access:
            raise WireError("app-server registration needs access_control or open_access")
        return tuple.__new__(cls, (kind, subject, public_key, epoch, tuple(acl), open_access))


class TopologyUpdate(NamedTuple):
    """Inter-segment links reported by an access point. read refuses a
    link that link_fault refuses."""

    links: tuple[tuple[int, int, int], ...]
    origin: str

    __eq__ = _same_class_eq
    __ne__ = _same_class_ne
    __hash__ = tuple.__hash__

    def to_bytes(self) -> bytes:
        body = pack_count("links", self.links)
        for link in self.links:
            try:
                a, b, cost = link
            except (TypeError, ValueError):  # not iterable, or not 3 values
                raise WireError("links must hold (segment, segment, hop-cost) triples") from None
            body += pack_u64(a) + pack_u64(b) + pack_u64(cost)
        return body + pack_str(self.origin)

    @classmethod
    def read(cls, r: Reader) -> "TopologyUpdate":
        links = tuple(r.unpack(_THREE_U64) for _ in range(r.u32()))
        for link in links:
            fault = link_fault(link)
            if fault is not None:
                raise WireError(fault)
        return tuple.__new__(cls, (links, r.str_()))


class NftOwnership(NamedTuple):
    """Token ownership record; a later record for the same token is a
    transfer and supersedes the earlier one."""

    token_id: bytes
    owner: bytes  # BCADD address
    seq: int = 0

    __eq__ = _same_class_eq
    __ne__ = _same_class_ne
    __hash__ = tuple.__hash__

    def to_bytes(self) -> bytes:
        return (pack_field("token_id", self.token_id, DIGEST_SIZE)
                + pack_field("owner", self.owner, DIGEST_SIZE) + pack_u64(self.seq))

    @classmethod
    def read(cls, r: Reader) -> "NftOwnership":
        return tuple.__new__(cls, r.unpack(_TOKEN_OWNER_SEQ))


Payload = RegistrationTx | TopologyUpdate | NftOwnership

_PAYLOAD_TAGS: dict[type, int] = {
    RegistrationTx: 1,
    TopologyUpdate: 3,
    NftOwnership: 4,
}
_PAYLOAD_READERS = {
    1: RegistrationTx.read,
    3: TopologyUpdate.read,
    4: NftOwnership.read,
}


def encode_payload(payload: Payload) -> bytes:
    tag = _PAYLOAD_TAGS.get(type(payload))
    if tag is None:
        raise WireError(f"unsupported payload type {type(payload).__name__}")
    return pack_u8(tag) + payload.to_bytes()


def _read_payload(r: Reader) -> Payload:
    tag = r.u8()
    reader = _PAYLOAD_READERS.get(tag)
    if reader is None:
        raise WireError(f"unknown payload tag {tag}")
    return reader(r)


def decode_payload(data: bytes) -> Payload:
    r = Reader(data)
    payload = _read_payload(r)
    r.expect_end()
    return payload


# ---------------------------------------------------------------------------
# Entries and chain
# ---------------------------------------------------------------------------

class LedgerEntry(NamedTuple):
    seq: int
    prev_hash: bytes
    payload: Payload
    payload_hash: bytes
    entry_hash: bytes

    __eq__ = _same_class_eq
    __ne__ = _same_class_ne
    __hash__ = tuple.__hash__

    def to_bytes(self) -> bytes:
        return _entry_bytes(self, pack_bytes(encode_payload(self.payload)))

    @classmethod
    def from_bytes(cls, data: bytes) -> "LedgerEntry":
        r = Reader(data)
        entry, _ = _read_entry(r)
        r.expect_end()
        return entry


def _entry_bytes(entry: LedgerEntry, payload_frame: bytes) -> bytes:
    """The entry's encoding, given its payload as ``bytes(payload)``."""
    return b"".join((pack_u64(entry.seq), entry.prev_hash, payload_frame,
                     entry.payload_hash, entry.entry_hash))


def _read_entry(r: Reader) -> tuple[LedgerEntry, bytes]:
    """Decodes one entry in place, its fixed-width fields in two groups;
    returns it with its payload's frame, ``bytes(payload)``, as carried."""
    seq, prev_hash, length = r.unpack(_ENTRY_HEAD)
    start = r.pos
    payload = _read_payload(r)
    if r.pos - start != length:
        raise WireError("payload length prefix does not match its content")
    payload_frame = r.since(start - 4)  # its u32 length prefix included
    payload_hash, entry_hash = r.unpack(_ENTRY_HASHES)
    entry = tuple.__new__(LedgerEntry, (seq, prev_hash, payload, payload_hash, entry_hash))
    return entry, payload_frame


def _entry_hash(seq: int, prev_hash: bytes, payload_hash: bytes) -> bytes:
    return owf(TAG_ENTRY, pack_u64(seq), prev_hash, payload_hash)


def _new_entry(seq: int, prev_hash: bytes, payload: Payload, encoded: bytes) -> LedgerEntry:
    payload_hash = owf(TAG_PAYLOAD, encoded)
    return tuple.__new__(LedgerEntry, (seq, prev_hash, payload, payload_hash,
                                       _entry_hash(seq, prev_hash, payload_hash)))


def _payload_bytes(entry: LedgerEntry) -> bytes:
    """An entry object's payload bytes, for the chain-link rule. Raises
    ValueError if the payload cannot be encoded or is not valid."""
    try:
        encoded = encode_payload(entry.payload)
    except WireError as exc:
        raise ValueError(f"entry {entry.seq} cannot be encoded: {exc}") from None
    decode_payload(encoded)  # refuses an invalid payload with WireError
    return encoded


def _check_link(entry: LedgerEntry, payload: bytes, seq: int, prev: bytes) -> None:
    """The chain-link rule: entry, whose payload encodes to payload,
    extends a chain whose next seq is seq and whose head hash is prev,
    and both its hashes recompute. Raises ValueError naming the first
    check that fails."""
    if entry.seq != seq or entry.prev_hash != prev:
        raise ValueError(f"entry {entry.seq} does not extend the chain at {seq}")
    if owf(TAG_PAYLOAD, payload) != entry.payload_hash:
        raise ValueError(f"payload hash mismatch at seq {seq}")
    if _entry_hash(seq, prev, entry.payload_hash) != entry.entry_hash:
        raise ValueError(f"entry hash mismatch at seq {seq}")


def verify_chain(entries: Sequence[LedgerEntry]) -> bool:
    """True iff the chain links from genesis, every hash recomputes and
    every payload is valid."""
    prev = GENESIS_PREV
    try:
        for seq, entry in enumerate(entries):
            _check_link(entry, _payload_bytes(entry), seq, prev)
            prev = entry.entry_hash
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class Receipt:
    """Submission acknowledgement carrying the client's dedup nonce."""

    nonce: bytes
    submitter: str
    duplicate: bool = False


@dataclass(frozen=True)
class _Pending:
    time: int
    submitter: str
    nonce: bytes
    payload: Payload
    encoded: bytes  # encode_payload(payload), made once at submission

    def sort_key(self):
        return (self.time, self.submitter, self.nonce)


def _state_parts(records: dict[bytes, tuple]) -> list[bytes]:
    """The state-blob parts of records, each value's last item, in key
    order."""
    return [value[-1] for _, value in sorted(records.items())]


class Ledger:
    """Sequencer-side ledger: queue, chain, and derived state.

    State mutates only in commit_round / apply_entries / import_chain;
    queries are pure reads of the latest committed state. Each payload is
    encoded and decoded once, when it is submitted or applied, or only
    decoded when it is imported: the ledger keeps every entry as its
    chain export frames it and every live record's part of the state
    blob, so export_chain and state_hash only join bytes.
    """

    def __init__(self):
        self._entries: list[LedgerEntry] = []
        self._records: list[bytes] = []  # bytes(entry) per entry, as exported
        self._queue: list[_Pending] = []
        self._seen: set[tuple[str, bytes]] = set()  # (submitter, nonce) of each submission
        # Derived state. Each dict value ends with the live record's part
        # of the state blob (docs/wire-format.md); _topology_parts holds
        # the topology updates' parts.
        self._registrations: dict[bytes, tuple[int, RegistrationTx, bytes]] = {}
        self._owners: dict[bytes, tuple[int, bytes, bytes]] = {}
        self._topology: list[tuple[int, TopologyUpdate]] = []
        self._topology_parts: list[bytes] = []

    # -- write path ---------------------------------------------------------

    def submit(self, payload: Payload, *, submitter: str, at_time: int, nonce: bytes) -> Receipt:
        """Queue a transaction as its bytes decode, or raise InvalidTx with
        the decoder's reason. Idempotent per (submitter, nonce)."""
        nonce = bytes(nonce)
        if (submitter, nonce) in self._seen:
            return Receipt(nonce, submitter, duplicate=True)
        try:
            encoded = encode_payload(payload)
            payload = decode_payload(encoded)
        except WireError as exc:
            raise InvalidTx(str(exc)) from None
        if len(encoded) > MAX_PAYLOAD_BYTES:
            raise InvalidTx(
                f"payload is {len(encoded)} bytes; the ledger carries small data only "
                f"(cap {MAX_PAYLOAD_BYTES})"
            )
        self._seen.add((submitter, nonce))
        self._queue.append(_Pending(at_time, submitter, nonce, payload, encoded))
        return Receipt(nonce, submitter)

    def commit_round(self) -> list[LedgerEntry]:
        """Drain the queue in (time, submitter, nonce) order.

        Registrations conflicting on subject within one round commit
        first-writer-wins: the loser is dropped, never chained, so state
        stays a pure function of the entry stream.
        """
        pending = sorted(self._queue, key=_Pending.sort_key)
        self._queue.clear()
        committed: list[LedgerEntry] = []
        round_subjects: set[bytes] = set()
        for item in pending:
            if isinstance(item.payload, RegistrationTx):
                if item.payload.subject in round_subjects:
                    continue  # first-writer-wins inside the round
                round_subjects.add(item.payload.subject)
            entry = _new_entry(len(self._entries), self._head_hash(), item.payload, item.encoded)
            self._add(entry, pack_bytes(item.encoded))
            committed.append(entry)
        return committed

    def _head_hash(self) -> bytes:
        return self._entries[-1].entry_hash if self._entries else GENESIS_PREV

    def apply_entries(self, entries: Iterable[LedgerEntry]) -> None:
        """Replica path: verify each entry extends the chain, then apply.

        Each payload is encoded once, and its bytes must decode and pass
        the one chain-link rule, as import_chain's bytes must. Raises
        ValueError on any hash or linkage mismatch, and on an entry that
        cannot be encoded or whose payload is not valid.
        """
        for entry in entries:
            payload = _payload_bytes(entry)
            _check_link(entry, payload, len(self._entries), self._head_hash())
            self._add(entry, pack_bytes(payload))

    def _add(self, entry: LedgerEntry, payload_frame: bytes, record: bytes | None = None) -> None:
        """Append a linked entry and apply it. payload_frame is
        ``bytes(payload)``; record is ``bytes(entry)``, built from the
        entry unless the caller read it."""
        if record is None:
            record = pack_bytes(_entry_bytes(entry, payload_frame))
        self._entries.append(entry)
        self._records.append(record)
        payload, seq = entry.payload, entry.seq
        if isinstance(payload, RegistrationTx):
            self._registrations[payload.subject] = (seq, payload, pack_u64(seq) + payload_frame)
        elif isinstance(payload, NftOwnership):
            self._owners[payload.token_id] = (
                seq, payload.owner, payload.token_id + pack_u64(seq) + payload.owner)
        elif isinstance(payload, TopologyUpdate):
            self._topology.append((seq, payload))
            self._topology_parts.append(pack_u64(seq) + payload_frame)

    # -- read path ----------------------------------------------------------

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    @property
    def head_seq(self) -> int:
        return len(self._entries) - 1

    def query_registration(self, subject: bytes) -> RegistrationTx | None:
        found = self._registrations.get(bytes(subject))
        return found[1] if found else None

    def query_owner(self, token_id: bytes) -> bytes | None:
        found = self._owners.get(bytes(token_id))
        return found[1] if found else None

    def query_association(self, subject: bytes) -> None:
        """Payload tag 2 (associations) is reserved, so none is ever found.
        Kept only because perfbench/tracer.py binds it by name; ROADMAP
        items 1 and 16 delete it together with that binding."""

    def query_topology(self) -> list[tuple[int, TopologyUpdate]]:
        """All committed topology updates with their ledger seqs, in order."""
        return list(self._topology)

    def state_hash(self) -> bytes:
        """Canonical digest of the derived state, for replica comparison."""
        parts = (_state_parts(self._registrations) + _state_parts(self._owners)
                 + self._topology_parts)
        return owf(TAG_LEDGER_STATE, b"".join(parts))

    # -- export / import ----------------------------------------------------

    def export_chain(self) -> bytes:
        """Canonical binary chain: magic, entry count, length-prefixed
        entries (layout documented in docs/wire-format.md)."""
        return b"".join([CHAIN_MAGIC, pack_u32(len(self._records)), *self._records])

    @classmethod
    def import_chain(cls, blob: bytes) -> "Ledger":
        """Parse and verify an exported chain. Raises ValueError if the
        bytes are malformed, a payload is not valid or the chain does not
        verify.

        Each entry is decoded once, in place, and the chain-link rule
        that apply_entries applies hashes its payload's bytes as carried;
        decoding is canonical, so these are the bytes its payload encodes
        to.
        """
        r = Reader(blob)
        if r.take(len(CHAIN_MAGIC)) != CHAIN_MAGIC:
            raise ValueError("not a chain export")
        ledger = cls()
        prev = GENESIS_PREV
        for seq in range(r.u32()):
            start = r.pos
            end = start + 4 + r.u32()
            entry, payload_frame = _read_entry(r)
            if r.pos != end:
                raise WireError("entry length prefix does not match its content")
            _check_link(entry, payload_frame[4:], seq, prev)
            ledger._add(entry, payload_frame, r.since(start))
            prev = entry.entry_hash
        r.expect_end()
        return ledger
