import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from overnym.hashing import TAG_ENTRY, TAG_PAYLOAD, owf
from overnym.identity import derive_bcadd
from overnym.ledger import (
    CHAIN_MAGIC,
    GENESIS_PREV,
    REGISTRATION_KINDS,
    InvalidTx,
    Ledger,
    LedgerEntry,
    NftOwnership,
    RegistrationTx,
    TopologyUpdate,
    _new_entry,
    decode_payload,
    encode_payload,
    verify_chain,
)
from overnym.runner import _schedule_actions, build_simulation
from overnym.scenario import parse_scenario
from overnym.wire import WireError, pack_bytes, pack_str, pack_u8, pack_u32, pack_u64

from conftest import make_secret

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def reg(index: int, **extra) -> RegistrationTx:
    bcadd = derive_bcadd(make_secret(index), 0)
    return RegistrationTx(kind=extra.pop("kind", "user"), subject=bcadd.address,
                          public_key=bcadd.public_key, **extra)


def filled_ledger(n: int = 20, seed: int = 0) -> Ledger:
    rng = random.Random(seed)
    ledger = Ledger()
    for i in range(n):
        ledger.submit(reg(1000 + seed * 1000 + i), submitter=f"n{rng.randrange(6)}",
                      at_time=i, nonce=i.to_bytes(16, "big"))
    ledger.commit_round()
    return ledger


def mixed_ledger(n: int) -> Ledger:
    """n entries cycling through every payload kind, committed in rounds of
    500; token owners are superseded along the way."""
    ledger = Ledger()
    for i in range(n):
        kind = i % 3
        if kind == 0:
            payload = reg(5000 + i // 3)
        elif kind == 1:
            payload = NftOwnership(token_id=bytes([i % 241]) * 32, owner=bytes([i % 13]) * 32)
        else:
            payload = TopologyUpdate(links=((i % 9, i % 9 + 1, 1 + i % 3),), origin=f"ap{i % 7}")
        ledger.submit(payload, submitter=f"n{i % 6}", at_time=i, nonce=i.to_bytes(16, "big"))
        if i % 500 == 499:
            ledger.commit_round()
    ledger.commit_round()
    return ledger


def with_app_servers(ledger: Ledger) -> Ledger:
    """ledger plus two app-server registrations: one gated by a token id
    and a legacy server address, one open-access."""
    gated = reg(7001, kind="app-server", access_control=(b"t" * 32, "legacy.example"))
    open_access = reg(7002, kind="app-server", open_access=True)
    for i, payload in enumerate((gated, open_access)):
        ledger.submit(payload, submitter="srv", at_time=10**6 + i, nonce=i.to_bytes(16, "big"))
    ledger.commit_round()
    return ledger


# One field of each payload kind that has no encoding: an integer out
# of its u64 range, a string with no UTF-8 form, a bytes field that is
# not bytes or, fixed-width, not 32 bytes long, or an integer or string
# field of another type.
UNENCODABLE = [
    reg(9, epoch=1 << 64),
    reg(9, epoch=-1),
    NftOwnership(token_id=bytes(32), owner=bytes(32), seq=1 << 64),
    NftOwnership(token_id=bytes(32), owner=bytes(32), seq=-1),
    TopologyUpdate(links=((1, 2, 1 << 64),), origin="ap"),
    TopologyUpdate(links=((-1, 2, 1),), origin="ap"),
    TopologyUpdate(links=((1, 1 << 64, 1),), origin="ap"),
    reg(9, kind="app-server", access_control=("\ud800",)),
    TopologyUpdate(links=((1, 2, 1),), origin="\ud800"),
    NftOwnership(token_id="t" * 32, owner=bytes(32)),
    NftOwnership(token_id=bytes(32), owner="o" * 32),
    RegistrationTx(kind="user", subject=bytes(31), public_key=b"k"),
    RegistrationTx(kind="user", subject=bytes(32), public_key=5),
    RegistrationTx(kind=5, subject=bytes(32), public_key=b"k"),
    RegistrationTx(kind="user", subject=bytes(32), public_key=b"k", epoch="1"),
    RegistrationTx(kind="user", subject=bytes(32), public_key=b"k", epoch=1.0),
    NftOwnership(token_id=bytes(32), owner=bytes(32), seq=None),
]
UNENCODABLE_IDS = ["registration epoch 2^64", "registration epoch -1",
                   "nft seq 2^64", "nft seq -1", "topology cost 2^64",
                   "topology segment -1", "topology segment 2^64",
                   "registration server surrogate", "topology origin surrogate",
                   "nft token_id str", "nft owner str", "registration subject 31 bytes",
                   "registration public_key int", "registration kind int",
                   "registration epoch str", "registration epoch float", "nft seq None"]

# Payloads that encode, but break a rule of their kind, so their bytes do
# not decode.
INVALID = [
    TopologyUpdate(links=((1, 1, 1),), origin="ap"),
    TopologyUpdate(links=((1, 2, 0),), origin="ap"),
    reg(9, kind="nonsense"),
    reg(9, kind="app-server"),
]
INVALID_IDS = ["topology self-loop", "topology cost 0", "registration kind nonsense",
               "app-server with neither acl nor open access"]


def chain_blob(entries) -> bytes:
    """An export_chain blob of entries, whatever they hold."""
    return b"".join([CHAIN_MAGIC, pack_u32(len(entries)),
                     *(pack_bytes(entry.to_bytes()) for entry in entries)])


def forge(entries, payload) -> LedgerEntry:
    """An entry of payload that extends entries, its hashes made over
    the bytes payload encodes to, or over none if it has none."""
    try:
        encoded = encode_payload(payload)
    except WireError:
        encoded = b""
    head = entries[-1].entry_hash if entries else GENESIS_PREV
    return _new_entry(len(entries), head, payload, encoded)


def submit_accepts(payload) -> bool:
    try:
        Ledger().submit(payload, submitter="probe", at_time=0, nonce=bytes(16))
    except InvalidTx:
        return False
    return True


class TestSubmit:
    def test_valid_user_registration_gets_receipt(self):
        ledger = Ledger()
        receipt = ledger.submit(reg(0), submitter="u1", at_time=1, nonce=b"n" * 16)
        assert receipt.nonce == b"n" * 16
        assert not receipt.duplicate

    def test_app_server_without_acl_or_open_access_invalid(self):
        ledger = Ledger()
        with pytest.raises(InvalidTx):
            ledger.submit(reg(1, kind="app-server"), submitter="s", at_time=1, nonce=b"x" * 16)

    def test_app_server_open_access_valid(self):
        ledger = Ledger()
        ledger.submit(reg(1, kind="app-server", open_access=True),
                      submitter="s", at_time=1, nonce=b"x" * 16)

    def test_duplicate_nonce_is_idempotent(self):
        ledger = Ledger()
        tx = reg(2)
        first = ledger.submit(tx, submitter="u", at_time=1, nonce=b"d" * 16)
        again = ledger.submit(tx, submitter="u", at_time=2, nonce=b"d" * 16)
        assert again.duplicate and not first.duplicate
        assert len(ledger.commit_round()) == 1

    def test_a_nonce_stays_spent_after_its_round_commits(self):
        ledger = Ledger()
        ledger.submit(reg(2), submitter="u", at_time=1, nonce=b"d" * 16)
        assert len(ledger.commit_round()) == 1
        again = ledger.submit(reg(5), submitter="u", at_time=2, nonce=b"d" * 16)
        assert again.duplicate
        assert ledger.commit_round() == []
        assert ledger.query_registration(reg(5).subject) is None

    def test_same_nonce_different_submitters_both_commit(self):
        ledger = Ledger()
        ledger.submit(reg(3), submitter="a", at_time=1, nonce=b"n" * 16)
        ledger.submit(reg(4), submitter="b", at_time=1, nonce=b"n" * 16)
        assert len(ledger.commit_round()) == 2

    def test_oversize_payload_rejected(self):
        ledger = Ledger()
        big = TopologyUpdate(links=tuple((1, 2 + i, 1) for i in range(400)), origin="ap")
        with pytest.raises(InvalidTx, match="small data"):
            ledger.submit(big, submitter="ap", at_time=1, nonce=b"z" * 16)

    def test_bad_subject_length(self):
        ledger = Ledger()
        tx = RegistrationTx(kind="user", subject=b"short", public_key=b"")
        with pytest.raises(InvalidTx):
            ledger.submit(tx, submitter="u", at_time=0, nonce=b"q" * 16)

    @pytest.mark.parametrize("payload", UNENCODABLE + INVALID, ids=UNENCODABLE_IDS + INVALID_IDS)
    def test_an_unencodable_field_is_refused_and_queues_nothing(self, payload):
        ledger = Ledger()
        with pytest.raises((WireError, InvalidTx)):
            ledger.submit(payload, submitter="u", at_time=0, nonce=b"q" * 16)
        # the nonce is not spent: a valid write under it still commits
        ledger.submit(reg(8), submitter="u", at_time=0, nonce=b"q" * 16)
        assert [entry.payload for entry in ledger.commit_round()] == [reg(8)]


class TestOneValidityRule:
    """A payload is valid exactly when it decodes: submit, the replica,
    the chain import and verify_chain refuse the same payloads."""

    @pytest.mark.parametrize("payload", UNENCODABLE + INVALID, ids=UNENCODABLE_IDS + INVALID_IDS)
    def test_the_replica_the_import_and_verify_chain_refuse_what_submit_refuses(self, payload):
        # TestSubmit refuses each of these payloads at submission.
        primary = filled_ledger(3)
        forged = forge(primary.entries, payload)
        chain = primary.entries + (forged,)
        assert not verify_chain(chain)
        replica = Ledger()
        replica.apply_entries(primary.entries)
        before = (replica.export_chain(), replica.state_hash())
        with pytest.raises(ValueError):
            replica.apply_entries([forged])
        assert (replica.export_chain(), replica.state_hash()) == before
        # An entry whose payload has no bytes cannot be exported: making
        # its record is refused before import_chain could read it.
        with pytest.raises(ValueError):
            Ledger.import_chain(chain_blob(chain))

    @pytest.mark.parametrize("payload, reason", [
        (INVALID[0], "self-loop link on segment 1"),
        (INVALID[1], "hop-cost must be >= 1"),
        (INVALID[2], "unknown registration kind 'nonsense'"),
        (INVALID[3], "app-server registration needs access_control or open_access"),
        (reg(9, kind="app-server", access_control=("",)),
         "access_control entries are token ids or server addresses"),
        (reg(9, kind="app-server", access_control=(b"t" * 31,)), "token ids must be 32 bytes"),
        (UNENCODABLE[9], "token_id must be bytes, not str"),
        (UNENCODABLE[11], "subject must be 32 bytes"),
    ], ids=INVALID_IDS + ["empty server address", "31-byte token id", "str token_id",
                          "31-byte subject"])
    def test_submit_and_the_decoder_give_the_same_reason(self, payload, reason):
        with pytest.raises(InvalidTx, match=f"^{reason}$"):
            Ledger().submit(payload, submitter="u", at_time=0, nonce=b"q" * 16)
        try:
            encoded = encode_payload(payload)
        except WireError as exc:
            assert str(exc) == reason
        else:
            with pytest.raises(WireError, match=f"^{reason}$"):
                decode_payload(encoded)

    def test_submit_queues_the_payload_its_bytes_decode_to(self):
        ledger = Ledger()
        listed = TopologyUpdate(links=[[1, 2, 3]], origin="ap")
        ledger.submit(listed, submitter="ap", at_time=0, nonce=bytes(16))
        [entry] = ledger.commit_round()
        assert entry.payload == TopologyUpdate(links=((1, 2, 3),), origin="ap")
        assert type(entry.payload.links) is tuple


LEDGER_CLASSES = (LedgerEntry, RegistrationTx, TopologyUpdate, NftOwnership)


def ledger_values(source: str) -> dict[type, tuple]:
    """One value of each ledger class, as submit and commit_round build
    it ("committed") or as import_chain decodes it ("imported")."""
    ledger = Ledger()
    payloads = (reg(11, kind="app-server", access_control=(b"t" * 32, "legacy.example")),
                TopologyUpdate(links=((1, 2, 3),), origin="ap"),
                NftOwnership(token_id=bytes([5]) * 32, owner=bytes([6]) * 32, seq=7))
    for i, payload in enumerate(payloads):
        ledger.submit(payload, submitter="v", at_time=i, nonce=i.to_bytes(16, "big"))
    entries = ledger.commit_round()
    if source == "imported":
        entries = Ledger.import_chain(ledger.export_chain()).entries
    values = {type(entry.payload): entry.payload for entry in entries}
    values[LedgerEntry] = entries[0]
    return values


@pytest.mark.parametrize("source", ["committed", "imported"])
@pytest.mark.parametrize("cls", LEDGER_CLASSES, ids=lambda cls: cls.__name__)
class TestValueSemantics:
    """Entries and payloads are immutable values, equal only within their
    class, however the ledger made them."""

    def test_equals_and_hashes_like_a_value_of_its_class_with_the_same_fields(self, source, cls):
        value = ledger_values(source)[cls]
        twin = cls(*value)
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)

    def test_is_unequal_to_its_plain_tuple_and_to_every_other_ledger_class(self, source, cls):
        values = ledger_values(source)
        value = values[cls]
        plain = tuple(value)
        assert value != plain and not value == plain
        assert plain != value and not plain == value
        for other in LEDGER_CLASSES:
            if other is not cls:
                # even one that holds exactly the same fields
                same_fields = tuple.__new__(other, plain)
                assert value != same_fields and not value == same_fields
                assert same_fields != value and not same_fields == value
                assert value != values[other]

    def test_refuses_attribute_assignment_and_has_no_instance_dict(self, source, cls):
        value = ledger_values(source)[cls]
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = None
        assert not hasattr(value, "__dict__")


class TestCommitRound:
    def test_empty_queue_no_entries(self):
        ledger = Ledger()
        assert ledger.commit_round() == []
        assert ledger.entries == ()

    def test_tie_break_by_submitter_then_nonce(self):
        ledger = Ledger()
        a, b = reg(5), reg(6)
        ledger.submit(a, submitter="node5", at_time=3, nonce=b"n" * 16)
        ledger.submit(b, submitter="node3", at_time=3, nonce=b"n" * 16)
        entries = ledger.commit_round()
        assert entries[0].payload == b  # node3 sequences first
        assert entries[1].payload == a

    def test_time_orders_before_submitter(self):
        ledger = Ledger()
        late, early = reg(7), reg(8)
        ledger.submit(late, submitter="aaa", at_time=9, nonce=b"1" * 16)
        ledger.submit(early, submitter="zzz", at_time=2, nonce=b"2" * 16)
        entries = ledger.commit_round()
        assert entries[0].payload == early

    def test_replay_same_schedule_identical_chain(self):
        def build():
            ledger = Ledger()
            for i, submitter in enumerate(["b", "a", "c"]):
                ledger.submit(reg(10 + i), submitter=submitter, at_time=1,
                              nonce=bytes([i]) * 16)
            ledger.commit_round()
            return ledger
        assert build().export_chain() == build().export_chain()

    def test_first_writer_wins_within_round(self):
        ledger = Ledger()
        subject_tx = reg(20)
        rival = RegistrationTx(kind="user", subject=subject_tx.subject,
                               public_key=b"other-key")
        ledger.submit(subject_tx, submitter="a", at_time=1, nonce=b"1" * 16)
        ledger.submit(rival, submitter="b", at_time=1, nonce=b"2" * 16)
        entries = ledger.commit_round()
        assert len(entries) == 1  # the loser never chains
        assert ledger.query_registration(subject_tx.subject).public_key == subject_tx.public_key

    def test_supersession_across_rounds(self):
        ledger = Ledger()
        first = reg(21)
        ledger.submit(first, submitter="a", at_time=1, nonce=b"1" * 16)
        ledger.commit_round()
        replacement = RegistrationTx(kind="user", subject=first.subject,
                                     public_key=b"new-key", epoch=1)
        ledger.submit(replacement, submitter="a", at_time=2, nonce=b"2" * 16)
        ledger.commit_round()
        assert ledger.query_registration(first.subject).public_key == b"new-key"


class TestVerifyChain:
    def test_untampered_chain_verifies(self):
        ledger = filled_ledger(100)
        assert verify_chain(ledger.entries)

    def test_payload_bit_flip_detected(self):
        ledger = filled_ledger(100)
        entries = list(ledger.entries)
        victim = entries[50]
        bent_subject = bytes([victim.payload.subject[0] ^ 1]) + victim.payload.subject[1:]
        bent = RegistrationTx(kind=victim.payload.kind, subject=bent_subject,
                              public_key=victim.payload.public_key)
        entries[50] = LedgerEntry(victim.seq, victim.prev_hash, bent,
                                  victim.payload_hash, victim.entry_hash)
        assert not verify_chain(entries)

    def test_swapped_entries_detected(self):
        ledger = filled_ledger(20)
        entries = list(ledger.entries)
        entries[10], entries[11] = entries[11], entries[10]
        assert not verify_chain(entries)

    def test_genesis_prev_is_zero(self):
        ledger = filled_ledger(1)
        assert ledger.entries[0].prev_hash == GENESIS_PREV

    def test_random_single_bit_mutations_detected(self):
        ledger = filled_ledger(30)
        blob = ledger.export_chain()
        rng = random.Random(7)
        header = len(b"OVNCHAIN1") + 4
        for _ in range(100):
            position = rng.randrange(header, len(blob))
            bent = bytearray(blob)
            bent[position] ^= 1 << rng.randrange(8)
            with pytest.raises(ValueError):
                Ledger.import_chain(bytes(bent))


def scenario_ledger(text: str) -> Ledger:
    """The sequencer's ledger after a run of the scenario text."""
    sc = parse_scenario(text)
    built = build_simulation(sc)
    _schedule_actions(built, sc)
    built.sim.run_until_idle()
    return built.world.ledger


# Small sizes, so each run takes well under a second.
WORKLOAD_SIZES = {"handshake_storm": 40, "wide_overlay": 24, "session_stream": 6,
                  "rotation_churn": 8}
CHAINS = {f"fixture {path.stem}": path.read_text()
          for path in sorted((ROOT / "scenarios").glob("*.scn"))}
CHAINS.update({f"workload {name}": workloads.generate(name, 1, size)
               for name, size in WORKLOAD_SIZES.items()})


class TestImportChain:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_a_replica_of_a_run_chain_equals_its_primary(self, name):
        primary = scenario_ledger(CHAINS[name])
        assert primary.entries
        blob = primary.export_chain()
        replica = Ledger.import_chain(blob)
        assert replica.entries == primary.entries
        assert replica.export_chain() == blob
        assert replica.state_hash() == primary.state_hash()

    def test_an_entry_whose_hashes_recompute_but_that_does_not_link_is_refused(self):
        primary = filled_ledger(5)
        entries = list(primary.entries)
        payload = entries[3].payload
        entries[3] = _new_entry(3, b"\xff" * 32, payload, encode_payload(payload))
        with pytest.raises(ValueError, match="does not extend the chain at 3"):
            Ledger.import_chain(chain_blob(entries))

    def test_the_reserved_payload_tag_2_is_refused(self):
        # Tag 2 once carried an association: subject(32) | str(attachment)
        # | u64 segment | u64 epoch | u64 seq. Its bytes no longer decode,
        # alone or in a chain whose hashes recompute over them.
        payload = pack_u8(2) + bytes(32) + pack_str("ap1") + pack_u64(2) + pack_u64(3) + pack_u64(0)
        with pytest.raises(WireError, match="unknown payload tag 2"):
            decode_payload(payload)
        payload_hash = owf(TAG_PAYLOAD, payload)
        entry = b"".join((pack_u64(0), GENESIS_PREV, pack_bytes(payload), payload_hash,
                          owf(TAG_ENTRY, pack_u64(0), GENESIS_PREV, payload_hash)))
        with pytest.raises(ValueError, match="unknown payload tag 2"):
            Ledger.import_chain(CHAIN_MAGIC + pack_u32(1) + pack_bytes(entry))

    @pytest.mark.parametrize("tag", [0, 2, 5, 255])
    def test_a_payload_tag_of_no_kind_is_refused(self, tag):
        # Only tags 1, 3 and 4 name a payload kind; 2 is reserved.
        with pytest.raises(WireError, match=f"unknown payload tag {tag}$"):
            decode_payload(pack_u8(tag) + encode_payload(reg(6))[1:])

    def test_every_cut_of_a_chain_and_of_an_entry_is_refused(self):
        ledger = with_app_servers(mixed_ledger(4))
        assert {type(entry.payload) for entry in ledger.entries} == {
            RegistrationTx, TopologyUpdate, NftOwnership}
        blob = ledger.export_chain()
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                Ledger.import_chain(blob[:cut])
        # A cut inside an entry's head, its payload's fixed-width groups,
        # its variable fields or its hashes is a short read.
        for entry in ledger.entries:
            data = entry.to_bytes()
            for cut in range(len(data)):
                with pytest.raises(WireError, match="truncated"):
                    LedgerEntry.from_bytes(data[:cut])


class TestQueries:
    def test_owner_supersession(self):
        ledger = Ledger()
        token = b"t" * 32
        alice, bob = derive_bcadd(make_secret(30), 0), derive_bcadd(make_secret(31), 0)
        ledger.submit(NftOwnership(token, alice.address), submitter="a",
                      at_time=1, nonce=b"1" * 16)
        ledger.commit_round()
        assert ledger.query_owner(token) == alice.address
        ledger.submit(NftOwnership(token, bob.address), submitter="b",
                      at_time=2, nonce=b"2" * 16)
        ledger.commit_round()
        assert ledger.query_owner(token) == bob.address

    def test_unknown_subject_returns_none(self):
        ledger = Ledger()
        assert ledger.query_registration(b"q" * 32) is None
        assert ledger.query_owner(b"q" * 32) is None
        assert ledger.query_association(b"q" * 32) is None

    def test_topology_kept_in_order(self):
        ledger = Ledger()
        for i in range(3):
            ledger.submit(TopologyUpdate(links=((1, 2 + i, 1),), origin="ap"),
                          submitter="ap", at_time=i, nonce=bytes([i]) * 16)
        ledger.commit_round()
        seqs = [seq for seq, _ in ledger.query_topology()]
        assert seqs == sorted(seqs)


class TestReplication:
    def test_replica_reaches_equal_state_hash(self):
        primary = filled_ledger(40, seed=3)
        replica = Ledger()
        replica.apply_entries(primary.entries)
        assert replica.state_hash() == primary.state_hash()
        assert replica.export_chain() == primary.export_chain()

    def test_replica_rejects_bad_prev(self):
        primary = filled_ledger(5)
        entries = list(primary.entries)
        payload = entries[3].payload
        entries[3] = _new_entry(3, b"\xff" * 32, payload, encode_payload(payload))
        replica = Ledger()
        with pytest.raises(ValueError):
            replica.apply_entries(entries)

    def test_replica_refuses_an_entry_of_no_payload_kind_and_keeps_its_state(self):
        primary = filled_ledger(3)
        replica = Ledger()
        replica.apply_entries(primary.entries[:2])
        before = (replica.export_chain(), replica.state_hash())
        stray = primary.entries[2]._replace(payload=("association", bytes(32), "ap1"))
        with pytest.raises(ValueError, match="entry 2 cannot be encoded: unsupported payload type tuple"):
            replica.apply_entries([stray])
        assert (replica.export_chain(), replica.state_hash()) == before
        replica.apply_entries(primary.entries[2:])
        assert replica.export_chain() == primary.export_chain()

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: filled_ledger(25, seed=4), id="filled"),
        pytest.param(lambda: with_app_servers(mixed_ledger(40)), id="mixed"),
    ])
    def test_export_import_round_trip(self, build):
        primary = build()
        restored = Ledger.import_chain(primary.export_chain())
        assert restored.export_chain() == primary.export_chain()
        assert restored.state_hash() == primary.state_hash()
        assert restored.entries == primary.entries
        assert verify_chain(restored.entries)

    def test_export_and_state_hash_bytes_pinned(self):
        # Pinned from the quadratic bytes += encoders these replaced, run
        # on this three-kind chain; the chain export and the replica state
        # hash must not move a byte.
        ledger = mixed_ledger(4000)
        assert len(ledger.entries) == 4000
        assert hashlib.sha256(ledger.export_chain()).hexdigest() == (
            "5e68f6544639f0e1f882f594eff33aa087886e9869fce94095ea93ca2a7d8772")
        assert ledger.state_hash().hex() == (
            "4e11ffa77c176808dbb842c140a3ffcfc24bea1eb2a0ece7763af7b1e6a5252f")


# Payload fields for the model test: each valid, or wrong in a way the
# tests above name. Few subjects and tokens, so records supersede each
# other and rounds hold rival registrations.
DIGESTS = [bytes([i]) * 32 for i in range(3)]
BYTES32 = st.sampled_from(DIGESTS + [bytes(31), "t" * 32])
SEGMENTS = st.integers(0, 3)
PAYLOADS = st.one_of(
    st.builds(RegistrationTx, kind=st.sampled_from(REGISTRATION_KINDS + ("nonsense",)),
              subject=BYTES32, public_key=st.sampled_from([b"", b"key", 5]),
              epoch=st.sampled_from([0, 1, 1 << 64]),
              access_control=st.lists(st.one_of(BYTES32, st.sampled_from(["legacy", ""])),
                                      max_size=2).map(tuple),
              open_access=st.booleans()),
    st.builds(TopologyUpdate, origin=st.sampled_from(["ap1", "ap2", "\ud800"]),
              links=st.lists(st.tuples(SEGMENTS, SEGMENTS, st.integers(0, 2)),
                             max_size=3).map(tuple)),
    st.builds(NftOwnership, token_id=BYTES32, owner=BYTES32, seq=st.sampled_from([0, 1, -1])),
)


class LedgerModel(RuleBasedStateMachine):
    """A sequencer's ledger, a replica it feeds with apply_entries and a
    copy it feeds with import_chain, under submissions and entries that
    may be valid or not (Hughes, "Experiences with QuickCheck", 2016)."""

    def __init__(self):
        super().__init__()
        self.primary, self.replica, self.imported = Ledger(), Ledger(), Ledger()
        self.clock = 0

    @rule(payload=PAYLOADS, submitter=st.sampled_from(["a", "b", "c"]))
    def submit(self, payload, submitter):
        self.clock += 1
        nonce = self.clock.to_bytes(16, "big")
        queued = len(self.primary._queue)
        try:
            self.primary.submit(payload, submitter=submitter, at_time=self.clock // 3,
                                nonce=nonce)
        except InvalidTx:
            assert len(self.primary._queue) == queued
            assert (submitter, nonce) not in self.primary._seen

    @rule()
    def commit(self):
        self.primary.commit_round()

    @rule(payload=PAYLOADS)
    def offer_an_entry(self, payload):
        # An entry that extends the primary's chain, whoever made it: the
        # replica, the import and verify_chain accept it exactly when
        # submit accepts its payload, and a refusal changes nothing.
        chain = self.primary.entries
        forged = forge(chain, payload)
        verdicts = {"submit": submit_accepts(payload),
                    "verify_chain": verify_chain(chain + (forged,))}
        trial = Ledger.import_chain(self.primary.export_chain())
        before = (trial.export_chain(), trial.state_hash())
        try:
            trial.apply_entries([forged])
            verdicts["apply_entries"] = True
        except ValueError:
            assert (trial.export_chain(), trial.state_hash()) == before
            verdicts["apply_entries"] = False
        try:
            Ledger.import_chain(chain_blob(chain + (forged,)))
            verdicts["import_chain"] = True
        except ValueError:
            verdicts["import_chain"] = False
        assert len(set(verdicts.values())) == 1, verdicts
        if verdicts["submit"]:
            self.primary.apply_entries([forged])

    @rule()
    def replicate(self):
        new = self.primary.entries[len(self.replica.entries):]
        self.replica.apply_entries(new)
        assert all(submit_accepts(entry.payload) for entry in new)

    @rule()
    def import_the_chain(self):
        blob = self.primary.export_chain()
        self.imported = Ledger.import_chain(blob)
        assert self.imported.export_chain() == blob
        assert all(submit_accepts(entry.payload) for entry in self.imported.entries)

    @invariant()
    def copies_hold_a_prefix_and_reach_the_primary_state(self):
        for copy in (self.replica, self.imported):
            held = len(copy.entries)
            assert copy.entries == self.primary.entries[:held]
            if held == len(self.primary.entries):
                assert copy.state_hash() == self.primary.state_hash()


LedgerModel.TestCase.settings = settings(max_examples=80, stateful_step_count=30,
                                         deadline=None)
TestLedgerModel = LedgerModel.TestCase
