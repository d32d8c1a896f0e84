import hashlib
import random
import sys
from pathlib import Path

import pytest

from overnym.identity import derive_bcadd
from overnym.ledger import (
    CHAIN_MAGIC,
    AssociationRecord,
    GENESIS_PREV,
    InvalidTx,
    Ledger,
    LedgerEntry,
    NftOwnership,
    RegistrationTx,
    TopologyUpdate,
    _new_entry,
    encode_payload,
    verify_chain,
)
from overnym.runner import _schedule_actions, build_simulation
from overnym.scenario import parse_scenario
from overnym.wire import WireError, pack_bytes, pack_u32

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
    500; associations and token owners are superseded along the way."""
    ledger = Ledger()
    for i in range(n):
        kind = i % 4
        if kind == 0:
            payload = reg(5000 + i // 4)
        elif kind == 1:
            payload = AssociationRecord(subject=bytes([i % 251]) * 32,
                                        attachment=f"ap{i % 7}", segment=i % 5, epoch=i % 3)
        elif kind == 2:
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
# of its u64 range, or a string with no UTF-8 form.
UNENCODABLE = [
    reg(9, epoch=1 << 64),
    reg(9, epoch=-1),
    AssociationRecord(subject=bytes(32), attachment="ap", segment=0, epoch=1 << 64),
    AssociationRecord(subject=bytes(32), attachment="ap", segment=0, seq=-1),
    NftOwnership(token_id=bytes(32), owner=bytes(32), seq=1 << 64),
    NftOwnership(token_id=bytes(32), owner=bytes(32), seq=-1),
    TopologyUpdate(links=((1, 2, 1 << 64),), origin="ap"),
    reg(9, kind="app-server", access_control=("\ud800",)),
    AssociationRecord(subject=bytes(32), attachment="\ud800", segment=0),
    TopologyUpdate(links=((1, 2, 1),), origin="\ud800"),
]
UNENCODABLE_IDS = ["registration epoch 2^64", "registration epoch -1",
                   "association epoch 2^64", "association seq -1",
                   "nft seq 2^64", "nft seq -1", "topology cost 2^64",
                   "registration server surrogate", "association attachment surrogate",
                   "topology origin surrogate"]


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

    @pytest.mark.parametrize("payload", UNENCODABLE, ids=UNENCODABLE_IDS)
    def test_an_unencodable_field_is_refused_and_queues_nothing(self, payload):
        ledger = Ledger()
        with pytest.raises((WireError, InvalidTx)):
            ledger.submit(payload, submitter="u", at_time=0, nonce=b"q" * 16)
        # the nonce is not spent: a valid write under it still commits
        ledger.submit(reg(8), submitter="u", at_time=0, nonce=b"q" * 16)
        assert [entry.payload for entry in ledger.commit_round()] == [reg(8)]


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
        blob = b"".join([CHAIN_MAGIC, pack_u32(len(entries)),
                         *(pack_bytes(entry.to_bytes()) for entry in entries)])
        with pytest.raises(ValueError, match="does not extend the chain at 3"):
            Ledger.import_chain(blob)

    def test_every_cut_of_a_chain_and_of_an_entry_is_refused(self):
        ledger = with_app_servers(mixed_ledger(4))
        assert {type(entry.payload) for entry in ledger.entries} == {
            RegistrationTx, AssociationRecord, TopologyUpdate, NftOwnership}
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

    def test_association_latest_seq_wins(self):
        ledger = Ledger()
        subject = b"s" * 32
        for at_time, attachment in ((1, "ap1"), (2, "ap9")):
            ledger.submit(AssociationRecord(subject=subject, attachment=attachment,
                                            segment=1),
                          submitter="u", at_time=at_time,
                          nonce=attachment.encode().ljust(16, b"0"))
            ledger.commit_round()
        record = ledger.query_association(subject)
        assert record.attachment == "ap9"
        assert record.seq == 1

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
        # Pinned from the quadratic bytes += encoders these replaced; the
        # chain export and the replica state hash must not move a byte.
        ledger = mixed_ledger(4000)
        assert len(ledger.entries) == 4000
        assert hashlib.sha256(ledger.export_chain()).hexdigest() == (
            "20651fdeb60731c5516735019a2bb09655ad2d78cef063fa1bb4337735156230")
        assert ledger.state_hash().hex() == (
            "17813297895bdf5635caeeb39d5648d90c4a0596e1b5a36fdce16646ed4196ed")
