"""Property tests for the cross-cutting invariants: canonical codecs
round-trip, filters never lose live keys, chains reject any bit flip,
and decoders refuse arbitrary bytes only with ValueError."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overnym.identity import (
    APPID,
    BCADD,
    AttributeAttestation,
    IdentitySecret,
    LinkageProof,
    Predicate,
    ServiceProps,
    derive_appid,
    derive_bcadd,
    make_linkage_proof,
    verify_linkage,
)
from overnym.ledger import (
    CHAIN_MAGIC,
    AssociationRecord,
    Ledger,
    LedgerEntry,
    RegistrationTx,
    decode_payload,
    verify_chain,
)
from overnym.neat import BloomFilter, NeatTable, NetworkLocator
from overnym.session import HandshakeMessage, RotationNotice
from overnym.wire import Reader, pack_bytes, pack_str, pack_u64

keys32 = st.binary(min_size=32, max_size=32)
epochs = st.integers(min_value=0, max_value=2**63)


@given(st.binary(max_size=64), st.text(max_size=32), st.integers(0, 2**64 - 1))
def test_wire_round_trip(blob, text, number):
    encoded = pack_bytes(blob) + pack_str(text) + pack_u64(number)
    r = Reader(encoded)
    assert r.bytes_() == blob
    assert r.str_() == text
    assert r.u64() == number
    r.expect_end()


@given(seed=keys32, epoch=st.integers(0, 2**32))
def test_bcadd_codec_round_trip(seed, epoch):
    bcadd = derive_bcadd(IdentitySecret(seed), epoch)
    assert BCADD.from_bytes(bcadd.to_bytes()) == bcadd


@given(seed=keys32, service_id=st.text(min_size=1, max_size=16),
       context=st.binary(max_size=8))
def test_appid_codec_round_trip(seed, service_id, context):
    secret = IdentitySecret(seed)
    bcadd = derive_bcadd(secret, 0)
    appid = derive_appid(secret, bcadd, ServiceProps(service_id, context))
    assert APPID.from_bytes(appid.to_bytes()) == appid


@settings(max_examples=25)
@given(seed=keys32, nonce=st.binary(min_size=16, max_size=16))
def test_linkage_proof_round_trip_and_verifies(seed, nonce):
    secret = IdentitySecret(seed)
    bcadd = derive_bcadd(secret, 0)
    appid = derive_appid(secret, bcadd, ServiceProps("svc"))
    proof = make_linkage_proof(secret, bcadd, appid, nonce)
    assert LinkageProof.from_bytes(proof.to_bytes()) == proof
    assert verify_linkage(bcadd, appid, proof, nonce)


@given(value=st.integers(-10**6, 10**6), threshold=st.integers(-10**6, 10**6),
       comparison=st.sampled_from([">=", "<=", "=="]))
def test_predicate_matches_python_semantics(value, threshold, comparison):
    predicate = Predicate("x", comparison, threshold)
    expected = {"<=": value <= threshold, ">=": value >= threshold,
                "==": value == threshold}[comparison]
    assert predicate.holds(value) is expected


@settings(max_examples=50)
@given(keys=st.lists(keys32, min_size=1, max_size=60, unique=True),
       m=st.integers(16, 512), k=st.integers(1, 8))
def test_bloom_never_false_negative(keys, m, k):
    bloom = BloomFilter(m, k)
    for key in keys:
        bloom.add(key)
    assert all(bloom.might_contain(key) for key in keys)


@settings(max_examples=30)
@given(st.data())
def test_neat_table_live_keys_survive_workload(data):
    table = NeatTable(1, capacity=64)
    live = set()
    operations = data.draw(st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "rebuild"]),
                  st.integers(0, 40)),
        max_size=80))
    for op, i in operations:
        key = i.to_bytes(4, "big") * 8
        if op == "insert":
            table.insert(key, NetworkLocator(f"d{i}", 1, 1))
            live.add(key)
        elif op == "remove":
            table.remove(key)
            live.discard(key)
        else:
            table.rebuild_filter()
    for key in live:
        assert table.lookup_local(key) is not None


@settings(max_examples=40, deadline=None)
@given(entry_index=st.integers(0, 19), byte_seed=st.integers(0, 2**32))
def test_chain_rejects_any_single_bit_flip(entry_index, byte_seed):
    ledger = Ledger()
    rng = random.Random(1234)
    for i in range(20):
        secret = IdentitySecret(bytes(rng.getrandbits(8) for _ in range(32)))
        bcadd = derive_bcadd(secret, 0)
        ledger.submit(RegistrationTx(kind="user", subject=bcadd.address,
                                     public_key=bcadd.public_key),
                      submitter="p", at_time=i, nonce=i.to_bytes(16, "big"))
    ledger.commit_round()
    entries = list(ledger.entries)
    assert verify_chain(entries)

    def rejected(mutated: LedgerEntry) -> None:
        # verify_chain and the replica path apply one rule, so they refuse
        # the same chains, and the replica only with ValueError.
        chain = entries[:entry_index] + [mutated] + entries[entry_index + 1:]
        assert not verify_chain(chain)
        with pytest.raises(ValueError):
            Ledger().apply_entries(chain)

    rejected(replace(entries[entry_index],
                     payload=AssociationRecord(subject=None, attachment="ap", segment=0)))

    blob = bytearray(entries[entry_index].to_bytes())
    flip = random.Random(byte_seed)
    blob[flip.randrange(len(blob))] ^= 1 << flip.randrange(8)
    try:
        mutated = LedgerEntry.from_bytes(bytes(blob))
    except ValueError:
        return  # malformed: detected at decode
    rejected(mutated)


# Every decoder of outside bytes. WireError is a ValueError, so a decoder
# that refuses bytes with anything else is a bug the fuzz test reports.
DECODERS = {
    "APPID": APPID.from_bytes,
    "AttributeAttestation": AttributeAttestation.from_bytes,
    "BCADD": BCADD.from_bytes,
    "BloomFilter": BloomFilter.from_bytes,
    "HandshakeMessage": HandshakeMessage.from_bytes,
    "LedgerEntry": LedgerEntry.from_bytes,
    "LinkageProof": LinkageProof.from_bytes,
    "Predicate": Predicate.from_bytes,
    "RotationNotice": RotationNotice.from_bytes,
    "ServiceProps": ServiceProps.from_bytes,
    "decode_payload": decode_payload,
    "import_chain": Ledger.import_chain,
    "import_chain after CHAIN_MAGIC": lambda data: Ledger.import_chain(CHAIN_MAGIC + data),
}


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=512))
def test_decoders_refuse_arbitrary_bytes_only_with_value_error(decoder, data):
    try:
        DECODERS[decoder](data)
    except ValueError:
        pass
