"""Property tests for the cross-cutting invariants: canonical codecs
round-trip, filters never lose live keys, chains reject any bit flip,
decoders refuse arbitrary bytes only with ValueError, every value has
one encoding, a scenario the parser accepts runs without raising, and a
message field set out of range in flight neither aborts a run nor splits
a session."""

import random
import struct
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overnym import identity, ledger, session
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
    Ledger,
    LedgerEntry,
    NftOwnership,
    RegistrationTx,
    TopologyUpdate,
    decode_payload,
    encode_payload,
    verify_chain,
)
from overnym.neat import BloomFilter, NeatTable, NetworkLocator, lookup_global
from overnym.nodes import Envelope, PayloadReceipt
from overnym.runner import _schedule_actions, _schedule_probes, build_simulation, run_scenario
from overnym.scenario import ParseError, ValidationError, parse_scenario
from overnym.session import HandshakeMessage, RotationNotice
from overnym.wire import Reader, WireError, pack_bytes, pack_str, pack_u8, pack_u32, pack_u64

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


# Every preimage builder with an integer field, as (call with that
# integer, its width in bits). Each encodes it with wire.pack_u*.
PREIMAGE_BUILDERS = {
    "_linkage_message": (
        lambda n: identity._linkage_message(bytes(32), bytes(32), n, bytes(16)), 64),
    "appid_digest": (lambda n: identity.appid_digest(bytes(32), ServiceProps("echo"), n), 64),
    "message_tag": (lambda n: session.message_tag(bytes(32), n, b"body"), 64),
    "rotation_nonce": (lambda n: session.rotation_nonce(bytes(16), n), 32),
    "_entry_hash": (lambda n: ledger._entry_hash(n, bytes(32), bytes(32)), 64),
}


@pytest.mark.parametrize("builder", PREIMAGE_BUILDERS)
@pytest.mark.parametrize("out_of_range", ["-1", "2^width"])
def test_a_preimage_integer_out_of_range_raises_wire_error(builder, out_of_range):
    build, width = PREIMAGE_BUILDERS[builder]
    build(0)
    build((1 << width) - 1)
    value = -1 if out_of_range == "-1" else 1 << width
    # WireError is a ValueError; OverflowError (int.to_bytes's) is not.
    with pytest.raises(WireError, match="out of range"):
        build(value)


ENTRY_HEAD = struct.Struct(">Q32sI")


@pytest.mark.parametrize("encoded, read, value", [
    (pack_u8(0x8A), Reader.u8, 0x8A),
    (pack_u32(0x8A), Reader.u32, 0x8A),
    (pack_u64(0x8A), Reader.u64, 0x8A),
    (ENTRY_HEAD.pack(0x8A, bytes(range(32)), 7), lambda r: r.unpack(ENTRY_HEAD),
     (0x8A, bytes(range(32)), 7)),
], ids=["u8", "u32", "u64", "unpack"])
def test_a_fixed_width_read_takes_its_offset_and_a_truncated_one_raises_wire_error(
        encoded, read, value):
    reader = Reader(b"\x07" + encoded)
    assert reader.u8() == 7
    assert read(reader) == value
    reader.expect_end()
    for cut in range(len(encoded)):
        for data in (encoded[:cut], b"\x07" + encoded[:cut]):
            reader = Reader(bytearray(data))
            reader.take(len(data) - cut)
            with pytest.raises(WireError, match="truncated"):
                read(reader)


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
        assert lookup_global({1: table}, key).locator is not None


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

    def bent_chain(carried: bytes) -> bytes:
        # CHAIN_MAGIC | u32 count | bytes(entry), with the bent entry's
        # bytes in place of the original's.
        records = [pack_bytes(entry.to_bytes()) for entry in entries]
        records[entry_index] = pack_bytes(carried)
        return CHAIN_MAGIC + pack_u32(len(records)) + b"".join(records)

    def rejected(mutated: LedgerEntry, carried: bytes | None) -> None:
        # verify_chain, the replica path and the chain import apply one
        # rule, so they refuse the same chains, and the replica and the
        # import only with ValueError. An entry that cannot be encoded
        # has no bytes to carry.
        chain = entries[:entry_index] + [mutated] + entries[entry_index + 1:]
        assert not verify_chain(chain)
        with pytest.raises(ValueError):
            Ledger().apply_entries(chain)
        if carried is not None:
            with pytest.raises(ValueError):
                Ledger.import_chain(bent_chain(carried))

    for unencodable in (NftOwnership(token_id=None, owner=bytes(32)),
                        RegistrationTx("app-server", bytes(32), b"k", access_control=(5,))):
        rejected(replace(entries[entry_index], payload=unencodable), None)

    blob = bytearray(entries[entry_index].to_bytes())
    flip = random.Random(byte_seed)
    blob[flip.randrange(len(blob))] ^= 1 << flip.randrange(8)
    try:
        mutated = LedgerEntry.from_bytes(bytes(blob))
    except ValueError:
        with pytest.raises(ValueError):  # malformed: detected at decode
            Ledger.import_chain(bent_chain(bytes(blob)))
        return
    rejected(mutated, bytes(blob))


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


def _one_value_per_decoder() -> dict[str, tuple]:
    """name -> (decoder, encoder, value): one valid value per decoder
    above, and more where a type has a flag byte or a tagged field."""
    secret = IdentitySecret(bytes(range(32)))
    bcadd = derive_bcadd(secret, 3)
    appid = derive_appid(secret, bcadd, ServiceProps("svc", b"ctx"))
    proof = make_linkage_proof(secret, bcadd, appid, bytes(range(16)))
    predicate = Predicate("age", ">=", -18)
    bloom = BloomFilter(64, 3)
    for key in (b"a" * 32, b"b" * 32):
        bloom.add(key)
    ledger = Ledger()
    payloads = [
        RegistrationTx("app-server", bcadd.address, bcadd.public_key, 3, open_access=True),
        RegistrationTx("app-server", appid.id, bcadd.public_key, 1,
                       access_control=(b"t" * 32, "legacy.example")),
        TopologyUpdate(links=((1, 2, 3),), origin="ap1"),
        NftOwnership(b"t" * 32, bcadd.address),
    ]
    for i, payload in enumerate(payloads):
        ledger.submit(payload, submitter="p", at_time=i, nonce=i.to_bytes(16, "big"))
    ledger.commit_round()
    message = HandshakeMessage("response", appid, bytes(16), b"", bytes(range(32)), proof)

    def to_bytes(value):
        return value.to_bytes()

    values = {
        "APPID": appid,
        "AttributeAttestation": AttributeAttestation(predicate, bcadd.address, 3, b"s" * 64),
        "BCADD": bcadd,
        "BloomFilter": bloom,
        "HandshakeMessage": message,
        "HandshakeMessage without linkage": replace(message, phase="hello", linkage=None,
                                                    ephemeral_public=b"e" * 32),
        "LinkageProof": proof,
        "Predicate": predicate,
        "Predicate with a string threshold": Predicate("region", "==", "eu"),
        "RotationNotice": RotationNotice(appid, proof, b"tag"),
        "ServiceProps": ServiceProps("svc", b"ctx"),
    }
    cases = {name: (DECODERS[name.split(" ")[0]], to_bytes, value)
             for name, value in values.items()}
    for entry in ledger.entries:
        kind = type(entry.payload).__name__
        if kind == "RegistrationTx" and entry.payload.open_access:
            kind += " open-access"
        cases[f"LedgerEntry {kind}"] = (LedgerEntry.from_bytes, to_bytes, entry)
        cases[f"decode_payload {kind}"] = (decode_payload, encode_payload, entry.payload)
    single = Ledger()
    single.submit(payloads[0], submitter="p", at_time=0, nonce=bytes(16))
    single.commit_round()
    cases["import_chain"] = (Ledger.import_chain, Ledger.export_chain, single)
    return cases


CANONICAL = _one_value_per_decoder()


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_every_single_bit_flip_is_refused_or_decodes_to_its_own_encoding(name):
    # Decoding is canonical: a decoder accepts only bytes that the decoded
    # value encodes to, so hashing bytes as carried equals hashing a
    # re-encoding of what they decode to.
    decode, encode, value = CANONICAL[name]
    data = encode(value)
    assert encode(decode(data)) == data
    for bit in range(len(data) * 8):
        bent = bytearray(data)
        bent[bit // 8] ^= 1 << bit % 8
        try:
            decoded = decode(bytes(bent))
        except ValueError:
            continue
        assert encode(decoded) == bent, f"bit {bit} (byte {bit // 8}) decodes to another encoding"


@pytest.mark.parametrize("buffer", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_a_decoded_value_keeps_no_view_of_a_mutable_buffer(buffer):
    decode, encode, value = CANONICAL["LedgerEntry RegistrationTx open-access"]
    data = bytearray(encode(value))
    entry = decode(buffer(data))
    data[:] = bytes(len(data))
    assert entry == value
    decode, encode, ledger = CANONICAL["import_chain"]
    data = bytearray(encode(ledger))
    replica = decode(buffer(data))
    data[:] = bytes(len(data))
    assert replica.export_chain() == ledger.export_chain()
    assert replica.entries == ledger.entries
    assert replica.state_hash() == ledger.state_hash()


FIXTURES = {path.stem: path.read_text()
            for path in sorted((Path(__file__).parent.parent / "scenarios").glob("*.scn"))}
# Words that land in any argument position; a declared node name is drawn too.
MUTANT_WORDS = ("service=", "-3", "0", "1.5", "junk", "open-access")


@st.composite
def one_word_replaced(draw) -> str:
    """A shipped fixture with one word of one statement replaced."""
    lines = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))].splitlines()
    statements = [i for i, line in enumerate(lines) if line.split("#", 1)[0].split()]
    i = draw(st.sampled_from(statements))
    words = lines[i].split("#", 1)[0].split()
    names = [line.split()[1] for line in lines if line.startswith("node ")]
    words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(MUTANT_WORDS + tuple(names)))
    lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=one_word_replaced())
@example(text=FIXTURES["end_to_end"].replace("service=storefront", "service="))
@example(text=FIXTURES["end_to_end"].replace("alive at 40", "alive at -3"))
def test_a_scenario_the_parser_accepts_runs_without_raising(text):
    try:
        sc = parse_scenario(text)
    except (ParseError, ValidationError):
        return
    assert run_scenario(sc).exit_code in (0, 1)


# Out-of-range values a network adversary writes into one field of a
# message in flight, by the field's type (ROADMAP item 15's probe).
OUT_OF_RANGE = {
    int: (-1, 2**64, 2**70),
    bytes: (b"", bytes(7), bytes(33)),
    str: ("", "\ud800", "nobody"),
}


def _parts(value):
    """The fields of a dataclass, or the items of a tuple, in order."""
    if is_dataclass(value):
        return [getattr(value, f.name) for f in fields(value)]
    return list(value) if isinstance(value, tuple) else []


def field_paths(value, path=()):
    """Paths to the int, bytes and str fields of a message, through
    nested dataclasses, NamedTuples and tuples, each with its value."""
    if type(value) in OUT_OF_RANGE:
        yield path, value
    for i, part in enumerate(_parts(value)):
        yield from field_paths(part, (*path, i))


def with_field(value, path, new):
    """value with the field at path set to new, each level rebuilt
    through its constructor."""
    if not path:
        return new
    parts, i = _parts(value), path[0]
    parts[i] = with_field(parts[i], path[1:], new)
    if is_dataclass(value):
        return replace(value, **{fields(value)[i].name: parts[i]})
    return value._make(parts) if hasattr(value, "_make") else tuple(parts)


def run_mutated(text, mutations):
    """Run a scenario, setting one field of each send whose index is in
    mutations (send index -> (field pick, value pick)) to an out-of-range
    value of its type. Returns what it built and each send as (src,
    message), as the sender made it."""
    sc = parse_scenario(text)
    built = build_simulation(sc)
    sim, sends = built.sim, []
    send = sim.send

    def mutating(src, dst, message, note=None):
        pick = mutations.get(len(sends))
        sends.append((src, message))
        paths = list(field_paths(message)) if pick is not None else []
        if paths:
            path, old = paths[pick[0] % len(paths)]
            try:
                message = with_field(message, path, OUT_OF_RANGE[type(old)][pick[1]])
            except (ValueError, TypeError):
                pass  # a constructor refuses the value: sent unchanged
        send(src, dst, message, note)

    sim.send = mutating
    _schedule_actions(built, sc)
    _schedule_probes(built, sc)
    sim.run_until_idle()
    return built, sends


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(FIXTURES)),
       mutations=st.dictionaries(st.integers(0, 300),
                                 st.tuples(st.integers(0, 63), st.integers(0, 2)),
                                 min_size=1, max_size=3))
# Sites random search found; each aborted the run or split a session:
# a hello's APPID epoch past u64, a challenge's service id with no UTF-8
# form, a grant's and a hello's route naming no node, a rotation notice's
# APPID epoch past u64, and a confirm's and a response's unsigned fields.
@example(name="crash_server", mutations={16: (24, 1)})
@example(name="end_to_end", mutations={16: (22, 1)})
@example(name="strict_reject", mutations={14: (56, 2)})
@example(name="crash_server", mutations={15: (61, 0)})
@example(name="end_to_end", mutations={72: (9, 1)})
@example(name="end_to_end", mutations={28: (11, 2)})
@example(name="link_faults", mutations={184: (46, 2)})
def test_an_out_of_range_field_in_flight_aborts_no_run_and_splits_no_session(name, mutations):
    built, sends = run_mutated(FIXTURES[name], mutations)
    trace = built.sim.trace
    checks = {}
    for record in trace.find("handshake", phase="established"):
        checks.setdefault(record["session"], set()).add(record["key_check"])
    assert all(len(seen) == 1 for seen in checks.values()), checks
    accepted = Counter()
    for src, message in sends:
        if (src in built.servers and isinstance(message, Envelope) and message.hop == 0
                and isinstance(message.inner, PayloadReceipt)):
            for seq, ok, _ in message.inner.results:
                accepted[(src, message.inner.session_id, seq)] += ok
    assert [key for key, n in accepted.items() if n > 1] == []
