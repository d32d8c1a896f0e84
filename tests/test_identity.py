import random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from overnym import ahead
from overnym.identity import (
    APPID,
    BCADD,
    AttributeAttestation,
    IdentitySecret,
    LinkageProof,
    MismatchedSecret,
    Predicate,
    Refused,
    Regulator,
    ServiceProps,
    UnknownSubject,
    appid_digest,
    derive_appid,
    derive_bcadd,
    make_linkage_proof,
    rotate,
    verify_attestation,
    verify_linkage,
)
from overnym.identity import _attestation_message, _linkage_message
from overnym.wire import WireError

from conftest import make_secret, settle
from oracles import sha256_oracle, self_check

NONCE = bytes(range(16))

# Digest of the documented preimage b"bcadd:" | 32 zero bytes | u64be(0),
# generated by the standalone hash oracle before the implementation.
ZERO_SEED_EPOCH0_ADDRESS = "8156562d5b6b204aed627edafebf70893b3a5049815964d6e72af6a3026bf614"


class TestDeriveBcadd:
    def test_deterministic(self, secret):
        assert derive_bcadd(secret, 0) == derive_bcadd(secret, 0)

    def test_epochs_differ(self, secret):
        assert derive_bcadd(secret, 0).address != derive_bcadd(secret, 1).address

    def test_zero_seed_reference_vector(self):
        self_check()
        secret = IdentitySecret(bytes(32))
        preimage = b"bcadd:" + bytes(32) + (0).to_bytes(8, "big")
        assert sha256_oracle(preimage).hex() == ZERO_SEED_EPOCH0_ADDRESS
        assert derive_bcadd(secret, 0).address.hex() == ZERO_SEED_EPOCH0_ADDRESS

    def test_public_key_signs_and_verifies(self, secret, bcadd, appid):
        proof = make_linkage_proof(secret, bcadd, appid, NONCE)
        assert verify_linkage(bcadd, appid, proof, NONCE)

    def test_negative_epoch_rejected(self, secret):
        with pytest.raises(ValueError):
            derive_bcadd(secret, -1)


class TestDeriveAppid:
    def test_deterministic(self, secret, bcadd, service):
        assert derive_appid(secret, bcadd, service) == derive_appid(secret, bcadd, service)

    def test_services_differ(self, secret, bcadd):
        chat = derive_appid(secret, bcadd, ServiceProps("chat"))
        video = derive_appid(secret, bcadd, ServiceProps("video"))
        assert chat.id != video.id

    def test_epoch_carried_over(self, secret):
        bcadd = derive_bcadd(secret, 3)
        appid = derive_appid(secret, bcadd, ServiceProps("chat"))
        assert appid.epoch == 3

    def test_foreign_bcadd_rejected(self, secret, service):
        other = derive_bcadd(make_secret(1), 0)
        with pytest.raises(MismatchedSecret):
            derive_appid(secret, other, service)

    def test_context_distinguishes(self, secret, bcadd):
        a = derive_appid(secret, bcadd, ServiceProps("chat", b"eu"))
        b = derive_appid(secret, bcadd, ServiceProps("chat", b"us"))
        assert a.id != b.id


class TestLinkageProof:
    def test_round_trip(self, secret, bcadd, appid):
        proof = make_linkage_proof(secret, bcadd, appid, NONCE)
        assert verify_linkage(bcadd, appid, proof, NONCE)

    def test_nonce_is_bound(self, secret, bcadd, appid):
        proof = make_linkage_proof(secret, bcadd, appid, NONCE)
        assert not verify_linkage(bcadd, appid, proof, bytes(16))

    def test_foreign_signature_fails(self, secret, bcadd, appid):
        other = make_secret(2)
        other_bcadd = derive_bcadd(other, 0)
        other_appid = derive_appid(other, other_bcadd, appid.service)
        forged_sig = make_linkage_proof(other, other_bcadd, other_appid, NONCE).signature
        honest = make_linkage_proof(secret, bcadd, appid, NONCE)
        forged = LinkageProof(honest.commitment, forged_sig, NONCE)
        assert not verify_linkage(bcadd, appid, forged, NONCE)

    def test_epoch_mismatch_fails(self, secret, bcadd, appid):
        proof = make_linkage_proof(secret, bcadd, appid, NONCE)
        stale = APPID(appid.id, appid.service, appid.epoch + 1)
        assert not verify_linkage(bcadd, stale, proof, NONCE)

    def test_mismatched_secret_raises(self, bcadd, appid):
        with pytest.raises(MismatchedSecret):
            make_linkage_proof(make_secret(3), bcadd, appid, NONCE)

    @pytest.mark.parametrize("nonce", [NONCE[:-1], NONCE + b"\x00", b""])
    def test_nonce_of_wrong_length_raises(self, secret, bcadd, appid, nonce):
        with pytest.raises(ValueError, match="session_nonce must be 16 bytes"):
            make_linkage_proof(secret, bcadd, appid, nonce)

    def test_random_appids_all_fail(self, secret, bcadd, service):
        rng = random.Random(99)
        proof = make_linkage_proof(
            secret, bcadd, derive_appid(secret, bcadd, service), NONCE
        )
        for _ in range(1000):
            fake = APPID(bytes(rng.getrandbits(8) for _ in range(32)), service, 0)
            assert not verify_linkage(bcadd, fake, proof, NONCE)

    def test_malformed_bytes_return_false(self, bcadd, appid):
        junk = LinkageProof(b"\x00" * 7, b"not-a-signature", NONCE)
        assert verify_linkage(bcadd, appid, junk, NONCE) is False


class TestRotate:
    def test_epoch_increments(self, secret, bcadd):
        nxt, _ = rotate(secret, bcadd, [])
        assert nxt.epoch == bcadd.epoch + 1

    def test_three_services_distinct(self, secret, bcadd):
        services = [ServiceProps(s) for s in ("a", "b", "c")]
        nxt, appids = rotate(secret, bcadd, services)
        assert len(appids) == 3
        assert len({a.id for a in appids}) == 3
        for a in appids:
            assert a.epoch == nxt.epoch

    def test_old_bcadd_rejects_new_appid(self, secret, bcadd, service):
        nxt, (new_appid,) = rotate(secret, bcadd, [service])
        proof = make_linkage_proof(secret, nxt, new_appid, NONCE)
        assert not verify_linkage(bcadd, new_appid, proof, NONCE)

    def test_new_ids_differ_from_old(self, secret, bcadd, service):
        old = derive_appid(secret, bcadd, service)
        nxt, (new,) = rotate(secret, bcadd, [service])
        assert new.id != old.id
        assert nxt.address != bcadd.address

    def test_epoch_unlinkability_proxy(self, secret):
        a, b = derive_bcadd(secret, 0), derive_bcadd(secret, 1)
        assert a.address != b.address
        assert a.public_key != b.public_key


# Ed25519 keys of small order, in canonical and non-canonical encodings,
# and a signature (R = the identity point, S = 0) that raw Ed25519
# verification accepts under each of them for some messages.
P25519 = 2**255 - 19
IDENTITY_POINT = (1).to_bytes(32, "little")
FORGED_SIGNATURE = IDENTITY_POINT + bytes(32)
SMALL_ORDER_KEYS = {
    "identity": IDENTITY_POINT,
    "identity-with-sign-bit": (1 | 1 << 255).to_bytes(32, "little"),
    "y=p+1": (P25519 + 1).to_bytes(32, "little"),
    "y=p": P25519.to_bytes(32, "little"),
    "order-8": bytes.fromhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
}


def raw_accepts(key: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(signature, message)
    except InvalidSignature:
        return False
    return True


class TestSmallOrderKeys:
    def test_the_all_zero_attestation_is_refused(self):
        predicate = Predicate("age", ">=", -2**63)
        assert raw_accepts(bytes(32), bytes(64), _attestation_message(predicate, bytes(32), 0))
        attestation = AttributeAttestation(predicate, bytes(32), 0, bytes(64))
        assert verify_attestation(attestation, bytes(32)) is False

    @pytest.fixture(params=sorted(SMALL_ORDER_KEYS))
    def forged(self, request, service):
        """(BCADD, APPID, proof, nonce) under a small-order key, with a
        nonce for which raw verification accepts the proof."""
        bcadd = BCADD(bytes(range(32)), 0, SMALL_ORDER_KEYS[request.param])
        appid = APPID(appid_digest(bcadd.address, service, 0), service, 0)
        nonce = next(n for n in (i.to_bytes(16, "big") for i in range(64)) if raw_accepts(
            bcadd.public_key, FORGED_SIGNATURE, _linkage_message(bcadd.address, appid.id, 0, n)))
        return bcadd, appid, LinkageProof(bcadd.to_bytes(), FORGED_SIGNATURE, nonce), nonce

    def test_a_linkage_proof_is_refused(self, forged):
        assert verify_linkage(*forged) is False

    def test_a_linkage_proof_is_refused_whatever_the_helper_answers(self, forged, helper):
        bcadd, appid, proof, nonce = forged
        message = _linkage_message(bcadd.address, appid.id, 0, nonce)
        with helper.scope():
            frame = ahead.verify_frame(bcadd.public_key, proof.signature, message)
            helper.submit(frame)
            settle(helper)
            assert helper._answers == {frame: ahead.VALID}
            assert verify_linkage(bcadd, appid, proof, nonce) is False

    def test_an_attestation_is_refused(self, forged):
        bcadd = forged[0]
        predicate = Predicate("age", ">=", 18)
        for epoch in range(64):
            if raw_accepts(bcadd.public_key, FORGED_SIGNATURE,
                           _attestation_message(predicate, bytes(32), epoch)):
                break
        attestation = AttributeAttestation(predicate, bytes(32), epoch, FORGED_SIGNATURE)
        assert raw_accepts(bcadd.public_key, FORGED_SIGNATURE,
                           _attestation_message(predicate, bytes(32), epoch))
        assert verify_attestation(attestation, bcadd.public_key) is False


class TestAttestation:
    @pytest.fixture
    def regulator(self):
        return Regulator(seed=b"r" * 32)

    def test_age_over_18_issues_and_verifies(self, regulator, bcadd):
        regulator.register(bcadd.address, {"age": 25})
        att = regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))
        assert verify_attestation(att, regulator.public_key)
        assert att.predicate.threshold == 18
        assert att.subject == bcadd.address

    def test_unsatisfied_predicate_refused(self, regulator, bcadd):
        regulator.register(bcadd.address, {"age": 16})
        with pytest.raises(Refused):
            regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))

    def test_unknown_subject(self, regulator, bcadd):
        with pytest.raises(UnknownSubject):
            regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))

    def test_missing_attribute_refused(self, regulator, bcadd):
        regulator.register(bcadd.address, {"country": "fr"})
        with pytest.raises(Refused):
            regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))

    def test_wrong_regulator_key_fails(self, regulator, bcadd):
        regulator.register(bcadd.address, {"age": 25})
        att = regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))
        assert not verify_attestation(att, Regulator(seed=b"x" * 32).public_key)

    def test_tampered_threshold_fails(self, regulator, bcadd):
        regulator.register(bcadd.address, {"age": 25})
        att = regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))
        bent = AttributeAttestation(Predicate("age", ">=", 21), att.subject,
                                    att.epoch, att.regulator_signature)
        assert not verify_attestation(bent, regulator.public_key)

    @pytest.mark.parametrize("threshold", [-(1 << 63) - 1, 1 << 63])
    def test_threshold_outside_i64_is_refused_not_raised(self, regulator, bcadd, threshold):
        regulator.register(bcadd.address, {"age": 25})
        att = regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))
        bent = AttributeAttestation(Predicate("age", ">=", threshold), att.subject,
                                    att.epoch, att.regulator_signature)
        with pytest.raises(WireError):
            bent.predicate.to_bytes()
        assert verify_attestation(bent, regulator.public_key) is False
        assert verify_attestation(AttributeAttestation(bent.predicate, bytes(32), 0, bytes(64)),
                                  bytes(32)) is False

    @pytest.mark.parametrize("threshold", [-(1 << 63), (1 << 63) - 1])
    def test_threshold_at_the_i64_edges_round_trips(self, threshold):
        predicate = Predicate("age", "<=", threshold)
        assert Predicate.from_bytes(predicate.to_bytes()) == predicate

    def test_attestation_never_carries_value(self, regulator, bcadd):
        regulator.register(bcadd.address, {"age": 25})
        att = regulator.issue_attestation(bcadd, Predicate("age", ">=", 18))
        decoded = AttributeAttestation.from_bytes(att.to_bytes())
        assert decoded == att
        assert not hasattr(decoded, "value")

    def test_string_equality_predicate(self, regulator, bcadd):
        regulator.register(bcadd.address, {"country": "fr"})
        att = regulator.issue_attestation(bcadd, Predicate("country", "==", "fr"))
        assert verify_attestation(att, regulator.public_key)
        with pytest.raises(Refused):
            regulator.issue_attestation(bcadd, Predicate("country", "==", "de"))

    def test_string_ordering_predicate_invalid(self):
        with pytest.raises(ValueError):
            Predicate("country", ">=", "fr")


class TestInvariantsAndSerialization:
    def test_derivations_pure_over_random_inputs(self):
        rng = random.Random(5)
        for index in range(25):
            secret = make_secret(100 + index)
            epoch = rng.randrange(0, 50)
            service = ServiceProps(f"svc-{rng.randrange(9)}", bytes([rng.randrange(256)]))
            first = derive_bcadd(secret, epoch)
            again = derive_bcadd(secret, epoch)
            assert first == again
            assert derive_appid(secret, first, service) == derive_appid(secret, again, service)

    def test_no_leak_byte_scan(self):
        # High-entropy attribute values: short ones (age=25) collide with
        # hash bytes by chance, so the substring scan uses wide needles
        # and the age case is covered structurally above.
        rng = random.Random(6)
        regulator = Regulator(seed=b"scan" * 8)
        for index in range(1000):
            seed = bytes(rng.getrandbits(8) for _ in range(32))
            document = "".join(rng.choice("0123456789abcdef") for _ in range(32))
            income = rng.randrange(10**9 + 1, 10**10)  # threshold below: never equal
            secret = IdentitySecret(seed, {"document": document, "income": income})
            bcadd = derive_bcadd(secret, rng.randrange(3))
            appid = derive_appid(secret, bcadd, ServiceProps("scan"))
            proof = make_linkage_proof(secret, bcadd, appid, NONCE)
            regulator.register(bcadd.address, secret.registered_attributes)
            att = regulator.issue_attestation(bcadd, Predicate("income", ">=", 10**9))
            public = (bcadd.to_bytes() + appid.to_bytes() + proof.to_bytes()
                      + att.to_bytes())
            assert seed not in public
            assert document.encode() not in public
            assert str(income).encode() not in public

    def test_crossed_matrix_small(self):
        # 4 identities x 4 appids: exactly the diagonal verifies.
        secrets = [make_secret(200 + i) for i in range(4)]
        bcadds = [derive_bcadd(s, 0) for s in secrets]
        service = ServiceProps("matrix")
        appids = [derive_appid(s, b, service) for s, b in zip(secrets, bcadds)]
        proofs = [make_linkage_proof(s, b, a, NONCE)
                  for s, b, a in zip(secrets, bcadds, appids)]
        for i in range(4):
            for j in range(4):
                expected = i == j
                assert verify_linkage(bcadds[i], appids[j], proofs[j], NONCE) is expected

    def test_secret_repr_redacts_seed(self, secret):
        assert secret.seed.hex() not in repr(secret)

    @pytest.mark.parametrize("epoch", [0, 1, 2**40])
    def test_bcadd_round_trip(self, secret, epoch):
        bcadd = derive_bcadd(secret, epoch)
        assert BCADD.from_bytes(bcadd.to_bytes()) == bcadd

    def test_appid_round_trip(self, secret, bcadd):
        appid = derive_appid(secret, bcadd, ServiceProps("chat", b"ctx"))
        assert APPID.from_bytes(appid.to_bytes()) == appid

    def test_proof_round_trip(self, secret, bcadd, appid):
        proof = make_linkage_proof(secret, bcadd, appid, NONCE)
        assert LinkageProof.from_bytes(proof.to_bytes()) == proof

    def test_service_props_round_trip(self):
        sp = ServiceProps("svc", b"\x00\xff")
        assert ServiceProps.from_bytes(sp.to_bytes()) == sp

    def test_commitment_is_claimed_bcadd(self, secret, bcadd, appid):
        proof = make_linkage_proof(secret, bcadd, appid, NONCE)
        assert proof.claimed_bcadd() == bcadd


class TestEpochKeyCache:
    """The secret caches one epoch's (BCADD, signing key); a cached key
    must never let a BCADD through that a fresh derivation would refuse."""

    @pytest.mark.parametrize("forge", [
        lambda own, other: BCADD(own.address, own.epoch, other.public_key),
        lambda own, other: BCADD(own.address, own.epoch + 1, own.public_key),
    ], ids=["other-key", "other-epoch"])
    def test_forged_bcadd_refused_with_warm_cache(self, secret, service, forge):
        forged = forge(derive_bcadd(secret, 0), derive_bcadd(make_secret(99), 0))
        # an APPID consistent with the forgery, so only the BCADD check can refuse
        forged_appid = APPID(appid_digest(forged.address, service, forged.epoch),
                             service, forged.epoch)
        for attempt in (
            lambda: derive_appid(secret, forged, service),
            lambda: make_linkage_proof(secret, forged, forged_appid, NONCE),
            lambda: rotate(secret, forged, [service]),
        ):
            derive_bcadd(secret, 0)  # the cache holds the genuine epoch-0 pair
            with pytest.raises(MismatchedSecret):
                attempt()

    def test_cached_signatures_match_fresh_ones(self, service):
        warm = make_secret(7)
        proofs = []
        for epoch in (0, 1, 0, 2, 2):  # hits, misses and re-derivations
            bcadd = derive_bcadd(warm, epoch)
            appid = derive_appid(warm, bcadd, service)
            proofs.append((epoch, make_linkage_proof(warm, bcadd, appid, NONCE)))
        for epoch, proof in proofs:
            fresh = make_secret(7)  # nothing cached yet
            bcadd = derive_bcadd(fresh, epoch)
            expected = make_linkage_proof(fresh, bcadd, derive_appid(fresh, bcadd, service), NONCE)
            assert proof.to_bytes() == expected.to_bytes()

    def test_cache_stays_out_of_repr_and_equality(self, secret):
        cold = make_secret()
        derive_bcadd(secret, 3)
        assert secret._epoch_cache is not None and cold._epoch_cache is None
        assert secret == cold and repr(secret) == repr(cold)
