"""Three-tier pseudonymous identity.

A participant holds a 32-byte secret, the private embodiment of their
real-world identity (attributes like age live only with the holder and
the regulator). Everything public derives one-way from it:

  secret --(epoch)--> chain address BCADD --(service)--> APPID

Each epoch has its own Ed25519 signing key, so rotating the epoch changes
every public field at once. Linkage proofs let a verifier confirm an
APPID belongs to a claimed BCADD, fresh for a given session nonce,
without learning the secret. Attribute attestations are regulator-signed
predicates ("age is at least 18") carrying the threshold but never the
value.

All values here are immutable after construction; operations are pure.
Two exceptions never change a result: one private cache on IdentitySecret
of the two highest epochs asked for (the current one, and the next one
that sign_linkage_ahead derives), each holding its signing seed, address,
public key and APPID digests, so that every proof, derivation and
rotation under an epoch derives each of them once; and the helper
(ahead.py), whose answers to frames of Ed25519 work sent ahead of need
are taken only for the exact frame that would be computed here.
make_linkage_proof sends a verify frame for each signature it makes, and
verify_linkage takes its answer. sign_linkage_ahead sends an epoch's
signing seed as a key frame, and a proof message known before it is
needed as a sign frame; the epoch's BCADD, when first asked for, then
takes the helper's public key, and the proof its signature, each only if
it has arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import ahead
from .hashing import (
    DIGEST_SIZE,
    TAG_APPID,
    TAG_ATTEST,
    TAG_BCADD,
    TAG_LINKAGE,
    TAG_REGULATOR,
    TAG_SIGKEY,
    owf,
)
from .wire import Reader, WireError, pack_bytes, pack_i64, pack_str, pack_u8, pack_u64

SEED_SIZE = 32
NONCE_SIZE = 16

# Ed25519 public keys of small order: the y coordinate (the low 255 bits,
# little-endian, mod p) of one of the eight points whose order divides 8,
# in any encoding, canonical or not. Under such a key a signature with
# R = the identity and S = 0 verifies for many messages, without any
# secret, so no signature under one is accepted.
_P = 2**255 - 19
_Y8 = int.from_bytes(bytes.fromhex(
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"), "little")
_SMALL_ORDER_Y = frozenset((0, 1, _P - 1, _Y8, _P - _Y8))

COMPARISONS = (">=", "<=", "==")


class MismatchedSecret(Exception):
    """A BCADD or APPID was paired with a secret it does not derive from."""


class UnknownSubject(KeyError):
    """The regulator has no registration for this subject."""


class Refused(Exception):
    """The regulator declines to attest: the predicate does not hold."""


def _small_order(public_key: bytes) -> bool:
    return (int.from_bytes(public_key, "little") & ((1 << 255) - 1)) % _P in _SMALL_ORDER_Y


@dataclass(frozen=True)
class IdentitySecret:
    """Private material. Never serialized; repr is redacted.

    _epochs maps each of the two highest epochs asked for to its values
    (_Epoch); it takes no part in equality or repr.
    """

    seed: bytes
    registered_attributes: Mapping[str, int | str] = field(default_factory=dict)
    _epochs: dict[int, _Epoch] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.seed) != SEED_SIZE:
            raise ValueError(f"seed must be {SEED_SIZE} bytes")
        object.__setattr__(
            self, "registered_attributes",
            MappingProxyType(dict(self.registered_attributes)),
        )

    def __repr__(self) -> str:  # keep the seed out of logs and tracebacks
        return f"IdentitySecret(seed=<{SEED_SIZE} bytes>, attributes={len(self.registered_attributes)})"


@dataclass(frozen=True)
class BCADD:
    """Second-tier chain address: one-way from (seed, epoch)."""

    address: bytes
    epoch: int
    public_key: bytes  # raw Ed25519 verification key for this epoch

    def to_bytes(self) -> bytes:
        # address(32) | epoch u64 | public_key length-prefixed
        return self.address + pack_u64(self.epoch) + pack_bytes(self.public_key)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BCADD":
        r = Reader(data)
        addr = r.take(DIGEST_SIZE)
        epoch = r.u64()
        pub = r.bytes_()
        r.expect_end()
        return cls(addr, epoch, pub)


@dataclass(frozen=True)
class ServiceProps:
    """What distinguishes one service's APPID from another under a BCADD."""

    service_id: str
    context: bytes = b""

    def __post_init__(self):
        if not self.service_id:
            raise ValueError("service_id must be non-empty")

    def to_bytes(self) -> bytes:
        return pack_str(self.service_id) + pack_bytes(self.context)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ServiceProps":
        r = Reader(data)
        sid = r.str_()
        ctx = r.bytes_()
        r.expect_end()
        return cls(sid, ctx)


@dataclass(frozen=True)
class APPID:
    """Third-tier service identity: one-way from (BCADD, service, epoch)."""

    id: bytes
    service: ServiceProps
    epoch: int

    def to_bytes(self) -> bytes:
        return self.id + self.service.to_bytes() + pack_u64(self.epoch)

    @classmethod
    def from_bytes(cls, data: bytes) -> "APPID":
        r = Reader(data)
        ident = r.take(DIGEST_SIZE)
        sid = r.str_()
        ctx = r.bytes_()
        epoch = r.u64()
        r.expect_end()
        return cls(ident, ServiceProps(sid, ctx), epoch)


@dataclass(frozen=True)
class LinkageProof:
    """Evidence that an APPID's holder controls a claimed BCADD.

    commitment is the canonical encoding of the claimed BCADD, so the
    proof is self-contained: a verifier who only knows the APPID can
    recover the claimed address, check the one-way derivation, and check
    the signature, all without any secret material.
    """

    commitment: bytes
    signature: bytes
    session_nonce: bytes

    def __post_init__(self):
        if len(self.session_nonce) != NONCE_SIZE:
            raise ValueError(f"session_nonce must be {NONCE_SIZE} bytes")

    def to_bytes(self) -> bytes:
        return pack_bytes(self.commitment) + pack_bytes(self.signature) + self.session_nonce

    @classmethod
    def from_bytes(cls, data: bytes) -> "LinkageProof":
        r = Reader(data)
        commitment = r.bytes_()
        signature = r.bytes_()
        nonce = r.take(NONCE_SIZE)
        r.expect_end()
        return cls(commitment, signature, nonce)

    def claimed_bcadd(self) -> BCADD:
        return BCADD.from_bytes(self.commitment)


@dataclass(frozen=True)
class Predicate:
    """Comparison over a named attribute, e.g. ('age', '>=', 18)."""

    attribute: str
    comparison: str
    threshold: int | str

    def __post_init__(self):
        if self.comparison not in COMPARISONS:
            raise ValueError(f"comparison must be one of {COMPARISONS}")
        if isinstance(self.threshold, str) and self.comparison != "==":
            raise ValueError("string thresholds support equality only")

    def holds(self, value: int | str) -> bool:
        if isinstance(self.threshold, str) or isinstance(value, str):
            return self.comparison == "==" and value == self.threshold
        if self.comparison == ">=":
            return value >= self.threshold
        if self.comparison == "<=":
            return value <= self.threshold
        return value == self.threshold

    def to_bytes(self) -> bytes:
        if isinstance(self.threshold, int):
            threshold = pack_u8(0) + pack_i64(self.threshold)
        else:
            threshold = pack_u8(1) + pack_str(self.threshold)
        return pack_str(self.attribute) + pack_str(self.comparison) + threshold

    @classmethod
    def from_bytes(cls, data: bytes) -> "Predicate":
        r = Reader(data)
        pred = cls._read(r)
        r.expect_end()
        return pred

    @classmethod
    def _read(cls, r: Reader) -> "Predicate":
        attribute = r.str_()
        comparison = r.str_()
        kind = r.u8()
        if kind == 0:
            threshold: int | str = int.from_bytes(r.take(8), "big", signed=True)
        elif kind == 1:
            threshold = r.str_()
        else:
            raise WireError(f"unknown threshold kind {kind}")
        return cls(attribute, comparison, threshold)


@dataclass(frozen=True)
class AttributeAttestation:
    """Regulator-signed predicate over a subject address.

    Carries the threshold, the subject, and the epoch; the attribute
    value itself never leaves the regulator.
    """

    predicate: Predicate
    subject: bytes  # BCADD.address
    epoch: int
    regulator_signature: bytes

    def to_bytes(self) -> bytes:
        return (
            pack_bytes(self.predicate.to_bytes())
            + self.subject
            + pack_u64(self.epoch)
            + pack_bytes(self.regulator_signature)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttributeAttestation":
        r = Reader(data)
        predicate = Predicate.from_bytes(r.bytes_())
        subject = r.take(DIGEST_SIZE)
        epoch = r.u64()
        signature = r.bytes_()
        r.expect_end()
        return cls(predicate, subject, epoch, signature)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class _Epoch:
    """One epoch of a secret: its signing seed, its chain address and the
    APPID digests asked of it, each derived from the secret once. The
    BCADD's public key is resolved when the BCADD is first asked for: the
    helper's (ahead.py) if it has answered the seed's key frame, else
    derived here with the private key, which is then kept for signing."""

    __slots__ = ("epoch", "seed", "address", "digests", "key", "_bcadd")

    def __init__(self, secret: IdentitySecret, epoch: int):
        epoch_bytes = pack_u64(epoch)
        self.epoch = epoch
        self.seed = owf(TAG_SIGKEY, secret.seed, epoch_bytes)
        self.address = owf(TAG_BCADD, secret.seed, epoch_bytes)
        self.digests: dict[ServiceProps, bytes] = {}
        self.key: Ed25519PrivateKey | None = None
        self._bcadd: BCADD | None = None

    @property
    def bcadd(self) -> BCADD:
        if self._bcadd is None:
            public_key = ahead.AHEAD.take(ahead.KEY + self.seed)
            if public_key is None:
                self.key = Ed25519PrivateKey.from_private_bytes(self.seed)
                public_key = self.key.public_key().public_bytes_raw()
            self._bcadd = BCADD(address=self.address, epoch=self.epoch, public_key=public_key)
        return self._bcadd

    def digest(self, service: ServiceProps) -> bytes:
        digest = self.digests.get(service)
        if digest is None:
            digest = self.digests[service] = appid_digest(self.address, service, self.epoch)
        return digest

    def sign(self, message: bytes) -> bytes:
        """The helper's signature for exactly this message under this
        seed, if it returned this BCADD's public key with it; else a
        signature made here."""
        public_key = self.bcadd.public_key
        answer = ahead.AHEAD.take(ahead.SIGN + self.seed + message)
        if answer is not None and answer[:ahead.KEY_SIZE] == public_key:
            return answer[ahead.KEY_SIZE:]
        if self.key is None:
            key = Ed25519PrivateKey.from_private_bytes(self.seed)
            if key.public_key().public_bytes_raw() != public_key:
                raise MismatchedSecret("the epoch key does not match its BCADD")
            self.key = key
        return self.key.sign(message)


def _epoch(secret: IdentitySecret, epoch: int) -> _Epoch:
    """The secret's values for an epoch, derived once and cached on the
    secret while the epoch is one of the two highest asked for: the
    current one, and the next one that sign_linkage_ahead derives."""
    epochs = secret._epochs
    derived = epochs.get(epoch)
    if derived is None:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        derived = epochs[epoch] = _Epoch(secret, epoch)
        if len(epochs) > 2:
            del epochs[min(epochs)]
    return derived


def derive_bcadd(secret: IdentitySecret, epoch: int) -> BCADD:
    """Chain address for an epoch. Pure: same inputs, same address."""
    return _epoch(secret, epoch).bcadd


def _require_own_bcadd(secret: IdentitySecret, bcadd: BCADD) -> _Epoch:
    """The BCADD's epoch, if the whole BCADD (address, epoch and public
    key) derives from this secret."""
    own = _epoch(secret, bcadd.epoch)
    if own.bcadd != bcadd:
        raise MismatchedSecret("BCADD does not derive from this secret")
    return own


def appid_digest(address: bytes, service: ServiceProps, epoch: int) -> bytes:
    return owf(TAG_APPID, address, service.to_bytes(), pack_u64(epoch))


def derive_appid(secret: IdentitySecret, bcadd: BCADD, service: ServiceProps) -> APPID:
    """Service identity under the given BCADD; epoch carried over. The
    digest is derived once per epoch kept on the secret."""
    digest = _require_own_bcadd(secret, bcadd).digest(service)
    return APPID(id=digest, service=service, epoch=bcadd.epoch)


def _linkage_message(address: bytes, appid_id: bytes, epoch: int, nonce: bytes) -> bytes:
    return TAG_LINKAGE + address + appid_id + pack_u64(epoch) + nonce


def make_linkage_proof(
    secret: IdentitySecret,
    bcadd: BCADD,
    appid: APPID,
    session_nonce: bytes,
) -> LinkageProof:
    """Sign (address, appid, epoch, nonce) with the epoch key, and send
    the signature's verify frame to the helper (ahead.py). The signature
    is the helper's if this exact message was signed ahead under the
    epoch's seed (sign_linkage_ahead). LinkageProof raises ValueError for
    a nonce that is not NONCE_SIZE bytes."""
    own = _require_own_bcadd(secret, bcadd)
    if appid.epoch != bcadd.epoch or appid.id != own.digest(appid.service):
        raise MismatchedSecret("APPID does not derive from this BCADD")
    message = _linkage_message(bcadd.address, appid.id, bcadd.epoch, session_nonce)
    signature = own.sign(message)
    ahead.AHEAD.submit(ahead.verify_frame(bcadd.public_key, signature, message))
    return LinkageProof(
        commitment=bcadd.to_bytes(),
        signature=signature,
        session_nonce=bytes(session_nonce),
    )


def sign_linkage_ahead(
    secret: IdentitySecret,
    epoch: int,
    service: ServiceProps,
    session_nonce: bytes,
) -> None:
    """Send the helper (ahead.py) the epoch's signing seed as a key
    frame, and the seed with the message that a proof for `service` under
    `epoch`, bound to this nonce, will sign as a sign frame. The message
    is built from the epoch's address and APPID digest, not through
    derive_bcadd or derive_appid, so no public key is resolved here: the
    rotation to that epoch takes the helper's. The epoch's values are
    cached on the secret (_epoch), so they are derived once for every
    session signed ahead and for the rotation. Nothing is computed where
    the helper takes no submission."""
    if not ahead.AHEAD.submitting:
        return
    derived = _epoch(secret, epoch)
    message = _linkage_message(derived.address, derived.digest(service), epoch, session_nonce)
    ahead.AHEAD.submit(ahead.KEY + derived.seed)
    ahead.AHEAD.submit(ahead.SIGN + derived.seed + message)


def verify_linkage(
    bcadd: BCADD,
    appid: APPID,
    proof: LinkageProof,
    session_nonce: bytes,
) -> bool:
    """True iff the proof binds this exact (bcadd, appid, nonce) triple.

    Checks, in order: the commitment names this BCADD; the APPID
    structurally re-derives from the BCADD (service, epoch, digest); the
    epoch key is not of small order; the signature verifies under it over
    the given nonce. For that last check it takes the verify-ahead
    helper's answer for this exact (key, signature, message) frame, if
    one has arrived, and verifies inline otherwise; both are Ed25519's
    answer.
    Malformed inputs yield False, never an exception.
    """
    try:
        if proof.commitment != bcadd.to_bytes():
            return False
        if appid.epoch != bcadd.epoch or appid.id != appid_digest(
                bcadd.address, appid.service, bcadd.epoch):
            return False
        key = bcadd.public_key
        if _small_order(key):
            return False
        message = _linkage_message(bcadd.address, appid.id, bcadd.epoch, bytes(session_nonce))
        answer = ahead.AHEAD.take(ahead.verify_frame(key, proof.signature, message))
        if answer is not None:
            return answer == ahead.VALID
        Ed25519PublicKey.from_public_bytes(key).verify(proof.signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError, WireError):
        return False


def rotate(
    secret: IdentitySecret,
    current: BCADD,
    services: Sequence[ServiceProps],
) -> tuple[BCADD, list[APPID]]:
    """Advance to the next epoch: fresh address, fresh APPID per service."""
    _require_own_bcadd(secret, current)
    nxt = derive_bcadd(secret, current.epoch + 1)
    return nxt, [derive_appid(secret, nxt, service) for service in services]


# ---------------------------------------------------------------------------
# Regulator
# ---------------------------------------------------------------------------

class Regulator:
    """Holds subjects' registered attributes and signs predicate
    attestations about them. The registry never leaves this object."""

    def __init__(self, seed: bytes):
        self._key = Ed25519PrivateKey.from_private_bytes(owf(TAG_REGULATOR, seed))
        self._registry: dict[bytes, dict[str, int | str]] = {}

    @property
    def public_key(self) -> bytes:
        return self._key.public_key().public_bytes_raw()

    def register(self, subject_address: bytes, attributes: Mapping[str, int | str]) -> None:
        if len(subject_address) != DIGEST_SIZE:
            raise ValueError("subject must be a 32-byte address")
        self._registry[bytes(subject_address)] = dict(attributes)

    def issue_attestation(self, subject: BCADD, predicate: Predicate) -> AttributeAttestation:
        """Attest iff the registered value satisfies the predicate.

        Raises UnknownSubject for unregistered addresses and Refused when
        the predicate does not hold (or the attribute was never
        registered). The attestation carries no attribute value.
        """
        attributes = self._registry.get(subject.address)
        if attributes is None:
            raise UnknownSubject(subject.address.hex())
        if predicate.attribute not in attributes:
            raise Refused(f"no registered attribute {predicate.attribute!r}")
        if not predicate.holds(attributes[predicate.attribute]):
            raise Refused(f"predicate {predicate} does not hold")
        signature = self._key.sign(
            _attestation_message(predicate, subject.address, subject.epoch)
        )
        return AttributeAttestation(
            predicate=predicate,
            subject=subject.address,
            epoch=subject.epoch,
            regulator_signature=signature,
        )


def _attestation_message(predicate: Predicate, subject: bytes, epoch: int) -> bytes:
    return TAG_ATTEST + pack_bytes(predicate.to_bytes()) + subject + pack_u64(epoch)


def verify_attestation(attestation: AttributeAttestation, regulator_public_key: bytes) -> bool:
    """True iff the regulator's signature covers this exact predicate,
    subject, and epoch. Needs only the regulator public key, which must
    not be of small order. One that cannot be encoded (a threshold
    outside i64: WireError) is not valid."""
    try:
        if _small_order(regulator_public_key):
            return False
        verifier = Ed25519PublicKey.from_public_bytes(regulator_public_key)
        verifier.verify(
            attestation.regulator_signature,
            _attestation_message(attestation.predicate, attestation.subject, attestation.epoch),
        )
        return True
    except (InvalidSignature, ValueError, TypeError, WireError):
        return False
