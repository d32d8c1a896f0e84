import random
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from overnym import ahead
from overnym.identity import (
    APPID,
    BCADD,
    IdentitySecret,
    LinkageProof,
    ServiceProps,
    _linkage_message,
    appid_digest,
    derive_appid,
    derive_bcadd,
)
from overnym.ledger import Ledger, RegistrationTx


def make_secret(index: int = 0, attributes=None) -> IdentitySecret:
    rng = random.Random(0xA5A5 + index)
    seed = bytes(rng.getrandbits(8) for _ in range(32))
    return IdentitySecret(seed, attributes or {})


@pytest.fixture
def secret():
    return make_secret()


@pytest.fixture
def bcadd(secret):
    return derive_bcadd(secret, 0)


@pytest.fixture
def service():
    return ServiceProps("storefront")


@pytest.fixture
def appid(secret, bcadd, service):
    return derive_appid(secret, bcadd, service)


def register_identity(ledger: Ledger, bcadd, *, kind="user", at_time=0,
                      submitter="t", nonce=None, **extra):
    """Register a chain address and commit immediately."""
    tx = RegistrationTx(kind=kind, subject=bcadd.address,
                        public_key=bcadd.public_key, epoch=bcadd.epoch, **extra)
    ledger.submit(tx, submitter=submitter, at_time=at_time,
                  nonce=nonce or bcadd.address[:16])
    ledger.commit_round()
    return tx


def forge_key_linkage(victim: BCADD, service: ServiceProps, nonce: bytes):
    """(BCADD, APPID, LinkageProof) pairing the victim's chain address with
    an attacker's own key. The proof verifies; only the ledger, which
    registers the address under the victim's key, can tell."""
    key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
    forged = BCADD(victim.address, victim.epoch, key.public_key().public_bytes_raw())
    appid = APPID(appid_digest(forged.address, service, forged.epoch), service, forged.epoch)
    signature = key.sign(_linkage_message(forged.address, appid.id, forged.epoch, nonce))
    return forged, appid, LinkageProof(forged.to_bytes(), signature, nonce)


@pytest.fixture
def helper(monkeypatch):
    """A fresh verify-ahead helper as the process's own, closed afterwards;
    used as if the process had a second CPU, whatever it has."""
    fresh = ahead.VerifyAhead()
    monkeypatch.setattr(ahead, "AHEAD", fresh)
    monkeypatch.setattr(ahead, "_cpus", lambda: 2)
    yield fresh
    fresh.close()


def settle(helper, timeout: float = 20.0) -> None:
    """Wait until the verify-ahead helper has answered every frame sent."""
    deadline = time.monotonic() + timeout
    while helper._sent and time.monotonic() < deadline:
        helper._receive()
        time.sleep(0.002)
    assert not helper._sent
