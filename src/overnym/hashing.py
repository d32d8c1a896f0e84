"""The package-wide one-way function.

Every derivation in the stack (addresses, application ids, bloom indexes,
chain hashes, transcripts, session keys) is SHA-256 over a tagged
preimage. One primitive, domain-separated by an ASCII tag, keeps the
whole system auditable against a single set of test vectors.

Preimage layouts are part of the wire contract and are documented in
docs/wire-format.md. Their integers are written by wire.pack_u32 and
wire.pack_u64, the package's one integer encoder, which refuses a value
out of range with WireError; this module defines none of its own.
"""

from __future__ import annotations

import hashlib

# Bytes of every owf output, and so of every chain address, service id,
# token id and NEAT key.
DIGEST_SIZE = 32

# Domain-separation tags. A digest computed under one tag is never valid
# under another, so cross-protocol confusion is structurally impossible.
TAG_BCADD = b"bcadd:"
TAG_SIGKEY = b"sigkey:"
TAG_APPID = b"appid:"
TAG_LINKAGE = b"linkage:"
TAG_ATTEST = b"attest:"
TAG_REGULATOR = b"regulator:"
TAG_BLOOM = b"bloom:"
TAG_NFT = b"nft:"
TAG_PAYLOAD = b"payload:"
TAG_ENTRY = b"entry:"
TAG_LEDGER_STATE = b"ledger-state:"
TAG_TRANSCRIPT = b"transcript:"
TAG_HS_NONCE = b"hs-nonce:"
TAG_SESSION_ID = b"session-id:"
TAG_SESSION_KEY = b"session-key:"
TAG_REKEY = b"rekey:"
TAG_KEYCHECK = b"keycheck:"
TAG_ROT_NONCE = b"rot-nonce:"
TAG_ROT_AUTH = b"rot-auth:"
TAG_MSG_AUTH = b"msg-auth:"
TAG_RNG = b"rng:"


def owf(tag: bytes, *parts: bytes) -> bytes:
    """SHA-256 over tag plus parts, in order. Always 32 bytes."""
    h = hashlib.sha256()
    h.update(tag)
    for part in parts:
        h.update(part)
    return h.digest()

