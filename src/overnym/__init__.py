"""overnym: a deterministic simulator of a pseudonymous overlay network.

Layers, bottom up:

  identity  three-tier derivation (secret -> chain address -> service id),
            linkage proofs, regulator attestations; ahead verifies
            linkage signatures, and signs each rotating user's next
            rotation proof, in a helper process before they are needed
  ledger    hash-chained registration / topology / token log
  neat      bloom-fronted per-segment address translation tables
  overlay   segment graph from ledger topology, deterministic routing
  session   mutual-auth handshake, NFT access control, in-session rotation
  simnet    discrete-event harness (with nodes for each network role)
  scenario / runner / cli   scripted end-to-end runs
"""

from .identity import (
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
    derive_appid,
    derive_bcadd,
    make_linkage_proof,
    rotate,
    verify_attestation,
    verify_linkage,
)
from .ledger import (
    AssociationRecord,
    InvalidTx,
    Ledger,
    LedgerEntry,
    NftOwnership,
    RegistrationTx,
    TopologyUpdate,
    verify_chain,
)
from .neat import (
    BloomFilter,
    NeatTable,
    NetworkLocator,
    SegmentMismatch,
    filter_params,
    fpr_analytic,
    lookup_global,
)
from .overlay import (
    Disconnected,
    OverlayGraph,
    RoutePath,
    Unresolvable,
    segment_route,
)
from .session import (
    AccessDecision,
    AuthFailed,
    ContinuityRejected,
    HandshakeMessage,
    PeerCredentials,
    Session,
    ServiceStatus,
    authorize,
    check_alive,
    handshake,
    heartbeat,
    make_rotation_notice,
    rotate_session,
    router_admit,
)
from .simnet import Simulator, StepCapExceeded, Trace, UnknownTarget
from .scenario import ParseError, Scenario, ValidationError, format_scenario, parse_scenario
from .runner import RunResult, run_scenario

__version__ = "0.1.0"
