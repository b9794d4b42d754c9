"""APNA core: the paper's primary contribution.

* :mod:`repro.core.ephid` — the Fig. 6 EphID construction.
* :mod:`repro.core.certs` / :mod:`repro.core.rpki` — certificates & trust.
* :mod:`repro.core.keys` — kA/kHA/EphID key material.
* :mod:`repro.core.registry` — host bootstrapping (Fig. 2).
* :mod:`repro.core.management` — EphID issuance (Fig. 3).
* :mod:`repro.core.border_router` — data-plane pipelines (Fig. 4).
* :mod:`repro.core.accountability` — the shutoff protocol (Fig. 5).
* :mod:`repro.core.host` / :mod:`repro.core.session` — the host stack.
* :mod:`repro.core.granularity` — EphID granularity policies (VIII-A).
* :mod:`repro.core.revocation` — revocation management (VIII-G2).
* :mod:`repro.core.autonomous_system` — the simulated AS assembly.
"""

from .accountability import AccountabilityAgent
from .autonomous_system import (
    ApnaAutonomousSystem,
    ApnaHostNode,
    BorderRouterNode,
    ServiceIdentity,
)
from .border_router import Action, BorderRouter, DropReason, Verdict
from .certs import AsCertificate, EphIdCertificate, FLAG_CONTROL, FLAG_RECEIVE_ONLY
from .config import ApnaConfig, DEFAULT_CONFIG
from .ephid import EphIdCodec, EphIdInfo, IvAllocator
from .errors import (
    ApnaError,
    AuthError,
    CertError,
    EphIdError,
    IssuanceError,
    MacError,
    RevokedError,
    ShutoffError,
    UnknownHostError,
)
from .granularity import (
    FlowKey,
    GranularityPolicy,
    PerApplicationPolicy,
    PerFlowPolicy,
    PerHostPolicy,
    PerPacketPolicy,
    make_policy,
)
from .host import HostStack
from .hostdb import HostDatabase, HostRecord
from .infrabus import InfraBus
from .keys import (
    AsKeyMaterial,
    AsSecret,
    EphIdKeyPair,
    ExchangeKeyPair,
    HostAsKeys,
    SigningKeyPair,
)
from .management import ManagementService
from .messages import (
    BootstrapReply,
    BootstrapRequest,
    EphIdReply,
    EphIdRequest,
    IdInfo,
    InfraUpdate,
    RevocationPush,
    ShutoffRequest,
    ShutoffResponse,
)
from .registry import RegistryService, credential_proof
from .replay import ReplayWindow
from .replay_filter import BloomFilter, RotatingReplayFilter
from .revocation import RevocationList, RevocationPolicy
from .rpki import RpkiDirectory, TrustAnchor
from .session import (
    ConnectionAccept,
    ConnectionRequest,
    OwnedEphId,
    Session,
    SessionError,
    derive_session_key,
)

__all__ = [
    "AccountabilityAgent",
    "Action",
    "ApnaAutonomousSystem",
    "ApnaConfig",
    "ApnaError",
    "ApnaHostNode",
    "AsCertificate",
    "AsKeyMaterial",
    "AsSecret",
    "AuthError",
    "BloomFilter",
    "BootstrapReply",
    "BootstrapRequest",
    "BorderRouter",
    "BorderRouterNode",
    "CertError",
    "ConnectionAccept",
    "ConnectionRequest",
    "DEFAULT_CONFIG",
    "DropReason",
    "EphIdCertificate",
    "EphIdCodec",
    "EphIdError",
    "EphIdInfo",
    "EphIdKeyPair",
    "EphIdReply",
    "EphIdRequest",
    "ExchangeKeyPair",
    "FLAG_CONTROL",
    "FLAG_RECEIVE_ONLY",
    "FlowKey",
    "GranularityPolicy",
    "HostAsKeys",
    "HostDatabase",
    "HostRecord",
    "HostStack",
    "IdInfo",
    "InfraBus",
    "InfraUpdate",
    "IssuanceError",
    "IvAllocator",
    "MacError",
    "ManagementService",
    "OwnedEphId",
    "PerApplicationPolicy",
    "PerFlowPolicy",
    "PerHostPolicy",
    "PerPacketPolicy",
    "RegistryService",
    "ReplayWindow",
    "RevocationList",
    "RevocationPolicy",
    "RevocationPush",
    "RevokedError",
    "RotatingReplayFilter",
    "RpkiDirectory",
    "ServiceIdentity",
    "Session",
    "SessionError",
    "ShutoffError",
    "ShutoffRequest",
    "ShutoffResponse",
    "SigningKeyPair",
    "TrustAnchor",
    "UnknownHostError",
    "Verdict",
    "credential_proof",
    "derive_session_key",
    "make_policy",
]
