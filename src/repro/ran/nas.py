"""NAS (Non-Access Stratum) messages for 5G registration (TS 24.501).

Covers the 5GMM procedures the five evaluated attacks manipulate:
registration, identification, 5G-AKA authentication, the NAS security mode
procedure (where the null-cipher downgrade shows up), service request and
deregistration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ran.messages import (
    Direction,
    Message,
    Protocol,
    register_enum_field_type,
)
from repro.ran.security import CipherAlg, IntegrityAlg


class FiveGmmState(enum.Enum):
    """UE 5GMM states (TS 24.501 §5.1.3)."""

    DEREGISTERED = "5GMM-DEREGISTERED"
    REGISTERED_INITIATED = "5GMM-REGISTERED-INITIATED"
    REGISTERED = "5GMM-REGISTERED"
    DEREGISTERED_INITIATED = "5GMM-DEREGISTERED-INITIATED"
    SERVICE_REQUEST_INITIATED = "5GMM-SERVICE-REQUEST-INITIATED"


class RegistrationType(enum.Enum):
    INITIAL = "initial"
    MOBILITY_UPDATE = "mobility-update"
    PERIODIC_UPDATE = "periodic-update"
    EMERGENCY = "emergency"


class IdentityType(enum.Enum):
    """Identity types an Identity Request can demand (TS 24.501 §9.11.3.3)."""

    SUCI = "suci"
    GUTI = "5g-guti"
    IMEI = "imei"
    # Requesting the permanent identifier in the clear is the
    # identity-extraction attack primitive.
    SUPI = "supi"


class FiveGmmCause(enum.Enum):
    """Subset of 5GMM cause values (TS 24.501 §9.11.3.2)."""

    ILLEGAL_UE = 3
    PLMN_NOT_ALLOWED = 11
    CONGESTION = 22
    SECURITY_MODE_REJECTED = 24
    PROTOCOL_ERROR = 111


register_enum_field_type(RegistrationType)
register_enum_field_type(IdentityType)
register_enum_field_type(FiveGmmCause)


@dataclass
class RegistrationRequest(Message):
    """UE -> AMF: initial registration carrying SUCI or 5G-GUTI."""

    NAME = "RegistrationRequest"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    registration_type: RegistrationType = RegistrationType.INITIAL
    # Exactly one of these identifies the UE.
    suci: str = ""
    guti: str = ""
    ue_security_capabilities: list = field(default_factory=list)


@dataclass
class AuthenticationRequest(Message):
    """AMF -> UE: 5G-AKA challenge (RAND, AUTN).

    ``sqn`` models the SQN⊕AK component of AUTN: the UE checks it for
    freshness (anti-replay) and verifies the AUTN MAC against it.
    """

    NAME = "AuthenticationRequest"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    rand: bytes = b""
    autn: bytes = b""
    sqn: int = 0


@dataclass
class AuthenticationResponse(Message):
    """UE -> AMF: RES* computed from the challenge."""

    NAME = "AuthenticationResponse"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    res_star: bytes = b""


@dataclass
class AuthenticationFailure(Message):
    """UE -> AMF: AUTN verification failed (MAC failure / sync failure)."""

    NAME = "AuthenticationFailure"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    cause: str = "MAC failure"


@dataclass
class AuthenticationReject(Message):
    """AMF -> UE: authentication rejected; UE considers itself illegal."""

    NAME = "AuthenticationReject"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK


@dataclass
class IdentityRequest(Message):
    """AMF -> UE: request an identity. Requesting SUPI pre-security is the
    downlink identity-extraction attack's injected message."""

    NAME = "IdentityRequest"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    identity_type: IdentityType = IdentityType.SUCI


@dataclass
class IdentityResponse(Message):
    """UE -> AMF: the requested identity (plaintext before NAS security)."""

    NAME = "IdentityResponse"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    identity_type: IdentityType = IdentityType.SUCI
    identity_value: str = ""


@dataclass
class NasSecurityModeCommand(Message):
    """AMF -> UE: activate NAS security with selected algorithms."""

    NAME = "NASSecurityModeCommand"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    cipher_alg: CipherAlg = CipherAlg.NEA2
    integrity_alg: IntegrityAlg = IntegrityAlg.NIA2
    replayed_capabilities: list = field(default_factory=list)


@dataclass
class NasSecurityModeComplete(Message):
    """UE -> AMF: NAS security activated."""

    NAME = "NASSecurityModeComplete"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK


@dataclass
class NasSecurityModeReject(Message):
    """UE -> AMF: refused the proposed security configuration."""

    NAME = "NASSecurityModeReject"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    cause: FiveGmmCause = FiveGmmCause.SECURITY_MODE_REJECTED


@dataclass
class RegistrationAccept(Message):
    """AMF -> UE: registration accepted; assigns a fresh 5G-GUTI."""

    NAME = "RegistrationAccept"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    guti: str = ""


@dataclass
class RegistrationComplete(Message):
    """UE -> AMF: acknowledges the new GUTI."""

    NAME = "RegistrationComplete"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK


@dataclass
class RegistrationReject(Message):
    """AMF -> UE: registration rejected with a 5GMM cause."""

    NAME = "RegistrationReject"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    cause: FiveGmmCause = FiveGmmCause.PROTOCOL_ERROR


@dataclass
class ServiceRequest(Message):
    """UE -> AMF: transition from IDLE to CONNECTED for pending traffic."""

    NAME = "ServiceRequest"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    s_tmsi: int = 0


@dataclass
class ServiceAccept(Message):
    """AMF -> UE: service request granted."""

    NAME = "ServiceAccept"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK


@dataclass
class ServiceReject(Message):
    """AMF -> UE: service request denied."""

    NAME = "ServiceReject"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    cause: FiveGmmCause = FiveGmmCause.CONGESTION


@dataclass
class ConfigurationUpdateCommand(Message):
    """AMF -> UE: generic UE configuration update; used here to reallocate
    the 5G-GUTI after each use (TS 33.501 recommends frequent refresh)."""

    NAME = "ConfigurationUpdateCommand"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK

    guti: str = ""


@dataclass
class DeregistrationRequest(Message):
    """UE -> AMF: UE-initiated deregistration (power-off / detach)."""

    NAME = "DeregistrationRequest"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.UPLINK

    switch_off: bool = True


@dataclass
class DeregistrationAccept(Message):
    """AMF -> UE: deregistration acknowledged."""

    NAME = "DeregistrationAccept"
    PROTOCOL = Protocol.NAS
    DIRECTION = Direction.DOWNLINK
