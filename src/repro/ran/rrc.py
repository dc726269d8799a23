"""RRC (Radio Resource Control) messages and UE RRC state (TS 38.331).

Only the information elements the MobiFlow telemetry extracts are modelled
(Table 1 of the paper): establishment cause, UE identity (random value or
5G-S-TMSI), and the security-mode algorithm selections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ran.messages import (
    Direction,
    Message,
    Protocol,
    register_enum_field_type,
)
from repro.ran.security import CipherAlg, IntegrityAlg


class RrcState(enum.Enum):
    """UE RRC states (TS 38.331 §4.2.1)."""

    IDLE = "RRC_IDLE"
    CONNECTED = "RRC_CONNECTED"
    INACTIVE = "RRC_INACTIVE"


class EstablishmentCause(enum.Enum):
    """RRC establishment cause reported in RRCSetupRequest (TS 38.331)."""

    EMERGENCY = "emergency"
    HIGH_PRIORITY_ACCESS = "highPriorityAccess"
    MT_ACCESS = "mt-Access"
    MO_SIGNALLING = "mo-Signalling"
    MO_DATA = "mo-Data"
    MO_VOICE_CALL = "mo-VoiceCall"
    MO_SMS = "mo-SMS"
    MPS_PRIORITY_ACCESS = "mps-PriorityAccess"


register_enum_field_type(EstablishmentCause)
register_enum_field_type(CipherAlg)
register_enum_field_type(IntegrityAlg)


@dataclass
class RrcSetupRequest(Message):
    """UE -> gNB: request a new RRC connection (msg3 of random access)."""

    NAME = "RRCSetupRequest"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK

    establishment_cause: EstablishmentCause = EstablishmentCause.MO_SIGNALLING
    # Either a 39-bit random value (fresh UE) or the 5G-S-TMSI (known UE).
    ue_identity: int = 0
    identity_is_tmsi: bool = False


@dataclass
class RrcSetup(Message):
    """gNB -> UE: accept the connection, assign SRB1 config."""

    NAME = "RRCSetup"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    rrc_transaction_id: int = 0


@dataclass
class RrcReject(Message):
    """gNB -> UE: reject the connection (congestion / barring)."""

    NAME = "RRCReject"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    wait_time_s: int = 1


@dataclass
class RrcSetupComplete(Message):
    """UE -> gNB: connection established; carries the initial NAS message."""

    NAME = "RRCSetupComplete"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK

    rrc_transaction_id: int = 0
    selected_plmn: str = "00101"
    # The dedicated NAS message (e.g. Registration Request), already encoded.
    nas_pdu: bytes = b""


@dataclass
class RrcSecurityModeCommand(Message):
    """gNB -> UE: activate AS security with the selected algorithms."""

    NAME = "RRCSecurityModeCommand"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    cipher_alg: CipherAlg = CipherAlg.NEA2
    integrity_alg: IntegrityAlg = IntegrityAlg.NIA2


@dataclass
class RrcSecurityModeComplete(Message):
    """UE -> gNB: AS security activated."""

    NAME = "RRCSecurityModeComplete"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK


@dataclass
class RrcSecurityModeFailure(Message):
    """UE -> gNB: AS security activation failed (integrity check failed)."""

    NAME = "RRCSecurityModeFailure"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK


@dataclass
class RrcReconfiguration(Message):
    """gNB -> UE: reconfigure radio bearers / measurement config."""

    NAME = "RRCReconfiguration"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    rrc_transaction_id: int = 0
    nas_pdu: bytes = b""


@dataclass
class RrcReconfigurationComplete(Message):
    """UE -> gNB: reconfiguration applied."""

    NAME = "RRCReconfigurationComplete"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK

    rrc_transaction_id: int = 0


@dataclass
class RrcUlInformationTransfer(Message):
    """UE -> gNB: carries an uplink NAS PDU after connection setup."""

    NAME = "ULInformationTransfer"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK

    nas_pdu: bytes = b""


@dataclass
class RrcDlInformationTransfer(Message):
    """gNB -> UE: carries a downlink NAS PDU."""

    NAME = "DLInformationTransfer"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    nas_pdu: bytes = b""


@dataclass
class RrcRelease(Message):
    """gNB -> UE: release the RRC connection back to IDLE."""

    NAME = "RRCRelease"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    cause: str = "other"


@dataclass
class RrcMeasurementReport(Message):
    """UE -> gNB: periodic / event-triggered measurement report."""

    NAME = "MeasurementReport"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK

    rsrp_dbm: float = -90.0
    rsrq_db: float = -10.0


@dataclass
class RrcPaging(Message):
    """gNB -> UE: page an IDLE UE by its 5G-S-TMSI."""

    NAME = "Paging"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.DOWNLINK

    s_tmsi: int = 0


@dataclass
class RrcReestablishmentRequest(Message):
    """UE -> gNB: attempt to re-establish after radio link failure."""

    NAME = "RRCReestablishmentRequest"
    PROTOCOL = Protocol.RRC
    DIRECTION = Direction.UPLINK

    c_rnti: int = 0
    cause: str = "otherFailure"
