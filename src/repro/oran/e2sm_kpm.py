"""E2SM-KPM extended with MobiFlow security telemetry (paper §3.1).

The paper extends the O-RAN E2SM-KPM service model so the RIC agent can
report fine-grained security telemetry "via the E2 report operation per time
interval, where the telemetry can be encoded as (key, value) data". This
module is that extension: the event trigger carries the report period; each
indication carries a batch of KV-encoded MobiFlow records.

A second control-style section (``SecurityControl``) models the subset of
E2SM-RC actions the paper's closed loop needs (§5, Automated Network
Responses): releasing a UE and blocklisting a temporary identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro import wire
from repro.oran.e2sm import E2smError, ServiceModel
from repro.telemetry.encoder import RecordBatch, decode_batch, encode_batch
from repro.telemetry.mobiflow import MobiFlowRecord

MOBIFLOW_RAN_FUNCTION_ID = 142  # KPM is 2; we register the extension as 142.

# Control actions (E2SM-RC RAN-control style, §5 of the paper).
ACTION_RELEASE_UE = "release_ue"
ACTION_BLOCKLIST_TMSI = "blocklist_tmsi"
ACTION_UNBLOCK_TMSI = "unblock_tmsi"
# dApp-style real-time radio control (paper §5): cap the admitted
# RRCSetupRequest rate at the DU — the effective response to floods that
# hop identifiers faster than per-UE releases can track.
ACTION_RATE_LIMIT_ACCESS = "rate_limit_access"
ACTION_CLEAR_RATE_LIMIT = "clear_rate_limit"
KNOWN_ACTIONS = (
    ACTION_RELEASE_UE,
    ACTION_BLOCKLIST_TMSI,
    ACTION_UNBLOCK_TMSI,
    ACTION_RATE_LIMIT_ACCESS,
    ACTION_CLEAR_RATE_LIMIT,
)


@dataclass(frozen=True)
class MobiFlowReportStyle:
    """Event trigger for periodic MobiFlow reporting."""

    report_period_s: float = 0.1
    # Upper bound of records per indication (0 = unbounded).
    max_records_per_indication: int = 0

    def to_trigger(self) -> dict:
        return {
            "style": "mobiflow-report",
            "period_s": self.report_period_s,
            "max_records": self.max_records_per_indication,
        }

    @classmethod
    def from_trigger(cls, trigger: dict) -> "MobiFlowReportStyle":
        if trigger.get("style") != "mobiflow-report":
            raise E2smError(f"unexpected trigger style {trigger.get('style')!r}")
        period_s = float(trigger["period_s"])
        if not 0 < period_s < math.inf:
            # A period of zero would tick forever at one instant.
            raise E2smError(f"report period must be positive and finite, got {period_s}")
        return cls(
            report_period_s=period_s,
            max_records_per_indication=int(trigger.get("max_records", 0)),
        )


@dataclass(frozen=True)
class AccessRatePolicy:
    """POLICY-type subscription payload: a fast-path rule installed *at the
    E2 node* (paper §2.1's policy primitive) — the DU autonomously caps the
    admitted setup-request rate with no per-event RIC round trip."""

    max_setups: int = 3
    window_s: float = 1.0

    def to_trigger(self) -> dict:
        return {
            "style": "access-rate-policy",
            "max_setups": self.max_setups,
            "window_s": self.window_s,
        }

    @classmethod
    def from_trigger(cls, trigger: dict) -> "AccessRatePolicy":
        if trigger.get("style") != "access-rate-policy":
            raise E2smError(f"unexpected trigger style {trigger.get('style')!r}")
        return cls(
            max_setups=int(trigger["max_setups"]),
            window_s=float(trigger["window_s"]),
        )


class MobiFlowKpmModel(ServiceModel):
    """E2SM-KPM extension carrying MobiFlow security telemetry."""

    RAN_FUNCTION_ID = MOBIFLOW_RAN_FUNCTION_ID
    NAME = "ORAN-E2SM-KPM-MobiFlow"

    @classmethod
    def _indication_header(cls, count: int) -> bytes:
        return wire.encode({"sm": cls.NAME, "count": count})

    @classmethod
    def encode_indication(cls, payload: list[MobiFlowRecord]) -> tuple[bytes, bytes]:
        """Encode a record list into header + message bytes: one
        (key, value) dict per record."""
        records = list(payload)
        return cls._indication_header(len(records)), encode_batch(records)

    @classmethod
    def decode_indication(cls, header: bytes, message: bytes) -> RecordBatch:
        """The indication's records, each with its span of ``message``
        (see :class:`RecordBatch`). The header must be, byte for byte, the
        one :meth:`encode_indication` writes for that many records."""
        records = decode_batch(message)
        if header != cls._indication_header(len(records)):
            raise E2smError(
                f"indication header is not MobiFlow-KPM's for {len(records)} records"
            )
        return records

    # -- control actions --------------------------------------------------------

    @classmethod
    def encode_control(cls, action: str, **params: Any) -> tuple[bytes, bytes]:
        if action not in KNOWN_ACTIONS:
            raise E2smError(f"unknown control action {action!r}")
        header = wire.encode({"sm": cls.NAME, "action": action})
        message = wire.encode(dict(params))
        return header, message

    @classmethod
    def decode_control(cls, header: bytes, message: bytes) -> tuple[str, dict]:
        meta = wire.decode(header)
        if not isinstance(meta, dict) or meta.get("sm") != cls.NAME:
            raise E2smError("control header is not MobiFlow-KPM")
        action = meta.get("action")
        if action not in KNOWN_ACTIONS:
            raise E2smError(f"unknown control action {action!r}")
        params = wire.decode(message)
        if not isinstance(params, dict):
            raise E2smError("control params are not a dict")
        return action, params
