"""E2 Application Protocol (E2AP) PDUs — O-RAN WG3 E2AP spec, simplified.

The four interaction primitives the paper names (§2.1) are covered:
**report** (subscription + indication), **insert**, **control** (control
request/ack), and **policy** (subscription with a policy action type). PDUs
serialize through :mod:`repro.wire` and travel over an
:class:`~repro.ran.links.InterfaceLink` named ``E2``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Type

from repro import wire


class E2apError(ValueError):
    """Raised on malformed E2AP PDUs."""


class ActionType(enum.Enum):
    """RIC action types (E2AP §8.2)."""

    REPORT = "report"
    INSERT = "insert"
    POLICY = "policy"


_PDU_REGISTRY: Dict[str, Type["E2apPdu"]] = {}

def _to_action_type(value: Any) -> Any:
    return None if value is None else ActionType(value)


_PLANS = wire.EnvelopePlans(
    "pdu",
    lambda cls: cls.PDU,
    _PDU_REGISTRY,
    lambda annotation: _to_action_type if annotation == "ActionType" else None,
)


@dataclass
class E2apPdu:
    """Base class for E2AP PDUs with TLV serialization."""

    PDU: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.PDU:
            if cls.PDU in _PDU_REGISTRY and _PDU_REGISTRY[cls.PDU] is not cls:
                raise E2apError(f"duplicate E2AP PDU {cls.PDU!r}")
            _PDU_REGISTRY[cls.PDU] = cls

    def to_wire(self) -> bytes:
        """Serialize to TLV bytes: ``{"pdu": PDU, "ie": {...}}``."""
        return _PLANS.plan(type(self)).encode(self)

    @staticmethod
    def from_wire(data: bytes) -> "E2apPdu":
        data = bytes(data)
        pdu = _PLANS.decode(data)
        if pdu is not None:
            return pdu
        try:
            blob = wire.decode(data)
        except wire.WireError as exc:
            raise E2apError(f"undecodable E2AP PDU: {exc}") from exc
        if not isinstance(blob, dict) or "pdu" not in blob:
            raise E2apError("not an E2AP PDU envelope")
        cls = _PDU_REGISTRY.get(blob["pdu"])
        if cls is None:
            raise E2apError(f"unknown E2AP PDU {blob['pdu']!r}")
        ies = blob.get("ie", {})
        if not isinstance(ies, dict):
            raise E2apError("E2AP IEs are not a dict")
        kwargs: Dict[str, Any] = {}
        plan = _PLANS.plan(cls)
        for name, convert in zip(plan.names, plan.converters):
            if name not in ies:
                raise E2apError(f"{blob['pdu']}: missing IE {name!r}")
            value = ies[name]
            kwargs[name] = value if convert is None else convert(value)
        return cls(**kwargs)

    @property
    def pdu_name(self) -> str:
        return type(self).PDU


@dataclass
class E2SetupRequest(E2apPdu):
    """E2 node -> RIC: announce supported RAN functions."""

    PDU = "E2SetupRequest"

    e2_node_id: str = ""
    # ran_function_id -> human-readable definition string
    ran_functions: dict = field(default_factory=dict)


@dataclass
class E2SetupResponse(E2apPdu):
    """RIC -> E2 node: accept the connection."""

    PDU = "E2SetupResponse"

    ric_id: str = ""
    accepted_functions: list = field(default_factory=list)


@dataclass
class RicSubscriptionRequest(E2apPdu):
    """RIC -> E2 node: subscribe an xApp to a RAN function."""

    PDU = "RICSubscriptionRequest"

    ric_request_id: int = 0
    ran_function_id: int = 0
    # Service-model-specific event trigger (e.g. report period), encoded.
    event_trigger: bytes = b""
    action_type: ActionType = ActionType.REPORT


@dataclass
class RicSubscriptionResponse(E2apPdu):
    """E2 node -> RIC: subscription admitted."""

    PDU = "RICSubscriptionResponse"

    ric_request_id: int = 0
    ran_function_id: int = 0
    admitted: bool = True


@dataclass
class RicSubscriptionDeleteRequest(E2apPdu):
    """RIC -> E2 node: remove a subscription (and any installed policy)."""

    PDU = "RICSubscriptionDeleteRequest"

    ric_request_id: int = 0
    ran_function_id: int = 0


@dataclass
class RicIndication(E2apPdu):
    """E2 node -> RIC: a report/insert indication for a subscription."""

    PDU = "RICIndication"

    ric_request_id: int = 0
    ran_function_id: int = 0
    sequence_number: int = 0
    # Service-model-specific header and message payloads.
    indication_header: bytes = b""
    indication_message: bytes = b""


@dataclass
class RicControlRequest(E2apPdu):
    """RIC -> E2 node: execute a control action on the RAN."""

    PDU = "RICControlRequest"

    ric_request_id: int = 0
    ran_function_id: int = 0
    control_header: bytes = b""
    control_message: bytes = b""
    ack_requested: bool = True


@dataclass
class RicControlAck(E2apPdu):
    """E2 node -> RIC: control action outcome."""

    PDU = "RICControlAck"

    ric_request_id: int = 0
    ran_function_id: int = 0
    success: bool = True
    outcome: str = ""


@dataclass
class RicServiceUpdate(E2apPdu):
    """E2 node -> RIC: RAN function definitions changed."""

    PDU = "RICServiceUpdate"

    e2_node_id: str = ""
    ran_functions: dict = field(default_factory=dict)
