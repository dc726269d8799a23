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
    "E2AP PDU",
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
        """Decode a PDU. Only the bytes :meth:`to_wire` writes are accepted;
        any other is an :class:`E2apError`."""
        try:
            return _PLANS.decode(bytes(data))
        except wire.WireError as exc:
            raise E2apError(str(exc)) from exc

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
