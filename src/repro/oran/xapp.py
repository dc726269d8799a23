"""xApp base class — control-plane applications hosted by the near-RT RIC.

An xApp registers with the RIC, subscribes to RAN functions, receives
indications and control acks over RMR, reads/writes the SDL, and can
receive A1 policies. MobiWatch and the LLM analyzer (:mod:`repro.core`)
are built on this class.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.oran.e2ap import (
    ActionType,
    RicControlAck,
    RicIndication,
    RicSubscriptionResponse,
)
from repro.oran.rmr import RIC_CONTROL_ACK, RIC_INDICATION, RIC_SUB_RESP
from repro.sim.entity import Entity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.oran.ric import NearRtRic


class XApp(Entity):
    """Base class for near-RT RIC applications."""

    VERSION = "1.0.0"

    def __init__(self, ric: "NearRtRic", name: str) -> None:
        super().__init__(ric.sim, name)
        self.ric = ric
        self.subscription_ids: list[int] = []
        self.started = False
        ric.register_xapp(self)

    @property
    def sdl(self):
        return self.ric.sdl

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Called by the RIC once the platform is up. Override and call super."""
        self.started = True

    def stop(self) -> None:
        self.started = False

    # -- subscriptions / control ----------------------------------------------------

    def subscribe(
        self,
        ran_function_id: int,
        event_trigger: bytes,
        action_type: ActionType = ActionType.REPORT,
    ) -> int:
        sub_id = self.ric.e2term.subscribe(
            self.name, ran_function_id, event_trigger, action_type
        )
        self.subscription_ids.append(sub_id)
        return sub_id

    def send_control(
        self, ran_function_id: int, control_header: bytes, control_message: bytes
    ) -> int:
        return self.ric.e2term.send_control(
            self.name, ran_function_id, control_header, control_message
        )

    # -- RMR dispatch --------------------------------------------------------------------

    def on_rmr(self, mtype: int, sub_id: int, payload: Any) -> None:
        if mtype == RIC_INDICATION and isinstance(payload, RicIndication):
            self.on_indication(payload)
        elif mtype == RIC_SUB_RESP and isinstance(payload, RicSubscriptionResponse):
            self.on_subscription_response(payload)
        elif mtype == RIC_CONTROL_ACK and isinstance(payload, RicControlAck):
            self.on_control_ack(payload)
        else:
            self.on_message(mtype, sub_id, payload)

    # -- override points ------------------------------------------------------------------

    def on_indication(self, indication: RicIndication) -> None:
        """Handle a RIC indication for one of this xApp's subscriptions."""

    def on_subscription_response(self, response: RicSubscriptionResponse) -> None:
        if not response.admitted:
            self.log(f"subscription {response.ric_request_id} rejected")

    def on_control_ack(self, ack: RicControlAck) -> None:
        self.log(f"control {ack.ric_request_id}: {ack.outcome}")

    def on_policy(self, policy_type_id: int, policy: dict) -> None:
        """Handle an A1 policy instance targeted at this xApp."""

    def on_message(self, mtype: int, sub_id: int, payload: Any) -> None:
        self.log(f"unhandled RMR message type {mtype}")
