"""E2 Termination: the RIC-side endpoint of the E2 interface.

Terminates E2AP from connected E2 nodes, tracks subscriptions, and fans
indications/acks out to xApps over the RMR router — the same role the OSC
``e2term`` + ``submgr`` services play.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.oran.e2ap import (
    ActionType,
    E2apPdu,
    E2SetupRequest,
    E2SetupResponse,
    RicControlAck,
    RicControlRequest,
    RicIndication,
    RicSubscriptionDeleteRequest,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
)
from repro.oran.e2agent import _pdu_envelope, _pdu_from_envelope
from repro.oran.rmr import RIC_CONTROL_ACK, RIC_INDICATION, RIC_SUB_RESP, RmrRouter
from repro.ran.links import InterfaceLink
from repro.scale.batcher import DROP_OLDEST, BoundedBatcher
from repro.sim.entity import Entity
from repro.sim.engine import Simulator

# The ingest batcher's fixed shape: a bounded queue that sheds its oldest
# indication when full, flushed on size and every 10 ms of sim time.
INGEST_CAPACITY = 8192
INGEST_FLUSH_INTERVAL_S = 0.01


@dataclass
class Subscription:
    """One admitted (or pending) xApp subscription."""

    ric_request_id: int
    xapp_name: str
    ran_function_id: int
    action_type: ActionType
    admitted: bool = False


class E2Termination(Entity):
    """RIC-side E2AP endpoint + subscription manager."""

    def __init__(
        self,
        sim: Simulator,
        ric_id: str,
        e2: InterfaceLink,
        rmr: RmrRouter,
        ingest_flush_records: int = 0,
    ) -> None:
        super().__init__(sim, f"e2term.{ric_id}")
        self.ric_id = ric_id
        self.e2 = e2
        self.rmr = rmr
        self._request_ids = itertools.count(1)
        self.subscriptions: dict[int, Subscription] = {}
        self.connected_nodes: dict[str, dict] = {}
        self.indications_received = 0
        metrics = sim.obs.metrics
        self._pdu_counters = {
            kind: metrics.counter("e2term.pdus_total", labels={"type": kind})
            for kind in ("setup", "sub_resp", "indication", "control_ack", "other")
        }
        self._indication_bytes = metrics.histogram(
            "e2term.indication_bytes",
            buckets=(64, 256, 1024, 4096, 16384, 65536, 262144),
            help="encoded indication message sizes",
        )
        self._pdu_bytes = metrics.counter(
            "e2.pdu_bytes_total",
            labels={"direction": "ric_to_node"},
            help="encoded E2AP PDU bytes sent over E2 (whole PDUs)",
        )
        # Optional bounded ingest batching between this termination and the
        # xApps (repro.scale). Disabled (inline fan-out, the seed path)
        # unless runtime.ingest_flush_records asks for it.
        self.ingest_batcher: Optional[BoundedBatcher] = None
        if ingest_flush_records > 0:
            self.ingest_batcher = BoundedBatcher(
                self._deliver_indications,
                capacity=INGEST_CAPACITY,
                flush_records=ingest_flush_records,
                flush_interval_s=INGEST_FLUSH_INTERVAL_S,
                drop_policy=DROP_OLDEST,
                scheduler=lambda delay, cb: sim.schedule(
                    delay, cb, name=f"{self.name}.ingest"
                ),
                clock=lambda: sim.now,
                metrics=metrics,
                name=f"{self.name}.ingest",
            )

    # -- toward the E2 node -----------------------------------------------------

    def _send(self, pdu: E2apPdu) -> None:
        envelope = _pdu_envelope(pdu)
        self._pdu_bytes.inc(len(envelope.payload))
        self.e2.send_to_a(envelope)

    def subscribe(
        self,
        xapp_name: str,
        ran_function_id: int,
        event_trigger: bytes,
        action_type: ActionType = ActionType.REPORT,
    ) -> int:
        """Issue a subscription on behalf of an xApp; returns the request id."""
        request_id = next(self._request_ids)
        self.subscriptions[request_id] = Subscription(
            ric_request_id=request_id,
            xapp_name=xapp_name,
            ran_function_id=ran_function_id,
            action_type=action_type,
        )
        # Route this subscription's traffic to the requesting xApp.
        self.rmr.add_route(RIC_INDICATION, xapp_name, sub_id=request_id)
        self.rmr.add_route(RIC_SUB_RESP, xapp_name, sub_id=request_id)
        self._send(
            RicSubscriptionRequest(
                ric_request_id=request_id,
                ran_function_id=ran_function_id,
                event_trigger=event_trigger,
                action_type=action_type,
            )
        )
        return request_id

    def delete_subscription(self, ric_request_id: int) -> bool:
        """Tear down a subscription (removes installed node-side policies)."""
        subscription = self.subscriptions.pop(ric_request_id, None)
        if subscription is None:
            return False
        self.rmr.remove_route(RIC_INDICATION, subscription.xapp_name, sub_id=ric_request_id)
        self._send(
            RicSubscriptionDeleteRequest(
                ric_request_id=ric_request_id,
                ran_function_id=subscription.ran_function_id,
            )
        )
        return True

    def send_control(
        self,
        xapp_name: str,
        ran_function_id: int,
        control_header: bytes,
        control_message: bytes,
    ) -> int:
        """Issue a control request on behalf of an xApp."""
        request_id = next(self._request_ids)
        self.rmr.add_route(RIC_CONTROL_ACK, xapp_name, sub_id=request_id)
        self._send(
            RicControlRequest(
                ric_request_id=request_id,
                ran_function_id=ran_function_id,
                control_header=control_header,
                control_message=control_message,
            )
        )
        return request_id

    # -- from the E2 node ------------------------------------------------------------

    def on_e2(self, envelope) -> None:
        pdu = _pdu_from_envelope(envelope)
        if isinstance(pdu, E2SetupRequest):
            self._pdu_counters["setup"].inc()
            self.connected_nodes[pdu.e2_node_id] = pdu.ran_functions
            self._send(
                E2SetupResponse(
                    ric_id=self.ric_id,
                    accepted_functions=sorted(pdu.ran_functions),
                )
            )
        elif isinstance(pdu, RicSubscriptionResponse):
            self._pdu_counters["sub_resp"].inc()
            subscription = self.subscriptions.get(pdu.ric_request_id)
            if subscription is not None:
                subscription.admitted = pdu.admitted
            self.rmr.send(RIC_SUB_RESP, pdu.ric_request_id, pdu)
        elif isinstance(pdu, RicIndication):
            self.indications_received += 1
            self._pdu_counters["indication"].inc()
            self._indication_bytes.observe(len(pdu.indication_message))
            if self.ingest_batcher is not None:
                self.ingest_batcher.offer(pdu)
            else:
                self.rmr.send(RIC_INDICATION, pdu.ric_request_id, pdu)
        elif isinstance(pdu, RicControlAck):
            self._pdu_counters["control_ack"].inc()
            self.rmr.send(RIC_CONTROL_ACK, pdu.ric_request_id, pdu)
        else:
            self._pdu_counters["other"].inc()
            self.log(f"unhandled E2AP PDU {pdu.pdu_name}")

    def _deliver_indications(self, batch: list) -> None:
        """Batched RMR fan-out (the ingest batcher's flush target)."""
        for pdu in batch:
            self.rmr.send(RIC_INDICATION, pdu.ric_request_id, pdu)
