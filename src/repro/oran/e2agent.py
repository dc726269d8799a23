"""E2 RIC agent embedded in the gNB CU (paper §3.1 / §4 testbed).

The paper extends the OAI CU with "an E2 RIC agent that extracts security
telemetry and handles communication with the nRT-RIC's E2 interface". This
agent does the same three jobs:

1. **Extract** — taps the F1AP/NGAP links with a live
   :class:`~repro.telemetry.collector.MobiFlowCollector`;
2. **Report** — on an admitted MobiFlow subscription, batches the records
   collected each report period into E2SM-KPM indications;
3. **Control** — executes RIC control actions (release UE, blocklist TMSI)
   against the CU and acknowledges the outcome.
"""

from __future__ import annotations

from typing import Optional

from repro.oran.e2ap import (
    ActionType,
    E2apPdu,
    E2SetupRequest,
    RicControlAck,
    RicControlRequest,
    RicIndication,
    RicSubscriptionDeleteRequest,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
)
from repro.oran.e2sm import E2smError
from repro.oran.e2sm_kpm import (
    ACTION_BLOCKLIST_TMSI,
    AccessRatePolicy,
    ACTION_CLEAR_RATE_LIMIT,
    ACTION_RATE_LIMIT_ACCESS,
    ACTION_RELEASE_UE,
    ACTION_UNBLOCK_TMSI,
    MobiFlowKpmModel,
    MobiFlowReportStyle,
)
from repro.ran.links import InterfaceLink
from repro.ran.network import FiveGNetwork
from repro.sim.entity import Entity
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.mobiflow import MobiFlowRecord


class RicAgent(Entity):
    """The E2 node side of the control plane, attached to a live network."""

    def __init__(
        self,
        net: FiveGNetwork,
        e2: InterfaceLink,
        node_id: str = "gnb-cu-0",
    ) -> None:
        super().__init__(net.sim, f"e2agent.{node_id}")
        self.net = net
        self.e2 = e2
        self.node_id = node_id
        self.collector = MobiFlowCollector(metrics=net.sim.obs.metrics)
        self._buffer: list[MobiFlowRecord] = []
        self._subscription: Optional[tuple[int, MobiFlowReportStyle]] = None
        # Installed fast-path policies: ric_request_id -> AccessRatePolicy.
        self.policies: dict[int, AccessRatePolicy] = {}
        self._sequence = 0
        self.indications_sent = 0
        self.controls_executed = 0
        metrics = net.sim.obs.metrics
        self._indications_counter = metrics.counter(
            "e2agent.indications_total", help="E2SM-KPM indications sent"
        )
        self._batch_records = metrics.histogram(
            "e2agent.batch_records",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            help="MobiFlow records per indication",
        )
        self._report_queue_latency = metrics.histogram(
            "e2agent.report_queue_latency_s",
            help="capture -> indication send, per record (report batching)",
        )
        self._controls_counters: dict[str, object] = {}
        self._pdu_bytes = metrics.counter(
            "e2.pdu_bytes_total",
            labels={"direction": "node_to_ric"},
            help="encoded E2AP PDU bytes sent over E2 (whole PDUs)",
        )
        # Tap the data-plane interfaces exactly where the paper instruments.
        net.f1.add_tap(self.collector.on_capture)
        net.ng.add_tap(self.collector.on_capture)
        self.collector.subscribe(self._buffer.append)

    # -- E2 connection ----------------------------------------------------------

    def _send(self, pdu: E2apPdu) -> None:
        envelope = _pdu_envelope(pdu)
        self._pdu_bytes.inc(len(envelope.payload))
        self.e2.send_to_b(envelope)

    def start(self) -> None:
        """Announce the extended KPM function to the RIC (E2 Setup)."""
        definition = MobiFlowKpmModel.definition()
        self._send(
            E2SetupRequest(
                e2_node_id=self.node_id,
                ran_functions={str(definition.ran_function_id): definition.to_value()},
            )
        )

    def on_e2(self, envelope) -> None:
        """Handle an E2AP PDU arriving from the RIC."""
        pdu = _pdu_from_envelope(envelope)
        if isinstance(pdu, RicSubscriptionRequest):
            self._on_subscription(pdu)
        elif isinstance(pdu, RicSubscriptionDeleteRequest):
            self._on_subscription_delete(pdu)
        elif isinstance(pdu, RicControlRequest):
            self._on_control(pdu)
        # Setup responses and acks need no action on the agent side.

    # -- reporting ------------------------------------------------------------------

    def _on_subscription(self, request: RicSubscriptionRequest) -> None:
        admitted = False
        if request.ran_function_id == MobiFlowKpmModel.RAN_FUNCTION_ID:
            if request.action_type is ActionType.REPORT:
                trigger = MobiFlowKpmModel.decode_event_trigger(request.event_trigger)
                style = MobiFlowReportStyle.from_trigger(trigger)
                first_subscription = self._subscription is None
                self._subscription = (request.ric_request_id, style)
                if first_subscription:
                    self.schedule(style.report_period_s, self._report_tick)
                admitted = True
            elif request.action_type is ActionType.POLICY:
                admitted = self._install_policy(request)
        self._send(
            RicSubscriptionResponse(
                ric_request_id=request.ric_request_id,
                ran_function_id=request.ran_function_id,
                admitted=admitted,
            )
        )

    # -- policy (fast-path rules installed at the node, §2.1) ------------------------

    def _install_policy(self, request: RicSubscriptionRequest) -> bool:
        try:
            trigger = MobiFlowKpmModel.decode_event_trigger(request.event_trigger)
            policy = AccessRatePolicy.from_trigger(trigger)
            self.net.du.set_rate_limit(policy.max_setups, policy.window_s)
        except (E2smError, ValueError, KeyError):
            return False
        self.policies[request.ric_request_id] = policy
        return True

    def _on_subscription_delete(self, request: RicSubscriptionDeleteRequest) -> None:
        if request.ric_request_id in self.policies:
            self.policies.pop(request.ric_request_id)
            if not self.policies:
                self.net.du.clear_rate_limit()
        elif self._subscription and self._subscription[0] == request.ric_request_id:
            self._subscription = None  # stops the report loop at next tick

    def _report_tick(self) -> None:
        if self._subscription is None:
            return
        request_id, style = self._subscription
        if self._buffer:
            limit = style.max_records_per_indication
            take = limit if limit and len(self._buffer) > limit else len(self._buffer)
            # Mutate in place: the collector subscription holds a reference
            # to this exact list.
            batch = self._buffer[:take]
            del self._buffer[:take]
            now = self.now
            self._report_queue_latency.observe_many(
                [now - record.timestamp for record in batch]
            )
            self._batch_records.observe(len(batch))
            header, message = MobiFlowKpmModel.encode_indication(batch)
            self._sequence += 1
            self.indications_sent += 1
            self._indications_counter.inc()
            self._send(
                RicIndication(
                    ric_request_id=request_id,
                    ran_function_id=MobiFlowKpmModel.RAN_FUNCTION_ID,
                    sequence_number=self._sequence,
                    indication_header=header,
                    indication_message=message,
                )
            )
        self.schedule(style.report_period_s, self._report_tick)

    # -- control ------------------------------------------------------------------------

    def _on_control(self, request: RicControlRequest) -> None:
        action, params = MobiFlowKpmModel.decode_control(
            request.control_header, request.control_message
        )
        success, outcome = self._execute(action, params)
        if success:
            self.controls_executed += 1
            counter = self._controls_counters.get(action)
            if counter is None:
                counter = self._controls_counters[action] = self.sim.obs.metrics.counter(
                    "e2agent.controls_executed_total", labels={"action": action}
                )
            counter.inc()
            self.log(f"control executed: {outcome}", action=action)
        if request.ack_requested:
            self._send(
                RicControlAck(
                    ric_request_id=request.ric_request_id,
                    ran_function_id=request.ran_function_id,
                    success=success,
                    outcome=outcome,
                )
            )

    def _execute(self, action: str, params: dict) -> tuple[bool, str]:
        cu = self.net.cu
        if action == ACTION_RELEASE_UE:
            rnti = int(params["rnti"])
            if cu.release_rnti(rnti, cause="ric-control"):
                return True, f"released rnti 0x{rnti:04x}"
            return False, f"no active context for rnti 0x{rnti:04x}"
        if action == ACTION_BLOCKLIST_TMSI:
            tmsi = int(params["tmsi"])
            cu.tmsi_blocklist.add(tmsi)
            return True, f"blocklisted tmsi 0x{tmsi:08x}"
        if action == ACTION_UNBLOCK_TMSI:
            tmsi = int(params["tmsi"])
            cu.tmsi_blocklist.discard(tmsi)
            return True, f"unblocked tmsi 0x{tmsi:08x}"
        if action == ACTION_RATE_LIMIT_ACCESS:
            max_setups = int(params["max_setups"])
            window_s = float(params["window_s"])
            try:
                self.net.du.set_rate_limit(max_setups, window_s)
            except ValueError as exc:
                return False, str(exc)
            return True, f"rate limit {max_setups}/{window_s:g}s"
        if action == ACTION_CLEAR_RATE_LIMIT:
            self.net.du.clear_rate_limit()
            return True, "rate limit cleared"
        return False, f"unknown action {action!r}"


class _E2Envelope:
    """Adapter so E2AP PDUs can ride an :class:`InterfaceLink` (which taps
    expect objects with ``to_wire``). Carries the PDU as bytes, exercising
    the full encode/decode path per hop."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.name = "E2AP"

    def to_wire(self) -> bytes:
        return self.payload


def _pdu_envelope(pdu: E2apPdu) -> _E2Envelope:
    return _E2Envelope(pdu.to_wire())


def _pdu_from_envelope(envelope) -> E2apPdu:
    return E2apPdu.from_wire(envelope.payload)
