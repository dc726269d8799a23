"""F1AP/NGAP -> MobiFlow parsing (the paper's RIC-agent extraction logic).

The collector consumes capture records from the F1 and NG interfaces and
produces the per-message MobiFlow telemetry entries. It can run in two
modes:

- **offline**: parse a recorded :class:`~repro.ran.pcap.PcapStream` (how the
  paper builds its datasets from pcap files);
- **live**: attach :meth:`on_capture` as a link tap, and subscribe to be
  notified per record (how the E2 RIC agent streams telemetry at run time).

Emission policy: RRC messages are extracted from F1AP containers; NAS
messages are extracted from NGAP transports (each NAS PDU crosses NG
exactly once, so nothing is double-counted). Pure transport wrappers
(UL/DLInformationTransfer, the F1/NG envelopes themselves) do not produce
entries — matching the message sequences shown in the paper's Figure 2.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.ran import f1ap, ngap
from repro.ran.messages import Message
from repro.ran import nas as nas_messages
from repro.ran import rrc as rrc_messages
from repro.ran.pcap import PcapStream
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries

Subscriber = Callable[[MobiFlowRecord], None]

# RRC messages that are transport wrappers only (their NAS payload is
# collected from NGAP instead).
_RRC_WRAPPERS = {
    rrc_messages.RrcUlInformationTransfer,
    rrc_messages.RrcDlInformationTransfer,
}


def _tmsi_from_guti(guti: str) -> Optional[int]:
    try:
        return int(guti.rsplit("-", 1)[1], 16)
    except (IndexError, ValueError):
        return None


class MobiFlowCollector:
    """Stateful parser from interface captures to MobiFlow records."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.series = TelemetrySeries()
        self._subscribers: list[Subscriber] = []
        self._session_ids = itertools.count(1)
        # Offline parsers (pcap tooling) run without a simulation registry.
        metrics = metrics or MetricsRegistry()
        self._record_counters = {
            protocol: metrics.counter(
                "mobiflow.records_total", labels={"protocol": protocol}
            )
            for protocol in ("RRC", "NAS")
        }
        self._sessions_counter = metrics.counter(
            "mobiflow.sessions_total", help="sessions opened by the collector"
        )
        # Malformed GUTIs silently drop the TMSI identity feature; count
        # them so the blind spot is visible on the dashboard.
        self._guti_errors = metrics.counter(
            "collector.guti_parse_errors_total",
            help="GUTIs whose TMSI could not be parsed (identity feature dropped)",
        )
        # A capture or an inner RRC/NAS container that does not decode is
        # skipped, not fatal: one bad packet must not lose the rest of the
        # capture, nor raise out of the link tap into the sender.
        self._undecodable = {
            interface: metrics.counter(
                "collector.undecodable_total",
                labels={"interface": interface},
                help="captures or inner containers skipped because they did not decode",
            )
            for interface in ("F1AP", "NGAP")
        }
        # Wiring state learned from the envelopes.
        self._du_id_to_rnti: dict[int, int] = {}
        self._du_id_to_cu_id: dict[int, int] = {}
        self._cu_id_to_rnti: dict[int, int] = {}
        self._rnti_session: dict[int, int] = {}
        # Per-session state parameters (latest observed algorithms etc.).
        self._session_tmsi: dict[int, int] = {}

    def subscribe(self, fn: Subscriber) -> None:
        """Receive each MobiFlow record as it is produced (live mode)."""
        self._subscribers.append(fn)

    # -- entry points -------------------------------------------------------

    def parse_stream(self, stream: PcapStream) -> TelemetrySeries:
        """Offline mode: parse a whole capture, return the telemetry series."""
        for record in stream:
            message = self._decode(record.interface, record.payload)
            if message is not None:
                self.on_capture(record.timestamp, record.interface, message)
        return self.series

    def _decode(self, interface: str, data: bytes) -> Optional[Message]:
        """A captured payload or inner container as a message, or None
        (counted) when it does not decode."""
        try:
            return Message.from_wire(data)
        except (ValueError, TypeError):
            # MessageError, an enum field out of range, a container that is
            # not bytes at all.
            self._undecodable[interface].inc()
            return None

    def on_capture(self, timestamp: float, interface: str, message: Message) -> None:
        """Live mode: handle one captured interface envelope."""
        if interface == "F1AP":
            self._on_f1(timestamp, message)
        elif interface == "NGAP":
            self._on_ng(timestamp, message)
        else:
            raise ValueError(f"unknown interface {interface!r}")

    # -- F1AP ------------------------------------------------------------------

    def _on_f1(self, timestamp: float, message: Message) -> None:
        if isinstance(message, f1ap.F1InitialUlRrcMessageTransfer):
            rnti = message.c_rnti
            self._du_id_to_rnti[message.gnb_du_ue_id] = rnti
            session = next(self._session_ids)
            self._sessions_counter.inc()
            self._rnti_session[rnti] = session
            self._emit_rrc(timestamp, rnti, self._decode("F1AP", message.rrc_container))
        elif isinstance(message, f1ap.F1UlRrcMessageTransfer):
            rnti = self._du_id_to_rnti.get(message.gnb_du_ue_id)
            if rnti is None:
                return
            self._emit_rrc(timestamp, rnti, self._decode("F1AP", message.rrc_container))
        elif isinstance(message, f1ap.F1Paging):
            # Broadcast paging: not tied to any connection (session 0).
            self._append(
                MobiFlowRecord(timestamp, "Paging", "RRC", "DL", 0, None, message.s_tmsi)
            )
        elif isinstance(message, f1ap.F1DlRrcMessageTransfer):
            rnti = self._du_id_to_rnti.get(message.gnb_du_ue_id)
            if rnti is None:
                return
            self._du_id_to_cu_id[message.gnb_du_ue_id] = message.gnb_cu_ue_id
            self._cu_id_to_rnti[message.gnb_cu_ue_id] = rnti
            self._emit_rrc(timestamp, rnti, self._decode("F1AP", message.rrc_container))
        # F1 context management envelopes carry no UE control-plane telemetry.

    def _emit_rrc(self, timestamp: float, rnti: int, rrc: Optional[Message]) -> None:
        if rrc is None or type(rrc) in _RRC_WRAPPERS:
            return
        self._emit(timestamp, "RRC", self._rnti_session.get(rnti, 0), rnti, rrc, _RRC_FIELDS)

    # -- NGAP ---------------------------------------------------------------------

    def _on_ng(self, timestamp: float, message: Message) -> None:
        if isinstance(message, ngap.NgInitialUeMessage):
            rnti = self._cu_id_to_rnti.get(message.ran_ue_id)
            self._emit_nas(timestamp, rnti, self._decode("NGAP", message.nas_pdu))
        elif isinstance(message, (ngap.NgUplinkNasTransport, ngap.NgDownlinkNasTransport)):
            rnti = self._cu_id_to_rnti.get(message.ran_ue_id)
            self._emit_nas(timestamp, rnti, self._decode("NGAP", message.nas_pdu))
        # Context setup/release and paging envelopes carry no NAS PDU.

    def _emit_nas(
        self, timestamp: float, rnti: Optional[int], nas: Optional[Message]
    ) -> None:
        if nas is None:
            return
        session = self._rnti_session.get(rnti, 0) if rnti is not None else 0
        self._emit(timestamp, "NAS", session, rnti, nas, _NAS_FIELDS)

    # -- records -----------------------------------------------------------------

    def _emit(
        self,
        timestamp: float,
        protocol: str,
        session: int,
        rnti: Optional[int],
        message: Message,
        table: dict,
    ) -> None:
        # A class defined after the tables were built inherits its base's.
        fields_of = table.get(type(message)) or _inherited(table, type(message))
        self._append(
            MobiFlowRecord(
                timestamp,
                message.name,
                protocol,
                message.direction.value,
                session,
                rnti,
                *fields_of(self, session, message),
            )
        )

    # What a record carries after ``rnti`` — s_tmsi, suci, supi, cipher_alg,
    # integrity_alg, establishment_cause, trailing Nones left off — by
    # message class (_RRC_FIELDS / _NAS_FIELDS). A TMSI a message presents
    # is remembered for the session's later records, except under session
    # 0: that is every connection the capture never saw set up, not one UE.

    def _remember_tmsi(self, session: int, tmsi: int) -> int:
        if session:
            self._session_tmsi[session] = tmsi
        return tmsi

    def _known_tmsi(self, session: int, message: Message) -> tuple:
        return (self._session_tmsi.get(session),)

    def _setup_request_fields(self, session: int, rrc) -> tuple:
        if rrc.identity_is_tmsi:
            tmsi = self._remember_tmsi(session, rrc.ue_identity)
        else:
            tmsi = self._session_tmsi.get(session)
        return tmsi, None, None, None, None, rrc.establishment_cause.value

    def _security_mode_fields(self, session: int, message) -> tuple:
        tmsi = self._session_tmsi.get(session)
        return tmsi, None, None, int(message.cipher_alg), int(message.integrity_alg)

    def _guti_tmsi(self, session: int, guti: str) -> Optional[int]:
        tmsi = _tmsi_from_guti(guti)
        if tmsi is None:
            self._guti_errors.inc()
            return self._session_tmsi.get(session)
        return self._remember_tmsi(session, tmsi)

    def _registration_request_fields(self, session: int, nas) -> tuple:
        known = self._guti_tmsi(session, nas.guti) if nas.guti else self._session_tmsi.get(session)
        return known, nas.suci or None

    def _registration_accept_fields(self, session: int, nas) -> tuple:
        return (self._guti_tmsi(session, nas.guti),)

    def _identity_response_fields(self, session: int, nas) -> tuple:
        suci = supi = None
        if nas.identity_type is nas_messages.IdentityType.SUPI:
            supi = nas.identity_value
        elif nas.identity_type is nas_messages.IdentityType.SUCI:
            suci = nas.identity_value
        return self._session_tmsi.get(session), suci, supi

    def _service_request_fields(self, session: int, nas) -> tuple:
        return (self._remember_tmsi(session, nas.s_tmsi),)

    def _append(self, record: MobiFlowRecord) -> None:
        self.series.append(record)
        counter = self._record_counters.get(record.protocol)
        if counter is not None:
            counter.inc()
        for subscriber in self._subscribers:
            subscriber(record)


def _inherited(table: dict, cls: type):
    """The extractor of the nearest class along the MRO that has one."""
    for base in cls.__mro__:
        if base in table:
            return table[base]
    return MobiFlowCollector._known_tmsi


def _fields_by_class(carrying: dict) -> dict:
    """Exact-type lookup over every registered message class."""
    classes = map(Message.lookup, Message.registered_names())
    return {cls: _inherited(carrying, cls) for cls in classes}


_RRC_FIELDS = _fields_by_class(
    {
        rrc_messages.RrcSetupRequest: MobiFlowCollector._setup_request_fields,
        rrc_messages.RrcSecurityModeCommand: MobiFlowCollector._security_mode_fields,
    }
)
_NAS_FIELDS = _fields_by_class(
    {
        nas_messages.RegistrationRequest: MobiFlowCollector._registration_request_fields,
        nas_messages.IdentityResponse: MobiFlowCollector._identity_response_fields,
        nas_messages.NasSecurityModeCommand: MobiFlowCollector._security_mode_fields,
        nas_messages.RegistrationAccept: MobiFlowCollector._registration_accept_fields,
        nas_messages.ServiceRequest: MobiFlowCollector._service_request_fields,
    }
)
