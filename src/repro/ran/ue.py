"""User equipment: 5G UE state machine with per-handset behaviour profiles.

The paper collects benign traffic from four commodity handsets (Pixel 5,
Pixel 6, Galaxy A22, Galaxy A53) plus OAI software UEs on Colosseum. Each
handset model behaves slightly differently — processing delays, how often it
sends measurement reports, whether it deregisters cleanly or just goes quiet
until the network releases it, which security algorithms it supports. The
profiles below encode those differences so the benign telemetry distribution
has realistic diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.ran.channel import RadioChannel
from repro.ran.identifiers import Supi, conceal_supi, tmsi_of_guti
from repro.ran.messages import Message
from repro.ran.nas import (
    AuthenticationFailure,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    DeregistrationAccept,
    DeregistrationRequest,
    FiveGmmState,
    IdentityRequest,
    IdentityResponse,
    IdentityType,
    NasSecurityModeCommand,
    NasSecurityModeComplete,
    NasSecurityModeReject,
    RegistrationAccept,
    RegistrationComplete,
    RegistrationReject,
    RegistrationRequest,
    RegistrationType,
    ServiceAccept,
    ServiceRequest,
)
from repro.ran.rrc import (
    EstablishmentCause,
    RrcDlInformationTransfer,
    RrcMeasurementReport,
    RrcPaging,
    RrcReconfiguration,
    RrcReconfigurationComplete,
    RrcReject,
    RrcRelease,
    RrcSetup,
    RrcSetupComplete,
    RrcSetupRequest,
    RrcSecurityModeCommand,
    RrcSecurityModeComplete,
    RrcState,
    RrcUlInformationTransfer,
)
from repro.ran.security import CipherAlg, IntegrityAlg, UsimCredential
from repro.sim.engine import Event, Simulator
from repro.sim.entity import Entity

# T300: RRC setup request retransmission timer (TS 38.331, typical 400ms).
T300_S = 0.4
T300_MAX_RETRIES = 3

SessionCallback = Callable[["UserEquipment", str], None]


@dataclass(frozen=True)
class UeProfile:
    """Behavioural fingerprint of one handset model."""

    name: str
    cipher_caps: tuple = (CipherAlg.NEA2, CipherAlg.NEA1, CipherAlg.NEA0)
    integrity_caps: tuple = (IntegrityAlg.NIA2, IntegrityAlg.NIA1, IntegrityAlg.NIA0)
    # UE-side processing delay per response, uniform range.
    proc_delay_min_s: float = 0.01
    proc_delay_max_s: float = 0.05
    # Post-registration measurement reporting.
    measurement_interval_s: float = 0.5
    measurements_min: int = 1
    measurements_max: int = 3
    # Probability the UE deregisters explicitly (vs. going quiet until the
    # network's inactivity timer releases it).
    deregister_prob: float = 0.7
    # Establishment-cause mix (weights).
    cause_weights: tuple = (
        (EstablishmentCause.MO_SIGNALLING, 0.5),
        (EstablishmentCause.MO_DATA, 0.35),
        (EstablishmentCause.MO_VOICE_CALL, 0.1),
        (EstablishmentCause.MO_SMS, 0.05),
    )
    # Null-scheme SUCI: the permanent identifier is sent unconcealed. Only
    # the uplink identity-extraction attack profile turns this on.
    suci_null_scheme: bool = False
    # A hardened UE refuses a security mode selecting null algorithms
    # (counters the bidding-down attack at the device).
    reject_null_security: bool = False


# The four handsets from the paper's benign collection plus the OAI soft UE.
PROFILES: dict[str, UeProfile] = {
    "pixel5": UeProfile(
        name="pixel5",
        proc_delay_min_s=0.012,
        proc_delay_max_s=0.04,
        measurement_interval_s=0.45,
        measurements_min=1,
        measurements_max=3,
        deregister_prob=0.75,
    ),
    "pixel6": UeProfile(
        name="pixel6",
        cipher_caps=(CipherAlg.NEA2, CipherAlg.NEA3, CipherAlg.NEA1, CipherAlg.NEA0),
        integrity_caps=(IntegrityAlg.NIA2, IntegrityAlg.NIA3, IntegrityAlg.NIA1, IntegrityAlg.NIA0),
        proc_delay_min_s=0.008,
        proc_delay_max_s=0.03,
        measurement_interval_s=0.4,
        measurements_min=2,
        measurements_max=4,
        deregister_prob=0.8,
    ),
    "galaxy_a22": UeProfile(
        name="galaxy_a22",
        proc_delay_min_s=0.02,
        proc_delay_max_s=0.07,
        measurement_interval_s=0.6,
        measurements_min=0,
        measurements_max=2,
        deregister_prob=0.55,
        cause_weights=(
            (EstablishmentCause.MO_SIGNALLING, 0.45),
            (EstablishmentCause.MO_DATA, 0.45),
            (EstablishmentCause.MO_SMS, 0.1),
        ),
    ),
    "galaxy_a53": UeProfile(
        name="galaxy_a53",
        cipher_caps=(CipherAlg.NEA2, CipherAlg.NEA3, CipherAlg.NEA1, CipherAlg.NEA0),
        integrity_caps=(IntegrityAlg.NIA2, IntegrityAlg.NIA3, IntegrityAlg.NIA1, IntegrityAlg.NIA0),
        proc_delay_min_s=0.015,
        proc_delay_max_s=0.05,
        measurement_interval_s=0.5,
        measurements_min=1,
        measurements_max=3,
        deregister_prob=0.65,
    ),
    "oai_ue": UeProfile(
        name="oai_ue",
        proc_delay_min_s=0.005,
        proc_delay_max_s=0.02,
        measurement_interval_s=0.3,
        measurements_min=0,
        measurements_max=2,
        deregister_prob=0.9,
        cause_weights=(
            (EstablishmentCause.MO_SIGNALLING, 0.6),
            (EstablishmentCause.MO_DATA, 0.4),
        ),
    ),
}


class UserEquipment(Entity):
    """A benign 5G UE driving registration sessions over the radio channel.

    Attack UEs (see :mod:`repro.attacks`) subclass this and override the
    behaviour they subvert.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        channel: RadioChannel,
        supi: Supi,
        usim: UsimCredential,
        profile: UeProfile,
        imei: str = "356938035643809",
    ) -> None:
        super().__init__(sim, name)
        self.channel = channel
        self.supi = supi
        self.usim = usim
        self.profile = profile
        self.imei = imei
        self.rng = sim.rng.stream(f"ue.{name}")

        self.rrc_state = RrcState.IDLE
        self.fivegmm_state = FiveGmmState.DEREGISTERED
        self.rnti: Optional[int] = None
        self.guti: Optional[str] = None
        self.s_tmsi: Optional[int] = None
        self.current_cipher: Optional[CipherAlg] = None
        self.current_integrity: Optional[IntegrityAlg] = None
        # Most recently negotiated algorithms, retained across sessions.
        self.last_cipher: Optional[CipherAlg] = None
        self.last_integrity: Optional[IntegrityAlg] = None

        self.sessions_started = 0
        self.sessions_completed = 0
        self.sessions_failed = 0
        self.auth_failures_sent = 0
        # Highest SQN accepted so far (AUTN freshness / anti-replay).
        self._last_sqn = 0

        self._t300: Optional[Event] = None
        self._t300_retries = 0
        self._on_session_end: Optional[SessionCallback] = None
        self._pending_measurements = 0
        self._deregister_after_activity = False
        self._session_active = False
        # Next session is network-initiated (paging -> service request).
        self._pending_mt = False

    # -- helpers -----------------------------------------------------------

    def _proc_delay(self) -> float:
        return self.rng.uniform(self.profile.proc_delay_min_s, self.profile.proc_delay_max_s)

    def _pick_cause(self) -> EstablishmentCause:
        causes = [c for c, _ in self.profile.cause_weights]
        weights = [w for _, w in self.profile.cause_weights]
        return self.rng.choices(causes, weights=weights, k=1)[0]

    def make_suci(self) -> str:
        """Build the registration identity (concealed unless null-scheme)."""
        if self.profile.suci_null_scheme:
            # Null-scheme SUCI: standard-compliant, but the MSIN is plaintext.
            return f"suci-null-{self.supi.mcc}-{self.supi.mnc}-{self.supi.msin}"
        return conceal_supi(self.supi)

    def send_uplink_rrc(self, message: Message) -> None:
        self.channel.uplink(self, self.rnti, message)

    def send_uplink_nas(self, nas_message: Message) -> None:
        """Wrap an uplink NAS PDU in ULInformationTransfer."""
        self.send_uplink_rrc(RrcUlInformationTransfer(nas_pdu=nas_message.to_wire()))

    # -- session driver ----------------------------------------------------

    def start_session(self, on_end: Optional[SessionCallback] = None) -> None:
        """Power on and begin a registration session."""
        if self.rrc_state is not RrcState.IDLE or self._session_active:
            raise RuntimeError(f"{self.name}: session already in progress")
        self._session_active = True
        self._on_session_end = on_end
        self.sessions_started += 1
        self._t300_retries = 0
        self._send_setup_request()

    def _send_setup_request(self) -> None:
        if self._pending_mt:
            cause = EstablishmentCause.MT_ACCESS
        else:
            cause = self._pick_cause()
        if self.s_tmsi is not None:
            request = RrcSetupRequest(
                establishment_cause=cause,
                ue_identity=self.s_tmsi,
                identity_is_tmsi=True,
            )
        else:
            request = RrcSetupRequest(
                establishment_cause=cause,
                ue_identity=self.rng.getrandbits(39),
                identity_is_tmsi=False,
            )
        self.channel.uplink(self, None, request)
        self._t300 = self.schedule(T300_S, self._on_t300, name=f"{self.name}.t300")

    def _on_t300(self) -> None:
        if self.rrc_state is not RrcState.IDLE:
            return
        self._t300_retries += 1
        if self._t300_retries > T300_MAX_RETRIES:
            self.log("T300 expired, giving up")
            self._finish_session("setup-failed")
            return
        self.log(f"T300 expired, retry {self._t300_retries}")
        self._send_setup_request()

    def _cancel_t300(self) -> None:
        if self._t300 is not None:
            self._t300.cancel()
            self._t300 = None

    def _finish_session(self, outcome: str) -> None:
        self.rrc_state = RrcState.IDLE
        self.rnti = None
        self.current_cipher = None
        self.current_integrity = None
        self._session_active = False
        self._pending_mt = False
        if outcome == "completed":
            self.sessions_completed += 1
        else:
            self.sessions_failed += 1
        callback = self._on_session_end
        self._on_session_end = None
        if callback is not None:
            callback(self, outcome)

    # -- downlink dispatch ---------------------------------------------------

    def on_downlink(self, rnti: int, message: Message) -> None:
        """Entry point for frames the channel delivers to this UE."""
        if self.rnti is not None and rnti != self.rnti:
            # A stale connection (e.g. from a duplicated setup request or an
            # abandoned access) is being addressed; the UE ignores it.
            self.log(f"stale downlink {message.name} on RNTI 0x{rnti:04x}")
            return
        handler = getattr(self, f"_on_{type(message).__name__}", None)
        if handler is None:
            self.log(f"ignoring downlink {message.name}")
            return
        handler(rnti, message)

    def _on_RrcSetup(self, rnti: int, message: RrcSetup) -> None:
        if self.rrc_state is RrcState.CONNECTED:
            # Duplicate grant from a retransmitted request; ignore it.
            return
        self._cancel_t300()
        self.rrc_state = RrcState.CONNECTED
        self.rnti = rnti
        if self._pending_mt and self.s_tmsi is not None:
            # Network-initiated: answer the page with a service request.
            self.fivegmm_state = FiveGmmState.SERVICE_REQUEST_INITIATED
            initial_nas: Message = ServiceRequest(s_tmsi=self.s_tmsi)
        else:
            self.fivegmm_state = FiveGmmState.REGISTERED_INITIATED
            initial_nas = RegistrationRequest(
                registration_type=RegistrationType.INITIAL,
                suci="" if self.guti else self.make_suci(),
                guti=self.guti or "",
                ue_security_capabilities=[int(c) for c in self.profile.cipher_caps]
                + [16 + int(i) for i in self.profile.integrity_caps],
            )
        complete = RrcSetupComplete(
            rrc_transaction_id=message.rrc_transaction_id,
            nas_pdu=initial_nas.to_wire(),
        )
        self.schedule(self._proc_delay(), lambda: self.send_uplink_rrc(complete))

    def _on_RrcReject(self, rnti: int, message: RrcReject) -> None:
        self._cancel_t300()
        self.log("RRC rejected")
        self._finish_session("rejected")

    def _on_RrcSecurityModeCommand(self, rnti: int, message: RrcSecurityModeCommand) -> None:
        self.schedule(
            self._proc_delay(),
            lambda: self.send_uplink_rrc(RrcSecurityModeComplete()),
        )

    def _on_RrcReconfiguration(self, rnti: int, message: RrcReconfiguration) -> None:
        complete = RrcReconfigurationComplete(rrc_transaction_id=message.rrc_transaction_id)
        self.schedule(self._proc_delay(), lambda: self.send_uplink_rrc(complete))
        if message.nas_pdu:
            self._handle_nas(Message.from_wire(message.nas_pdu))

    def _on_RrcDlInformationTransfer(self, rnti: int, message: RrcDlInformationTransfer) -> None:
        self._handle_nas(Message.from_wire(message.nas_pdu))

    def _on_RrcRelease(self, rnti: int, message: RrcRelease) -> None:
        if self.rrc_state is not RrcState.CONNECTED:
            return
        if self.fivegmm_state is FiveGmmState.DEREGISTERED_INITIATED:
            self.fivegmm_state = FiveGmmState.DEREGISTERED
        self._finish_session("completed")

    def _on_RrcPaging(self, rnti: int, message: RrcPaging) -> None:
        if (
            self.s_tmsi is None
            or message.s_tmsi != self.s_tmsi
            or self.rrc_state is not RrcState.IDLE
            or self._session_active
            or self.fivegmm_state is not FiveGmmState.REGISTERED
        ):
            return
        self._pending_mt = True
        self.start_session()

    # -- NAS handling --------------------------------------------------------

    def _handle_nas(self, nas: Message) -> None:
        handler = getattr(self, f"_on_nas_{type(nas).__name__}", None)
        if handler is None:
            self.log(f"ignoring NAS {nas.name}")
            return
        handler(nas)

    def _on_nas_AuthenticationRequest(self, nas: AuthenticationRequest) -> None:
        if not self.usim.verify_autn(nas.rand, nas.autn, nas.sqn):
            # The network (or an impersonator) failed the AUTN check.
            self.auth_failures_sent += 1
            failure = AuthenticationFailure(cause="MAC failure")
            self.schedule(self._proc_delay(), lambda: self.send_uplink_nas(failure))
            return
        if nas.sqn <= self._last_sqn:
            # Stale challenge: replay protection (TS 33.102 SQN freshness).
            self.auth_failures_sent += 1
            failure = AuthenticationFailure(cause="synch failure")
            self.schedule(self._proc_delay(), lambda: self.send_uplink_nas(failure))
            return
        self._last_sqn = nas.sqn
        res = self.usim.compute_res(nas.rand)
        self.schedule(
            self._proc_delay(),
            lambda: self.send_uplink_nas(AuthenticationResponse(res_star=res)),
        )

    def _on_nas_AuthenticationReject(self, nas: AuthenticationReject) -> None:
        self.log("authentication rejected by network")
        self.fivegmm_state = FiveGmmState.DEREGISTERED

    def _on_nas_IdentityRequest(self, nas: IdentityRequest) -> None:
        # Pre-security identity procedure: the UE answers with the requested
        # identity type. Responding to a SUPI request in plaintext is exactly
        # the baseband behaviour the LTrack downlink attack exploits.
        if nas.identity_type is IdentityType.SUCI:
            value = self.make_suci()
        elif nas.identity_type is IdentityType.SUPI:
            value = str(self.supi)
        elif nas.identity_type is IdentityType.IMEI:
            value = self.imei
        else:
            value = self.guti or ""
        response = IdentityResponse(identity_type=nas.identity_type, identity_value=value)
        self.schedule(self._proc_delay(), lambda: self.send_uplink_nas(response))

    def _on_nas_NasSecurityModeCommand(self, nas: NasSecurityModeCommand) -> None:
        if self.profile.reject_null_security and (
            nas.cipher_alg.is_null or nas.integrity_alg.is_null
        ):
            self.schedule(
                self._proc_delay(),
                lambda: self.send_uplink_nas(NasSecurityModeReject()),
            )
            return
        self.current_cipher = nas.cipher_alg
        self.current_integrity = nas.integrity_alg
        self.last_cipher = nas.cipher_alg
        self.last_integrity = nas.integrity_alg
        self.schedule(
            self._proc_delay(),
            lambda: self.send_uplink_nas(NasSecurityModeComplete()),
        )

    def _on_nas_RegistrationAccept(self, nas: RegistrationAccept) -> None:
        self.guti = nas.guti
        # The S-TMSI is the tail of the GUTI string (hex TMSI).
        self.s_tmsi = tmsi_of_guti(nas.guti)
        self.fivegmm_state = FiveGmmState.REGISTERED
        self.schedule(
            self._proc_delay(),
            lambda: self.send_uplink_nas(RegistrationComplete()),
        )
        self._begin_registered_activity()

    def _on_nas_RegistrationReject(self, nas: RegistrationReject) -> None:
        self.log(f"registration rejected: {nas.cause}")
        self.fivegmm_state = FiveGmmState.DEREGISTERED

    def _on_nas_ServiceAccept(self, nas: ServiceAccept) -> None:
        self._pending_mt = False
        self.fivegmm_state = FiveGmmState.REGISTERED
        self._begin_registered_activity()

    def _on_nas_ConfigurationUpdateCommand(self, nas) -> None:
        # GUTI reallocation after use (TS 33.501 refresh recommendation).
        self.guti = nas.guti
        self.s_tmsi = tmsi_of_guti(nas.guti)

    def _on_nas_DeregistrationAccept(self, nas: DeregistrationAccept) -> None:
        self.fivegmm_state = FiveGmmState.DEREGISTERED

    # -- registered-mode activity ---------------------------------------------

    def _begin_registered_activity(self) -> None:
        self._pending_measurements = self.rng.randint(
            self.profile.measurements_min, self.profile.measurements_max
        )
        self._deregister_after_activity = self.rng.random() < self.profile.deregister_prob
        self._schedule_next_activity()

    def _schedule_next_activity(self) -> None:
        interval = self.profile.measurement_interval_s * self.rng.uniform(0.7, 1.3)
        self.schedule(interval, self._activity_tick)

    def _activity_tick(self) -> None:
        if self.rrc_state is not RrcState.CONNECTED:
            return
        if self._pending_measurements > 0:
            self._pending_measurements -= 1
            report = RrcMeasurementReport(
                rsrp_dbm=self.rng.uniform(-110.0, -70.0),
                rsrq_db=self.rng.uniform(-16.0, -6.0),
            )
            self.send_uplink_rrc(report)
            self._schedule_next_activity()
            return
        if self._deregister_after_activity:
            self.fivegmm_state = FiveGmmState.DEREGISTERED_INITIATED
            self.send_uplink_nas(DeregistrationRequest(switch_off=False))
        # Otherwise: go quiet; the CU inactivity timer will release us.
