"""gNB with CU/DU functional split over the F1 interface (TS 38.401).

The **DU** owns the radio side: it terminates the channel, allocates C-RNTIs
on initial access, and shuttles RRC containers to/from the CU over F1AP.
The **CU** owns RRC and the NG interface toward the AMF, holds per-UE
contexts, runs the inactivity timer, and — in the 6G-XSec deployment — hosts
the E2 RIC agent (the F1/NG link taps feed the telemetry pipeline).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from repro.ran.channel import RadioChannel
from repro.ran.f1ap import (
    F1DlRrcMessageTransfer,
    F1InitialUlRrcMessageTransfer,
    F1Paging,
    F1UeContextReleaseCommand,
    F1UeContextReleaseComplete,
    F1UeContextSetupRequest,
    F1UeContextSetupResponse,
    F1UlRrcMessageTransfer,
)
from repro.ran.identifiers import RntiAllocator
from repro.ran.links import InterfaceLink
from repro.ran.messages import Message
from repro.ran.ngap import (
    NgDownlinkNasTransport,
    NgInitialContextSetupRequest,
    NgInitialContextSetupResponse,
    NgInitialUeMessage,
    NgPaging,
    NgUeContextReleaseCommand,
    NgUeContextReleaseComplete,
    NgUeContextReleaseRequest,
    NgUplinkNasTransport,
)
from repro.ran.rrc import (
    RrcDlInformationTransfer,
    RrcMeasurementReport,
    RrcPaging,
    RrcReconfiguration,
    RrcReconfigurationComplete,
    RrcRelease,
    RrcSecurityModeCommand,
    RrcReject,
    RrcSecurityModeFailure,
    RrcSecurityModeComplete,
    RrcSetup,
    RrcSetupComplete,
    RrcSetupRequest,
    RrcUlInformationTransfer,
)
from repro.ran.security import CipherAlg, IntegrityAlg
from repro.sim.engine import Simulator
from repro.sim.entity import Entity


class GnbDu(Entity):
    """Distributed Unit: radio termination + RNTI management."""

    def __init__(self, sim: Simulator, name: str, channel: RadioChannel, f1: InterfaceLink) -> None:
        super().__init__(sim, name)
        self.channel = channel
        self.f1 = f1
        channel.attach_du(self)
        self.rntis = RntiAllocator(sim.rng.stream(f"du.{name}.rnti"))
        self._du_ue_ids = itertools.count(1)
        self._rnti_to_du_id: dict[int, int] = {}
        self._du_id_to_rnti: dict[int, int] = {}
        # Access rate limiting (dApp-style real-time control, paper §5):
        # at most `limit` setup requests per `window` seconds when set.
        self._rate_limit: Optional[tuple[int, float]] = None
        self._recent_setups: list[float] = []
        self.setup_requests_rate_limited = 0

    def set_rate_limit(self, max_setups: int, window_s: float) -> None:
        """Cap the admitted RRCSetupRequest rate (RIC/dApp control)."""
        if max_setups < 1 or not 0 < window_s < math.inf:
            # An infinite window would bar every setup after the first for good.
            raise ValueError("rate limit must admit at least one setup per finite window")
        self._rate_limit = (max_setups, window_s)

    def clear_rate_limit(self) -> None:
        self._rate_limit = None
        self._recent_setups.clear()

    def _admit_setup(self) -> bool:
        if self._rate_limit is None:
            return True
        limit, window = self._rate_limit
        horizon = self.now - window
        self._recent_setups[:] = [t for t in self._recent_setups if t > horizon]
        if len(self._recent_setups) >= limit:
            self.setup_requests_rate_limited += 1
            return False
        self._recent_setups.append(self.now)
        return True

    # -- uplink from the channel --------------------------------------------

    def on_uplink(self, ue, rnti: Optional[int], message: Message) -> None:
        if rnti is None:
            if not isinstance(message, RrcSetupRequest):
                self.log(f"dropping initial-access {message.name}")
                return
            if not self._admit_setup():
                # Barred at the radio: no RNTI is spent on the request.
                return
            new_rnti = self.rntis.allocate()
            du_ue_id = next(self._du_ue_ids)
            self._rnti_to_du_id[new_rnti] = du_ue_id
            self._du_id_to_rnti[du_ue_id] = new_rnti
            self.channel.bind_rnti(new_rnti, ue)
            self.f1.send_to_b(
                F1InitialUlRrcMessageTransfer(
                    gnb_du_ue_id=du_ue_id,
                    c_rnti=new_rnti,
                    rrc_container=message.to_wire(),
                )
            )
            return
        du_ue_id = self._rnti_to_du_id.get(rnti)
        if du_ue_id is None:
            self.log(f"uplink on unknown RNTI 0x{rnti:04x}")
            return
        self.f1.send_to_b(
            F1UlRrcMessageTransfer(
                gnb_du_ue_id=du_ue_id,
                gnb_cu_ue_id=0,
                rrc_container=message.to_wire(),
            )
        )

    # -- F1 from the CU -------------------------------------------------------

    def on_f1(self, message: Message) -> None:
        if isinstance(message, F1DlRrcMessageTransfer):
            rnti = self._du_id_to_rnti.get(message.gnb_du_ue_id)
            if rnti is None:
                self.log(f"DL for unknown du_ue_id {message.gnb_du_ue_id}")
                return
            self.channel.downlink(rnti, Message.from_wire(message.rrc_container))
        elif isinstance(message, F1UeContextSetupRequest):
            self.f1.send_to_b(
                F1UeContextSetupResponse(
                    gnb_du_ue_id=message.gnb_du_ue_id,
                    gnb_cu_ue_id=message.gnb_cu_ue_id,
                )
            )
        elif isinstance(message, F1Paging):
            self.channel.broadcast(RrcPaging(s_tmsi=message.s_tmsi))
        elif isinstance(message, F1UeContextReleaseCommand):
            rnti = self._du_id_to_rnti.pop(message.gnb_du_ue_id, None)
            if rnti is not None:
                self._rnti_to_du_id.pop(rnti, None)
                self.rntis.release(rnti)
                self.channel.unbind_rnti(rnti)
            self.f1.send_to_b(
                F1UeContextReleaseComplete(
                    gnb_du_ue_id=message.gnb_du_ue_id,
                    gnb_cu_ue_id=message.gnb_cu_ue_id,
                )
            )
        else:
            self.log(f"unhandled F1 message {message.name}")


@dataclass
class CuUeContext:
    """Per-UE state held at the CU."""

    cu_ue_id: int
    du_ue_id: int
    rnti: int
    amf_ue_id: int = 0
    s_tmsi: Optional[int] = None
    establishment_cause: str = ""
    last_activity: float = 0.0
    releasing: bool = False
    security_activated: bool = False
    cipher_alg: Optional[CipherAlg] = None
    integrity_alg: Optional[IntegrityAlg] = None


class GnbCu(Entity):
    """Central Unit: RRC anchor + NG interface toward the AMF."""

    # Release a connected UE after this much quiet time (seconds).
    INACTIVITY_TIMEOUT_S = 3.0
    SWEEP_INTERVAL_S = 1.0

    def __init__(self, sim: Simulator, name: str, f1: InterfaceLink, ng: InterfaceLink) -> None:
        super().__init__(sim, name)
        self.f1 = f1
        self.ng = ng
        self._cu_ue_ids = itertools.count(1)
        self._contexts: dict[int, CuUeContext] = {}
        self._du_id_to_cu_id: dict[int, int] = {}
        self._tmsi_to_cu_id: dict[int, int] = {}
        self._sweeping = False
        # Temporary identities barred from access (set via RIC control).
        self.tmsi_blocklist: set[int] = set()
        self.setup_requests_rejected = 0

    def start(self) -> None:
        """Begin the periodic inactivity sweep."""
        if not self._sweeping:
            self._sweeping = True
            self.schedule(self.SWEEP_INTERVAL_S, self._sweep)

    @property
    def active_contexts(self) -> int:
        return len(self._contexts)

    def context_for_rnti(self, rnti: int) -> Optional[CuUeContext]:
        for ctx in self._contexts.values():
            if ctx.rnti == rnti:
                return ctx
        return None

    # -- inactivity management ------------------------------------------------

    def _sweep(self) -> None:
        for ctx in list(self._contexts.values()):
            if ctx.releasing:
                continue
            if self.now - ctx.last_activity > self.INACTIVITY_TIMEOUT_S:
                self._initiate_release(ctx, cause="user-inactivity")
        if self._sweeping:
            self.schedule(self.SWEEP_INTERVAL_S, self._sweep)

    def _initiate_release(self, ctx: CuUeContext, cause: str) -> None:
        """Start releasing a UE, via the AMF when it holds a context."""
        if ctx.releasing:
            return
        ctx.releasing = True
        if ctx.amf_ue_id:
            self.ng.send_to_b(
                NgUeContextReleaseRequest(
                    ran_ue_id=ctx.cu_ue_id,
                    amf_ue_id=ctx.amf_ue_id,
                    cause=cause,
                )
            )
        else:
            # Never reached the AMF (e.g. abandoned setup): release locally.
            self._release_locally(ctx, cause=cause)

    def release_rnti(self, rnti: int, cause: str = "ric-control") -> bool:
        """RIC-control hook: release the UE currently holding ``rnti``."""
        ctx = self.context_for_rnti(rnti)
        if ctx is None or ctx.releasing:
            return False
        self._initiate_release(ctx, cause=cause)
        return True

    def _release_locally(self, ctx: CuUeContext, cause: str) -> None:
        self._send_dl_rrc(ctx, RrcRelease(cause=cause))
        self.f1.send_to_a(
            F1UeContextReleaseCommand(
                gnb_du_ue_id=ctx.du_ue_id, gnb_cu_ue_id=ctx.cu_ue_id, cause=cause
            )
        )
        self._drop_context(ctx)

    def _drop_context(self, ctx: CuUeContext) -> None:
        self._contexts.pop(ctx.cu_ue_id, None)
        self._du_id_to_cu_id.pop(ctx.du_ue_id, None)
        if ctx.s_tmsi is not None and self._tmsi_to_cu_id.get(ctx.s_tmsi) == ctx.cu_ue_id:
            self._tmsi_to_cu_id.pop(ctx.s_tmsi)

    # -- helpers ----------------------------------------------------------------

    def _send_dl_rrc(self, ctx: CuUeContext, rrc: Message) -> None:
        self.f1.send_to_a(
            F1DlRrcMessageTransfer(
                gnb_du_ue_id=ctx.du_ue_id,
                gnb_cu_ue_id=ctx.cu_ue_id,
                rrc_container=rrc.to_wire(),
            )
        )

    # -- F1 from the DU ------------------------------------------------------

    def on_f1(self, message: Message) -> None:
        if isinstance(message, F1InitialUlRrcMessageTransfer):
            self._on_initial_access(message)
        elif isinstance(message, F1UlRrcMessageTransfer):
            cu_ue_id = self._du_id_to_cu_id.get(message.gnb_du_ue_id)
            ctx = self._contexts.get(cu_ue_id) if cu_ue_id is not None else None
            if ctx is None:
                self.log(f"UL for unknown du_ue_id {message.gnb_du_ue_id}")
                return
            ctx.last_activity = self.now
            self._on_ul_rrc(ctx, Message.from_wire(message.rrc_container))
        elif isinstance(message, (F1UeContextSetupResponse, F1UeContextReleaseComplete)):
            pass  # acknowledgements; context bookkeeping already done
        else:
            self.log(f"unhandled F1 message {message.name}")

    def _on_initial_access(self, message: F1InitialUlRrcMessageTransfer) -> None:
        request = Message.from_wire(message.rrc_container)
        if not isinstance(request, RrcSetupRequest):
            self.log(f"initial access carried {request.name}; ignoring")
            return
        if request.identity_is_tmsi and request.ue_identity in self.tmsi_blocklist:
            # Barred identity (RIC control action): reject and free the RNTI.
            self.setup_requests_rejected += 1
            self.f1.send_to_a(
                F1DlRrcMessageTransfer(
                    gnb_du_ue_id=message.gnb_du_ue_id,
                    gnb_cu_ue_id=0,
                    rrc_container=RrcReject(wait_time_s=4).to_wire(),
                )
            )
            self.f1.send_to_a(
                F1UeContextReleaseCommand(
                    gnb_du_ue_id=message.gnb_du_ue_id,
                    gnb_cu_ue_id=0,
                    cause="access-barred",
                )
            )
            return
        cu_ue_id = next(self._cu_ue_ids)
        ctx = CuUeContext(
            cu_ue_id=cu_ue_id,
            du_ue_id=message.gnb_du_ue_id,
            rnti=message.c_rnti,
            establishment_cause=request.establishment_cause.value,
            last_activity=self.now,
        )
        self._contexts[cu_ue_id] = ctx
        self._du_id_to_cu_id[message.gnb_du_ue_id] = cu_ue_id
        if request.identity_is_tmsi:
            ctx.s_tmsi = request.ue_identity
            # Blind-DoS-relevant behaviour: a new access claiming an S-TMSI
            # that is already attached causes the network to release the old
            # connection (TS 38.331 re-establishment handling; exploited by
            # Kim et al. 2019).
            old_cu_id = self._tmsi_to_cu_id.get(request.ue_identity)
            if old_cu_id is not None and old_cu_id in self._contexts:
                old_ctx = self._contexts[old_cu_id]
                if not old_ctx.releasing:
                    old_ctx.releasing = True
                    if old_ctx.amf_ue_id:
                        self.ng.send_to_b(
                            NgUeContextReleaseRequest(
                                ran_ue_id=old_ctx.cu_ue_id,
                                amf_ue_id=old_ctx.amf_ue_id,
                                cause="radio-connection-with-ue-lost",
                            )
                        )
                    else:
                        self._release_locally(old_ctx, cause="reestablishment")
            self._tmsi_to_cu_id[request.ue_identity] = cu_ue_id
        self._send_dl_rrc(ctx, RrcSetup(rrc_transaction_id=0))

    def _on_ul_rrc(self, ctx: CuUeContext, rrc: Message) -> None:
        if isinstance(rrc, RrcSetupComplete):
            self.ng.send_to_b(
                NgInitialUeMessage(
                    ran_ue_id=ctx.cu_ue_id,
                    nas_pdu=rrc.nas_pdu,
                    establishment_cause=ctx.establishment_cause,
                )
            )
        elif isinstance(rrc, RrcUlInformationTransfer):
            if not ctx.amf_ue_id:
                self.log(f"cu_ue {ctx.cu_ue_id}: UL NAS before AMF context; dropping")
                return
            self.ng.send_to_b(
                NgUplinkNasTransport(
                    ran_ue_id=ctx.cu_ue_id,
                    amf_ue_id=ctx.amf_ue_id,
                    nas_pdu=rrc.nas_pdu,
                )
            )
        elif isinstance(rrc, RrcSecurityModeComplete):
            ctx.security_activated = True
            self._send_dl_rrc(ctx, RrcReconfiguration(rrc_transaction_id=1))
        elif isinstance(rrc, RrcSecurityModeFailure):
            self._release_locally(ctx, cause="security-failure")
        elif isinstance(rrc, RrcReconfigurationComplete):
            if ctx.amf_ue_id:
                self.ng.send_to_b(
                    NgInitialContextSetupResponse(
                        ran_ue_id=ctx.cu_ue_id, amf_ue_id=ctx.amf_ue_id
                    )
                )
        elif isinstance(rrc, RrcMeasurementReport):
            pass  # activity timestamp already refreshed
        else:
            self.log(f"unhandled UL RRC {rrc.name}")

    # -- NG from the AMF -------------------------------------------------------

    def on_ng(self, message: Message) -> None:
        if isinstance(message, NgDownlinkNasTransport):
            ctx = self._contexts.get(message.ran_ue_id)
            if ctx is None:
                self.log(f"DL NAS for unknown ran_ue_id {message.ran_ue_id}")
                return
            ctx.amf_ue_id = message.amf_ue_id
            self._send_dl_rrc(ctx, RrcDlInformationTransfer(nas_pdu=message.nas_pdu))
        elif isinstance(message, NgInitialContextSetupRequest):
            ctx = self._contexts.get(message.ran_ue_id)
            if ctx is None:
                return
            ctx.amf_ue_id = message.amf_ue_id
            ctx.cipher_alg = CipherAlg(message.cipher_alg)
            ctx.integrity_alg = IntegrityAlg(message.integrity_alg)
            self.f1.send_to_a(
                F1UeContextSetupRequest(
                    gnb_du_ue_id=ctx.du_ue_id, gnb_cu_ue_id=ctx.cu_ue_id
                )
            )
            self._send_dl_rrc(
                ctx,
                RrcSecurityModeCommand(
                    cipher_alg=ctx.cipher_alg, integrity_alg=ctx.integrity_alg
                ),
            )
        elif isinstance(message, NgUeContextReleaseCommand):
            ctx = self._contexts.get(message.ran_ue_id)
            if ctx is None:
                return
            self._send_dl_rrc(ctx, RrcRelease(cause=message.cause))
            self.f1.send_to_a(
                F1UeContextReleaseCommand(
                    gnb_du_ue_id=ctx.du_ue_id,
                    gnb_cu_ue_id=ctx.cu_ue_id,
                    cause=message.cause,
                )
            )
            self._drop_context(ctx)
            self.ng.send_to_b(
                NgUeContextReleaseComplete(
                    ran_ue_id=message.ran_ue_id, amf_ue_id=message.amf_ue_id
                )
            )
        elif isinstance(message, NgPaging):
            # Relay to the DU, which broadcasts it over the cell.
            self.f1.send_to_a(F1Paging(s_tmsi=message.s_tmsi))
        else:
            self.log(f"unhandled NG message {message.name}")
