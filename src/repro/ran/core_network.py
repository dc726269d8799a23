"""Minimal 5G core: AMF with an inline AUSF/UDM (subscriber database).

Implements the 5GMM procedures the telemetry observes: identity resolution
(SUCI deconcealment, GUTI lookup), 5G-AKA, NAS security mode with algorithm
selection, GUTI assignment, service requests and deregistration — plus the
duplicate-TMSI release behaviour that the Blind DoS attack exploits.
"""

from __future__ import annotations

import hmac
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.ran.identifiers import Guti, GutiAllocator, Supi, conceal_supi, tmsi_of_guti
from repro.ran.links import InterfaceLink
from repro.ran.messages import Message
from repro.ran.nas import (
    AuthenticationFailure,
    AuthenticationReject,
    ConfigurationUpdateCommand,
    AuthenticationRequest,
    AuthenticationResponse,
    DeregistrationAccept,
    DeregistrationRequest,
    FiveGmmCause,
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
    ServiceAccept,
    ServiceRequest,
)
from repro.ran.ngap import (
    NgDownlinkNasTransport,
    NgPaging,
    NgInitialContextSetupRequest,
    NgInitialContextSetupResponse,
    NgInitialUeMessage,
    NgUeContextReleaseCommand,
    NgUeContextReleaseComplete,
    NgUeContextReleaseRequest,
    NgUplinkNasTransport,
)
from repro.ran.security import (
    CipherAlg,
    IntegrityAlg,
    SecurityContext,
    UsimCredential,
    derive_kamf,
    select_algorithms,
)
from repro.sim.engine import Simulator
from repro.sim.entity import Entity


class SubscriberDatabase:
    """UDM-like store: long-term credentials and identity mappings."""

    def __init__(self) -> None:
        self._by_supi: dict[str, UsimCredential] = {}
        self._by_suci: dict[str, str] = {}

    def provision(self, supi: Supi, k: bytes) -> UsimCredential:
        credential = UsimCredential(str(supi), k)
        self._by_supi[str(supi)] = credential
        self._by_suci[conceal_supi(supi)] = str(supi)
        return credential

    def credential(self, supi: str) -> Optional[UsimCredential]:
        return self._by_supi.get(supi)

    def deconceal(self, suci: str) -> Optional[str]:
        """Resolve a SUCI back to the SUPI (home-network deconcealment)."""
        if suci.startswith("suci-null-"):
            # Null scheme: the digits are right there in the identifier.
            parts = suci.split("-")
            if len(parts) == 5:
                supi = f"imsi-{parts[2]}{parts[3]}{parts[4]}"
                return supi if supi in self._by_supi else None
            return None
        return self._by_suci.get(suci)


@dataclass
class AmfUeContext:
    """Per-UE 5GMM context at the AMF."""

    amf_ue_id: int
    ran_ue_id: int
    supi: str = ""
    suci: str = ""
    state: str = "deregistered"
    guti: Optional[Guti] = None
    rand: bytes = b""
    xres_star: bytes = b""
    kamf: bytes = b""
    ue_capabilities: list = field(default_factory=list)
    cipher_alg: Optional[CipherAlg] = None
    integrity_alg: Optional[IntegrityAlg] = None
    pending_registration: Optional[RegistrationRequest] = None
    auth_attempts: int = 0
    # NAS-connected (an NG context exists at the RAN). Registered UEs whose
    # connection was released stay reachable via paging.
    connected: bool = True
    # The current transaction is a service request (paging response or
    # UE-triggered), not a registration.
    pending_service: bool = False


@dataclass
class AmfConfig:
    """Network-side security policy."""

    cipher_preference: tuple = (CipherAlg.NEA2, CipherAlg.NEA1)
    integrity_preference: tuple = (IntegrityAlg.NIA2, IntegrityAlg.NIA1)
    # OAI-style permissiveness: accept null algorithms if the UE offers
    # nothing better. Required for the null-cipher attack to land.
    allow_null_algorithms: bool = True
    nas_proc_delay_s: float = 0.004


class Amf(Entity):
    """Access and Mobility Management Function."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ng: InterfaceLink,
        subscribers: SubscriberDatabase,
        config: Optional[AmfConfig] = None,
    ) -> None:
        super().__init__(sim, name)
        self.ng = ng
        self.subscribers = subscribers
        self.config = config or AmfConfig()
        self.rng = sim.rng.stream(f"amf.{name}")
        self.gutis = GutiAllocator(sim.rng.stream(f"amf.{name}.guti"))
        self._amf_ue_ids = itertools.count(1)
        self._contexts: dict[int, AmfUeContext] = {}
        self._ran_to_amf_id: dict[int, int] = {}
        self._tmsi_to_supi: dict[int, str] = {}
        self._supi_to_context: dict[str, int] = {}
        self._sqn = itertools.count(1)
        self.registrations_accepted = 0
        self.registrations_rejected = 0
        self.service_requests_accepted = 0
        self.pages_sent = 0
        self.security_mode_rejections = 0

    # -- NAS send helper ------------------------------------------------------

    def _send_nas(self, ctx: AmfUeContext, nas: Message) -> None:
        message = NgDownlinkNasTransport(
            ran_ue_id=ctx.ran_ue_id, amf_ue_id=ctx.amf_ue_id, nas_pdu=nas.to_wire()
        )
        self.schedule(self.config.nas_proc_delay_s, lambda: self.ng.send_to_a(message))

    # -- NG dispatch ------------------------------------------------------------

    def on_ng(self, message: Message) -> None:
        if isinstance(message, NgInitialUeMessage):
            self._on_initial_ue(message)
        elif isinstance(message, NgUplinkNasTransport):
            ctx = self._contexts.get(message.amf_ue_id)
            if ctx is None:
                self.log(f"UL NAS for unknown amf_ue_id {message.amf_ue_id}")
                return
            self._on_nas(ctx, Message.from_wire(message.nas_pdu))
        elif isinstance(message, NgInitialContextSetupResponse):
            pass
        elif isinstance(message, NgUeContextReleaseRequest):
            self.ng.send_to_a(
                NgUeContextReleaseCommand(
                    ran_ue_id=message.ran_ue_id,
                    amf_ue_id=message.amf_ue_id,
                    cause=message.cause,
                )
            )
        elif isinstance(message, NgUeContextReleaseComplete):
            self._on_connection_released(message.amf_ue_id)
        else:
            self.log(f"unhandled NG message {message.name}")

    def _on_connection_released(self, amf_ue_id: int) -> None:
        """The RAN connection is gone; registered UEs stay pageable."""
        ctx = self._contexts.get(amf_ue_id)
        if ctx is None:
            return
        if ctx.state == "registered":
            self._ran_to_amf_id.pop(ctx.ran_ue_id, None)
            ctx.connected = False
            return
        self._drop_context(amf_ue_id)

    def _drop_context(self, amf_ue_id: int) -> None:
        ctx = self._contexts.pop(amf_ue_id, None)
        if ctx is None:
            return
        self._ran_to_amf_id.pop(ctx.ran_ue_id, None)
        if ctx.supi and self._supi_to_context.get(ctx.supi) == amf_ue_id:
            self._supi_to_context.pop(ctx.supi)

    # -- initial UE message ------------------------------------------------------

    def _on_initial_ue(self, message: NgInitialUeMessage) -> None:
        amf_ue_id = next(self._amf_ue_ids)
        ctx = AmfUeContext(amf_ue_id=amf_ue_id, ran_ue_id=message.ran_ue_id)
        self._contexts[amf_ue_id] = ctx
        self._ran_to_amf_id[message.ran_ue_id] = amf_ue_id
        self._on_nas(ctx, Message.from_wire(message.nas_pdu))

    # -- NAS dispatch ---------------------------------------------------------------

    def _on_nas(self, ctx: AmfUeContext, nas: Message) -> None:
        if isinstance(nas, RegistrationRequest):
            self._on_registration(ctx, nas)
        elif isinstance(nas, IdentityResponse):
            self._on_identity_response(ctx, nas)
        elif isinstance(nas, AuthenticationResponse):
            self._on_auth_response(ctx, nas)
        elif isinstance(nas, AuthenticationFailure):
            self._on_auth_failure(ctx, nas)
        elif isinstance(nas, NasSecurityModeReject):
            self.registrations_rejected += 1
            self.security_mode_rejections += 1
            self._send_nas(
                ctx, RegistrationReject(cause=FiveGmmCause.SECURITY_MODE_REJECTED)
            )
        elif isinstance(nas, NasSecurityModeComplete):
            self._on_smc_complete(ctx)
        elif isinstance(nas, RegistrationComplete):
            ctx.state = "registered"
        elif isinstance(nas, ServiceRequest):
            self._on_service_request(ctx, nas)
        elif isinstance(nas, DeregistrationRequest):
            self._on_deregistration(ctx, nas)
        else:
            self.log(f"unhandled NAS {nas.name}")

    def _on_registration(self, ctx: AmfUeContext, request: RegistrationRequest) -> None:
        ctx.pending_registration = request
        ctx.ue_capabilities = list(request.ue_security_capabilities)
        ctx.state = "registering"
        supi: Optional[str] = None
        if request.guti:
            tmsi = tmsi_of_guti(request.guti)
            if tmsi is not None:
                supi = self._tmsi_to_supi.get(tmsi)
                if supi is not None:
                    self._release_stale_context(supi, ctx)
            if supi is None:
                # Unknown GUTI: ask for the concealed identity.
                self._send_nas(ctx, IdentityRequest(identity_type=IdentityType.SUCI))
                return
        elif request.suci:
            ctx.suci = request.suci
            supi = self.subscribers.deconceal(request.suci)
            if supi is None:
                self.registrations_rejected += 1
                self._send_nas(ctx, RegistrationReject(cause=FiveGmmCause.ILLEGAL_UE))
                return
        else:
            self._send_nas(ctx, IdentityRequest(identity_type=IdentityType.SUCI))
            return
        ctx.supi = supi
        self._start_authentication(ctx)

    def _release_stale_context(self, supi: str, new_ctx: AmfUeContext) -> None:
        """A UE re-appeared on a new connection: drop its old context.

        This is the network behaviour the Blind DoS attack triggers — the
        legitimate UE's connection is released because someone else claimed
        its temporary identity.
        """
        old_id = self._supi_to_context.get(supi)
        if old_id is None or old_id == new_ctx.amf_ue_id:
            return
        old_ctx = self._contexts.get(old_id)
        if old_ctx is None:
            return
        if not old_ctx.connected:
            # No RAN connection to tear down; the stale context is simply
            # superseded by the new transaction.
            self._drop_context(old_id)
            return
        self.ng.send_to_a(
            NgUeContextReleaseCommand(
                ran_ue_id=old_ctx.ran_ue_id,
                amf_ue_id=old_ctx.amf_ue_id,
                cause="radio-connection-with-ue-lost",
            )
        )

    def _on_identity_response(self, ctx: AmfUeContext, response: IdentityResponse) -> None:
        if response.identity_type is IdentityType.SUCI:
            supi = self.subscribers.deconceal(response.identity_value)
        elif response.identity_type is IdentityType.SUPI:
            supi = response.identity_value
            if self.subscribers.credential(supi) is None:
                supi = None
        else:
            supi = None
        if supi is None:
            self.registrations_rejected += 1
            self._send_nas(ctx, RegistrationReject(cause=FiveGmmCause.ILLEGAL_UE))
            return
        ctx.supi = supi
        self._start_authentication(ctx)

    def _start_authentication(self, ctx: AmfUeContext) -> None:
        credential = self.subscribers.credential(ctx.supi)
        if credential is None:
            self.registrations_rejected += 1
            self._send_nas(ctx, RegistrationReject(cause=FiveGmmCause.ILLEGAL_UE))
            return
        ctx.auth_attempts += 1
        rand = self.rng.getrandbits(128).to_bytes(16, "big")
        sqn = next(self._sqn)
        vector = credential.generate_vector(rand, sqn)
        ctx.rand = rand
        ctx.xres_star = vector.xres_star
        ctx.kamf = derive_kamf(vector.kausf, ctx.supi)
        self._send_nas(
            ctx, AuthenticationRequest(rand=rand, autn=vector.autn, sqn=sqn)
        )

    def _on_auth_failure(self, ctx: AmfUeContext, failure: AuthenticationFailure) -> None:
        # One fresh re-challenge covers transient sync failures; persistent
        # failure means the peer does not hold the subscriber key.
        if ctx.auth_attempts < 2 and ctx.supi:
            self._start_authentication(ctx)
            return
        self.registrations_rejected += 1
        self._send_nas(ctx, AuthenticationReject())

    def _on_auth_response(self, ctx: AmfUeContext, response: AuthenticationResponse) -> None:
        if not ctx.xres_star or not hmac.compare_digest(ctx.xres_star, response.res_star):
            self.registrations_rejected += 1
            self._send_nas(ctx, AuthenticationReject())
            return
        if ctx.pending_service:
            self._accept_service(ctx)
            return
        ue_ciphers = [CipherAlg(c) for c in ctx.ue_capabilities if c < 16]
        ue_integrity = [IntegrityAlg(c - 16) for c in ctx.ue_capabilities if c >= 16]
        cipher_pref = list(self.config.cipher_preference)
        integrity_pref = list(self.config.integrity_preference)
        if self.config.allow_null_algorithms:
            cipher_pref.append(CipherAlg.NEA0)
            integrity_pref.append(IntegrityAlg.NIA0)
        try:
            cipher, integrity = select_algorithms(
                ue_ciphers, ue_integrity, cipher_pref, integrity_pref
            )
        except ValueError:
            self.registrations_rejected += 1
            self._send_nas(
                ctx, RegistrationReject(cause=FiveGmmCause.SECURITY_MODE_REJECTED)
            )
            return
        ctx.cipher_alg = cipher
        ctx.integrity_alg = integrity
        self._send_nas(
            ctx,
            NasSecurityModeCommand(
                cipher_alg=cipher,
                integrity_alg=integrity,
                replayed_capabilities=list(ctx.ue_capabilities),
            ),
        )

    def _on_smc_complete(self, ctx: AmfUeContext) -> None:
        guti = self.gutis.allocate()
        ctx.guti = guti
        self._tmsi_to_supi[guti.tmsi] = ctx.supi
        self._supi_to_context[ctx.supi] = ctx.amf_ue_id
        security = SecurityContext(
            kamf=ctx.kamf,
            cipher_alg=ctx.cipher_alg or CipherAlg.NEA0,
            integrity_alg=ctx.integrity_alg or IntegrityAlg.NIA0,
        )
        self.ng.send_to_a(
            NgInitialContextSetupRequest(
                ran_ue_id=ctx.ran_ue_id,
                amf_ue_id=ctx.amf_ue_id,
                kgnb=security.kgnb(),
                cipher_alg=int(security.cipher_alg),
                integrity_alg=int(security.integrity_alg),
            )
        )
        self._send_nas(ctx, RegistrationAccept(guti=str(guti)))
        self.registrations_accepted += 1

    def _on_service_request(self, ctx: AmfUeContext, request: ServiceRequest) -> None:
        supi = self._tmsi_to_supi.get(request.s_tmsi)
        if supi is None:
            # Unknown temporary identity: force a full (re-)authentication.
            self._send_nas(ctx, IdentityRequest(identity_type=IdentityType.SUCI))
            return
        # Inherit the subscriber's security configuration from the old
        # 5GMM context (if one survives) before superseding it.
        old_id = self._supi_to_context.get(supi)
        old_ctx = self._contexts.get(old_id) if old_id is not None else None
        if old_ctx is not None and old_ctx is not ctx:
            ctx.ue_capabilities = list(old_ctx.ue_capabilities)
            ctx.cipher_alg = old_ctx.cipher_alg
            ctx.integrity_alg = old_ctx.integrity_alg
            ctx.guti = old_ctx.guti
        self._release_stale_context(supi, ctx)
        ctx.supi = supi
        ctx.pending_service = True
        # Integrity of the service request cannot be checked against the new
        # connection, so the network re-authenticates — but the *old* context
        # is already gone, which is what Blind DoS exploits.
        self._start_authentication(ctx)

    def _accept_service(self, ctx: AmfUeContext) -> None:
        """Resume a registered UE's session after a service request."""
        cipher = ctx.cipher_alg or CipherAlg.NEA2
        integrity = ctx.integrity_alg or IntegrityAlg.NIA2
        ctx.cipher_alg, ctx.integrity_alg = cipher, integrity
        ctx.state = "registered"
        ctx.pending_service = False
        self._supi_to_context[ctx.supi] = ctx.amf_ue_id
        security = SecurityContext(kamf=ctx.kamf, cipher_alg=cipher, integrity_alg=integrity)
        self.ng.send_to_a(
            NgInitialContextSetupRequest(
                ran_ue_id=ctx.ran_ue_id,
                amf_ue_id=ctx.amf_ue_id,
                kgnb=security.kgnb(),
                cipher_alg=int(cipher),
                integrity_alg=int(integrity),
            )
        )
        self._send_nas(ctx, ServiceAccept())
        # Reallocate the 5G-GUTI after use (TS 33.501 refresh guidance).
        fresh = self.gutis.allocate()
        ctx.guti = fresh
        self._tmsi_to_supi[fresh.tmsi] = ctx.supi
        self._send_nas(ctx, ConfigurationUpdateCommand(guti=str(fresh)))
        self.service_requests_accepted += 1

    # -- paging -----------------------------------------------------------------

    def page_supi(self, supi: str) -> bool:
        """Network-initiated service: page a registered-but-idle UE.

        Returns True when a page was actually broadcast.
        """
        ctx_id = self._supi_to_context.get(supi)
        ctx = self._contexts.get(ctx_id) if ctx_id is not None else None
        if ctx is None or ctx.connected or ctx.state != "registered" or ctx.guti is None:
            return False
        self.pages_sent += 1
        self.ng.send_to_a(NgPaging(s_tmsi=ctx.guti.tmsi))
        return True

    def _on_deregistration(self, ctx: AmfUeContext, request: DeregistrationRequest) -> None:
        ctx.state = "deregistered"
        self._send_nas(ctx, DeregistrationAccept())
        self.ng.send_to_a(
            NgUeContextReleaseCommand(
                ran_ue_id=ctx.ran_ue_id, amf_ue_id=ctx.amf_ue_id, cause="deregistration"
            )
        )
