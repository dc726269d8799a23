"""End-to-end 5G SA network assembly.

:class:`FiveGNetwork` wires up the whole data plane the paper's testbed has:
radio channel -> DU -> (F1) -> CU -> (NG) -> AMF, with pcap capture taps on
F1AP and NGAP (where the telemetry collector and the E2 RIC agent attach),
and a subscriber database for provisioning UEs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.ran.channel import ChannelConfig, RadioChannel
from repro.ran.core_network import Amf, AmfConfig, SubscriberDatabase
from repro.ran.gnb import GnbCu, GnbDu
from repro.ran.identifiers import Supi
from repro.ran.links import InterfaceLink
from repro.ran.pcap import PcapStream
from repro.ran.ue import PROFILES, UeProfile, UserEquipment
from repro.sim.engine import Simulator


@dataclass
class NetworkConfig:
    """Knobs for the whole simulated network."""

    seed: int = 0
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    amf: AmfConfig = field(default_factory=AmfConfig)
    f1_latency_s: float = 0.001
    ng_latency_s: float = 0.002
    plmn: str = "00101"


class FiveGNetwork:
    """A complete simulated 5G SA network with capture taps.

    Typical use::

        net = FiveGNetwork(NetworkConfig(seed=1))
        ue = net.add_ue("pixel5")
        ue.start_session()
        net.run(until=30.0)
        records = net.pcap.records
    """

    def __init__(self, config: Optional[NetworkConfig] = None) -> None:
        self.config = config or NetworkConfig()
        self.sim = Simulator(seed=self.config.seed)
        self.channel = RadioChannel(self.sim, self.config.channel)
        self.f1 = InterfaceLink(self.sim, "F1AP", latency_s=self.config.f1_latency_s)
        self.ng = InterfaceLink(self.sim, "NGAP", latency_s=self.config.ng_latency_s)
        self.du = GnbDu(self.sim, "du0", self.channel, self.f1)
        self.cu = GnbCu(self.sim, "cu0", self.f1, self.ng)
        self.subscribers = SubscriberDatabase()
        self.amf = Amf(self.sim, "amf0", self.ng, self.subscribers, self.config.amf)
        self.f1.connect(a_handler=self.du.on_f1, b_handler=self.cu.on_f1)
        self.ng.connect(a_handler=self.cu.on_ng, b_handler=self.amf.on_ng)
        self.pcap = PcapStream()
        self.f1.add_tap(self.pcap.capture)
        self.ng.add_tap(self.pcap.capture)
        self.cu.start()
        self.ues: list[UserEquipment] = []
        self._msin_counter = itertools.count(100000000)
        self._key_rng = self.sim.rng.stream("provisioning")

    def provision_supi(self) -> tuple[Supi, bytes]:
        """Mint a fresh subscriber identity and long-term key."""
        supi = Supi(mcc="001", mnc="01", msin=str(next(self._msin_counter)))
        k = self._key_rng.getrandbits(128).to_bytes(16, "big")
        return supi, k

    def add_ue(
        self,
        profile: str | UeProfile = "pixel5",
        name: Optional[str] = None,
        ue_class: type[UserEquipment] = UserEquipment,
        **ue_kwargs,
    ) -> UserEquipment:
        """Provision and attach a UE with the given handset profile."""
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise ValueError(
                    f"unknown profile {profile!r}; known: {sorted(PROFILES)}"
                ) from None
        supi, k = self.provision_supi()
        credential = self.subscribers.provision(supi, k)
        ue_name = name or f"ue{len(self.ues)}-{profile.name}"
        ue = ue_class(
            self.sim,
            ue_name,
            self.channel,
            supi=supi,
            usim=credential,
            profile=profile,
            **ue_kwargs,
        )
        self.channel.attach_ue(ue)
        self.ues.append(ue)
        return ue

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Advance the simulation."""
        return self.sim.run(until=until, max_events=max_events)
