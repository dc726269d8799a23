"""The paper's acknowledged blind spots (§5, Limitations), reproduced.

"As a defense framework deployed on the network side, MobiWatch faces
challenges in handling certain types of cellular threats. These include
downlink attacks that drop protocol messages and rogue base stations that
directly communicate with user devices."

Both are implemented so the limitation is *testable*:

- :class:`DownlinkMessageDropAttack` — a MiTM silently drops downlink
  protocol messages toward the victim. Network-side telemetry contains no
  forged or out-of-order entries — only a session that goes quiet — so the
  knowledge-based analysts cannot name an attack (at best the generic
  truncation anomaly fires).
- :class:`RogueBaseStationAttack` — a fake gNB lures the victim onto its
  own radio. The legitimate network's telemetry shows *nothing at all*
  (the victim simply never attaches), making the attack invisible to any
  network-side monitor.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack
from repro.ran.messages import Message
from repro.ran.network import FiveGNetwork
from repro.ran.rrc import RrcDlInformationTransfer
from repro.ran.ue import UserEquipment


class DownlinkMessageDropAttack(Attack):
    """Silently drop downlink NAS-bearing messages toward the victim.

    The victim's registration stalls (it never sees the authentication
    challenge), the CU's inactivity timer eventually releases it, and it
    retries. Telemetry-wise this is indistinguishable from radio loss.
    """

    name = "downlink_message_drop"
    description = "MiTM drops downlink protocol messages; victim sessions stall"
    citation = "paper §5 (Limitations): downlink attacks that drop protocol messages"

    def __init__(
        self,
        net: FiveGNetwork,
        victim: UserEquipment,
        start_time: float = 0.0,
        duration_s: float = 20.0,
    ) -> None:
        super().__init__(net, start_time)
        self.victim = victim
        self.duration_s = duration_s
        self.messages_dropped = 0
        self._victim_rntis: set[int] = set()
        self._installed = False

    def _launch(self) -> None:
        self._open_window()
        self.net.channel.add_bind_listener(self._on_bind)
        if self.victim.rnti is not None:
            self._victim_rntis.add(self.victim.rnti)
        self.net.channel.add_downlink_interceptor(self._drop)
        self._installed = True
        self.net.sim.schedule(self.duration_s, self._stop)

    def _on_bind(self, rnti: int, ue) -> None:
        if ue is self.victim:
            self._victim_rntis.add(rnti)

    def _stop(self) -> None:
        if self._installed:
            self.net.channel.remove_downlink_interceptor(self._drop)
            self._installed = False
        self._close_window()

    def _drop(self, rnti: int, message: Message) -> Optional[Message]:
        if rnti in self._victim_rntis and isinstance(message, RrcDlInformationTransfer):
            self.messages_dropped += 1
            return None
        return message

    def is_malicious(self, record) -> bool:
        """Network-side ground truth is empty by construction.

        The attack never *adds* an entry to the telemetry; the malicious
        act (an over-the-air drop) happens after the capture point. This
        is precisely why the paper lists it as a limitation.
        """
        return False


class RogueBaseStationAttack(Attack):
    """A fake gNB captures the victim before it reaches the real network.

    Modeled as an uplink interceptor that swallows the victim's initial
    access attempts — from the legitimate network's viewpoint the victim
    simply never shows up, which is exactly the visibility gap the paper
    describes.
    """

    name = "rogue_base_station"
    description = "fake gNB lures the victim; the real network sees nothing"
    citation = "paper §5 (Limitations): rogue base stations"

    def __init__(
        self,
        net: FiveGNetwork,
        victim: UserEquipment,
        start_time: float = 0.0,
        duration_s: float = 20.0,
    ) -> None:
        super().__init__(net, start_time)
        self.victim = victim
        self.duration_s = duration_s
        self.captured_messages = 0
        self._installed = False

    def _launch(self) -> None:
        self._open_window()
        self.net.channel.add_uplink_interceptor(self._capture)
        self._installed = True
        self.net.sim.schedule(self.duration_s, self._stop)

    def _stop(self) -> None:
        if self._installed:
            self.net.channel.remove_uplink_interceptor(self._capture)
            self._installed = False
        self._close_window()

    def _capture(self, ue, rnti, message) -> Optional[Message]:
        if ue is self.victim:
            # The rogue cell's stronger signal wins the victim's uplink.
            self.captured_messages += 1
            return None
        return message

    def is_malicious(self, record) -> bool:
        return False  # the legitimate network's telemetry never sees it
