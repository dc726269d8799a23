"""BTS DoS — RRC connection flooding (Kim et al., S&P'19; paper Figure 2b).

A rogue UE establishes a rapid succession of RRC connections, walks each one
up to the authentication stage (forcing the network to allocate an RNTI, a
CU context, and an AMF context plus an authentication vector each time), and
then goes silent. The signature in telemetry is a stream of *uncompleted*
sessions on fresh RNTIs, each ending at AuthenticationRequest — a
multivariate group anomaly across message sequence and identifiers.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import Attack, RogueUe
from repro.ran.nas import AuthenticationRequest
from repro.ran.network import FiveGNetwork
from repro.ran.ue import UeProfile
from repro.ran.rrc import RrcState
from repro.sim.engine import Event

ATTACKER_PROFILE = UeProfile(
    name="bts_dos_attacker",
    proc_delay_min_s=0.004,
    proc_delay_max_s=0.012,
    deregister_prob=0.0,
)


class DosUe(RogueUe):
    """Rogue UE that abandons every connection at the authentication stage."""

    def start_flood(self, connections: int, interval_s: float) -> None:
        self._remaining = connections
        self._interval_s = interval_s
        # At most one pending next-connection event: a second one would
        # fire into the session the first opened and raise "session already
        # in progress" out of Simulator.run.
        self._pending_next: Optional[Event] = None
        self._next_connection()

    def _arm_next_connection(self, delay: float) -> None:
        if self._pending_next is not None:
            self._pending_next.cancel()
        self._pending_next = self.schedule(delay, self._next_connection)

    def _next_connection(self) -> None:
        self._pending_next = None
        if self._remaining <= 0:
            return
        self._remaining -= 1
        if self.rrc_state is not RrcState.IDLE:
            self.abandon_connection()
        self.start_session()

    def _on_nas_AuthenticationRequest(self, nas: AuthenticationRequest) -> None:
        if not self._session_active:
            # A channel duplicate of the request that already ended the
            # connection: nothing is open, the next one is already armed.
            return
        # Resources are now committed network-side; drop the connection and
        # immediately start the next one.
        self.abandon_connection()
        jitter = self.rng.uniform(0.8, 1.2)
        self._arm_next_connection(self._interval_s * jitter)

    def _on_t300(self) -> None:
        # Flooding attacker does not retry a lost request; it just moves on.
        if self.rrc_state is RrcState.IDLE:
            self.abandon_connection()
            self._arm_next_connection(self._interval_s)


class BtsDosAttack(Attack):
    """Flood the base station with uncompleted RRC connections."""

    name = "bts_dos"
    description = "RRC signaling storm: rapid uncompleted connections from fresh RNTIs"
    citation = "[38] Kim et al., Touching the Untouchables, IEEE S&P 2019"

    def __init__(
        self,
        net: FiveGNetwork,
        start_time: float = 0.0,
        connections: int = 12,
        interval_s: float = 0.08,
    ) -> None:
        super().__init__(net, start_time)
        self.connections = connections
        self.interval_s = interval_s
        self.rogue: Optional[DosUe] = None

    def _launch(self) -> None:
        self._open_window()
        self.rogue = self.net.add_ue(
            ATTACKER_PROFILE, name=f"{self.name}-rogue", ue_class=DosUe
        )
        self._track_rogue_ue(self.rogue)
        self.rogue.start_flood(self.connections, self.interval_s)
