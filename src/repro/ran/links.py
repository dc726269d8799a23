"""Point-to-point wireline interfaces (F1, NG) with capture taps.

Each link delivers :class:`~repro.ran.messages.Message` envelopes between two
endpoints with a fixed latency. Taps observe every envelope as it enters the
link — this is where the pcap capture (and later the E2 RIC agent) hooks in,
mirroring how the paper instruments the F1AP/NGAP interfaces.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ran.messages import Message
from repro.sim.engine import Simulator

# A tap sees (timestamp, interface_name, message).
Tap = Callable[[float, str, Message], None]
Handler = Callable[[Message], None]


class InterfaceLink:
    """Bidirectional message pipe between two protocol endpoints."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency_s: float = 0.001,
    ) -> None:
        self.sim = sim
        self.name = name
        self.latency_s = latency_s
        self._deliver_name = f"{name}.deliver"
        self._a_handler: Optional[Handler] = None
        self._b_handler: Optional[Handler] = None
        self._taps: list[Tap] = []
        self.messages_carried = 0

    def connect(self, a_handler: Handler, b_handler: Handler) -> None:
        """Wire up the two endpoints (a = e.g. DU/CU, b = e.g. CU/AMF)."""
        self._a_handler = a_handler
        self._b_handler = b_handler

    def add_tap(self, tap: Tap) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def _send(self, handler: Optional[Handler], message: Message) -> None:
        if handler is None:
            raise RuntimeError(f"link {self.name} endpoint not connected")
        for tap in self._taps:
            tap(self.sim.now, self.name, message)
        self.messages_carried += 1
        self.sim.schedule(self.latency_s, lambda: handler(message), name=self._deliver_name)

    def send_to_b(self, message: Message) -> None:
        """Endpoint A transmits toward endpoint B."""
        self._send(self._b_handler, message)

    def send_to_a(self, message: Message) -> None:
        """Endpoint B transmits toward endpoint A."""
        self._send(self._a_handler, message)
