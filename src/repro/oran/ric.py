"""Near-real-time RAN Intelligent Controller platform.

Assembles the RIC-side services around a simulated E2 link: E2 termination,
RMR routing, the SDL, and the xApp registry — the pieces of the OSC
reference platform the paper's Figure 3 uses. The control loop of the
near-RT RIC is designed to complete within 10 ms – 1 s (§2.1); the
platform's internal hops are sub-millisecond so the loop budget is spent in
the xApps, as in the real system.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.oran.e2term import E2Termination
from repro.oran.rmr import RmrRouter
from repro.oran.sdl import SharedDataLayer
from repro.ran.links import InterfaceLink
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.oran.xapp import XApp


class NearRtRic:
    """The near-RT RIC: platform services + xApp host."""

    def __init__(
        self,
        sim: Simulator,
        e2: InterfaceLink,
        ric_id: str = "nrt-ric-0",
    ) -> None:
        self.sim = sim
        self.ric_id = ric_id
        self.sdl = SharedDataLayer(metrics=sim.obs.metrics)
        self.rmr = RmrRouter(sim)
        self.e2term = E2Termination(sim, ric_id, e2, self.rmr)
        self.xapps: dict[str, "XApp"] = {}

    def register_xapp(self, xapp: "XApp") -> None:
        if xapp.name in self.xapps:
            raise ValueError(f"xApp {xapp.name!r} already registered")
        self.xapps[xapp.name] = xapp
        self.rmr.register_endpoint(xapp.name, xapp.on_rmr)

    def deregister_xapp(self, name: str) -> None:
        xapp = self.xapps.pop(name, None)
        if xapp is not None:
            xapp.stop()
            self.rmr.remove_endpoint(name)

    def start(self) -> None:
        """Start every registered xApp."""
        for xapp in self.xapps.values():
            if not xapp.started:
                xapp.start()

    def deliver_policy(self, xapp_name: str, policy_type_id: int, policy: dict) -> None:
        """A1 entry point: hand a policy instance to an xApp."""
        xapp = self.xapps.get(xapp_name)
        if xapp is None:
            raise KeyError(f"no xApp named {xapp_name!r}")
        xapp.on_policy(policy_type_id, policy)
