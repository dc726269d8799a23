"""RMR-style message routing inside the near-RT RIC.

The OSC platform routes messages between platform services and xApps by
(message type, subscription id). We reproduce that contract with an
in-process router: endpoints register handlers, routes bind a routing key to
an endpoint, and sends are delivered asynchronously through the simulator
(small fixed latency, like the real RMR's socket hop).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.sim.engine import Simulator

# OSC RMR message type numbers (subset).
RIC_SUB_REQ = 12010
RIC_SUB_RESP = 12011
RIC_INDICATION = 12050
RIC_CONTROL_REQ = 12040
RIC_CONTROL_ACK = 12041
A1_POLICY_REQ = 20010

Handler = Callable[[int, int, Any], None]  # (mtype, sub_id, payload)


class RoutingError(LookupError):
    """Raised when no route exists for a message."""


class RmrRouter:
    """In-process (mtype, subscription id) router."""

    INTERNAL_LATENCY_S = 0.0001

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._endpoints: dict[str, Handler] = {}
        # (mtype, sub_id) -> endpoint names; sub_id -1 matches any.
        self._routes: dict[tuple[int, int], list[str]] = {}
        self.messages_routed = 0
        self.messages_dropped = 0
        metrics = sim.obs.metrics
        self._routed_counter = metrics.counter(
            "rmr.messages_routed_total", help="messages delivered to endpoints"
        )
        self._dropped_counter = metrics.counter(
            "rmr.messages_dropped_total", help="messages with no matching route"
        )
        self._handler_wall = metrics.histogram(
            "rmr.handler_wall_s", help="wall-clock cost of endpoint handlers"
        )
        # Per-mtype counters, cached so the send path stays one dict hit.
        self._mtype_counters: dict[int, Any] = {}

    def register_endpoint(self, name: str, handler: Handler) -> None:
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints[name] = handler

    def remove_endpoint(self, name: str) -> None:
        self._endpoints.pop(name, None)
        for key in list(self._routes):
            self._routes[key] = [e for e in self._routes[key] if e != name]

    def add_route(self, mtype: int, endpoint: str, sub_id: int = -1) -> None:
        if endpoint not in self._endpoints:
            raise RoutingError(f"unknown endpoint {endpoint!r}")
        self._routes.setdefault((mtype, sub_id), [])
        if endpoint not in self._routes[(mtype, sub_id)]:
            self._routes[(mtype, sub_id)].append(endpoint)

    def remove_route(self, mtype: int, endpoint: str, sub_id: int = -1) -> None:
        names = self._routes.get((mtype, sub_id), [])
        if endpoint in names:
            names.remove(endpoint)

    def routes_for(self, mtype: int, sub_id: int) -> list[str]:
        exact = self._routes.get((mtype, sub_id), [])
        wildcard = self._routes.get((mtype, -1), [])
        return list(dict.fromkeys(exact + wildcard))

    def send(self, mtype: int, sub_id: int, payload: Any) -> int:
        """Route a message; returns the number of endpoints it reached."""
        names = self.routes_for(mtype, sub_id)
        if not names:
            self.messages_dropped += 1
            self._dropped_counter.inc()
            return 0
        delivered = 0
        for name in names:
            handler = self._endpoints.get(name)
            if handler is None:
                continue
            delivered += 1
            self.sim.schedule(
                self.INTERNAL_LATENCY_S,
                lambda h=handler: self._deliver(h, mtype, sub_id, payload),
                name=f"rmr.{mtype}",
            )
        self.messages_routed += delivered
        self._routed_counter.inc(delivered)
        counter = self._mtype_counters.get(mtype)
        if counter is None:
            counter = self._mtype_counters[mtype] = self.sim.obs.metrics.counter(
                "rmr.messages_total", labels={"mtype": str(mtype)}
            )
        counter.inc(delivered)
        return delivered

    def _deliver(self, handler: Handler, mtype: int, sub_id: int, payload: Any) -> None:
        start = time.perf_counter()
        try:
            handler(mtype, sub_id, payload)
        finally:
            self._handler_wall.observe(time.perf_counter() - start)
