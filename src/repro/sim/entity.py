"""Base class for simulated network entities (UEs, gNBs, RIC components)."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Event, Simulator


class Entity:
    """A named participant in the simulation.

    Entities hold a reference to the :class:`Simulator` and get convenience
    helpers for scheduling and logging. Subclasses implement protocol logic.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        # This entity's diagnostics, in the simulation's structured log.
        self.obs_log = sim.obs.logger.scoped(name)

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, callback: Callable[[], Any], name: str = "") -> Event:
        label = name or f"{self.name}.event"
        return self.sim.schedule(delay, callback, name=label)

    def log(self, message: str, **fields) -> None:
        """Record a timestamped diagnostic line (not printed) in the
        simulation's structured logger, ``sim.obs.logger``, whose bounded
        ring keeps the latest records of every component."""
        self.obs_log.info(message, **fields)

    @property
    def logs(self) -> list[tuple[float, str]]:
        """``(sim_time, message)`` of this entity's records still in the
        structured logger's ring."""
        return [
            (record.sim_time, record.message)
            for record in self.obs_log.logger.records_for(self.name)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
