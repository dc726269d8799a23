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
        self._log: list[tuple[float, str]] = []
        # Structured view of this entity's diagnostics (repro.obs).
        self.obs_log = sim.obs.logger.scoped(name)

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, callback: Callable[[], Any], name: str = "") -> Event:
        label = name or f"{self.name}.event"
        return self.sim.schedule(delay, callback, name=label)

    def log(self, message: str, **fields) -> None:
        """Record a timestamped diagnostic line (kept in memory, not printed).

        Also routed to the simulation's structured logger so component
        diagnostics are queryable/exportable via ``sim.obs.logger``.
        """
        self._log.append((self.sim.now, message))
        self.obs_log.info(message, **fields)

    @property
    def logs(self) -> list[tuple[float, str]]:
        return list(self._log)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
