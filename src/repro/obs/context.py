"""One observability context per simulation: the deployment's whole plane.

The :class:`~repro.sim.engine.Simulator` owns an :class:`ObsContext` and
every entity reaches it as ``self.sim.obs`` — the same pattern as the RNG
registry. Metrics and logger are always there and share the simulated
clock, so exported records line up on the same timeline.

``XsecConfig.slo_enabled`` adds the rest of the plane through one
:meth:`ObsContext.enable_slo` call: the SLO engine, the health scoreboard,
the process-global profiler and the JSONL exporter. Off (the default),
those four attributes stay ``None`` and nothing new is built.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import profiler as profiler_mod
from repro.obs.exporter import EXPORT_INTERVAL_S, ContinuousExporter, HealthScoreboard
from repro.obs.logging import ObsLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.objectives import EVAL_INTERVAL_S, SloEngine
from repro.obs.profiler import Profiler


class ObsContext:
    """Metrics and logger around one clock, plus the optional SLO plane."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.metrics = MetricsRegistry(clock=clock)
        self.logger = ObsLogger(clock=clock)
        self.engine: Optional[SloEngine] = None
        self.scoreboard: Optional[HealthScoreboard] = None
        self.profiler: Optional[Profiler] = None
        self.exporter: Optional[ContinuousExporter] = None

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Rebind metrics and logger to a (simulated) clock."""
        self.metrics.clock = clock
        self.logger.clock = clock

    def snapshot(self) -> dict:
        """The registry's snapshot — the run's obs artifact."""
        return self.metrics.snapshot()

    # -- the SLO plane ----------------------------------------------------

    def enable_slo(self, export_path: Optional[str] = None) -> None:
        """Build the engine, scoreboard, profiler and exporter.

        Activates the profiler process-wide; :meth:`shutdown` releases it.
        """
        self.engine = SloEngine(self.metrics)
        self.scoreboard = HealthScoreboard(self.metrics)
        self.profiler = profiler_mod.activate(Profiler())
        self.exporter = ContinuousExporter(self.metrics, path=export_path)

    def schedule_ticks(self, sim, until: Optional[float]) -> int:
        """Pre-schedule engine and exporter ticks up to the run horizon.

        A self-rescheduling event would keep the queue non-empty and break
        ``run(until=None)`` termination, so ticks are scheduled per run and
        :meth:`finalize` evaluates once more at its end.
        """
        if self.engine is None or until is None:
            return 0
        scheduled = 0
        for interval, tick, name in (
            (EVAL_INTERVAL_S, self.engine.tick, "slo.tick"),
            (EXPORT_INTERVAL_S, self.exporter.snapshot_once, "slo.export"),
        ):
            t = sim.now + interval
            while t <= until:
                sim.schedule_at(t, tick, name=name)
                t += interval
                scheduled += 1
        return scheduled

    def finalize(self) -> None:
        """Final evaluation after a run, and a last export snapshot."""
        if self.engine is None:
            return
        self.engine.tick()
        self.scoreboard.statuses()
        self.exporter.snapshot_once()

    def shutdown(self) -> None:
        """Release the global profiler hook if it is still this plane's.

        Idempotent, and it leaves another deployment's profiler active.
        """
        if self.profiler is not None and profiler_mod.CURRENT is self.profiler:
            profiler_mod.deactivate()
