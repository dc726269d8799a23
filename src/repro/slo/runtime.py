"""SloRuntime: one object bundling the deployment's observability plane.

Constructed by :class:`~repro.core.framework.SixGXSec` when any
``XsecConfig.slo`` switch is on. Owns the SLO engine, the profiler, the
continuous exporter and the health scoreboard, and knows how to schedule
their sim-clock ticks *bounded to a run horizon* — a recurring
self-rescheduling event would keep the queue non-empty and break
``run(until=None)`` termination, so ticks are pre-scheduled per ``run``
call and a final evaluation happens in :meth:`finalize`.

This module deliberately imports nothing from ``repro.core`` — it receives
plain objects (a metrics registry, a clock, xApps to watch), so the import
graph stays acyclic: ``core`` imports ``slo``, never the reverse.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.obs.metrics import MetricsRegistry

from repro.slo import profiler as profiler_mod
from repro.slo.exporter import ContinuousExporter, HealthScoreboard
from repro.slo.objectives import SloEngine, SloObjective
from repro.slo.profiler import Profiler
from repro.slo.provenance import ProvenanceStore
from repro.slo.settings import SloSettings


class SloRuntime:
    """The assembled observability plane of one deployment."""

    def __init__(
        self,
        settings: SloSettings,
        metrics: MetricsRegistry,
        clock: Optional[Callable[[], float]] = None,
        objectives: Optional[List[SloObjective]] = None,
        sdl=None,
    ) -> None:
        self.settings = settings
        self.metrics = metrics
        self.clock = clock or metrics.clock
        self.engine: Optional[SloEngine] = None
        self.scoreboard: Optional[HealthScoreboard] = None
        self.provenance: Optional[ProvenanceStore] = None
        if settings.enabled:
            self.engine = SloEngine(
                metrics, settings=settings, objectives=objectives, clock=self.clock
            )
            self.scoreboard = HealthScoreboard(
                metrics,
                clock=self.clock,
                stale_after_s=settings.heartbeat_stale_s,
            )
            self.provenance = ProvenanceStore(metrics=metrics, sdl=sdl)
        self.profiler: Optional[Profiler] = None
        if settings.profiler:
            self.profiler = profiler_mod.activate(Profiler())
        self.exporter: Optional[ContinuousExporter] = None
        if settings.export_interval_s > 0:
            self.exporter = ContinuousExporter(
                metrics,
                path=settings.export_path,
                interval_s=settings.export_interval_s,
            )

    # -- sim wiring --------------------------------------------------------

    def schedule_ticks(self, sim, until: Optional[float]) -> int:
        """Pre-schedule engine + exporter ticks up to the run horizon."""
        scheduled = 0
        if self.engine is not None and until is not None:
            t = sim.now + self.settings.eval_interval_s
            while t <= until:
                sim.schedule_at(t, self.engine.tick, name="slo.tick")
                t += self.settings.eval_interval_s
                scheduled += 1
        if self.exporter is not None:
            scheduled += self.exporter.schedule_ticks(sim, until)
        return scheduled

    def finalize(self) -> None:
        """Final evaluation after a run (and a last export snapshot)."""
        if self.engine is not None:
            self.engine.tick()
        if self.scoreboard is not None:
            self.scoreboard.statuses()
        if self.exporter is not None:
            self.exporter.snapshot_once()

    def shutdown(self) -> None:
        """Release the global profiler hook."""
        if self.profiler is not None and profiler_mod.CURRENT is self.profiler:
            profiler_mod.deactivate()

    # -- artifacts ---------------------------------------------------------

    def collapsed_stacks(self) -> str:
        """Hook-profiler stacks (empty when the profiler is off)."""
        if self.profiler is None:
            return ""
        return self.profiler.collapsed_stacks()
