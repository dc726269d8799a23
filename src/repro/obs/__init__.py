"""repro.obs — dependency-free observability for the whole stack.

One package, one registry. The always-on pillars (see the module
docstrings for details):

- :mod:`repro.obs.metrics` — counters / gauges / histograms with labeled
  series, snapshot/reset and text export;
- :mod:`repro.obs.logging` — leveled structured events with a ring buffer
  and pluggable sinks (library code never ``print()``\\ s);
- :mod:`repro.obs.tracing` — spans reconstructed over the closed control
  loop, with a per-stage latency breakdown and critical-path report.

The SLO plane, built when ``XsecConfig.slo_enabled`` is set:

- :mod:`repro.obs.objectives` — declarative objectives evaluated over
  sliding windows with SRE-style multi-window burn-rate alerting and a
  pending -> firing -> resolved alert state machine;
- :mod:`repro.obs.profiler` — explicit ``profile_block()`` hooks emitting
  per-stage self time and collapsed (flamegraph) stacks;
- :mod:`repro.obs.exporter` — OpenMetrics text exposition, JSONL
  snapshots on the sim clock, and the component health scoreboard;
- :mod:`repro.obs.provenance` — the evidence chain behind every anomaly /
  verdict / action, rendered by ``python -m repro slo explain``.

Everything here is stdlib-only (plus :mod:`repro.telemetry`'s codec inside
one function) so any layer (sim, oran, telemetry, ml, core) can
import it without cycles. The conventional entry point is the simulator's
context: ``sim.obs.metrics`` / ``sim.obs.logger``, and with the SLO plane
on ``sim.obs.engine`` / ``.scoreboard`` / ``.profiler`` / ``.exporter``.
"""

from repro.obs.context import ObsContext
from repro.obs.logging import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    LogRecord,
    ObsLogger,
    ScopedLogger,
    stderr_sink,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WallTimer,
)
from repro.obs.tracing import Span, Trace, Tracer

# Canonical stage names of the closed loop, in loop order — used by the
# pipeline's trace builder, the CLI renderer, and the benchmark artifacts.
LOOP_STAGES = (
    "capture",
    "indication",
    "sdl_write",
    "detection",
    "verdict",
    "action",
)

__all__ = [
    "ObsContext",
    "ObsLogger",
    "ScopedLogger",
    "LogRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "WallTimer",
    "Tracer",
    "Trace",
    "Span",
    "LOOP_STAGES",
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "stderr_sink",
]
