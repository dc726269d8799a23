"""repro.slo — SLO engine, continuous profiling, export, provenance.

Built on :mod:`repro.obs`, behind ``XsecConfig.slo`` flags whose defaults
keep the seed's outputs bit-identical. Four pillars (see the module
docstrings for details):

- :mod:`repro.slo.objectives` — declarative objectives evaluated over
  sliding windows with SRE-style multi-window burn-rate alerting and a
  pending -> firing -> resolved alert state machine;
- :mod:`repro.slo.profiler` — explicit ``profile_block()`` hooks emitting
  per-stage self time and collapsed (flamegraph) stacks;
- :mod:`repro.slo.exporter` — OpenMetrics text exposition, JSONL
  continuous snapshots on the sim clock, and the per-shard/per-worker
  health scoreboard;
- :mod:`repro.slo.provenance` — the evidence chain behind every anomaly /
  verdict / action, rendered by ``python -m repro slo explain``.

Import discipline: this package imports only the stdlib and
:mod:`repro.obs` (plus :mod:`repro.telemetry`'s codec inside a function),
so ``core``/``ml``/``experiments``/``scale`` can all depend on it
without cycles.
"""

from repro.slo.exporter import (
    ContinuousExporter,
    HealthScoreboard,
    render_openmetrics,
)
from repro.slo.objectives import (
    AlertEvent,
    AlertState,
    SloEngine,
    SloObjective,
    default_objectives,
)
from repro.slo.profiler import Profiler, profile_block
from repro.slo.provenance import (
    ProvenanceRecord,
    ProvenanceStore,
    capture_digest,
    model_snapshot_id,
    threshold_snapshot_id,
)
from repro.slo.runtime import SloRuntime
from repro.slo.settings import SloSettings

__all__ = [
    "SloSettings",
    "SloObjective",
    "SloEngine",
    "AlertState",
    "AlertEvent",
    "default_objectives",
    "Profiler",
    "profile_block",
    "ContinuousExporter",
    "HealthScoreboard",
    "render_openmetrics",
    "ProvenanceRecord",
    "ProvenanceStore",
    "capture_digest",
    "model_snapshot_id",
    "threshold_snapshot_id",
    "SloRuntime",
]
