"""Configuration knobs for the SLO/observability plane (``repro.slo``).

Kept dependency-free (like :mod:`repro.scale.settings`) so every layer
can import it without cycles. **Every default preserves the seed's
behaviour bit-for-bit**: no SLO evaluation, no provenance records, no
profiler hooks, no export cadence — the pipeline's outputs are identical
to a build without this package.

The independent switches:

- ``enabled`` — the SLO engine (declarative objectives evaluated over
  sliding windows with multi-window burn-rate alerting), the per-incident
  provenance store, and the component health scoreboard.
- ``profiler`` — explicit ``profile_block()`` hooks in MobiWatch's
  ingest and score stages, the compiled kernels and sharded-SDL ops start
  recording per-stage self time (off = the hooks are a single ``is None`` check).
- ``sampling_profiler`` — a background thread additionally samples every
  thread's Python stack at ``sampling_interval_s``, aggregated into
  collapsed (flamegraph-format) stacks.
- ``export_interval_s`` — > 0 schedules JSONL metric snapshots on the sim
  clock every this many simulated seconds (bounded to the run horizon, so
  ``run(until=None)`` still terminates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SloSettings:
    """Knobs of the ``repro.slo`` subsystem (see module docstring)."""

    # SLO engine + provenance + health scoreboard.
    enabled: bool = False
    # How often (sim seconds) the engine samples its objectives.
    eval_interval_s: float = 1.0
    # Sliding windows for multi-window burn-rate alerting (SRE-style:
    # the fast window catches sudden budget exhaustion, the slow window a
    # sustained slow bleed).
    fast_window_s: float = 5.0
    slow_window_s: float = 60.0
    # Burn-rate thresholds per window (burn 1.0 = spending exactly the
    # error budget; 14.4 over a fast window = the canonical page signal).
    fast_burn_threshold: float = 14.4
    slow_burn_threshold: float = 6.0
    # Alert state machine dwell times: a breach must persist this long
    # before pending -> firing, and recovery must persist this long before
    # firing -> resolved (brief recoveries are suppressed as flaps).
    pending_for_s: float = 2.0
    resolve_after_s: float = 5.0
    # Heartbeats older than this mark a component down on the scoreboard.
    heartbeat_stale_s: float = 5.0
    # Worker/queue backlog above this marks a component degraded.
    backlog_degraded: int = 64

    # Explicit profile_block() hooks (per-stage self-time accounting).
    profiler: bool = False
    # Background thread sampling sys._current_frames() for flamegraphs.
    sampling_profiler: bool = False
    sampling_interval_s: float = 0.005

    # JSONL continuous-telemetry snapshots every N sim seconds (0 = off).
    export_interval_s: float = 0.0
    export_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.eval_interval_s <= 0:
            raise ValueError(
                f"eval_interval_s must be > 0, got {self.eval_interval_s}"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                "windows must satisfy 0 < fast_window_s <= slow_window_s, got "
                f"fast={self.fast_window_s} slow={self.slow_window_s}"
            )
        if self.sampling_interval_s <= 0:
            raise ValueError(
                f"sampling_interval_s must be > 0, got {self.sampling_interval_s}"
            )
        if self.export_interval_s < 0:
            raise ValueError(
                f"export_interval_s must be >= 0, got {self.export_interval_s}"
            )

    @property
    def any_enabled(self) -> bool:
        return (
            self.enabled
            or self.profiler
            or self.sampling_profiler
            or self.export_interval_s > 0
        )

    @classmethod
    def full(cls, export_path: Optional[str] = None) -> "SloSettings":
        """Everything on — what the ``slo`` CLI and the obs bench run."""
        return cls(
            enabled=True,
            profiler=True,
            export_interval_s=5.0,
            export_path=export_path,
        )
