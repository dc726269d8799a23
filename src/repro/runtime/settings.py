"""The deployment topology of ``XsecConfig.runtime``: one settings family.

Kept dependency-free so every layer (``repro.core.config``, ``repro.oran``,
``repro.runtime``) can import it without cycles. **Every default preserves
the seed's single-process, single-node behaviour bit-for-bit**: no worker
processes are spawned, no sockets are opened, the SDL is the plain
``SharedDataLayer`` and indications fan out inline.

The switches:

- ``score_in_processes`` / ``workers`` — route MobiWatch's window scoring
  through a supervised pool of real OS worker processes speaking the TLV
  wire codec over Unix sockets. float64 scores computed in a worker are
  bit-identical to in-process scoring (same NumPy, same kernels), so the
  anomaly-event stream is unchanged — enforced per attack scenario by
  ``tests/test_runtime.py``.
- ``sdl_shards`` / ``sdl_replication`` — the SDL as a consistent-hash
  ``ShardedSdl`` (``sdl_shards=1`` keeps the plain SDL).
- ``ingest_flush_records`` — a ``BoundedBatcher`` between the E2
  termination and the xApps (0 = no batcher).
- the supervisor's restart and heartbeat policy.

Values are checked when the settings are written: an out-of-range
topology raises ``ValueError`` instead of quietly deploying the seed path.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass


def default_start_method() -> str:
    """``fork`` where the platform has it (fast, no re-import), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass
class RuntimeSettings:
    """The deployment topology (see module docstring)."""

    # MobiWatch integration: score windows in supervised worker processes.
    # Off = the seed's in-process scoring path, untouched.
    score_in_processes: bool = False
    workers: int = 2

    # Sharded SDL. sdl_shards=1 keeps the plain single-node SharedDataLayer
    # — the exact seed data path; replication counts the copies of a key.
    sdl_shards: int = 1
    sdl_replication: int = 1

    # Telemetry ingest batcher between the E2 termination and the xApps.
    # 0 = no batcher: indications fan out inline, as in the seed.
    ingest_flush_records: int = 0

    # Supervisor restart policy: bounded exponential backoff between
    # restarts; more than ``max_restarts`` crashes inside
    # ``crash_loop_window_s`` marks the worker failed (crash loop) instead
    # of restarting forever.
    max_restarts: int = 5
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    crash_loop_window_s: float = 30.0

    # Health heartbeats: workers report liveness + counters on this
    # period; a heartbeat older than the timeout marks the worker stale
    # (degraded) on the health scoreboard. Restarts trigger on process
    # death, never on staleness alone (a busy worker is not a dead one).
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.sdl_shards < 1:
            raise ValueError(f"sdl_shards must be >= 1, got {self.sdl_shards}")
        if not 1 <= self.sdl_replication <= self.sdl_shards:
            raise ValueError(
                f"sdl_replication must be in [1, sdl_shards={self.sdl_shards}], "
                f"got {self.sdl_replication}"
            )
        if self.ingest_flush_records < 0:
            raise ValueError(
                f"ingest_flush_records must be >= 0 (0 = no batcher), "
                f"got {self.ingest_flush_records}"
            )
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.backoff_base_s <= 0 or self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                "backoff must satisfy 0 < backoff_base_s <= backoff_max_s, got "
                f"{self.backoff_base_s}/{self.backoff_max_s}"
            )
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeats must satisfy 0 < interval < timeout, got "
                f"{self.heartbeat_interval_s}/{self.heartbeat_timeout_s}"
            )

    @property
    def any_enabled(self) -> bool:
        return self.score_in_processes


def usable_cpus() -> int:
    """CPUs the process may schedule on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
