"""Configuration knobs for the process-parallel service runtime (``repro.runtime``).

Kept dependency-free (like :mod:`repro.scale.settings`) so every layer can
import it without cycles. **Every default preserves the seed's in-process
behaviour bit-for-bit**: no worker processes are spawned, no sockets are
opened, and MobiWatch scores exactly as before.

The switches:

- ``score_in_processes`` — route MobiWatch's window scoring through a
  supervised pool of real OS worker processes speaking the TLV wire codec
  over Unix sockets. float64 scores computed in a worker are bit-identical
  to in-process scoring (same NumPy, same kernels), so the anomaly-event
  stream is unchanged — enforced per attack scenario by
  ``tests/test_runtime.py``.
- everything else parameterizes the standalone service runtime
  (``python -m repro runtime``): worker/shard topology, dispatch batching,
  bounded ingest, and the supervisor's restart policy.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

_DROP_POLICIES = ("oldest", "newest")


def default_start_method() -> str:
    """``fork`` where the platform has it (fast, no re-import), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass
class RuntimeSettings:
    """Knobs of the ``repro.runtime`` subsystem (see module docstring)."""

    # MobiWatch integration: score windows in supervised worker processes.
    # Off = the seed's in-process scoring path, untouched.
    score_in_processes: bool = False

    # Service topology (the standalone runtime and the scoring bridge).
    workers: int = 2
    sdl_shards: int = 2
    sdl_replication: int = 1
    analyzer: bool = True

    # Ingest: BoundedBatcher semantics across the process boundary
    # (offered == ingested + dropped + pending must keep holding).
    queue_capacity: int = 32768
    dispatch_records: int = 64
    dispatch_interval_s: float = 0.02
    drop_policy: str = "oldest"

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

    # Graceful drain: how long shutdown waits for workers to finish
    # pending work and exit on their own before terminating them.
    drain_timeout_s: float = 10.0

    # Process start method; "" = fork where available, spawn otherwise.
    start_method: str = ""

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
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.dispatch_records < 1:
            raise ValueError(f"dispatch_records must be >= 1, got {self.dispatch_records}")
        if self.drop_policy not in _DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {_DROP_POLICIES}, got {self.drop_policy!r}"
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
        if self.start_method and self.start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start_method {self.start_method!r} unavailable on this platform "
                f"(have: {multiprocessing.get_all_start_methods()})"
            )

    @property
    def any_enabled(self) -> bool:
        return self.score_in_processes

    def resolved_start_method(self) -> str:
        return self.start_method or default_start_method()


def usable_cpus() -> int:
    """CPUs the process may schedule on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
