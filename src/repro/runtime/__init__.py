"""repro.runtime — the process-parallel RIC service runtime.

Runs the reproduction's components as real OS processes (supervised
scoring workers, SDL shards, the LLM analyzer) speaking the byte-identical
TLV wire codec over Unix sockets. See docs/RUNTIME.md.
"""

from repro.runtime.backend import (
    Backend,
    InProcessBackend,
    ProcessBackend,
    RuntimeTrial,
    make_backend,
)
from repro.runtime.bridge import ProcessScoringPool
from repro.runtime.settings import RuntimeSettings, usable_cpus
from repro.runtime.soak import SoakConfig, SoakResult, run_soak, smoke_config
from repro.runtime.supervisor import Supervisor, SupervisorEvent, WorkerSpec

__all__ = [
    "Backend",
    "InProcessBackend",
    "ProcessBackend",
    "ProcessScoringPool",
    "RuntimeSettings",
    "RuntimeTrial",
    "SoakConfig",
    "SoakResult",
    "Supervisor",
    "SupervisorEvent",
    "WorkerSpec",
    "make_backend",
    "run_soak",
    "smoke_config",
    "usable_cpus",
]
