"""repro.runtime — the process-parallel RIC service runtime.

MobiWatch's window scoring in supervised OS worker processes speaking the
byte-identical TLV wire codec over Unix sockets
(:class:`ProcessScoringPool`), the deployment topology the whole stack
reads (:class:`RuntimeSettings`), and the soak that holds the pool to the
near-RT budget under a ``kill -9``. See docs/RUNTIME.md.
"""

from repro.runtime.bridge import ProcessScoringPool
from repro.runtime.settings import RuntimeSettings, usable_cpus
from repro.runtime.soak import (
    RuntimeTrial,
    SoakConfig,
    SoakResult,
    run_soak,
    run_trial,
    smoke_config,
)
from repro.runtime.supervisor import Supervisor, SupervisorEvent, WorkerSpec

__all__ = [
    "ProcessScoringPool",
    "RuntimeSettings",
    "RuntimeTrial",
    "SoakConfig",
    "SoakResult",
    "Supervisor",
    "SupervisorEvent",
    "WorkerSpec",
    "run_soak",
    "run_trial",
    "smoke_config",
    "usable_cpus",
]
