"""repro.runtime — the deployment topology the whole stack reads.

:class:`RuntimeSettings` places the SDL (plain or consistent-hash sharded)
and the ingest batcher between the E2 termination and the xApps. Window
scoring always runs inside MobiWatch's own process.
"""

from repro.runtime.settings import RuntimeSettings

__all__ = ["RuntimeSettings"]
