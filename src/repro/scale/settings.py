"""Configuration knobs for the horizontal-scaling substrate.

Kept dependency-free so every layer (``repro.core.config``, ``repro.oran``)
can import it without cycles. **Every default preserves the seed's
single-node behaviour bit-for-bit**: one SDL shard, no ingest batching.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ScaleSettings:
    """Knobs of the ``repro.scale`` subsystem (SDL shards, ingest batcher)."""

    # Sharded SDL. ``sdl_shards=1`` keeps the plain single-node
    # SharedDataLayer — the exact seed data path.
    sdl_shards: int = 1
    sdl_replication: int = 1
    sdl_vnodes: int = 128

    # Telemetry ingest batcher between the E2 termination and the xApps.
    # 0 = no batcher: indications fan out inline, as in the seed.
    ingest_flush_records: int = 0
    ingest_flush_interval_s: float = 0.01
    ingest_capacity: int = 8192
    ingest_drop_policy: str = "oldest"

    @property
    def sharding_enabled(self) -> bool:
        return self.sdl_shards > 1

    @property
    def batching_enabled(self) -> bool:
        return self.ingest_flush_records > 0
