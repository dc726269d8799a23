"""The deployment topology of ``XsecConfig.runtime``: one settings family.

Kept dependency-free so every layer (``repro.core.config``, ``repro.oran``)
can import it without cycles. **Every default preserves the seed's
single-node behaviour bit-for-bit**: the SDL is the plain
``SharedDataLayer`` and indications fan out inline.

The switches:

- ``sdl_shards`` / ``sdl_replication`` — the SDL as a consistent-hash
  ``ShardedSdl`` (``sdl_shards=1`` keeps the plain SDL).
- ``ingest_flush_records`` — a ``BoundedBatcher`` between the E2
  termination and the xApps (0 = no batcher).

Values are checked when the settings are written: an out-of-range
topology raises ``ValueError`` instead of quietly deploying the seed path.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RuntimeSettings:
    """The deployment topology (see module docstring)."""

    # Sharded SDL. sdl_shards=1 keeps the plain single-node SharedDataLayer
    # — the exact seed data path; replication counts the copies of a key.
    sdl_shards: int = 1
    sdl_replication: int = 1

    # Telemetry ingest batcher between the E2 termination and the xApps.
    # 0 = no batcher: indications fan out inline, as in the seed.
    ingest_flush_records: int = 0

    def __post_init__(self) -> None:
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
