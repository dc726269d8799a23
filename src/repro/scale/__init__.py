"""repro.scale — horizontal-scaling substrate for the detection pipeline.

The near-RT RIC of the seed stores all MobiFlow telemetry in a single
Shared Data Layer and fans every indication out inline. This package
supplies the pieces that remove those ceilings, mirroring how the OSC RIC
scales its own platform services:

- :mod:`.hashring` — consistent-hash ring (virtual nodes, deterministic)
  keyed on RNTI/UE/session ids;
- :mod:`.sharded_sdl` — the ``SharedDataLayer`` contract over N shard
  instances with per-shard replication, failover + read repair, and a
  fault-injection hook (the Redis-cluster SDL topology);
- :mod:`.batcher` — bounded-queue telemetry ingest batching with counted,
  never-silent drops.

Both are switched on by the topology family
:class:`~repro.runtime.settings.RuntimeSettings` (``sdl_shards``,
``sdl_replication``, ``ingest_flush_records``) on
:class:`~repro.core.config.XsecConfig`; its defaults preserve the seed's
single-node behaviour bit-for-bit — see ``docs/SCALING.md``.
"""

from repro.scale.batcher import DROP_NEWEST, DROP_OLDEST, BoundedBatcher
from repro.scale.hashring import ConsistentHashRing, HashRingError, stable_hash
from repro.scale.sharded_sdl import ShardedSdl, ShardUnavailableError

__all__ = [
    "BoundedBatcher",
    "ConsistentHashRing",
    "DROP_NEWEST",
    "DROP_OLDEST",
    "HashRingError",
    "ShardedSdl",
    "ShardUnavailableError",
    "stable_hash",
]
