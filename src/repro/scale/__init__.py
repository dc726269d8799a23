"""repro.scale — a consistent-hash sharded SDL that nothing deploys.

The near-RT RIC has one plain :class:`~repro.oran.sdl.SharedDataLayer`
and no module under ``src/repro`` outside this package imports it. It
stays only because the composed benchmark's tracer
(``benchmarks/e2e/trace.py``) still wraps :class:`ShardedSdl` by name;
it goes with that import (see ``docs/SCALING.md``).

- :mod:`.hashring` — consistent-hash ring (virtual nodes, deterministic);
- :mod:`.sharded_sdl` — the ``SharedDataLayer`` contract over N shard
  instances with per-shard replication, failover + read repair, and a
  fault-injection hook.
"""

from repro.scale.hashring import ConsistentHashRing, HashRingError, stable_hash
from repro.scale.sharded_sdl import ShardedSdl, ShardUnavailableError

__all__ = [
    "ConsistentHashRing",
    "HashRingError",
    "ShardedSdl",
    "ShardUnavailableError",
    "stable_hash",
]
