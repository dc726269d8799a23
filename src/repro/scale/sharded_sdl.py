"""Sharded Shared Data Layer: the SDL contract over N shard instances.

The OSC near-RT RIC runs its SDL on a clustered Redis because a single
node cannot absorb fleet-scale E2 indication rates. ``ShardedSdl``
reproduces that topology in-process: it presents the exact
:class:`~repro.oran.sdl.SharedDataLayer` contract (``set``/``get``/
``watch``, values stored as wire-encoded bytes) while placing every key on
``replication`` shards chosen by a consistent-hash ring.

Semantics:

- **writes** go to every *alive* replica of the key; a write is
  acknowledged iff at least one replica stored it, so killing a shard
  mid-run never loses acknowledged data while ``replication >= 2``;
- **reads** walk the replica list in ring order; a dead primary is
  *failed over* (counted) and an alive replica that missed a write (it
  was dead at write time) is *read-repaired* from a fresher replica
  (counted) — the lazy anti-entropy a Redis cluster performs on failover;
- **fault injection** — :meth:`kill_shard` / :meth:`revive_shard` flip a
  shard's availability so failover and repair paths can be exercised.

Watch callbacks fire once per logical write, are isolated from each other
(a raising watcher is counted in ``sdl.watch_errors_total``, never aborts
the write), and run only for acknowledged writes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, List, Optional

from repro import wire
from repro.obs import profiler as _profiler
from repro.obs.metrics import MetricsRegistry
from repro.scale.hashring import ConsistentHashRing

WatchCallback = Callable[[str, str, Any], None]  # (namespace, key, value)


class ShardUnavailableError(RuntimeError):
    """Raised when no alive replica can serve a write."""


class _Shard:
    """One shard instance: a namespaced byte store."""

    __slots__ = ("name", "data", "alive", "writes", "reads")

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[str, dict[str, bytes]] = {}
        self.alive = True
        self.writes = 0
        self.reads = 0


class ShardedSdl:
    """The ``SharedDataLayer`` contract over N shards with replication."""

    def __init__(
        self,
        shards: int = 4,
        replication: int = 1,
        *,
        vnodes: int = 128,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 1 <= replication <= shards:
            raise ValueError(
                f"replication must be in [1, shards={shards}], got {replication}"
            )
        self.replication = replication
        self._shards = {f"shard-{i}": _Shard(f"shard-{i}") for i in range(shards)}
        self._ring = ConsistentHashRing(self._shards, vnodes=vnodes)
        self._watchers: dict[str, list[WatchCallback]] = {}
        self.writes = 0
        self.reads = 0
        metrics = metrics or MetricsRegistry()
        # Same family names as the single-node SDL so dashboards carry over.
        self._writes_counter = metrics.counter("sdl.writes_total")
        self._reads_counter = metrics.counter("sdl.reads_total")
        self._value_bytes = metrics.histogram(
            "sdl.value_bytes",
            buckets=(16, 64, 256, 1024, 4096, 16384, 65536),
            help="encoded value sizes",
        )
        self._write_wall = metrics.histogram(
            "sdl.write_wall_s", help="wall-clock cost of encode+store+watch"
        )
        self._watch_errors = metrics.counter(
            "sdl.watch_errors_total", help="watch callbacks that raised"
        )
        # Shard-topology metrics.
        self._shard_writes = {
            name: metrics.counter("sdl.shard_writes_total", labels={"shard": name})
            for name in self._shards
        }
        self._shard_reads = {
            name: metrics.counter("sdl.shard_reads_total", labels={"shard": name})
            for name in self._shards
        }
        self._failovers = metrics.counter(
            "sdl.failovers_total", help="reads served with the primary shard dead"
        )
        self._read_repairs = metrics.counter(
            "sdl.read_repairs_total", help="stale replicas healed on read"
        )
        self._kills = metrics.counter(
            "sdl.shard_kills_total", help="fault injections via kill_shard"
        )
        metrics.gauge(
            "sdl.shards_alive",
            fn=lambda: sum(1 for s in self._shards.values() if s.alive),
            help="shards currently serving",
        )

    # -- topology -----------------------------------------------------------

    @property
    def shard_names(self) -> List[str]:
        return sorted(self._shards)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shards_alive(self) -> int:
        return sum(1 for shard in self._shards.values() if shard.alive)

    def replicas_for(self, shard_key: str) -> List[str]:
        """Replica shard names for a key, primary first (ring order)."""
        return self._ring.lookup_n(shard_key, self.replication)

    def _resolve(self, shard: "str | int") -> _Shard:
        name = f"shard-{shard}" if isinstance(shard, int) else shard
        try:
            return self._shards[name]
        except KeyError:
            raise KeyError(f"no shard named {name!r}") from None

    # -- fault injection -------------------------------------------------------

    def kill_shard(self, shard: "str | int") -> str:
        """Mark a shard dead: its data stops being readable or writable."""
        target = self._resolve(shard)
        if target.alive:
            target.alive = False
            self._kills.inc()
        return target.name

    def revive_shard(self, shard: "str | int") -> str:
        """Bring a shard back; stale keys heal lazily via read repair."""
        target = self._resolve(shard)
        target.alive = True
        return target.name

    # -- core KV -------------------------------------------------------------

    def set(self, namespace: str, key: str, value: Any, shard_key: Optional[str] = None) -> None:
        """Store ``value`` on every alive replica of the key.

        ``shard_key`` overrides the placement key (e.g. a UE/session id so
        one UE's telemetry stays on one shard); it defaults to
        ``namespace/key``. Raises :class:`ShardUnavailableError` — the
        write is *not* acknowledged — when every replica is dead.
        """
        start_wall = time.perf_counter()
        encoded = wire.encode(value)
        names = self.replicas_for(shard_key if shard_key is not None else f"{namespace}/{key}")
        alive = [self._shards[name] for name in names if self._shards[name].alive]
        if not alive:
            raise ShardUnavailableError(
                f"no alive replica for {namespace}/{key} (replicas: {names})"
            )
        for shard in alive:
            shard.data.setdefault(namespace, {})[key] = encoded
            shard.writes += 1
            self._shard_writes[shard.name].inc()
        self.writes += 1
        self._writes_counter.inc()
        self._value_bytes.observe(len(encoded))
        watchers = self._watchers.get(namespace)
        if watchers:
            value = wire.plain(value)  # watchers get values, never spans
        for callback in watchers or ():
            try:
                callback(namespace, key, value)
            except Exception:
                self._watch_errors.inc()
        elapsed = time.perf_counter() - start_wall
        self._write_wall.observe(elapsed)
        prof = _profiler.CURRENT
        if prof is not None:
            # Leaf timing via record(): the per-write cost is already
            # measured, so the profiler pays no extra perf_counter calls.
            prof.record("sdl.set", elapsed)

    def set_many(
        self, namespace: str, pairs: list[tuple[str, Any]], shard_key: str
    ) -> None:
        """Store a batch of ``(key, value)`` pairs that share one placement
        key as **one acked write**.

        One ring lookup and one liveness check cover the whole batch;
        values are encoded and watchers notified per pair exactly as
        ``set`` does. Raises :class:`ShardUnavailableError` (nothing
        stored) when every replica is dead.
        """
        if not pairs:
            return
        start_wall = time.perf_counter()
        encoded_pairs = [(key, wire.encode(value)) for key, value in pairs]
        names = self.replicas_for(shard_key)
        alive = [self._shards[name] for name in names if self._shards[name].alive]
        if not alive:
            raise ShardUnavailableError(
                f"no alive replica for {namespace} batch (replicas: {names})"
            )
        for shard in alive:
            ns = shard.data.setdefault(namespace, {})
            for key, encoded in encoded_pairs:
                ns[key] = encoded
            shard.writes += 1
            self._shard_writes[shard.name].inc()
        self.writes += 1
        self._writes_counter.inc()
        self._value_bytes.observe(sum(len(encoded) for _, encoded in encoded_pairs))
        watchers = self._watchers.get(namespace)
        if watchers:
            # Watchers get values, never spans.
            pairs = [(key, wire.plain(value)) for key, value in pairs]
        for callback in watchers or ():
            for key, value in pairs:
                try:
                    callback(namespace, key, value)
                except Exception:
                    self._watch_errors.inc()
        elapsed = time.perf_counter() - start_wall
        self._write_wall.observe(elapsed)
        prof = _profiler.CURRENT
        if prof is not None:
            prof.record("sdl.set_many", elapsed)

    def get(
        self,
        namespace: str,
        key: str,
        default: Any = None,
        shard_key: Optional[str] = None,
    ) -> Any:
        self.reads += 1
        self._reads_counter.inc()
        names = self.replicas_for(shard_key if shard_key is not None else f"{namespace}/{key}")
        behind: list[_Shard] = []  # alive replicas that missed the write
        for position, name in enumerate(names):
            shard = self._shards[name]
            if not shard.alive:
                if position == 0:
                    self._failovers.inc()
                continue
            shard.reads += 1
            self._shard_reads[name].inc()
            ns = shard.data.get(namespace)
            if ns is not None and key in ns:
                encoded = ns[key]
                for stale in behind:
                    stale.data.setdefault(namespace, {})[key] = encoded
                    self._read_repairs.inc()
                return wire.decode(encoded)
            behind.append(shard)
        return default

    def require(self, namespace: str, key: str) -> Any:
        value = self.get(namespace, key, default=_MISSING)
        if value is _MISSING:
            # Late import: repro.oran.sdl must stay importable before this
            # package (oran.ric imports us at module load).
            from repro.oran.sdl import SdlError

            raise SdlError(f"{namespace}/{key} not found")
        return value

    def delete(self, namespace: str, key: str, shard_key: Optional[str] = None) -> bool:
        names = self.replicas_for(shard_key if shard_key is not None else f"{namespace}/{key}")
        deleted = False
        for name in names:
            shard = self._shards[name]
            if not shard.alive:
                continue
            ns = shard.data.get(namespace)
            if ns is not None and key in ns:
                del ns[key]
                deleted = True
        return deleted

    def keys(self, namespace: str) -> List[str]:
        found: set[str] = set()
        for shard in self._shards.values():
            if shard.alive:
                found.update(shard.data.get(namespace, ()))
        return sorted(found)

    def namespaces(self) -> List[str]:
        found: set[str] = set()
        for shard in self._shards.values():
            if shard.alive:
                found.update(shard.data)
        return sorted(found)

    # -- append-only lists (telemetry queues) ----------------------------------

    def append(self, namespace: str, key: str, item: Any) -> int:
        """Append to a list value, creating it if needed. Returns new length."""
        current = self.get(namespace, key, default=[])
        if not isinstance(current, list):
            raise TypeError(f"{namespace}/{key} is not a list")
        current.append(item)
        self.set(namespace, key, current)
        return len(current)

    def items(self, namespace: str) -> Iterator[tuple[str, Any]]:
        for key in self.keys(namespace):
            yield key, self.get(namespace, key)

    # -- watches -----------------------------------------------------------------

    def watch(self, namespace: str, callback: WatchCallback) -> None:
        """Call ``callback`` on every acknowledged write into ``namespace``."""
        self._watchers.setdefault(namespace, []).append(callback)

    def unwatch(self, namespace: str, callback: WatchCallback) -> None:
        watchers = self._watchers.get(namespace, [])
        if callback in watchers:
            watchers.remove(callback)

    # -- reporting ------------------------------------------------------------------

    def health(self) -> dict:
        """Topology snapshot for the pipeline's scale report."""
        return {
            "shards": self.num_shards,
            "alive": self.shards_alive(),
            "replication": self.replication,
            "per_shard_writes": {
                name: shard.writes for name, shard in sorted(self._shards.items())
            },
            "failovers": int(self._failovers.value),
            "read_repairs": int(self._read_repairs.value),
        }


_MISSING = object()
