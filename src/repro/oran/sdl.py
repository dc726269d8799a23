"""Shared Data Layer (SDL): the near-RT RIC's common datastore.

The OSC RIC exposes a Redis-backed namespaced key-value store shared by all
platform services and xApps. We reproduce the same contract: values are
stored as *bytes* (serialized through :mod:`repro.wire`, enforcing that
everything written is wire-encodable, as the real SDL enforces
serializability), namespaced keys, and watch callbacks so xApps can react to
new telemetry.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Optional

from repro import wire
from repro.obs.metrics import MetricsRegistry

WatchCallback = Callable[[str, str, Any], None]  # (namespace, key, value)


class SdlError(KeyError):
    """Raised when a key is missing."""


class SharedDataLayer:
    """Namespaced key-value store with watch support."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._data: dict[str, dict[str, bytes]] = {}
        self._watchers: dict[str, list[WatchCallback]] = {}
        self.writes = 0
        self.reads = 0
        # Standalone SDLs (unit tests, offline tools) get a private registry.
        metrics = metrics or MetricsRegistry()
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

    # -- core KV -------------------------------------------------------------

    def set(self, namespace: str, key: str, value: Any) -> None:
        """Store ``value`` (must be wire-encodable) under ``namespace/key``."""
        start = time.perf_counter()
        encoded = wire.encode(value)
        self._data.setdefault(namespace, {})[key] = encoded
        self.writes += 1
        self._writes_counter.inc()
        self._value_bytes.observe(len(encoded))
        watchers = self._watchers.get(namespace)
        if watchers:
            value = wire.plain(value)  # watchers get values, never spans
        for callback in watchers or ():
            # A raising watcher must not abort the write, skip the
            # remaining watchers, or lose the write_wall observation.
            try:
                callback(namespace, key, value)
            except Exception:
                self._watch_errors.inc()
        self._write_wall.observe(time.perf_counter() - start)

    def set_many(self, namespace: str, pairs: list[tuple[str, Any]]) -> None:
        """Store a batch of ``(key, value)`` pairs as one acked write.
        Values are encoded and watchers notified exactly as ``set`` does
        per pair, but the write/wall bookkeeping is paid once per batch: one
        ``writes`` increment, one summed ``value_bytes`` observation, one
        ``write_wall`` span."""
        if not pairs:
            return
        start = time.perf_counter()
        ns = self._data.setdefault(namespace, {})
        total_bytes = 0
        for key, value in pairs:
            encoded = wire.encode(value)
            ns[key] = encoded
            total_bytes += len(encoded)
        self.writes += 1
        self._writes_counter.inc()
        self._value_bytes.observe(total_bytes)
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
        self._write_wall.observe(time.perf_counter() - start)

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        self.reads += 1
        self._reads_counter.inc()
        ns = self._data.get(namespace)
        if ns is None or key not in ns:
            return default
        return wire.decode(ns[key])

    def require(self, namespace: str, key: str) -> Any:
        value = self.get(namespace, key, default=_MISSING)
        if value is _MISSING:
            raise SdlError(f"{namespace}/{key} not found")
        return value

    def delete(self, namespace: str, key: str) -> bool:
        ns = self._data.get(namespace)
        if ns is None or key not in ns:
            return False
        del ns[key]
        return True

    def keys(self, namespace: str) -> list[str]:
        return sorted(self._data.get(namespace, {}))

    def namespaces(self) -> list[str]:
        return sorted(self._data)

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
        """Call ``callback`` on every write into ``namespace``."""
        self._watchers.setdefault(namespace, []).append(callback)

    def unwatch(self, namespace: str, callback: WatchCallback) -> None:
        watchers = self._watchers.get(namespace, [])
        if callback in watchers:
            watchers.remove(callback)


_MISSING = object()
