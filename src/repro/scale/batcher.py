"""Bounded-queue ingest batcher with an explicit, counted drop policy.

Sits between a producer (the E2 termination fanning out indications) and a
consumer (the RMR fan-out toward MobiWatch). Provides the three
things a fleet-scale ingest path needs and a single in-process loop lacks:

- **bounded memory** — the queue never exceeds ``capacity``;
- **batched hand-off** — the consumer sees batches of up to
  ``flush_records`` items, flushed on size and (optionally) on a periodic
  interval driven by the simulator's scheduler;
- **backpressure that is never silent** — when the queue is full the
  configured drop policy runs and every drop is counted, so
  ``offered == ingested + dropped + pending`` holds at all times.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional

from repro.obs.metrics import MetricsRegistry

# Drop the oldest queued item to admit the new one (favor fresh telemetry),
# or reject the newly offered item (favor already-queued telemetry).
DROP_OLDEST = "oldest"
DROP_NEWEST = "newest"
_POLICIES = (DROP_OLDEST, DROP_NEWEST)


class BoundedBatcher:
    """Bounded FIFO queue that delivers items to ``flush`` in batches."""

    def __init__(
        self,
        flush: Callable[[List[Any]], None],
        *,
        capacity: int = 8192,
        flush_records: int = 64,
        flush_interval_s: float = 0.0,
        drop_policy: str = DROP_OLDEST,
        scheduler: Optional[Callable[..., Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "ingest",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if flush_records < 1:
            raise ValueError(f"flush_records must be >= 1, got {flush_records}")
        if drop_policy not in _POLICIES:
            raise ValueError(f"drop_policy must be one of {_POLICIES}, got {drop_policy!r}")
        self._flush = flush
        self.capacity = capacity
        self.flush_records = flush_records
        self.flush_interval_s = flush_interval_s
        self.drop_policy = drop_policy
        self._scheduler = scheduler
        self._clock = clock or (lambda: 0.0)
        self.name = name
        self._queue: deque[tuple[float, Any]] = deque()
        self.offered = 0
        self.ingested = 0
        self.dropped = 0
        self.flushes = 0
        self.closed = False
        self._ticking = False
        metrics = metrics or MetricsRegistry()
        labels = {"queue": name}
        self._offered_counter = metrics.counter(
            "batcher.offered_total", labels=labels, help="items offered to the queue"
        )
        self._ingested_counter = metrics.counter(
            "batcher.ingested_total", labels=labels, help="items delivered downstream"
        )
        self._dropped_counter = metrics.counter(
            "batcher.dropped_total",
            labels={**labels, "policy": drop_policy},
            help="items shed by the bounded queue (explicit, never silent)",
        )
        self._flushes_counter = metrics.counter(
            "batcher.flushes_total", labels=labels, help="batches delivered"
        )
        metrics.gauge(
            "batcher.queue_depth",
            labels=labels,
            fn=lambda: len(self._queue),
            help="items waiting in the queue",
        )
        self._batch_hist = metrics.histogram(
            "batcher.batch_records",
            labels=labels,
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            help="items per delivered batch",
        )
        self._wait_hist = metrics.histogram(
            "batcher.queue_wait_s", labels=labels, help="enqueue -> flush latency"
        )

    # -- producer side ----------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._queue)

    def offer(self, item: Any) -> bool:
        """Enqueue ``item``; returns False iff it was shed by the drop policy."""
        if self.closed:
            raise RuntimeError(f"batcher {self.name!r} is closed")
        self.offered += 1
        self._offered_counter.inc()
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            self._dropped_counter.inc()
            if self.drop_policy == DROP_NEWEST:
                return False
            self._queue.popleft()
        self._queue.append((self._clock(), item))
        if len(self._queue) >= self.flush_records:
            self._flush_one_batch()
        elif self._scheduler is not None and self.flush_interval_s > 0 and not self._ticking:
            self._ticking = True
            self._scheduler(self.flush_interval_s, self._tick)
        return True

    def offer_many(self, items: List[Any]) -> int:
        """Enqueue a whole batch; returns how many were admitted.

        Per-item drop-policy semantics are identical to calling ``offer``
        in a loop, but the counter updates, timestamp read, and flush
        checks are batched: one clock read stamps the batch and size-based
        flushing runs after the batch is admitted instead of per item.
        """
        if self.closed:
            raise RuntimeError(f"batcher {self.name!r} is closed")
        if not items:
            return 0
        count = len(items)
        self.offered += count
        self._offered_counter.inc(count)
        now = self._clock()
        admitted = 0
        for item in items:
            if len(self._queue) >= self.capacity:
                self.dropped += 1
                self._dropped_counter.inc()
                if self.drop_policy == DROP_NEWEST:
                    continue
                self._queue.popleft()
            self._queue.append((now, item))
            admitted += 1
        if len(self._queue) >= self.flush_records:
            while len(self._queue) >= self.flush_records:
                self._flush_one_batch()
        elif self._scheduler is not None and self.flush_interval_s > 0 and not self._ticking:
            self._ticking = True
            self._scheduler(self.flush_interval_s, self._tick)
        return admitted

    # -- consumer side ------------------------------------------------------------

    def _flush_one_batch(self) -> int:
        take = min(len(self._queue), self.flush_records)
        if not take:
            return 0
        now = self._clock()
        batch = []
        for _ in range(take):
            enqueued_at, item = self._queue.popleft()
            self._wait_hist.observe(now - enqueued_at)
            batch.append(item)
        self.ingested += take
        self._ingested_counter.inc(take)
        self.flushes += 1
        self._flushes_counter.inc()
        self._batch_hist.observe(take)
        self._flush(batch)
        return take

    def flush_now(self) -> int:
        """Drain the whole queue (in flush_records-sized batches)."""
        total = 0
        while self._queue:
            total += self._flush_one_batch()
        return total

    def _tick(self) -> None:
        self._ticking = False
        if self.closed:
            return
        self.flush_now()
        # Keep ticking while there is still a scheduler and traffic may come;
        # the next offer re-arms the timer, so an idle queue costs no events.

    def close(self) -> int:
        """Final drain; further offers raise."""
        drained = self.flush_now()
        self.closed = True
        return drained

    def stats(self) -> dict:
        return {
            "offered": self.offered,
            "ingested": self.ingested,
            "dropped": self.dropped,
            "pending": self.pending,
            "flushes": self.flushes,
            "drop_policy": self.drop_policy,
            "capacity": self.capacity,
        }
