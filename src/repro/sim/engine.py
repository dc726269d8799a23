"""Discrete-event simulation engine.

The engine models time as a float number of seconds. Events are callbacks
scheduled at absolute times; ties are broken by insertion order so runs are
deterministic. The :class:`Simulator` owns the clock, the event queue, and a
registry of named RNG streams (see :mod:`repro.sim.rng`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.obs import ObsContext
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A single scheduled event.

    Events fire in ``(time, seq)`` order; ``seq`` is a monotonically
    increasing tie-breaker so two events at the same instant fire in
    scheduling order. The queue keeps that pair beside the event in its
    heap entries, so ordering never calls back into Python.

    A ``__slots__`` class rather than a dataclass: the engine's innermost
    loop allocates one of these per scheduled callback, and skipping the
    dataclass ``__init__``/``__dict__`` machinery measurably cuts the
    event-churn cost of timer-heavy workloads.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        name: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        # Owning queue while the event is pending (None once popped): lets
        # cancel() keep the queue's live count exact in O(1).
        self._queue: Optional["EventQueue"] = None

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, name={self.name!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            queue._cancelled += 1
            queue._maybe_compact()


class EventQueue:
    """A cancellable priority queue of :class:`Event` objects.

    ``len(queue)`` is O(1): a live-event count is maintained on push, pop
    and cancel instead of scanning the heap — the ``sim.queue_depth``
    metrics gauge reads it on every snapshot, which made the scan
    O(pending events) per scrape.

    Cancelled events are normally dropped lazily when popped, but a
    cancel-then-reschedule pattern (e.g. the megabatch maturity timers,
    re-armed on every session touch) can cancel far more events than it
    pops, growing the heap without bound. When more than half the heap is
    cancelled tombstones (and the heap is big enough to matter), the queue
    compacts: it filters the tombstones out and re-heapifies — O(live)
    work paid at most every O(live) cancellations, so amortized O(1).
    """

    # Never compact tiny heaps; the lazy path handles them fine.
    COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        # (time, seq, event): seq is unique, so tuple comparison is decided
        # by the two numbers and the Event itself is never compared.
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0  # cancelled events still sitting in the heap

    def __len__(self) -> int:
        return self._live

    @property
    def heap_size(self) -> int:
        """Heap entries including cancelled tombstones (tests, gauges)."""
        return len(self._heap)

    def push(self, time: float, callback: Callable[[], Any], name: str = "") -> Event:
        seq = next(self._counter)
        event = Event(time, seq, callback, name)
        event._queue = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                # Detach so a later cancel() on the fired event cannot
                # decrement the count of events still in the queue.
                event._queue = None
                self._live -= 1
                return event
            self._cancelled -= 1
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        return self._heap[0][0] if self._heap else None

    def _maybe_compact(self) -> None:
        if (
            len(self._heap) >= self.COMPACT_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled tombstones and re-heapify; returns how many."""
        dropped = self._cancelled
        if dropped:
            self._heap = [entry for entry in self._heap if not entry[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0
        return dropped


class Simulator:
    """Discrete-event simulator with a simulated clock.

    Usage::

        sim = Simulator(seed=7)
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    def __init__(self, seed: int = 0, obs: Optional[ObsContext] = None) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self.rng = RngRegistry(seed)
        # Observability context shared by everything holding this simulator.
        if obs is None:
            obs = ObsContext(clock=lambda: self._now)
        else:
            obs.set_clock(lambda: self._now)
        self.obs = obs
        self._events_counter = obs.metrics.counter(
            "sim.events_total", help="events fired by the engine"
        )
        # Gauges with collect functions cost nothing until snapshot time.
        obs.metrics.gauge(
            "sim.queue_depth", fn=lambda: len(self._queue), help="pending events"
        )
        obs.metrics.gauge(
            "sim.events_per_sim_s",
            fn=lambda: self._events_processed / self._now if self._now else 0.0,
            help="event rate per simulated second",
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self._now + delay, callback, name=name)

    def schedule_at(
        self, time: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self._now}"
            )
        return self._queue.push(time, callback, name=name)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` have fired. Returns the number of events processed.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        processed = 0
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                event = self._queue.pop()
                if event is None:
                    break
                self._now = event.time
                event.callback()
                processed += 1
                self._events_processed += 1
                # Inlined Counter.inc: this is the engine's innermost loop.
                self._events_counter.value += 1
        finally:
            self._running = False
        return processed

    def step(self) -> bool:
        """Fire exactly the next event. Returns False if the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        event.callback()
        self._events_processed += 1
        self._events_counter.value += 1
        return True
