"""Multi-core sweep runner: fan experiment configurations across workers.

The repo's ablations and tables evaluate one configuration at a time —
train a detector, score benign/attack captures, emit a row — and every
configuration is independent of the others. :class:`SweepRunner` fans
those evaluations across ``multiprocessing`` workers while keeping the
results *indistinguishable* from the serial sweep:

- **fork inheritance, no capture pickling** — the pool uses the ``fork``
  start method, and the task function plus its closed-over context (the
  generated captures, a warm :class:`~repro.experiments.cache.DatasetCache`)
  are stashed in a module global *before* the fork, so workers inherit
  them through copy-on-write memory instead of serializing megabytes of
  telemetry per task. Only the task index crosses the pipe going in, and
  only the small result row comes back.
- **submission-order merge** — ``Pool.map`` returns results positionally,
  so row order never depends on worker scheduling.
- **deterministic per-task seeding** — tasks must derive randomness from
  their own configuration (every repo experiment already seeds its
  detector/dataset from the config; :func:`derive_seed` is the helper for
  sweeps that need decorrelated per-index seeds). Nothing may read
  cross-task global RNG state, and then parallel == serial exactly.

Where ``fork`` is unavailable (non-POSIX platforms) or ``workers <= 1``,
``map`` degrades to the plain serial loop — same results, seed timing.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Optional, Sequence

from repro.obs import profiler as _profiler

# Closure slot inherited by forked workers (see SweepRunner.map). Holding
# it in a module global instead of Pool initargs keeps arbitrary
# unpicklable context (captures, caches, lambdas) usable under fork.
_FORK_TASK: Optional[tuple] = None


def sweep_tools(sweep_workers: int = 0, cache: bool = False, cache_dir: Optional[str] = None):
    """(SweepRunner, DatasetCache or None) for the sweep entry points'
    keyword arguments (ablations, Table 2).

    The defaults are the seed behaviour: a serial runner and no cache.
    ``sweep_workers`` fans configurations out across that many forked
    workers; ``cache`` memoizes encoded telemetry (``cache_dir`` adds a
    persistent on-disk layer).
    """
    from repro.experiments.cache import DatasetCache

    return SweepRunner(sweep_workers), (DatasetCache(cache_dir) if cache else None)


def derive_seed(base_seed: int, index: int) -> int:
    """Decorrelated deterministic seed for sweep task ``index``.

    Pure arithmetic on (base, index): the same value whether the task runs
    serially, on worker 0, or on worker 7.
    """
    return (int(base_seed) * 1_000_003 + index * 7_919 + 12_289) % (2**31 - 1)


def _run_indexed(index: int):
    fn, items = _FORK_TASK  # type: ignore[misc]
    return fn(items[index])


class SweepRunner:
    """Run ``fn`` over configurations, serially or across forked workers."""

    def __init__(self, workers: int = 0, metrics=None) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._tasks_counter = None
        self._sweep_wall = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, metrics) -> None:
        """Count sweep tasks / time sweeps in a repro.obs registry."""
        self._tasks_counter = metrics.counter(
            "trainfast.sweep_tasks_total", help="experiment configurations run"
        )
        self._sweep_wall = metrics.histogram(
            "trainfast.sweep_wall_s",
            buckets=(0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0),
            help="whole-sweep wall clock per map() call",
        )

    @property
    def parallel_available(self) -> bool:
        return (
            self.workers > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def map(self, fn: Callable, items: Sequence) -> list:
        """``[fn(item) for item in items]``, fanned across the workers.

        Results come back in submission order. ``fn`` and ``items`` may
        close over anything (they are fork-inherited, never pickled); each
        *result* must be picklable — experiment rows are plain dataclasses.
        """
        global _FORK_TASK
        items = list(items)
        start = time.perf_counter()
        with _profiler.profile_block("trainfast.sweep"):
            workers = min(self.workers, len(items))
            if workers <= 1 or not self.parallel_available:
                results = [fn(item) for item in items]
            else:
                previous = _FORK_TASK
                _FORK_TASK = (fn, items)
                try:
                    context = multiprocessing.get_context("fork")
                    with context.Pool(processes=workers) as pool:
                        results = pool.map(
                            _run_indexed, range(len(items)), chunksize=1
                        )
                finally:
                    _FORK_TASK = previous
        if self._tasks_counter is not None:
            self._tasks_counter.inc(len(items))
            self._sweep_wall.observe(time.perf_counter() - start)
        return results
