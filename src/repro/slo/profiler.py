"""Continuous profiler: explicit hot-spot hooks plus a sampling thread.

Two complementary mechanisms, both stdlib-only:

- **explicit hooks** — instrumented call sites (the incremental scorer,
  compiled kernels, sharded-SDL ops) report
  wall-clock durations under stable stage names. Coarse call
  sites use the :func:`profile_block` context manager; per-call-microsecond
  sites use the inline pattern below so an *inactive* profiler costs one
  module-attribute load and an ``is None`` branch (~tens of ns)::

      prof = profiler.CURRENT
      if prof is not None:
          t0 = time.perf_counter()
          ...work...
          prof.record("stage.name", time.perf_counter() - t0)
      else:
          ...work...

  Nested ``block()`` scopes attribute *self time* per stage (a parent's
  total includes its children; its self time does not).

- **sampling profiler** — a daemon thread walks ``sys._current_frames()``
  every ``interval_s``, folding each thread's Python stack into collapsed
  (flamegraph-format) counts. No instrumentation required; overhead is
  bounded by the sampling interval, not by call volume.

Activation is process-global (:func:`activate` / :func:`deactivate` set
:data:`CURRENT`): instrumented modules never need a profiler reference
threaded through their constructors, and the inactive cost stays a single
``None`` check on the hot paths.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

# The process-global active profiler. Instrumented call sites read this
# attribute directly; ``None`` means every hook is a no-op branch.
CURRENT: Optional["Profiler"] = None


def activate(profiler: "Profiler") -> "Profiler":
    """Install ``profiler`` as the process-global hook target."""
    global CURRENT
    CURRENT = profiler
    return profiler


def deactivate() -> None:
    """Disable all explicit hooks (they return to a single None check)."""
    global CURRENT
    CURRENT = None


class _Block:
    """One explicit scope; re-entrant via the profiler's stack."""

    __slots__ = ("profiler", "name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Block":
        self.profiler._push(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.profiler._pop(time.perf_counter() - self._start)
        return False


class _NullBlock:
    __slots__ = ()

    def __enter__(self) -> "_NullBlock":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_BLOCK = _NullBlock()


def profile_block(name: str):
    """Scope context manager; a shared no-op when no profiler is active."""
    prof = CURRENT
    if prof is None:
        return _NULL_BLOCK
    return prof.block(name)


class _StageStat:
    __slots__ = ("calls", "total_s", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0


class Profiler:
    """Aggregates explicit-hook durations into per-stage self-time stats.

    Single accounting structure, two views: :meth:`stage_table` rolls up
    by stage name; :meth:`collapsed_stacks` keeps the full scope path
    (``parent;child;leaf total_us``) for flamegraph tooling.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, _StageStat] = {}
        # path tuple -> cumulative self seconds (flamegraph counts).
        self._paths: Dict[Tuple[str, ...], float] = {}
        self._local = threading.local()

    # -- scope bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str) -> None:
        # Each frame: [name, child_time_accumulator].
        self._stack().append([name, 0.0])

    def _pop(self, elapsed: float) -> None:
        stack = self._stack()
        name, child_s = stack.pop()
        self_s = max(0.0, elapsed - child_s)
        stat = self._stages.get(name)
        if stat is None:
            stat = self._stages[name] = _StageStat()
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += self_s
        if elapsed > stat.max_s:
            stat.max_s = elapsed
        path = tuple(frame[0] for frame in stack) + (name,)
        self._paths[path] = self._paths.get(path, 0.0) + self_s
        if stack:
            stack[-1][1] += elapsed

    # -- hook API ----------------------------------------------------------

    def block(self, name: str) -> _Block:
        return _Block(self, name)

    def record(self, name: str, elapsed_s: float, calls: int = 1) -> None:
        """Report a measured duration without a scope (leaf hot paths).

        ``calls > 1`` folds a sampled measurement back in: a call site that
        times one in N calls reports ``elapsed * N`` with ``calls=N``.
        """
        stat = self._stages.get(name)
        if stat is None:
            stat = self._stages[name] = _StageStat()
        stat.calls += calls
        stat.total_s += elapsed_s
        stat.self_s += elapsed_s
        per_call = elapsed_s / calls if calls else elapsed_s
        if per_call > stat.max_s:
            stat.max_s = per_call
        stack = self._stack()
        path = tuple(frame[0] for frame in stack) + (name,)
        self._paths[path] = self._paths.get(path, 0.0) + elapsed_s

    # -- reporting ---------------------------------------------------------

    def stage_table(self) -> List[dict]:
        """Per-stage rows sorted by self time, heaviest first."""
        rows = [
            {
                "stage": name,
                "calls": stat.calls,
                "total_s": stat.total_s,
                "self_s": stat.self_s,
                "mean_us": (stat.total_s / stat.calls * 1e6) if stat.calls else 0.0,
                "max_us": stat.max_s * 1e6,
            }
            for name, stat in self._stages.items()
        ]
        rows.sort(key=lambda r: r["self_s"], reverse=True)
        return rows

    def collapsed_stacks(self) -> str:
        """Flamegraph collapsed format: ``a;b;c <self microseconds>``."""
        lines = []
        for path, self_s in sorted(self._paths.items()):
            us = int(round(self_s * 1e6))
            if us > 0:
                lines.append(f"{';'.join(path)} {us}")
        return "\n".join(lines)

    def render(self) -> str:
        rows = self.stage_table()
        if not rows:
            return "profiler: no samples"
        width = max(len(r["stage"]) for r in rows)
        lines = [
            f"{'stage':<{width}}  {'calls':>9}  {'total':>10}  {'self':>10}  "
            f"{'mean':>9}  {'max':>9}"
        ]
        for r in rows:
            lines.append(
                f"{r['stage']:<{width}}  {r['calls']:>9}  {r['total_s']:>9.4f}s  "
                f"{r['self_s']:>9.4f}s  {r['mean_us']:>7.1f}us  {r['max_us']:>7.1f}us"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._stages.clear()
        self._paths.clear()


class SamplingProfiler:
    """Wall-clock stack sampler over ``sys._current_frames()``.

    Start/stop bracket a daemon thread; each tick folds every thread's
    current Python stack (outermost first) into collapsed counts. The
    sampler's own thread is excluded.
    """

    def __init__(self, interval_s: float = 0.005, max_depth: int = 48) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.max_depth = max_depth
        self.samples = 0
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="slo-sampling-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.sample_once(exclude_thread=me)

    def sample_once(self, exclude_thread: Optional[int] = None) -> None:
        """Take one sample now (also used directly by deterministic tests)."""
        frames = sys._current_frames()
        with self._lock:
            self.samples += 1
            for ident, frame in frames.items():
                if ident == exclude_thread:
                    continue
                stack: list[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    code = frame.f_code
                    stack.append(f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]})")
                    frame = frame.f_back
                    depth += 1
                path = tuple(reversed(stack))
                self._counts[path] = self._counts.get(path, 0) + 1

    def collapsed_stacks(self) -> str:
        """Flamegraph collapsed format: ``frame;frame;frame <samples>``."""
        with self._lock:
            return "\n".join(
                f"{';'.join(path)} {count}"
                for path, count in sorted(self._counts.items())
            )
