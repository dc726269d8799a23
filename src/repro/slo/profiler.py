"""Continuous profiler: explicit hot-spot hooks (stdlib-only).

Instrumented call sites (MobiWatch's ingest and score stages, the
compiled kernels, sharded-SDL ops) report wall-clock durations under
stable stage names. Coarse call sites use the :func:`profile_block`
context manager; per-call-microsecond sites use the inline pattern below
so an *inactive* profiler costs one module-attribute load and an
``is None`` branch (~tens of ns)::

    prof = profiler.CURRENT
    if prof is not None:
        t0 = time.perf_counter()
        ...work...
        prof.record("stage.name", time.perf_counter() - t0)
    else:
        ...work...

Nested ``block()`` scopes attribute *self time* per stage (a parent's
total includes its children; its self time does not).

Activation is process-global (:func:`activate` / :func:`deactivate` set
:data:`CURRENT`): instrumented modules never need a profiler reference
threaded through their constructors, and the inactive cost stays a single
``None`` check on the hot paths.
"""

from __future__ import annotations

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
