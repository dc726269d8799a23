"""Process supervisor: spawn, watch, restart, and drain runtime workers.

One ``Supervisor`` owns the Unix-socket listener plus every worker
process. Its event loop (:meth:`poll`) multiplexes, via ``select``, the
listener, every worker connection, and every worker's *process sentinel*
— so both messages and deaths wake the loop immediately.

Failure model (docs/RUNTIME.md):

- **Restart triggers on process death only** (sentinel or EOF), never on
  heartbeat staleness — a busy worker on a loaded box is degraded, not
  dead, and restarting it would lose its in-flight batch for nothing.
- **Bounded exponential backoff** between restarts:
  ``min(backoff_base_s * 2**n, backoff_max_s)`` for the n-th recent crash.
- **Crash-loop detection**: more than ``max_restarts`` crashes inside
  ``crash_loop_window_s`` marks the worker *failed* — it stays down and
  the caller decides (the scoring pool treats a failed worker as a hard
  error).
- **Death drains the socket first**: a SIGKILL'd worker may have acked
  work whose bytes still sit in the kernel buffer. Those acks are
  delivered as normal events *before* the death event, which is what lets
  the caller's redispatch logic guarantee zero acked-write loss.

The supervisor yields :class:`SupervisorEvent` tuples; policy above the
transport (dispatch, redispatch, invariants) lives in the one caller,
:class:`repro.runtime.bridge.ProcessScoringPool`.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import select
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.runtime import messages
from repro.runtime.settings import RuntimeSettings, default_start_method
from repro.runtime.transport import Listener, MsgConnection, TransportError

# Worker lifecycle states.
STARTING = "starting"  # spawned, hello not yet seen
UP = "up"  # connected and heartbeating
DEGRADED = "degraded"  # up, but heartbeat is stale
RESTARTING = "restarting"  # dead, waiting out the backoff
FAILED = "failed"  # crash loop — will not be restarted
STOPPED = "stopped"  # exited under drain/shutdown

# How long shutdown waits for workers to finish pending work and exit on
# their own before terminating them.
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class SupervisorEvent:
    """One thing that happened during a poll round."""

    kind: str  # "up" | "msg" | "died" | "restarting" | "failed" | "stopped"
    worker: str
    msg: Optional[dict] = None  # for kind == "msg"
    exitcode: Optional[int] = None  # for kind == "died"
    delay_s: Optional[float] = None  # for kind == "restarting"


@dataclass
class WorkerSpec:
    """How to (re)start one worker process."""

    name: str
    target: Callable[..., None]
    kwargs: Dict[str, Any] = field(default_factory=dict)


class _WorkerState:
    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[MsgConnection] = None
        self.state = STOPPED
        self.restarts = 0
        self.crash_times: collections.deque = collections.deque()
        self.restart_at = 0.0
        self.last_heartbeat = 0.0
        self.processed = 0


class Supervisor:
    """Spawns workers against one listener; restarts them when they die."""

    def __init__(
        self,
        settings: Optional[RuntimeSettings] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        socket_dir: Optional[str] = None,
    ) -> None:
        self.settings = settings or RuntimeSettings()
        self.listener = Listener(socket_dir)
        self._ctx = multiprocessing.get_context(default_start_method())
        self._workers: Dict[str, _WorkerState] = {}
        self._unbound: List[MsgConnection] = []
        self._draining = False
        self.closed = False
        metrics = metrics or MetricsRegistry()
        self._restarts_counter = metrics.counter(
            "runtime.worker_restarts_total", help="worker processes respawned"
        )
        self._crashes_counter = metrics.counter(
            "runtime.worker_crashes_total", help="unexpected worker deaths"
        )
        metrics.gauge(
            "runtime.workers_up",
            fn=lambda: float(
                sum(1 for w in self._workers.values() if w.state in (UP, DEGRADED))
            ),
            help="workers currently connected",
        )
        metrics.gauge(
            "runtime.workers_failed",
            fn=lambda: float(
                sum(1 for w in self._workers.values() if w.state == FAILED)
            ),
            help="workers taken out by crash-loop detection",
        )

    # -- lifecycle -------------------------------------------------------------

    def add_worker(self, spec: WorkerSpec) -> None:
        if spec.name in self._workers:
            raise ValueError(f"duplicate worker name {spec.name!r}")
        self._workers[spec.name] = _WorkerState(spec)

    def start(self) -> None:
        for state in self._workers.values():
            if state.process is None:
                self._spawn(state)

    def _spawn(self, state: _WorkerState) -> None:
        kwargs = dict(state.spec.kwargs)
        kwargs.setdefault("heartbeat_interval_s", self.settings.heartbeat_interval_s)
        process = self._ctx.Process(
            target=state.spec.target,
            kwargs={"name": state.spec.name, "socket_path": self.listener.path, **kwargs},
            name=f"xsec-{state.spec.name}",
            daemon=True,
        )
        process.start()
        state.process = process
        state.state = STARTING
        state.last_heartbeat = time.monotonic()

    # -- introspection ---------------------------------------------------------

    def worker_names(self) -> List[str]:
        return list(self._workers)

    def worker_state(self, name: str) -> str:
        return self._workers[name].state

    def is_up(self, name: str) -> bool:
        return self._workers[name].state in (UP, DEGRADED)

    def health(self) -> dict:
        """Per-worker liveness snapshot (the scoreboard's probe input)."""
        now = time.monotonic()
        out = {}
        for name, state in self._workers.items():
            stale = (
                state.state in (UP, DEGRADED)
                and now - state.last_heartbeat > self.settings.heartbeat_timeout_s
            )
            out[name] = {
                "state": DEGRADED if stale else state.state,
                "restarts": state.restarts,
                "processed": state.processed,
                "heartbeat_age_s": now - state.last_heartbeat,
            }
        return out

    # -- messaging -------------------------------------------------------------

    def send(self, name: str, msg: dict) -> None:
        state = self._workers[name]
        if state.conn is None:
            raise TransportError(f"worker {name!r} is not connected")
        state.conn.send_msg(msg)

    # -- the event loop --------------------------------------------------------

    def poll(self, timeout_s: float = 0.1) -> List[SupervisorEvent]:
        """One multiplex round: messages in, deaths handled, restarts due."""
        events: List[SupervisorEvent] = []
        deadline = time.monotonic() + max(0.0, timeout_s)
        while True:
            events.extend(self._respawn_due())
            now = time.monotonic()
            wait = deadline - now
            next_restart = self._next_restart_in()
            if next_restart is not None:
                wait = min(wait, next_restart)
            readers: List[Any] = [self.listener]
            readers.extend(self._unbound)
            sentinels: Dict[int, str] = {}
            for name, state in self._workers.items():
                if state.conn is not None:
                    readers.append(state.conn)
                if state.process is not None and state.state not in (FAILED, STOPPED):
                    sentinels[state.process.sentinel] = name
            try:
                ready, _, _ = select.select(
                    readers + list(sentinels), [], [], max(0.0, wait)
                )
            except InterruptedError:
                ready = []
            if not ready:
                if time.monotonic() >= deadline:
                    return events
                continue
            dead: List[str] = []
            for item in ready:
                if item is self.listener:
                    self._unbound.append(self.listener.accept())
                elif isinstance(item, MsgConnection):
                    events.extend(self._read_conn(item))
                else:  # a process sentinel fired
                    dead.append(sentinels[item])
            for name in dead:
                events.extend(self._handle_death(name))
            if events or time.monotonic() >= deadline:
                return events

    def _read_conn(self, conn: MsgConnection) -> List[SupervisorEvent]:
        events: List[SupervisorEvent] = []
        try:
            msgs = conn.recv_msgs_once()
        except TransportError:
            msgs = []
            conn.eof = True
        for msg in msgs:
            events.extend(self._route(conn, msg))
        if conn.eof:
            if conn in self._unbound:
                self._unbound.remove(conn)
                conn.close()
            else:
                for name, state in self._workers.items():
                    if state.conn is conn:
                        events.extend(self._handle_death(name))
                        break
        return events

    def _route(self, conn: MsgConnection, msg: dict) -> List[SupervisorEvent]:
        kind = msg.get("t")
        if kind == messages.HELLO:
            name = msg.get("worker")
            state = self._workers.get(name)
            if state is None:
                conn.close()
                if conn in self._unbound:
                    self._unbound.remove(conn)
                return []
            if conn in self._unbound:
                self._unbound.remove(conn)
            conn.name = name
            state.conn = conn
            state.state = UP
            state.last_heartbeat = time.monotonic()
            return [SupervisorEvent("up", name)]
        worker = conn.name if conn.name != "?" else msg.get("worker", "?")
        if kind == messages.HEARTBEAT:
            state = self._workers.get(worker)
            if state is not None:
                state.last_heartbeat = time.monotonic()
                state.processed = int(msg.get("processed", state.processed))
                if state.state == DEGRADED:
                    state.state = UP
            return []
        return [SupervisorEvent("msg", worker, msg=msg)]

    def _handle_death(self, name: str) -> List[SupervisorEvent]:
        state = self._workers[name]
        if state.state in (RESTARTING, FAILED, STOPPED):
            return []
        events: List[SupervisorEvent] = []
        exitcode = None
        if state.process is not None:
            state.process.join(timeout=1.0)
            exitcode = state.process.exitcode
        # Deliver kernel-buffered acks before announcing the death: an ack
        # that made it onto the wire is an ack, even if the sender is gone.
        if state.conn is not None:
            for msg in state.conn.drain_eof():
                events.extend(self._route(state.conn, msg))
            state.conn.close()
            state.conn = None
        if self._draining and exitcode == 0:
            state.state = STOPPED
            events.append(SupervisorEvent("stopped", name))
            return events
        self._crashes_counter.inc()
        events.append(SupervisorEvent("died", name, exitcode=exitcode))
        now = time.monotonic()
        state.crash_times.append(now)
        while state.crash_times and now - state.crash_times[0] > self.settings.crash_loop_window_s:
            state.crash_times.popleft()
        if len(state.crash_times) > self.settings.max_restarts:
            state.state = FAILED
            events.append(SupervisorEvent("failed", name))
            return events
        delay = min(
            self.settings.backoff_base_s * (2 ** (len(state.crash_times) - 1)),
            self.settings.backoff_max_s,
        )
        state.state = RESTARTING
        state.restart_at = now + delay
        events.append(SupervisorEvent("restarting", name, delay_s=delay))
        return events

    def _next_restart_in(self) -> Optional[float]:
        due = [
            state.restart_at
            for state in self._workers.values()
            if state.state == RESTARTING
        ]
        if not due:
            return None
        return max(0.0, min(due) - time.monotonic())

    def _respawn_due(self) -> List[SupervisorEvent]:
        events: List[SupervisorEvent] = []
        now = time.monotonic()
        for state in self._workers.values():
            if self._draining:
                break
            if state.state == RESTARTING and now >= state.restart_at:
                state.restarts += 1
                self._restarts_counter.inc()
                self._spawn(state)
        return events

    # -- fault injection -------------------------------------------------------

    def kill_worker(self, name: str) -> int:
        """SIGKILL one worker (the soak harness's fault injector)."""
        state = self._workers[name]
        if state.process is None or not state.process.is_alive():
            raise RuntimeError(f"worker {name!r} is not running")
        pid = state.process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- drain / shutdown ------------------------------------------------------

    def drain(self, timeout_s: Optional[float] = None) -> List[SupervisorEvent]:
        """Ask every worker to finish pending work and exit; wait for them."""
        timeout_s = DRAIN_TIMEOUT_S if timeout_s is None else timeout_s
        self._draining = True
        for name, state in self._workers.items():
            if state.conn is not None:
                try:
                    state.conn.send_msg(messages.drain())
                except TransportError:
                    pass
        events: List[SupervisorEvent] = []
        deadline = time.monotonic() + timeout_s
        while not all(
            state.state in (STOPPED, FAILED, RESTARTING)
            for state in self._workers.values()
        ):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            events.extend(self.poll(timeout_s=min(0.2, remaining)))
        return events

    def shutdown(self) -> None:
        """Drain, then terminate stragglers. Idempotent."""
        if self.closed:
            return
        self.closed = True
        try:
            self.drain()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
        for state in self._workers.values():
            process = state.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            if state.conn is not None:
                state.conn.close()
                state.conn = None
            state.state = STOPPED
        for conn in self._unbound:
            conn.close()
        self._unbound.clear()
        self.listener.close()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
