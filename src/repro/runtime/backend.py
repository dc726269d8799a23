"""Scheduler backends: one trial contract, two execution substrates.

The soak harness and the runtime bench drive offered-load trials through a
common :class:`Backend` interface; where the work actually executes is a
backend choice:

- :class:`InProcessBackend` — everything in the calling process on the
  wall clock: the seed's single-process shape, measured honestly. This is
  the bench's baseline.
- :class:`ProcessBackend` — the real service topology: scoring workers,
  SDL shards, and the LLM analyzer as supervised OS processes behind
  :class:`~repro.runtime.supervisor.Supervisor`, TLV frames over Unix
  sockets, redispatch-on-crash.

Both run an **open-loop** offered load: record ``j`` is due at
``j/rate`` and its latency is measured against that nominal arrival (not
the actual offer instant), so a backend that falls behind pays the backlog
as latency instead of silently slowing the generator (no coordinated
omission). Ingest is a :class:`~repro.scale.batcher.BoundedBatcher` in
every backend, and the backpressure invariant
``offered == scored + dropped + pending`` is tracked **across the process
boundary**: in-flight rows (dispatched to a worker, not yet acked) and
rows parked for a restarting worker count as pending.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.ml.detector import AnomalyDetector
from repro.ml.serialize import dumps_detector
from repro.obs.metrics import MetricsRegistry
from repro.scale.batcher import BoundedBatcher
from repro.scale.hashring import ConsistentHashRing
from repro.runtime import messages
from repro.runtime.settings import RuntimeSettings
from repro.runtime.supervisor import Supervisor, WorkerSpec
from repro.runtime.transport import TransportError
from repro.runtime import workers as worker_mains

SDL_NS = "xsec.runtime"


@dataclass
class RuntimeTrial:
    """One (backend, rate) offered-load trial."""

    backend: str
    offered_rate: float
    offered: int
    completed: int
    dropped: int
    makespan_s: float
    max_latency_s: float
    p99_latency_s: float
    wall_s: float
    # Process-backend extras (zero/None elsewhere).
    restarts: int = 0
    killed_worker: Optional[str] = None
    redispatched_batches: int = 0
    duplicate_acks: int = 0
    acked_score_loss: int = 0
    analyses: int = 0
    sdl_acked: int = 0
    invariant: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.completed / self.makespan_s if self.makespan_s else 0.0

    def ok(self, budget_s: float) -> bool:
        return (
            self.dropped == 0
            and self.completed == self.offered
            and self.max_latency_s <= budget_s
            and self.acked_score_loss == 0
            and self.invariant.get("ok", True)
        )

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "offered_rate": self.offered_rate,
            "offered": self.offered,
            "completed": self.completed,
            "dropped": self.dropped,
            "throughput": self.throughput,
            "makespan_s": self.makespan_s,
            "max_latency_s": self.max_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "wall_s": self.wall_s,
            "restarts": self.restarts,
            "killed_worker": self.killed_worker,
            "redispatched_batches": self.redispatched_batches,
            "duplicate_acks": self.duplicate_acks,
            "acked_score_loss": self.acked_score_loss,
            "analyses": self.analyses,
            "sdl_acked": self.sdl_acked,
            "invariant": self.invariant,
        }


def _finish(latencies: List[float]) -> tuple[float, float]:
    if not latencies:
        return 0.0, 0.0
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return ordered[-1], p99


class Backend(abc.ABC):
    """One offered-load execution substrate (see module docstring)."""

    name: str = "backend"

    @abc.abstractmethod
    def start(self, detector: AnomalyDetector) -> None:
        """Deploy the trained detector; bring up whatever the backend runs on."""

    @abc.abstractmethod
    def run_trial(
        self,
        bank: list,
        rate: float,
        duration_s: float,
        *,
        kill_at_s: Optional[float] = None,
    ) -> RuntimeTrial:
        """Offer ``rate`` windows/s for ``duration_s``; score all of them."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InProcessBackend(Backend):
    """Single-process wall-clock baseline: the seed's shape, measured."""

    name = "inproc"

    def __init__(self, settings: Optional[RuntimeSettings] = None) -> None:
        self.settings = settings or RuntimeSettings()
        self.detector: Optional[AnomalyDetector] = None

    def start(self, detector: AnomalyDetector) -> None:
        self.detector = detector

    def run_trial(
        self,
        bank: list,
        rate: float,
        duration_s: float,
        *,
        kill_at_s: Optional[float] = None,
    ) -> RuntimeTrial:
        if self.detector is None:
            raise RuntimeError("start() the backend before running trials")
        if kill_at_s is not None:
            raise ValueError("the in-process backend has no worker to kill")
        settings = self.settings
        latencies: List[float] = []
        makespan = [0.0]
        wall_start = time.perf_counter()
        clock = lambda: time.perf_counter() - wall_start  # noqa: E731

        def deliver(batch: list) -> None:
            # Seed-identical scoring shape: one [1, dim] call per window.
            for arrival, _, _, vector in batch:
                self.detector.scores(vector.reshape(1, -1))
                done = clock()
                latencies.append(done - arrival)
                makespan[0] = max(makespan[0], done)

        batcher = BoundedBatcher(
            deliver,
            capacity=settings.queue_capacity,
            flush_records=settings.dispatch_records,
            drop_policy=settings.drop_policy,
            clock=clock,
        )
        n = max(1, int(rate * duration_s))
        j = 0
        last_flush = 0.0
        while j < n:
            now = clock()
            arrival = j / rate
            if now >= arrival:
                session_id, vector = bank[j % len(bank)]
                batcher.offer((arrival, j, session_id, vector))
                j += 1
            else:
                if batcher.pending and now - last_flush >= settings.dispatch_interval_s:
                    batcher.flush_now()
                    last_flush = now
                time.sleep(min(arrival - now, 0.002))
        batcher.close()
        max_lat, p99 = _finish(latencies)
        return RuntimeTrial(
            backend=self.name,
            offered_rate=rate,
            offered=n,
            completed=len(latencies),
            dropped=batcher.dropped,
            makespan_s=makespan[0],
            max_latency_s=max_lat,
            p99_latency_s=p99,
            wall_s=time.perf_counter() - wall_start,
            invariant={
                "offered": batcher.offered,
                "scored": len(latencies),
                "dropped": batcher.dropped,
                "pending": batcher.pending,
                "ok": batcher.offered == len(latencies) + batcher.dropped + batcher.pending,
            },
        )

    def close(self) -> None:
        self.detector = None


class ProcessBackend(Backend):
    """The real service topology: supervised worker processes over sockets."""

    name = "process"

    def __init__(
        self,
        settings: Optional[RuntimeSettings] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        crash_after_batches: Optional[int] = None,
    ) -> None:
        self.settings = settings or RuntimeSettings()
        self.metrics = metrics or MetricsRegistry()
        self.supervisor: Optional[Supervisor] = None
        self.detector: Optional[AnomalyDetector] = None
        self._ring: Optional[ConsistentHashRing] = None
        self._scoring: List[str] = []
        self._shards: List[str] = []
        self._crash_after_batches = crash_after_batches
        self._batch_seq = 0
        self._write_seq = 0
        self._analyze_seq = 0
        self.closed = False

    # -- lifecycle -------------------------------------------------------------

    def start(self, detector: AnomalyDetector) -> None:
        self.detector = detector
        blob = dumps_detector(detector)
        settings = self.settings
        sup = Supervisor(settings, metrics=self.metrics)
        self._scoring = [f"score-{i}" for i in range(settings.workers)]
        for name in self._scoring:
            kwargs: dict = {"detector_blob": blob}
            if self._crash_after_batches is not None:
                kwargs["crash_after_batches"] = self._crash_after_batches
            sup.add_worker(
                WorkerSpec(name, worker_mains.scoring_worker_main, kwargs, kind="scoring")
            )
        self._shards = [f"sdl-{i}" for i in range(settings.sdl_shards)]
        for name in self._shards:
            sup.add_worker(WorkerSpec(name, worker_mains.sdl_shard_main, kind="sdl"))
        if settings.analyzer:
            sup.add_worker(
                WorkerSpec("analyzer-0", worker_mains.analyzer_worker_main, kind="analyzer")
            )
        sup.start()
        self.supervisor = sup
        self._ring = ConsistentHashRing(self._scoring)
        self._await_up(timeout_s=30.0)

    def _await_up(self, timeout_s: float) -> None:
        assert self.supervisor is not None
        deadline = time.monotonic() + timeout_s
        names = self.supervisor.worker_names()
        while time.monotonic() < deadline:
            if all(self.supervisor.is_up(name) for name in names):
                return
            self.supervisor.poll(timeout_s=0.2)
        missing = [n for n in names if not self.supervisor.is_up(n)]
        raise TransportError(f"workers never connected: {missing}")

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.supervisor is not None:
            self.supervisor.shutdown()
            self.supervisor = None

    # -- the trial -------------------------------------------------------------

    def run_trial(
        self,
        bank: list,
        rate: float,
        duration_s: float,
        *,
        kill_at_s: Optional[float] = None,
    ) -> RuntimeTrial:
        if self.supervisor is None or self.detector is None:
            raise RuntimeError("start() the backend before running trials")
        sup = self.supervisor
        settings = self.settings
        threshold = self.detector.threshold.threshold or float("inf")
        analyzer_up = settings.analyzer and "analyzer-0" in sup.worker_names()

        latencies: List[float] = []
        makespan = [0.0]
        # batch_id -> {"worker", "session_ids", "matrix", "arrivals"}
        inflight: Dict[int, dict] = {}
        # Rows whose target worker was down at dispatch time; retried in pump.
        parked: List[tuple] = []  # (arrival, j, session_id, vector)
        write_inflight: Dict[int, dict] = {}  # write_id -> {"worker", "msg"}
        counters = {
            "redispatched": 0,
            "duplicates": 0,
            "analyses": 0,
            "sdl_acked": 0,
        }
        restarts_before = sum(
            state["restarts"] for state in sup.health().values()
        )
        killed = [None]
        wall_start = time.perf_counter()
        clock = lambda: time.perf_counter() - wall_start  # noqa: E731

        def up_scoring() -> List[str]:
            return [name for name in self._scoring if sup.is_up(name)]

        def target_for(session_id) -> Optional[str]:
            assert self._ring is not None
            preferred = self._ring.lookup(str(session_id))
            if sup.is_up(preferred):
                return preferred
            up = up_scoring()
            if not up:
                return None
            return up[hash(str(session_id)) % len(up)]

        def dispatch(rows: List[tuple]) -> None:
            """Group rows by target worker; one batch-atomic message each."""
            groups: Dict[str, List[tuple]] = {}
            for row in rows:
                worker = target_for(row[2])
                if worker is None:
                    parked.append(row)
                    continue
                groups.setdefault(worker, []).append(row)
            for worker, grouped in groups.items():
                self._batch_seq += 1
                batch_id = self._batch_seq
                matrix = np.stack([row[3] for row in grouped])
                entry = {
                    "worker": worker,
                    "rows": grouped,
                    "matrix": matrix,
                }
                try:
                    sup.send(
                        worker,
                        messages.score_batch(
                            batch_id, [row[2] for row in grouped], matrix
                        ),
                    )
                except TransportError:
                    parked.extend(grouped)
                    continue
                inflight[batch_id] = entry

        def deliver(batch: List[tuple]) -> None:
            dispatch(batch)
            for arrival, j, session_id, _ in batch:
                self._write_seq += 1
                write_id = self._write_seq
                shard = self._shards[hash(str(session_id)) % len(self._shards)]
                msg = messages.sdl_write(
                    write_id, SDL_NS, f"{j:09d}", {"t": arrival, "s": session_id}
                )
                entry = {"worker": shard, "msg": msg}
                write_inflight[write_id] = entry
                if sup.is_up(shard):
                    try:
                        sup.send(shard, msg)
                    except TransportError:
                        pass  # resent when the shard comes back up

        batcher = BoundedBatcher(
            deliver,
            capacity=settings.queue_capacity,
            flush_records=settings.dispatch_records,
            drop_policy=settings.drop_policy,
            clock=clock,
        )

        def handle_msg(worker: str, msg: dict) -> None:
            kind = msg.get("t")
            if kind == messages.SCORE_RESULT:
                entry = inflight.pop(msg["batch_id"], None)
                if entry is None:
                    counters["duplicates"] += 1
                    return
                done = clock()
                for row, score in zip(entry["rows"], msg["scores"]):
                    arrival, j, session_id, _ = row
                    latencies.append(done - arrival)
                    makespan[0] = max(makespan[0], done)
                    if analyzer_up and score > threshold:
                        self._analyze_seq += 1
                        try:
                            sup.send(
                                "analyzer-0",
                                messages.analyze(
                                    self._analyze_seq,
                                    {
                                        "session_id": session_id,
                                        "score": float(score),
                                        "threshold": float(threshold),
                                        "records": [],
                                    },
                                ),
                            )
                        except TransportError:
                            pass
            elif kind == messages.SDL_ACK:
                if write_inflight.pop(msg["write_id"], None) is not None:
                    counters["sdl_acked"] += 1
            elif kind == messages.ANALYSIS:
                counters["analyses"] += 1

        def pump(timeout_s: float) -> None:
            for event in sup.poll(timeout_s=timeout_s):
                if event.kind == "msg":
                    handle_msg(event.worker, event.msg)
                elif event.kind == "died":
                    # Redispatch every unacked batch the dead worker held;
                    # its drained acks were already delivered above, so
                    # nothing acked is ever re-scored or lost.
                    stale = [
                        bid
                        for bid, entry in inflight.items()
                        if entry["worker"] == event.worker
                    ]
                    rows: List[tuple] = []
                    for bid in stale:
                        rows.extend(inflight.pop(bid)["rows"])
                    if rows:
                        counters["redispatched"] += len(stale)
                        dispatch(rows)
                elif event.kind == "up":
                    if sup.worker_kind(event.worker) == "sdl":
                        for entry in write_inflight.values():
                            if entry["worker"] == event.worker:
                                try:
                                    sup.send(event.worker, entry["msg"])
                                except TransportError:
                                    break
                    if parked:
                        rows, parked[:] = list(parked), []
                        dispatch(rows)

        n = max(1, int(rate * duration_s))
        j = 0
        last_flush = 0.0
        while j < n:
            now = clock()
            if kill_at_s is not None and killed[0] is None and now >= kill_at_s:
                victim = up_scoring()[0] if up_scoring() else None
                if victim is not None:
                    sup.kill_worker(victim)
                    killed[0] = victim
            arrival = j / rate
            if now >= arrival:
                session_id, vector = bank[j % len(bank)]
                batcher.offer((arrival, j, session_id, vector))
                j += 1
                if j % 256 == 0:
                    pump(0.0)
            else:
                if batcher.pending and now - last_flush >= settings.dispatch_interval_s:
                    batcher.flush_now()
                    last_flush = now
                pump(min(arrival - now, 0.01))
        batcher.close()
        # Completion barrier: every dispatched row acked, every parked row
        # redispatched, every SDL write acknowledged.
        deadline = time.monotonic() + settings.drain_timeout_s + duration_s
        while (inflight or parked or write_inflight) and time.monotonic() < deadline:
            if parked and up_scoring():
                rows, parked[:] = list(parked), []
                dispatch(rows)
            pump(0.05)
        restarts = (
            sum(state["restarts"] for state in sup.health().values()) - restarts_before
        )
        pending = (
            batcher.pending
            + sum(len(entry["rows"]) for entry in inflight.values())
            + len(parked)
        )
        max_lat, p99 = _finish(latencies)
        return RuntimeTrial(
            backend=self.name,
            offered_rate=rate,
            offered=n,
            completed=len(latencies),
            dropped=batcher.dropped,
            makespan_s=makespan[0],
            max_latency_s=max_lat,
            p99_latency_s=p99,
            wall_s=time.perf_counter() - wall_start,
            restarts=restarts,
            killed_worker=killed[0],
            redispatched_batches=counters["redispatched"],
            duplicate_acks=counters["duplicates"],
            acked_score_loss=counters["duplicates"],  # an acked batch scored twice
            analyses=counters["analyses"],
            sdl_acked=counters["sdl_acked"],
            invariant={
                "offered": batcher.offered,
                "scored": len(latencies),
                "dropped": batcher.dropped,
                "pending": pending,
                "ok": batcher.offered == len(latencies) + batcher.dropped + pending,
            },
        )


def make_backend(name: str, settings: Optional[RuntimeSettings] = None, **kwargs) -> Backend:
    if name == "inproc":
        return InProcessBackend(settings)
    if name == "process":
        return ProcessBackend(settings, **kwargs)
    raise ValueError(f"unknown backend {name!r} (have: inproc, process)")
