"""``ProcessScoringPool``: MobiWatch's window scoring in real worker processes.

A drop-in for the surface of :class:`repro.scale.pool.InferencePool` that
MobiWatch and the health scoreboard use (``submit``/``flush``/``pending``/
``stats``/``close``/``worker_names``/``worker_backlog``), but whose
``flush`` ships the pending windows to supervised OS processes over the
TLV socket transport and blocks until every score is acked — restarting
and redispatching transparently if a worker dies mid-flush.

Two properties make this safe to put behind ``XsecConfig.runtime``
without perturbing the reproduction:

- **Bit-identity**: the worker scores its batch with one row-exact kernel
  call (``scores(matrix, per_row=True)`` — a full-height GEMM is *not*
  bitwise equal to row-wise calls, the GEMV stack of
  :mod:`repro.ml.compiled` is), and the same NumPy computes it, so every
  float64 score is identical to in-process scoring.
- **Sim-time transparency**: the blocking flush happens *between* two
  simulator events; ``completed_at`` is taken from the injected sim
  clock, which does not advance during the flush. AnomalyEvent
  timestamps therefore match the seed stream exactly (enforced on all
  five attack captures by ``tests/test_runtime.py``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.ml.detector import AnomalyDetector
from repro.ml.serialize import dumps_detector
from repro.obs.metrics import MetricsRegistry
from repro.runtime import messages
from repro.runtime import workers as worker_mains
from repro.runtime.settings import RuntimeSettings
from repro.runtime.supervisor import Supervisor, WorkerSpec
from repro.runtime.transport import TransportError
from repro.scale.hashring import ConsistentHashRing
from repro.scale.pool import ScoreCallback


class ProcessScoringPool:
    """Window-scoring pool backed by supervised worker processes."""

    def __init__(
        self,
        detector: AnomalyDetector,
        settings: Optional[RuntimeSettings] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        name: str = "mobiwatch",
        flush_timeout_s: float = 60.0,
    ) -> None:
        self.settings = settings or RuntimeSettings()
        self._clock = clock or (lambda: 0.0)
        self.name = name
        self.flush_timeout_s = flush_timeout_s
        self._worker_names = [f"{name}-score-{i}" for i in range(self.settings.workers)]
        self._ring = (
            ConsistentHashRing(self._worker_names)
            if len(self._worker_names) > 1
            else None
        )
        self._pending: List[tuple] = []  # (worker, session_id, vector, callback)
        self._batch_seq = 0
        self.windows_scored = 0
        self.batches = 0
        self.redispatched_batches = 0
        self.callback_errors = 0
        self.closed = False
        metrics = metrics or MetricsRegistry()
        pool_label = {"pool": name}
        self._batches_counter = metrics.counter(
            "pool.batches_total", labels=pool_label, help="score batches dispatched"
        )
        self._windows_hist = metrics.histogram(
            "pool.windows_per_batch",
            labels=pool_label,
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            help="windows per dispatched batch",
        )
        self._redispatch_counter = metrics.counter(
            "runtime.batches_redispatched_total",
            labels=pool_label,
            help="score batches re-sent after a worker death",
        )
        metrics.gauge(
            "pool.queue_depth",
            labels=pool_label,
            fn=lambda: len(self._pending),
            help="queued window-scoring requests",
        )
        self.supervisor = Supervisor(self.settings, metrics=metrics)
        blob = dumps_detector(detector)
        for worker in self._worker_names:
            self.supervisor.add_worker(
                WorkerSpec(
                    worker,
                    worker_mains.scoring_worker_main,
                    {"detector_blob": blob},
                    kind="scoring",
                )
            )
        self.supervisor.start()
        self._await_up()
        for worker in self._worker_names:
            metrics.gauge(
                "pool.worker_backlog",
                labels={"pool": name, "worker": worker},
                fn=lambda w=worker: float(self.worker_backlog(w)),
                help="queued requests assigned to the worker",
            )

    def _await_up(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(self.supervisor.is_up(w) for w in self._worker_names):
                return
            self.supervisor.poll(timeout_s=0.2)
        missing = [w for w in self._worker_names if not self.supervisor.is_up(w)]
        raise TransportError(f"scoring workers never connected: {missing}")

    # -- InferencePool surface ---------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._worker_names)

    @property
    def worker_names(self) -> List[str]:
        return list(self._worker_names)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def worker_backlog(self, worker: str) -> int:
        return sum(1 for entry in self._pending if entry[0] == worker)

    def worker_for(self, session_id: Any) -> str:
        if self._ring is None:
            return self._worker_names[0]
        return self._ring.lookup(str(session_id))

    def submit(self, session_id: Any, vector: np.ndarray, callback: ScoreCallback) -> None:
        if self.closed:
            raise RuntimeError(f"pool {self.name!r} is closed")
        self._pending.append((self.worker_for(session_id), session_id, vector, callback))
        # No size-triggered auto-flush: MobiWatch flushes at its existing
        # event boundaries, which keeps the event-delivery order (and so
        # the AnomalyEvent stream) identical to the seed path.

    def flush(self) -> int:
        """Ship pending windows to the workers; block until all are scored."""
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        inflight: Dict[int, dict] = {}
        scores: Dict[int, List[float]] = {}

        def dispatch(rows: List[tuple]) -> None:
            groups: Dict[str, List[tuple]] = {}
            for row in rows:
                worker = row[0]
                if not self.supervisor.is_up(worker):
                    up = [w for w in self._worker_names if self.supervisor.is_up(w)]
                    worker = up[0] if up else row[0]
                groups.setdefault(worker, []).append(row)
            for worker, grouped in groups.items():
                self._batch_seq += 1
                batch_id = self._batch_seq
                matrix = np.stack([np.asarray(row[2], dtype=np.float64) for row in grouped])
                try:
                    self.supervisor.send(
                        worker,
                        messages.score_batch(batch_id, [row[1] for row in grouped], matrix),
                    )
                except TransportError:
                    # Worker vanished between is_up and send: park under its
                    # name; the death event redispatches.
                    inflight[self._batch_seq] = {"worker": worker, "rows": grouped}
                    continue
                inflight[batch_id] = {"worker": worker, "rows": grouped}
                self.batches += 1
                self._batches_counter.inc()
                self._windows_hist.observe(len(grouped))

        dispatch(pending)
        deadline = time.monotonic() + self.flush_timeout_s
        while inflight:
            if time.monotonic() > deadline:
                raise TransportError(
                    f"pool {self.name!r} flush timed out with "
                    f"{sum(len(e['rows']) for e in inflight.values())} windows unacked"
                )
            for event in self.supervisor.poll(timeout_s=0.1):
                if event.kind == "msg" and event.msg.get("t") == messages.SCORE_RESULT:
                    entry = inflight.pop(event.msg["batch_id"], None)
                    if entry is not None:
                        scores[event.msg["batch_id"]] = (entry, event.msg["scores"])
                elif event.kind == "died":
                    stale = [
                        bid
                        for bid, entry in inflight.items()
                        if entry["worker"] == event.worker
                    ]
                    rows: List[tuple] = []
                    for bid in stale:
                        rows.extend(inflight.pop(bid)["rows"])
                    if rows:
                        self.redispatched_batches += len(stale)
                        self._redispatch_counter.inc(len(stale))
                        dispatch(rows)
                elif event.kind == "failed":
                    raise TransportError(
                        f"scoring worker {event.worker!r} crash-looped; "
                        "cannot guarantee delivery"
                    )
        # Deliver every verdict in the original submission order: the
        # callbacks run alert logic whose event order must match the seed.
        completed_at = self._clock()
        by_row: Dict[int, float] = {}
        for entry, batch_scores in scores.values():
            for row, score in zip(entry["rows"], batch_scores):
                by_row[id(row)] = float(score)
        failures: List[BaseException] = []
        for row in pending:
            score = by_row[id(row)]
            self.windows_scored += 1
            try:
                row[3](score, completed_at)
            except Exception as exc:  # noqa: BLE001 - deliver the rest first
                self.callback_errors += 1
                failures.append(exc)
        if failures:
            raise failures[0]
        return len(pending)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> int:
        """Deliver pending scores, stop the workers. Idempotent."""
        if self.closed:
            return 0
        delivered = self.flush()
        self.closed = True
        self.supervisor.shutdown()
        return delivered

    def __enter__(self) -> "ProcessScoringPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "windows_scored": self.windows_scored,
            "batches": self.batches,
            "pending": self.pending,
            "redispatched_batches": self.redispatched_batches,
            "callback_errors": self.callback_errors,
            "closed": self.closed,
            "health": self.supervisor.health(),
        }
