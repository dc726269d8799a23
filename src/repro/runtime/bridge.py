"""``ProcessScoringPool``: MobiWatch's window scoring in real worker processes.

A score provider for MobiWatch's tick: :meth:`ProcessScoringPool.scores`
takes the tick's gather matrix (one flattened window per row, plus the
session id of each row), ships the rows to supervised OS processes over
the TLV socket transport and blocks until every score is acked —
restarting and redispatching transparently if a worker dies mid-call.

Two properties make this safe to put behind ``XsecConfig.runtime``
without perturbing the reproduction:

- **Bit-identity**: a worker scores its batch with one row-exact kernel
  call (``scores(matrix, per_row=True)`` — a full-height GEMM is *not*
  bitwise equal to row-wise calls, the GEMV stack of
  :mod:`repro.ml.compiled` is), and the same NumPy computes it, so every
  float64 score is identical to in-process scoring.
- **Sim-time transparency**: the blocking call happens *inside* one
  simulator event, so the sim clock does not advance across it and
  MobiWatch stamps ``AnomalyEvent.detected_at`` exactly as on the inline
  path (enforced on all five attack captures by ``tests/test_runtime.py``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

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


class ProcessScoringPool:
    """Row-exact window scoring in supervised worker processes."""

    def __init__(
        self,
        detector: AnomalyDetector,
        settings: Optional[RuntimeSettings] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "mobiwatch",
        timeout_s: float = 60.0,
    ) -> None:
        self.settings = settings or RuntimeSettings()
        self.name = name
        self.timeout_s = timeout_s
        self._worker_names = [f"{name}-score-{i}" for i in range(self.settings.workers)]
        self._ring = (
            ConsistentHashRing(self._worker_names)
            if len(self._worker_names) > 1
            else None
        )
        self._batch_seq = 0
        self.windows_scored = 0
        self.batches = 0
        self.redispatched_batches = 0
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
        self.supervisor = Supervisor(self.settings, metrics=metrics)
        blob = dumps_detector(detector)
        for worker in self._worker_names:
            self.supervisor.add_worker(
                WorkerSpec(
                    worker,
                    worker_mains.scoring_worker_main,
                    {"detector_blob": blob},
                )
            )
        self.supervisor.start()
        self._await_up()

    def _await_up(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(self.supervisor.is_up(w) for w in self._worker_names):
                return
            self.supervisor.poll(timeout_s=0.2)
        missing = [w for w in self._worker_names if not self.supervisor.is_up(w)]
        raise TransportError(f"scoring workers never connected: {missing}")

    @property
    def workers(self) -> int:
        return len(self._worker_names)

    def worker_for(self, session_id: Any) -> str:
        """Deterministic worker assignment (UE/session sharding)."""
        if self._ring is None:
            return self._worker_names[0]
        return self._ring.lookup(str(session_id))

    # -- scoring -----------------------------------------------------------------

    def scores(self, session_ids: Sequence, matrix: np.ndarray) -> List[float]:
        """Score ``matrix`` row by row in the workers; block until all acked.

        Row ``i`` is the flattened window of ``session_ids[i]``; rows are
        sharded to workers by session id and travel as one batch-atomic
        ``SCORE_BATCH`` frame per worker. A batch whose worker dies before
        acking it is re-sent whole (to a surviving worker, or to the
        restarted one), an ack drained from a dead worker's socket is
        honoured, and a late duplicate ack is ignored: every row is scored
        exactly once. Returns the scores in row order.
        """
        if self.closed:
            raise RuntimeError(f"pool {self.name!r} is closed")
        out: List[float] = [0.0] * len(session_ids)
        # batch_id -> (worker, row indices): sent (or parked) and not yet acked.
        inflight: Dict[int, tuple] = {}
        supervisor = self.supervisor

        def dispatch(rows: List[int]) -> None:
            up = [w for w in self._worker_names if supervisor.is_up(w)]
            groups: Dict[str, List[int]] = {}
            for row in rows:
                worker = self.worker_for(session_ids[row])
                if up and worker not in up:
                    worker = up[0]
                groups.setdefault(worker, []).append(row)
            for worker, grouped in groups.items():
                self._batch_seq += 1
                inflight[self._batch_seq] = (worker, grouped)
                try:
                    supervisor.send(
                        worker,
                        messages.score_batch(
                            self._batch_seq,
                            [session_ids[row] for row in grouped],
                            np.asarray(matrix[grouped], dtype=np.float64),
                        ),
                    )
                except TransportError:
                    # The worker is gone (or not back yet): the batch stays
                    # parked under its name until its death / return event.
                    continue
                self.batches += 1
                self._batches_counter.inc()
                self._windows_hist.observe(len(grouped))

        def redispatch(worker: str) -> int:
            stale = [bid for bid, entry in inflight.items() if entry[0] == worker]
            dispatch([row for bid in stale for row in inflight.pop(bid)[1]])
            return len(stale)

        dispatch(list(range(len(session_ids))))
        deadline = time.monotonic() + self.timeout_s
        while inflight:
            if time.monotonic() > deadline:
                raise TransportError(
                    f"pool {self.name!r} timed out with "
                    f"{sum(len(rows) for _, rows in inflight.values())} windows unacked"
                )
            for event in supervisor.poll(timeout_s=0.1):
                if event.kind == "msg" and event.msg.get("t") == messages.SCORE_RESULT:
                    entry = inflight.pop(event.msg["batch_id"], None)
                    if entry is not None:
                        for row, score in zip(entry[1], event.msg["scores"]):
                            out[row] = float(score)
                elif event.kind == "died":
                    resent = redispatch(event.worker)
                    self.redispatched_batches += resent
                    self._redispatch_counter.inc(resent)
                elif event.kind == "up":
                    redispatch(event.worker)  # batches parked while it was down
                elif event.kind == "failed":
                    raise TransportError(
                        f"scoring worker {event.worker!r} crash-looped; "
                        "cannot guarantee delivery"
                    )
        self.windows_scored += len(out)
        return out

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers. Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.supervisor.shutdown()

    def __enter__(self) -> "ProcessScoringPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "windows_scored": self.windows_scored,
            "batches": self.batches,
            "redispatched_batches": self.redispatched_batches,
            "closed": self.closed,
            "health": self.supervisor.health(),
        }
