"""Message schema of the process runtime's control/data plane.

Every message crossing a process boundary is a TLV-encoded dict
(:func:`repro.wire.encode`) wrapped in a length-prefixed frame
(:func:`repro.wire.frame`) — the same byte-identical codec the simulated
E2 interfaces speak, so a captured socket stream decodes with the stock
tooling. Messages are plain dicts with a ``"t"`` type tag; the helpers
here centralize construction so field names stay consistent between the
supervisor and the workers.

Data-plane messages are **batch-atomic**: a worker replies to a
``score_batch`` with exactly one ``score_result`` carrying every score of
the batch, or (if it dies first) with nothing at all. The supervisor's
in-flight registry therefore never sees a half-acked batch — a crashed
worker's unacked batches are redispatched wholesale, which is what makes
"zero acked-write loss" provable.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

# Type tags (short strings keep frames small; the TLV codec interns them).
HELLO = "hello"  # worker -> supervisor: identify after (re)connect
HEARTBEAT = "hb"  # worker -> supervisor: liveness + counters
SCORE_BATCH = "score_batch"  # supervisor -> scoring worker
SCORE_RESULT = "score_result"  # scoring worker -> supervisor (batch-atomic ack)
DRAIN = "drain"  # supervisor -> worker: finish pending work and exit 0
CRASH = "crash"  # supervisor -> worker: test hook, die immediately (os._exit)


def hello(worker: str, pid: int) -> dict:
    return {"t": HELLO, "worker": worker, "pid": pid}


def heartbeat(worker: str, processed: int, uptime_s: float) -> dict:
    return {"t": HEARTBEAT, "worker": worker, "processed": processed, "uptime_s": uptime_s}


def score_batch(batch_id: int, session_ids: Sequence[Any], matrix: np.ndarray) -> dict:
    """One dispatch unit: ``matrix`` rows are flattened session windows."""
    if matrix.ndim != 2 or matrix.shape[0] != len(session_ids):
        raise ValueError(
            f"matrix {matrix.shape} does not match {len(session_ids)} session ids"
        )
    return {
        "t": SCORE_BATCH,
        "batch_id": batch_id,
        "session_ids": list(session_ids),
        "rows": int(matrix.shape[0]),
        "dim": int(matrix.shape[1]),
        # float64 row-major bytes: np.frombuffer on the far side is a view,
        # so the matrix crosses the socket without a python-level loop.
        "data": np.ascontiguousarray(matrix, dtype=np.float64).tobytes(),
    }


def unpack_score_batch(msg: dict) -> tuple[int, list, np.ndarray]:
    matrix = np.frombuffer(msg["data"], dtype=np.float64).reshape(msg["rows"], msg["dim"])
    return msg["batch_id"], msg["session_ids"], matrix


def score_result(worker: str, batch_id: int, scores: Sequence[float]) -> dict:
    return {
        "t": SCORE_RESULT,
        "worker": worker,
        "batch_id": batch_id,
        "scores": [float(s) for s in scores],
    }


def drain() -> dict:
    return {"t": DRAIN}


def crash() -> dict:
    return {"t": CRASH}
