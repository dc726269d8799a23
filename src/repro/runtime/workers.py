"""Worker-process entry points of the service runtime.

Each worker is a plain function run in a child process: it dials the
supervisor's Unix socket, says ``hello``, then serves framed TLV requests
until it reads a ``drain`` (finish and exit 0) or EOF. Workers are
deliberately thin — all policy (dispatch, restart, redispatch, invariants)
lives in the supervisor, so a ``kill -9`` can land at any instruction
without corrupting shared state.

Bit-identity contract: the scoring worker scores its batch with one
row-exact kernel call (``detector.scores(matrix, per_row=True)``): every
score equals the window's own ``[1, window*dim]`` call — the inline
path's shape — where a full-height GEMM would not (see
:mod:`repro.ml.compiled` and docs/RUNTIME.md).

Test hooks: ``crash_after_batches`` makes the synthetic worker
``os._exit(1)`` mid-stream after acking N batches (deterministic
crash-mid-batch coverage), and every worker honors a ``crash`` control
message (the supervisor's fault injector uses SIGKILL instead).
"""

from __future__ import annotations

import os
import time
from typing import Optional

import numpy as np

from repro.ml.serialize import loads_detector
from repro.runtime import messages
from repro.runtime.transport import MsgConnection


def _serve(conn: MsgConnection, worker: str, handler, heartbeat_interval_s: float) -> None:
    """Shared request loop: heartbeats between requests, drain/crash handling."""
    started = time.monotonic()
    processed = 0
    last_beat = 0.0
    conn.send_msg(messages.hello(worker, os.getpid()))
    while True:
        now = time.monotonic()
        if now - last_beat >= heartbeat_interval_s:
            conn.send_msg(messages.heartbeat(worker, processed, now - started))
            last_beat = now
        conn._sock.settimeout(heartbeat_interval_s)
        try:
            msgs = conn.recv_msgs_once()
        except TimeoutError:
            continue
        finally:
            conn._sock.settimeout(None)
        if conn.eof:
            return
        for msg in msgs:
            kind = msg.get("t")
            if kind == messages.DRAIN:
                return
            if kind == messages.CRASH:
                os._exit(1)
            handler(msg)
            processed += 1


def scoring_worker_main(
    name: str,
    socket_path: str,
    detector_blob: bytes,
    heartbeat_interval_s: float = 0.5,
) -> None:
    """MobiWatch scoring worker: ``score_batch`` in, batch-atomic result out."""
    detector = loads_detector(detector_blob)
    conn = MsgConnection.connect(socket_path, name=name)

    def handle(msg: dict) -> None:
        if msg.get("t") != messages.SCORE_BATCH:
            return
        batch_id, _, matrix = messages.unpack_score_batch(msg)
        # Row-exact batch call: every score equals its own [1, dim] call.
        scores = detector.scores(matrix, per_row=True)
        conn.send_msg(messages.score_result(name, batch_id, scores))

    try:
        _serve(conn, name, handle, heartbeat_interval_s)
    finally:
        conn.close()


def synthetic_worker_main(
    name: str,
    socket_path: str,
    heartbeat_interval_s: float = 0.5,
    crash_after_batches: Optional[int] = None,
    service_time_s: float = 0.0,
) -> None:
    """Deterministic scoring stand-in for supervisor tests (no model needed).

    Scores are ``row.sum()`` so the test can predict every result; an
    optional per-batch sleep simulates inference cost.
    """
    conn = MsgConnection.connect(socket_path, name=name)
    acked = 0

    def handle(msg: dict) -> None:
        nonlocal acked
        if msg.get("t") != messages.SCORE_BATCH:
            return
        batch_id, _, matrix = messages.unpack_score_batch(msg)
        if service_time_s:
            time.sleep(service_time_s)
        conn.send_msg(
            messages.score_result(name, batch_id, np.asarray(matrix).sum(axis=1))
        )
        acked += 1
        if crash_after_batches is not None and acked >= crash_after_batches:
            os._exit(1)

    try:
        _serve(conn, name, handle, heartbeat_interval_s)
    finally:
        conn.close()
