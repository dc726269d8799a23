"""Soak harness: sustained offered load + a mid-run ``kill -9`` fault trial.

One open-loop trial loop over a *score provider* with MobiWatch's provider
signature, ``(session_ids, matrix) -> list[float]``: in-process
``detector.scores(matrix, per_row=True)``, or
:meth:`~repro.runtime.bridge.ProcessScoringPool.scores`, the client
MobiWatch scores through under ``runtime.score_in_processes``. Both are
row-exact, so batch grouping cannot change a score.

Row ``j`` is due at ``j/rate`` and its latency is measured against that
nominal arrival, so a provider that falls behind pays the backlog as
latency instead of slowing the generator (no coordinated omission).
Ingest is a :class:`~repro.scale.batcher.BoundedBatcher`: every trial
keeps the ledger ``offered == scored + dropped + pending``.

A geometric rate ramp keeps the highest offered rate whose trial has zero
drops, every row scored exactly once and max latency inside the 1 s
near-RT budget. The fault trial re-runs at a fraction of that rate and
``kill -9``'s one pool worker mid-run (``pool.supervisor.kill_worker``):
every offered row must still be scored exactly once (the trial records
the row id of each score), with at least one restart, a balanced ledger
and every latency inside the budget. ``python -m repro runtime soak``
drives this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional

import numpy as np

from repro.ml.detector import AnomalyDetector, AutoencoderDetector
from repro.runtime.bridge import ProcessScoringPool
from repro.runtime.settings import RuntimeSettings, usable_cpus
from repro.scale.batcher import BoundedBatcher
from repro.telemetry.batch import MobiFlowBatchBuilder
from repro.telemetry.features import FeatureSpec
from repro.telemetry.vectorized import encode_batch

# Records per scored window of the soak's session bank.
WINDOW = 6
BACKENDS = ("process", "inproc")


@dataclass
class SoakConfig:
    """Soak shape: workload, ramp, ingest queue, fault injection."""

    backend: str = "process"  # "process" | "inproc"
    workers: int = 2
    duration_s: float = 2.0
    budget_s: float = 1.0
    start_rate: float = 50.0  # UE windows offered per second
    rate_step: float = 1.6
    max_rate: float = 20000.0
    # The ingest queue in front of the provider: bounded, flushed on size
    # and on an interval, drops counted.
    queue_capacity: int = 32768
    dispatch_records: int = 32
    dispatch_interval_s: float = 0.01
    drop_policy: str = "oldest"
    # Workload: a featurized session bank, with a detector sized so
    # inference compute dominates socket transport (a window is
    # ~3.4 KB; a hidden_dim=192 autoencoder forward costs far more than
    # framing + copying it).
    sessions: int = 128
    bank_records: int = 512
    hidden_dim: int = 192
    latent_dim: int = 24
    train_epochs: int = 2
    seed: int = 9
    # Fault trial: kill -9 one scoring worker mid-run at a fraction of the
    # sustained rate (headroom makes "recovers inside the SLO" a statement
    # about the failover, not about running at the capacity cliff).
    fault: bool = True
    fault_kill_at_s: float = 0.5
    fault_load_fraction: float = 0.5
    fault_duration_s: float = 3.0

    def runtime_settings(self) -> RuntimeSettings:
        return RuntimeSettings(workers=self.workers)


@dataclass
class RuntimeTrial:
    """One (provider, rate) offered-load trial."""

    offered_rate: float
    offered: int
    # Row id of every score received, in arrival order, and the score.
    row_ids: List[int]
    scores: List[float]
    dropped: int
    pending: int
    makespan_s: float
    max_latency_s: float
    p99_latency_s: float
    restarts: int = 0
    killed_worker: Optional[str] = None

    @property
    def scored(self) -> int:
        return len(self.row_ids)

    @property
    def throughput(self) -> float:
        return self.scored / self.makespan_s if self.makespan_s else 0.0

    @property
    def exactly_once(self) -> bool:
        """Every offered row received one score, none a second."""
        return sorted(self.row_ids) == list(range(self.offered))

    @property
    def balanced(self) -> bool:
        return self.offered == self.scored + self.dropped + self.pending

    def ok(self, budget_s: float) -> bool:
        return (
            self.dropped == 0
            and self.exactly_once
            and self.balanced
            and self.max_latency_s <= budget_s
        )

    def to_dict(self) -> dict:
        """Every field but the per-row lists, plus the derived figures."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("row_ids", "scores")
        }
        for name in ("scored", "exactly_once", "balanced", "throughput"):
            out[name] = getattr(self, name)
        return out


@dataclass
class SoakResult:
    config: SoakConfig
    sustained: RuntimeTrial
    trials: int
    fault: Optional[RuntimeTrial] = None
    cpus: int = field(default_factory=usable_cpus)
    workload_wall_s: float = 0.0

    def check(self) -> List[str]:
        """Acceptance violations (empty = pass)."""
        out: List[str] = []
        budget = self.config.budget_s
        if not self.sustained.ok(budget):
            out.append(
                f"sustained trial not clean: {self.sustained.scored}/"
                f"{self.sustained.offered} scored, {self.sustained.dropped} drops, "
                f"max latency {self.sustained.max_latency_s:.3f}s vs {budget:g}s budget"
            )
        fault = self.fault
        if fault is not None:
            if not (fault.exactly_once and fault.balanced):
                out.append(
                    f"fault trial: {fault.scored} scores, {fault.dropped} dropped, "
                    f"{fault.pending} pending for {fault.offered} rows — not every "
                    "row scored exactly once"
                )
            if fault.killed_worker is None or fault.restarts < 1:
                out.append(f"killed worker {fault.killed_worker!r} was not restarted")
            if fault.max_latency_s > budget:
                out.append(
                    f"fault trial broke the SLO: max latency "
                    f"{fault.max_latency_s:.3f}s vs {budget:g}s"
                )
        return out

    def render(self) -> str:
        t = self.sustained
        lines = [
            f"runtime-soak [{self.config.backend}] — {self.cpus} CPU(s), "
            f"{self.workers} scoring worker(s)",
            f"  sustained: {t.offered_rate:.0f} windows/s offered, "
            f"{t.throughput:.0f}/s through, p99 {1000 * t.p99_latency_s:.1f}ms, "
            f"max {1000 * t.max_latency_s:.1f}ms, {t.dropped} drops "
            f"({self.trials} trials)",
        ]
        fault = self.fault
        if fault is not None:
            lines.append(
                f"  fault: kill -9 {fault.killed_worker} at "
                f"{self.config.fault_kill_at_s:g}s of {fault.offered_rate:.0f}/s -> "
                f"{fault.scored}/{fault.offered} rows scored, exactly once: "
                f"{'yes' if fault.exactly_once else 'NO'}, "
                f"{fault.restarts} restart(s), max {1000 * fault.max_latency_s:.1f}ms"
            )
        violations = self.check()
        lines.append(
            "  PASS" if not violations else "  FAIL: " + "; ".join(violations)
        )
        return "\n".join(lines)

    @property
    def workers(self) -> int:
        return self.config.workers if self.config.backend == "process" else 0

    def to_dict(self) -> dict:
        return {
            "schema": 2,
            "backend": self.config.backend,
            "cpus": self.cpus,
            "workers": self.workers,
            "sustained": self.sustained.to_dict(),
            "trials": self.trials,
            "fault": self.fault.to_dict() if self.fault is not None else None,
            "workload_wall_s": self.workload_wall_s,
            "violations": self.check(),
        }


def build_soak_workload(config: SoakConfig) -> tuple[list, AnomalyDetector]:
    """Featurized window bank + a trained detector of the soak's size.

    Synthesizes benign-shaped MobiFlow session streams, featurizes them
    with the offline one-pass encoder, flattens per-session sliding
    windows exactly like MobiWatch's live path, and trains a compact
    autoencoder so the workers exercise the production inference code.
    """
    spec = FeatureSpec()
    # A benign-looking registration flow, cycled per session.
    flow = (
        ("RRCSetupRequest", "RRC", "UL"),
        ("RRCSetup", "RRC", "DL"),
        ("RRCSetupComplete", "RRC", "UL"),
        ("RegistrationRequest", "NAS", "UL"),
        ("AuthenticationRequest", "NAS", "DL"),
        ("AuthenticationResponse", "NAS", "UL"),
        ("NASSecurityModeCommand", "NAS", "DL"),
        ("NASSecurityModeComplete", "NAS", "UL"),
        ("RegistrationAccept", "NAS", "DL"),
        ("RRCRelease", "RRC", "DL"),
    )
    # Columnar append (no MobiFlowRecord objects) plus the one-pass encoder.
    builder = MobiFlowBatchBuilder()
    for index in range(config.bank_records):
        session_id = 1 + index % config.sessions
        msg, protocol, direction = flow[(index // config.sessions) % len(flow)]
        builder.append_fields(
            timestamp=index * 0.01,
            msg=msg,
            protocol=protocol,
            direction=direction,
            session_id=session_id,
            rnti=0x4000 + session_id,
            s_tmsi=0x00C0_0000 + session_id,
            cipher_alg=2,
            integrity_alg=2,
            establishment_cause="mo-Signalling" if msg == "RRCSetupRequest" else None,
        )
    per_record = encode_batch(spec, builder.build())

    session_rows: dict[int, list[np.ndarray]] = {}
    bank: list[tuple[int, np.ndarray]] = []
    for index in range(config.bank_records):
        session_id = 1 + index % config.sessions
        row = per_record[index]
        rows = session_rows.setdefault(session_id, [])
        rows.append(row)
        chosen = rows[-WINDOW:]
        stacked = np.stack(chosen)
        if len(chosen) < WINDOW:
            padded = np.zeros((WINDOW, spec.dim), dtype=stacked.dtype)
            padded[WINDOW - len(chosen) :] = stacked
            stacked = padded
        bank.append((session_id, stacked.reshape(-1)))
    detector = AutoencoderDetector(
        window=WINDOW,
        feature_dim=spec.dim,
        hidden_dim=config.hidden_dim,
        latent_dim=config.latent_dim,
        seed=config.seed,
    )
    detector.fit(
        np.stack([vector for _, vector in bank]),
        epochs=config.train_epochs,
        lr=2e-3,
    )
    return bank, detector


Provider = Callable[[list, np.ndarray], List[float]]


def in_process_provider(detector: AnomalyDetector) -> Provider:
    """The in-process score provider: one row-exact call per batch."""
    return lambda session_ids, matrix: detector.scores(matrix, per_row=True)


def _restarts(pool: Optional[ProcessScoringPool]) -> int:
    health = pool.supervisor.health().values() if pool is not None else ()
    return sum(state["restarts"] for state in health)


def run_trial(
    provider: Provider,
    bank: list,
    rate: float,
    duration_s: float,
    config: SoakConfig,
    *,
    pool: Optional[ProcessScoringPool] = None,
    kill_at_s: Optional[float] = None,
) -> RuntimeTrial:
    """Offer ``rate`` windows/s for ``duration_s``; score all of them.

    ``pool`` is the worker pool behind ``provider``, if any: the fault
    trial ``kill -9``'s its first worker once ``kill_at_s`` has passed, and
    the trial counts the pool's restarts.
    """
    row_ids: List[int] = []
    scores: List[float] = []
    latencies: List[float] = []
    makespan = 0.0
    killed: Optional[str] = None
    restarts_before = _restarts(pool)
    wall_start = time.perf_counter()
    clock = lambda: time.perf_counter() - wall_start  # noqa: E731

    def deliver(batch: list) -> None:
        nonlocal makespan
        got = provider(
            [session_id for _, _, session_id, _ in batch],
            np.stack([vector for _, _, _, vector in batch]),
        )
        done = clock()
        for (arrival, j, _, _), score in zip(batch, got):
            row_ids.append(j)
            scores.append(float(score))
            latencies.append(done - arrival)
        makespan = max(makespan, done)

    batcher = BoundedBatcher(
        deliver,
        capacity=config.queue_capacity,
        flush_records=config.dispatch_records,
        drop_policy=config.drop_policy,
        clock=clock,
    )
    n = max(1, int(rate * duration_s))
    j = 0
    last_flush = 0.0
    while j < n:
        now = clock()
        if kill_at_s is not None and killed is None and now >= kill_at_s:
            killed = pool.supervisor.worker_names()[0]
            pool.supervisor.kill_worker(killed)
        arrival = j / rate
        if now >= arrival:
            session_id, vector = bank[j % len(bank)]
            batcher.offer((arrival, j, session_id, vector))
            j += 1
        else:
            if batcher.pending and now - last_flush >= config.dispatch_interval_s:
                batcher.flush_now()
                last_flush = now
            time.sleep(min(arrival - now, 0.002))
    batcher.close()
    if killed is not None:
        # The pool only polls inside a call: let the supervisor see the
        # death and respawn the worker before counting restarts. Nothing
        # is in flight between calls, so no event here carries a score.
        deadline = time.monotonic() + config.budget_s + duration_s
        while not pool.supervisor.is_up(killed) and time.monotonic() < deadline:
            pool.supervisor.poll(timeout_s=0.05)
    ordered = sorted(latencies) or [0.0]
    return RuntimeTrial(
        offered_rate=rate,
        offered=batcher.offered,
        row_ids=row_ids,
        scores=scores,
        dropped=batcher.dropped,
        pending=batcher.pending,
        makespan_s=makespan,
        max_latency_s=ordered[-1],
        p99_latency_s=ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        restarts=_restarts(pool) - restarts_before,
        killed_worker=killed,
    )


def ramp(
    provider: Provider, bank: list, config: SoakConfig, pool: Optional[ProcessScoringPool] = None
) -> tuple[RuntimeTrial, int]:
    """Geometric ramp; returns (highest clean trial, trials run)."""
    rate = config.start_rate
    best: Optional[RuntimeTrial] = None
    trials = 0
    while rate <= config.max_rate:
        trial = run_trial(provider, bank, rate, config.duration_s, config, pool=pool)
        trials += 1
        if not trial.ok(config.budget_s):
            break
        best = trial
        rate *= config.rate_step
    while best is None and rate > 1.0:
        rate /= config.rate_step
        trial = run_trial(provider, bank, rate, config.duration_s, config, pool=pool)
        trials += 1
        if trial.ok(config.budget_s):
            best = trial
    if best is None:
        raise RuntimeError(
            f"backend {config.backend!r} sustained no rate >= 1 window/s "
            f"inside the {config.budget_s:g}s budget"
        )
    return best, trials


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Full soak: workload build, ramp to the SLO edge, fault trial."""
    config = config or SoakConfig()
    if config.backend not in BACKENDS:
        raise ValueError(f"unknown backend {config.backend!r} (have: {', '.join(BACKENDS)})")
    wall_start = time.perf_counter()
    bank, detector = build_soak_workload(config)
    pool: Optional[ProcessScoringPool] = None
    provider = in_process_provider(detector)
    if config.backend == "process":
        pool = ProcessScoringPool(detector, config.runtime_settings(), name="soak")
        provider = pool.scores
    try:
        sustained, trials = ramp(provider, bank, config, pool)
        fault: Optional[RuntimeTrial] = None
        if config.fault and pool is not None:
            rate = max(1.0, config.fault_load_fraction * sustained.offered_rate)
            fault = run_trial(
                provider, bank, rate, config.fault_duration_s, config,
                pool=pool, kill_at_s=config.fault_kill_at_s,
            )
    finally:
        if pool is not None:
            pool.close()
    return SoakResult(
        config=config,
        sustained=sustained,
        trials=trials,
        fault=fault,
        workload_wall_s=time.perf_counter() - wall_start,
    )


def smoke_config() -> SoakConfig:
    """Small soak for CI: a 2-worker pool, one injected kill."""
    return SoakConfig(
        duration_s=1.0,
        start_rate=40.0,
        max_rate=2000.0,
        bank_records=256,
        sessions=64,
        hidden_dim=96,
        latent_dim=16,
        train_epochs=1,
        fault_duration_s=2.0,
        fault_kill_at_s=0.4,
    )
