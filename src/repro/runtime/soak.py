"""Soak harness: sustained offered load + a mid-run ``kill -9`` fault trial.

Max-throughput-under-SLO methodology: a geometric rate ramp keeps the
highest offered UE-window rate whose trial finishes with zero drops, every
window scored, and max capture->verdict latency inside the 1 s near-RT
budget, executed on a *real* backend (wall clock, OS processes) through
the :class:`repro.runtime.backend` interface.

The fault trial then re-runs at a fraction of the sustained rate and
``kill -9``'s one scoring worker mid-run. It must demonstrate, on a real
SIGKILL (exit code -9):

- **zero acked-write loss** — every offered window still gets exactly one
  verdict: acks drained from the dead worker's socket are honored, its
  unacked batches are redispatched, and no batch is scored twice;
- **automatic recovery** — the supervisor restarts the worker within its
  backoff budget and the trial still completes inside the SLO;
- **invariant preservation** — ``offered == scored + dropped + pending``
  holds across the process boundary at the end of the run.

``python -m repro runtime soak`` drives this; the CI ``runtime-smoke``
job runs :func:`smoke_config` with the kill enabled and uploads the
``--json`` artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.detector import AnomalyDetector, AutoencoderDetector
from repro.runtime.backend import Backend, RuntimeTrial, make_backend
from repro.runtime.settings import RuntimeSettings, usable_cpus
from repro.telemetry.batch import MobiFlowBatchBuilder
from repro.telemetry.features import FeatureSpec
from repro.telemetry.vectorized import encode_batch

# Records per scored window of the soak's session bank.
WINDOW = 6


@dataclass
class SoakConfig:
    """Soak shape: workload, ramp, topology, fault injection."""

    backend: str = "process"  # "inproc" | "process"
    workers: int = 2
    sdl_shards: int = 2
    analyzer: bool = True
    duration_s: float = 2.0
    budget_s: float = 1.0
    start_rate: float = 50.0  # UE windows offered per second
    rate_step: float = 1.6
    max_rate: float = 20000.0
    dispatch_records: int = 32
    dispatch_interval_s: float = 0.01
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
        return RuntimeSettings(
            workers=self.workers,
            sdl_shards=self.sdl_shards,
            analyzer=self.analyzer,
            dispatch_records=self.dispatch_records,
            dispatch_interval_s=self.dispatch_interval_s,
        )


@dataclass
class SoakResult:
    config: SoakConfig
    backend: str
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
                f"sustained trial not clean: {self.sustained.completed}/"
                f"{self.sustained.offered} scored, {self.sustained.dropped} drops, "
                f"max latency {self.sustained.max_latency_s:.3f}s vs {budget:g}s budget"
            )
        fault = self.fault
        if fault is not None:
            if fault.completed != fault.offered:
                out.append(
                    f"fault trial lost verdicts: {fault.completed}/{fault.offered}"
                )
            if fault.acked_score_loss:
                out.append(f"fault trial: {fault.acked_score_loss} acked scores lost")
            if fault.killed_worker is None:
                out.append("fault trial never killed a worker")
            elif fault.restarts < 1:
                out.append(
                    f"killed worker {fault.killed_worker!r} was not restarted"
                )
            if fault.max_latency_s > budget:
                out.append(
                    f"fault trial broke the SLO: max latency "
                    f"{fault.max_latency_s:.3f}s vs {budget:g}s"
                )
            if not fault.invariant.get("ok", True):
                out.append(f"backpressure invariant broken: {fault.invariant}")
        return out

    def render(self) -> str:
        t = self.sustained
        lines = [
            f"runtime-soak [{self.backend}] — {self.cpus} CPU(s), "
            f"{self.config.workers} scoring worker(s)",
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
                f"{fault.completed}/{fault.offered} verdicts, "
                f"{fault.acked_score_loss} acked lost, {fault.restarts} restart(s), "
                f"{fault.redispatched_batches} batch(es) redispatched, "
                f"max {1000 * fault.max_latency_s:.1f}ms"
            )
        violations = self.check()
        lines.append(
            "  PASS" if not violations else "  FAIL: " + "; ".join(violations)
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "backend": self.backend,
            "cpus": self.cpus,
            "workers": self.config.workers,
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


def ramp(
    backend: Backend,
    bank: list,
    config: SoakConfig,
) -> tuple[RuntimeTrial, int]:
    """Geometric ramp; returns (highest clean trial, trials run)."""
    rate = config.start_rate
    best: Optional[RuntimeTrial] = None
    trials = 0
    while rate <= config.max_rate:
        trial = backend.run_trial(bank, rate, config.duration_s)
        trials += 1
        if not trial.ok(config.budget_s):
            break
        best = trial
        rate *= config.rate_step
    while best is None and rate > 1.0:
        rate /= config.rate_step
        trial = backend.run_trial(bank, rate, config.duration_s)
        trials += 1
        if trial.ok(config.budget_s):
            best = trial
    if best is None:
        raise RuntimeError(
            f"backend {backend.name!r} sustained no rate >= 1 window/s "
            f"inside the {config.budget_s:g}s budget"
        )
    return best, trials


def run_soak(config: Optional[SoakConfig] = None, backend: Optional[Backend] = None) -> SoakResult:
    """Full soak: workload build, ramp to the SLO edge, fault trial."""
    config = config or SoakConfig()
    wall_start = time.perf_counter()
    bank, detector = build_soak_workload(config)
    owned = backend is None
    if backend is None:
        backend = make_backend(config.backend, config.runtime_settings())
    try:
        backend.start(detector)
        sustained, trials = ramp(backend, bank, config)
        fault: Optional[RuntimeTrial] = None
        if config.fault and backend.name == "process":
            fault = backend.run_trial(
                bank,
                max(1.0, config.fault_load_fraction * sustained.offered_rate),
                config.fault_duration_s,
                kill_at_s=config.fault_kill_at_s,
            )
    finally:
        if owned:
            backend.close()
    return SoakResult(
        config=config,
        backend=backend.name,
        sustained=sustained,
        trials=trials,
        fault=fault,
        workload_wall_s=time.perf_counter() - wall_start,
    )


def smoke_config() -> SoakConfig:
    """Small soak for CI: a 2-worker topology, one injected kill."""
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
