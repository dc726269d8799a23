"""Scale bench: sustained ingest+scoring throughput under the near-RT budget.

Drives the real scaling substrate — :class:`~repro.scale.batcher.BoundedBatcher`
-> :class:`~repro.scale.sharded_sdl.ShardedSdl` ->
:class:`~repro.scale.pool.InferencePool` with a real trained detector and
real MobiFlow featurization — inside the discrete-event simulator, and
answers the capacity-planning question: *what telemetry rate can N shards
and N inference workers sustain while every record's capture -> verdict
latency stays inside the 1 s near-RT control budget?*

Per shard count the harness ramps the offered record rate geometrically
and keeps the highest rate whose trial finishes with **zero drops, every
record scored, and max latency <= budget** — the standard max-throughput-
under-SLO methodology. Shards and workers are modeled as servers with a
per-operation service time (defaults in the neighbourhood of a Redis SET
and a small-window inference), so capacity grows with the shard count the
way the OSC RIC's clustered SDL scales, while the vectorized inference
pool delivers a genuine wall-clock win on top.

A separate fault-injection run kills one shard mid-run (replication >= 2)
and verifies that **zero acknowledged writes are lost** and the pipeline
keeps producing verdicts at degraded throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.detector import AnomalyDetector, AutoencoderDetector
from repro.scale.batcher import DROP_OLDEST, BoundedBatcher
from repro.scale.pool import InferencePool
from repro.scale.sharded_sdl import ShardedSdl
from repro.sim.engine import Simulator
from repro.telemetry.batch import MobiFlowBatchBuilder
from repro.telemetry.features import FeatureSpec
from repro.telemetry.vectorized import encode_batch

TELEMETRY_NS = "xsec.mobiflow"


@dataclass
class ScaleBenchConfig:
    """Sweep shape and the modeled substrate costs."""

    shards: tuple = (1, 2, 4, 8)
    replication: int = 1  # throughput sweep; the fault run uses >= 2
    workers: Optional[int] = None  # inference workers per point; None = shard count
    duration_s: float = 2.0
    sessions: int = 256
    window: int = 6
    # Modeled service times: one SDL shard write (~a Redis SET over
    # loopback) and one window's share of a vectorized inference call.
    sdl_service_time_s: float = 400e-6
    pool_service_time_s: float = 120e-6
    flush_records: int = 64
    flush_interval_s: float = 0.02
    capacity: int = 32768
    budget_s: float = 1.0
    # Detector size: the default is deliberately small (sweep speed); the
    # runtime soak raises it so inference compute dominates transport.
    hidden_dim: int = 32
    latent_dim: int = 8
    start_rate: float = 500.0  # records per simulated second
    rate_step: float = 1.6
    max_rate: float = 64000.0
    bank_records: int = 1024
    train_epochs: int = 2
    seed: int = 9
    # Fault-injection run (kill one shard mid-run, replication >= 2).
    fault_shards: int = 4
    fault_replication: int = 2
    fault_kill_at_s: float = 0.8
    fault_load_fraction: float = 0.4  # of the fault topology's capacity


@dataclass
class TrialResult:
    """One (shards, workers, rate) run of the substrate."""

    offered_rate: float
    offered: int
    completed: int
    dropped: int
    makespan_s: float
    max_latency_s: float
    p99_latency_s: float
    wall_s: float

    @property
    def throughput(self) -> float:
        """Records fully processed per simulated second."""
        return self.completed / self.makespan_s if self.makespan_s else 0.0

    def ok(self, budget_s: float) -> bool:
        return (
            self.dropped == 0
            and self.completed == self.offered
            and self.max_latency_s <= budget_s
        )


@dataclass
class ScaleBenchPoint:
    shards: int
    workers: int
    sustained: TrialResult
    trials: int

    def row(self) -> list:
        t = self.sustained
        return [
            str(self.shards),
            str(self.workers),
            f"{t.offered_rate:.0f}/s",
            f"{t.throughput:.0f}/s",
            f"{1000 * t.p99_latency_s:.1f}ms",
            f"{1000 * t.max_latency_s:.1f}ms",
            str(t.dropped),
            f"{t.wall_s:.2f}s",
        ]


@dataclass
class FaultResult:
    shards: int
    replication: int
    offered_rate: float
    records: int
    completed: int
    lost_acknowledged: int
    failovers: int
    read_repairs: int
    max_latency_s: float

    def summary(self) -> str:
        return (
            f"fault injection: killed 1/{self.shards} shards mid-run "
            f"(replication={self.replication}) at {self.offered_rate:.0f} rec/s -> "
            f"{self.completed}/{self.records} verdicts, "
            f"{self.lost_acknowledged} acknowledged writes lost, "
            f"{self.failovers} failovers, {self.read_repairs} read repairs, "
            f"max latency {1000 * self.max_latency_s:.1f}ms"
        )


@dataclass
class ScaleBenchResult:
    config: ScaleBenchConfig
    points: List[ScaleBenchPoint]
    fault: Optional[FaultResult] = None
    workload_wall_s: float = 0.0

    def render(self) -> str:
        from repro.experiments.reporting import render_table

        text = render_table(
            ["Shards", "Workers", "Sustained", "Throughput", "p99Lat", "MaxLat", "Drops", "Wall"],
            [point.row() for point in self.points],
            title=(
                "scale-bench — max sustained ingest+scoring rate with every "
                f"capture->verdict latency <= {self.config.budget_s:g}s"
            ),
        )
        if self.fault is not None:
            text += "\n" + self.fault.summary()
        return text

    def speedup(self) -> float:
        """Sustained-throughput ratio of the largest vs the smallest point."""
        if len(self.points) < 2:
            return 1.0
        return self.points[-1].sustained.throughput / max(
            self.points[0].sustained.throughput, 1e-9
        )

    def check(self, min_speedup: Optional[float] = None) -> List[str]:
        """Acceptance checks; returns a list of violations (empty = pass)."""
        violations: list[str] = []
        budget = self.config.budget_s
        previous = None
        for point in self.points:
            trial = point.sustained
            if trial.max_latency_s > budget:
                violations.append(
                    f"{point.shards} shards: max latency {trial.max_latency_s:.3f}s "
                    f"breaks the {budget:g}s near-RT budget"
                )
            if trial.dropped:
                violations.append(f"{point.shards} shards: {trial.dropped} drops")
            if previous is not None and trial.throughput < 0.98 * previous:
                violations.append(
                    f"throughput not monotonic: {point.shards} shards sustained "
                    f"{trial.throughput:.0f}/s < previous {previous:.0f}/s"
                )
            previous = trial.throughput
        if min_speedup is None:
            span = self.points[-1].shards / self.points[0].shards if self.points else 1
            min_speedup = 3.0 if span >= 8 else (1.2 if span >= 2 else 1.0)
        if len(self.points) >= 2 and self.speedup() < min_speedup:
            violations.append(
                f"speedup {self.speedup():.2f}x from {self.points[0].shards} -> "
                f"{self.points[-1].shards} shards is below {min_speedup:g}x"
            )
        if self.fault is not None:
            if self.fault.lost_acknowledged:
                violations.append(
                    f"fault run lost {self.fault.lost_acknowledged} acknowledged writes"
                )
            if self.fault.completed < self.fault.records:
                violations.append(
                    f"fault run stalled: {self.fault.completed}/{self.fault.records} verdicts"
                )
        return violations

    def to_dict(self) -> dict:
        return {
            "points": [
                {
                    "shards": p.shards,
                    "workers": p.workers,
                    "sustained_rate": p.sustained.offered_rate,
                    "throughput": p.sustained.throughput,
                    "p99_latency_s": p.sustained.p99_latency_s,
                    "max_latency_s": p.sustained.max_latency_s,
                    "dropped": p.sustained.dropped,
                    "trials": p.trials,
                    "wall_s": p.sustained.wall_s,
                }
                for p in self.points
            ],
            "speedup": self.speedup(),
            "fault": None
            if self.fault is None
            else {
                "shards": self.fault.shards,
                "replication": self.fault.replication,
                "offered_rate": self.fault.offered_rate,
                "records": self.fault.records,
                "completed": self.fault.completed,
                "lost_acknowledged": self.fault.lost_acknowledged,
                "failovers": self.fault.failovers,
                "read_repairs": self.fault.read_repairs,
                "max_latency_s": self.fault.max_latency_s,
            },
            "violations": self.check(),
        }


# -- workload -----------------------------------------------------------------


def build_workload(
    config: ScaleBenchConfig,
) -> tuple[list, AnomalyDetector]:
    """Featurized window bank + a small trained detector.

    Synthesizes benign-shaped MobiFlow session streams, featurizes them
    with the offline one-pass encoder, flattens per-session sliding
    windows exactly like MobiWatch's live path, and trains a compact
    autoencoder so pool scoring exercises the production inference code.
    """
    spec = FeatureSpec()
    window = config.window
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
        chosen = rows[-window:]
        stacked = np.stack(chosen)
        if len(chosen) < window:
            padded = np.zeros((window, spec.dim), dtype=stacked.dtype)
            padded[window - len(chosen) :] = stacked
            stacked = padded
        bank.append((session_id, stacked.reshape(-1)))
    detector = AutoencoderDetector(
        window=window,
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


# -- trial driver ---------------------------------------------------------------


def _run_trial(
    config: ScaleBenchConfig,
    shards: int,
    workers: int,
    replication: int,
    rate: float,
    bank: list,
    detector: AnomalyDetector,
    kill_at_s: Optional[float] = None,
) -> tuple[TrialResult, ShardedSdl, list]:
    sim = Simulator(seed=config.seed)
    metrics = sim.obs.metrics
    sdl = ShardedSdl(
        shards=shards,
        replication=min(replication, shards),
        service_time_s=config.sdl_service_time_s,
        metrics=metrics,
        clock=lambda: sim.now,
    )
    pool = InferencePool(
        detector.scores,
        workers=workers,
        batch_windows=config.flush_records,
        service_time_per_window_s=config.pool_service_time_s,
        metrics=metrics,
        clock=lambda: sim.now,
        name="scale-bench",
    )
    latencies: list[float] = []
    acked: list[tuple[str, str]] = []  # (key, shard_key) acknowledged by the SDL
    makespan = [0.0]

    def deliver(batch: list) -> None:
        for capture_ts, session_id, vector, index in batch:
            shard_key = str(session_id)
            done_sdl = sdl.set(
                TELEMETRY_NS,
                f"{index:09d}",
                {"t": capture_ts, "s": session_id},
                shard_key=shard_key,
            )
            acked.append((f"{index:09d}", shard_key))

            def on_score(score: float, done_pool: float, c=capture_ts, s=done_sdl) -> None:
                done = done_pool if done_pool > s else s
                latencies.append(done - c)
                if done > makespan[0]:
                    makespan[0] = done

            pool.submit(session_id, vector, on_score)
        pool.flush()

    batcher = BoundedBatcher(
        deliver,
        capacity=config.capacity,
        flush_records=config.flush_records,
        flush_interval_s=config.flush_interval_s,
        drop_policy=DROP_OLDEST,
        scheduler=sim.schedule,
        clock=lambda: sim.now,
        metrics=metrics,
        name="scale-bench",
    )
    n_records = max(1, int(rate * config.duration_s))
    bank_size = len(bank)
    for j in range(n_records):
        arrival = j / rate
        session_id, vector = bank[j % bank_size]
        sim.schedule_at(
            arrival,
            lambda item=(arrival, session_id, vector, j): batcher.offer(item),
            name="scale-bench.offer",
        )
    if kill_at_s is not None:
        sim.schedule_at(kill_at_s, lambda: sdl.kill_shard(0), name="scale-bench.kill")
    sim.schedule_at(
        config.duration_s + config.flush_interval_s,
        lambda: batcher.close(),
        name="scale-bench.close",
    )
    wall_start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall_start
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] if ordered else 0.0
    trial = TrialResult(
        offered_rate=rate,
        offered=n_records,
        completed=len(latencies),
        dropped=batcher.dropped,
        makespan_s=makespan[0],
        max_latency_s=ordered[-1] if ordered else 0.0,
        p99_latency_s=p99,
        wall_s=wall,
    )
    return trial, sdl, acked


# -- sweep -----------------------------------------------------------------------


def run_scale_bench(config: Optional[ScaleBenchConfig] = None) -> ScaleBenchResult:
    """Sweep shard counts; per point keep the max rate inside the budget."""
    config = config or ScaleBenchConfig()
    wall_start = time.perf_counter()
    bank, detector = build_workload(config)
    points: list[ScaleBenchPoint] = []
    warm_rate = config.start_rate
    for shards in config.shards:
        workers = config.workers or shards
        rate = warm_rate
        best: Optional[TrialResult] = None
        trials = 0
        while rate <= config.max_rate:
            trial, _, _ = _run_trial(
                config, shards, workers, config.replication, rate, bank, detector
            )
            trials += 1
            if not trial.ok(config.budget_s):
                break
            best = trial
            rate *= config.rate_step
        while best is None and rate > 1.0:
            # The warm start overshot this point's capacity; back off.
            rate /= config.rate_step
            trial, _, _ = _run_trial(
                config, shards, workers, config.replication, rate, bank, detector
            )
            trials += 1
            if trial.ok(config.budget_s):
                best = trial
        if best is None:
            raise RuntimeError(f"no sustainable rate found for {shards} shards")
        points.append(
            ScaleBenchPoint(shards=shards, workers=workers, sustained=best, trials=trials)
        )
        warm_rate = best.offered_rate
    fault = run_fault_injection(config, bank, detector)
    return ScaleBenchResult(
        config=config,
        points=points,
        fault=fault,
        workload_wall_s=time.perf_counter() - wall_start,
    )


def run_fault_injection(
    config: ScaleBenchConfig, bank: Optional[list] = None, detector: Optional[AnomalyDetector] = None
) -> FaultResult:
    """Kill one shard mid-run; verify zero acknowledged writes are lost."""
    if bank is None or detector is None:
        bank, detector = build_workload(config)
    shards = config.fault_shards
    replication = min(config.fault_replication, shards)
    if config.sdl_service_time_s > 0:
        capacity = shards / (replication * config.sdl_service_time_s)
    else:
        capacity = 4000.0
    rate = max(1.0, config.fault_load_fraction * capacity)
    trial, sdl, acked = _run_trial(
        config,
        shards,
        config.workers or shards,
        replication,
        rate,
        bank,
        detector,
        kill_at_s=config.fault_kill_at_s,
    )
    lost = sum(
        1
        for key, shard_key in acked
        if sdl.get(TELEMETRY_NS, key, shard_key=shard_key) is None
    )
    health = sdl.health()
    return FaultResult(
        shards=shards,
        replication=replication,
        offered_rate=rate,
        records=trial.offered,
        completed=trial.completed,
        lost_acknowledged=lost,
        failovers=health["failovers"],
        read_repairs=health["read_repairs"],
        max_latency_s=trial.max_latency_s,
    )


def smoke_config() -> ScaleBenchConfig:
    """Small sweep for CI: seconds of simulated traffic, 1/2/4 shards."""
    return ScaleBenchConfig(
        shards=(1, 2, 4),
        duration_s=1.0,
        bank_records=512,
        sessions=128,
        max_rate=24000.0,
        fault_shards=2,
        fault_kill_at_s=0.4,
    )
