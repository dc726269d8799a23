"""Runtime bench: multi-process vs single-process max rate under the SLO.

Ramps the same featurized workload through the :class:`InProcessBackend`
(one process, the seed's shape) and the :class:`ProcessBackend` (N
supervised scoring workers over sockets) and gates the ratio of their max
sustained rates under the 1 s near-RT budget.

Floors:

- on hosts with **>= 4 usable CPUs** the multi-process runtime must
  sustain ``PARALLEL_SPEEDUP_MIN`` (1.5x) the single-process rate;
- on smaller hosts real parallelism is unavailable, so the documented
  **serial-fallback floor** ``SERIAL_SPEEDUP_MIN`` (0.35x) applies
  instead: the process topology may pay transport + GIL-free-but-
  timesliced scheduling costs, but it must stay within ~3x of the
  single-process rate while *still* passing the zero-loss fault trial.
  The committed ``BENCH_runtime.json`` records which floor was applied.

The fault trial (mid-run ``kill -9`` of a scoring worker) runs in both
cases and its zero-acked-loss/recovery checks are unconditional.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.runtime.backend import InProcessBackend, ProcessBackend, RuntimeTrial
from repro.runtime.settings import usable_cpus
from repro.runtime.soak import SoakConfig, build_soak_workload, ramp, smoke_config

PARALLEL_SPEEDUP_MIN = 1.5  # >= 4 CPUs: real parallel scoring must win
PARALLEL_CPUS_MIN = 4
SERIAL_SPEEDUP_MIN = 0.35  # < 4 CPUs: documented serial-fallback floor
BASELINE_SLACK = 0.70  # current >= 70% of the committed measurement


@dataclass
class RuntimeBenchResult:
    config: SoakConfig
    single: RuntimeTrial
    multi: RuntimeTrial
    fault: Optional[RuntimeTrial]
    single_trials: int
    multi_trials: int
    cpus: int = field(default_factory=usable_cpus)
    workload_wall_s: float = 0.0

    @property
    def speedup(self) -> float:
        return self.multi.offered_rate / max(self.single.offered_rate, 1e-9)

    @property
    def parallel_floor_applies(self) -> bool:
        return self.cpus >= PARALLEL_CPUS_MIN

    @property
    def floor(self) -> float:
        return PARALLEL_SPEEDUP_MIN if self.parallel_floor_applies else SERIAL_SPEEDUP_MIN

    @property
    def regime(self) -> str:
        return "parallel" if self.parallel_floor_applies else "serial-fallback"

    def report(self) -> str:
        floor_kind = (
            f"parallel floor {PARALLEL_SPEEDUP_MIN:g}x"
            if self.parallel_floor_applies
            else f"serial-fallback floor {SERIAL_SPEEDUP_MIN:g}x (host has "
            f"{self.cpus} < {PARALLEL_CPUS_MIN} usable CPUs)"
        )
        lines = [
            f"runtime bench — {self.cpus} usable CPU(s), "
            f"{self.config.workers} scoring worker(s), {floor_kind}",
            f"  single-process: {self.single.offered_rate:.0f} windows/s "
            f"(p99 {1000 * self.single.p99_latency_s:.1f}ms, "
            f"{self.single_trials} trials)",
            f"  multi-process:  {self.multi.offered_rate:.0f} windows/s "
            f"(p99 {1000 * self.multi.p99_latency_s:.1f}ms, "
            f"{self.multi_trials} trials)",
            f"  speedup: {self.speedup:.2f}x (floor {self.floor:g}x)",
        ]
        if self.fault is not None:
            lines.append(
                f"  fault: kill -9 {self.fault.killed_worker} -> "
                f"{self.fault.completed}/{self.fault.offered} verdicts, "
                f"{self.fault.acked_score_loss} acked lost, "
                f"{self.fault.restarts} restart(s)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "cpus": self.cpus,
            "workers": self.config.workers,
            "floor_applied": self.regime,
            "floor": self.floor,
            "speedup": self.speedup,
            "single": self.single.to_dict(),
            "multi": self.multi.to_dict(),
            "fault": self.fault.to_dict() if self.fault is not None else None,
            "workload_wall_s": self.workload_wall_s,
        }


def run_bench(config: Optional[SoakConfig] = None, quick: bool = False) -> RuntimeBenchResult:
    config = smoke_config() if quick else config or SoakConfig()
    wall_start = time.perf_counter()
    bank, detector = build_soak_workload(config)
    with InProcessBackend(config.runtime_settings()) as single_backend:
        single_backend.start(detector)
        single, single_trials = ramp(single_backend, bank, config)
    with ProcessBackend(config.runtime_settings()) as multi_backend:
        multi_backend.start(detector)
        multi, multi_trials = ramp(multi_backend, bank, config)
        fault: Optional[RuntimeTrial] = None
        if config.fault:
            fault = multi_backend.run_trial(
                bank,
                max(1.0, config.fault_load_fraction * multi.offered_rate),
                config.fault_duration_s,
                kill_at_s=config.fault_kill_at_s,
            )
    return RuntimeBenchResult(
        config=config,
        single=single,
        multi=multi,
        fault=fault,
        single_trials=single_trials,
        multi_trials=multi_trials,
        workload_wall_s=time.perf_counter() - wall_start,
    )


def floor_violations(result: RuntimeBenchResult) -> List[str]:
    """Gate a result against the CPU-appropriate floor and the fault trial."""
    out: List[str] = []
    budget = result.config.budget_s
    if not result.single.ok(budget):
        out.append("single-process sustained trial was not clean")
    if not result.multi.ok(budget):
        out.append("multi-process sustained trial was not clean")
    if result.speedup < result.floor:
        out.append(
            f"multi/single speedup {result.speedup:.2f}x below the {result.regime} "
            f"floor {result.floor:g}x on {result.cpus} CPU(s)"
        )
    fault = result.fault
    if fault is not None:
        if fault.completed != fault.offered or fault.acked_score_loss:
            out.append(
                f"fault trial lost work: {fault.completed}/{fault.offered} "
                f"verdicts, {fault.acked_score_loss} acked lost"
            )
        if fault.killed_worker is not None and fault.restarts < 1:
            out.append(f"killed worker {fault.killed_worker!r} was not restarted")
        if fault.max_latency_s > budget:
            out.append(
                f"fault trial broke the SLO: {fault.max_latency_s:.3f}s max latency"
            )
    return out


def baseline_checks(result: RuntimeBenchResult, baseline: dict) -> list:
    # Only compare measurements taken under the same floor regime — a
    # 1-CPU runner regressing against a 16-CPU baseline is noise.
    same_regime = baseline.get("floor_applied") == result.regime
    return [(("speedup",), result.speedup)] if same_regime else []
