"""Genfast benchmark: capture -> featurized-window ingest throughput.

Two measurements:

- **end-to-end ingest** — the per-record reference path (record objects,
  per-record TLV wire, one SDL write per record, streaming featurization)
  vs the columnar path (field appends, packed columnar TLV, one acked SDL
  write per batch, one-pass vectorized featurization), in records/second
  over the same synthetic capture stream;
- **featurization alone** — the reference ``StreamingEncoder.push`` vs the
  vectorized ``encode_batch`` on the identical record stream.

Every run re-verifies the equality contracts (bit-identical feature
windows, byte-identical columnar wire roundtrip). :func:`violations`
gates a result against the hard speedup floors and the committed
baseline (``BENCH_genfast.json``). The end-to-end floor is CPU-gated
like the runtime bench: numpy's vectorized pass benefits from multiple
cores, so a single-core runner gets a documented lower floor.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.genfast.workload import (
    GenfastWorkloadConfig,
    field_stream,
    lanes_equal,
    run_fast_lane,
    run_seed_lane,
    streaming_rows,
)
from repro.runtime.settings import usable_cpus
from repro.telemetry.batch import MobiFlowBatch
from repro.telemetry.features import FeatureSpec
from repro.telemetry.mobiflow import MobiFlowRecord
from repro.telemetry.vectorized import encode_batch

# Hard floors from the perf-trajectory acceptance gates.
END_TO_END_SPEEDUP_MIN = 3.0  # >= 2 usable CPUs
END_TO_END_CPUS_MIN = 2
END_TO_END_SINGLE_CORE_MIN = 2.5  # documented single-core floor
FEATURIZATION_SPEEDUP_MIN = 4.0  # unconditional: no parallelism needed
# A fresh run may regress this far below the committed baseline's measured
# ratio before we call it a regression (shared-runner noise allowance).
BASELINE_SLACK = 0.5


@dataclass
class GenfastBenchConfig:
    records: int = 6000
    sessions: int = 48
    batch_records: int = 64
    window: int = 6
    repeats: int = 3  # best-of repeats for every timing loop

    @classmethod
    def quick(cls) -> "GenfastBenchConfig":
        return cls(records=2000, sessions=24, repeats=2)

    def workload(self) -> GenfastWorkloadConfig:
        return GenfastWorkloadConfig(
            records=self.records,
            sessions=self.sessions,
            batch_records=self.batch_records,
            window=self.window,
        )


@dataclass
class GenfastBenchResult:
    end_to_end: dict = field(default_factory=dict)
    featurization: dict = field(default_factory=dict)
    equality: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    cpus: int = field(default_factory=usable_cpus)

    @property
    def multi_core_floor_applies(self) -> bool:
        return self.cpus >= END_TO_END_CPUS_MIN

    @property
    def end_to_end_floor(self) -> float:
        return (
            END_TO_END_SPEEDUP_MIN
            if self.multi_core_floor_applies
            else END_TO_END_SINGLE_CORE_MIN
        )

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "cpus": self.cpus,
            "floor_applied": "multi-core" if self.multi_core_floor_applies else "single-core",
            "end_to_end": self.end_to_end,
            "featurization": self.featurization,
            "equality": self.equality,
            "meta": self.meta,
        }

    def report(self) -> str:
        floor_kind = (
            f"floor {END_TO_END_SPEEDUP_MIN:g}x"
            if self.multi_core_floor_applies
            else f"single-core floor {END_TO_END_SINGLE_CORE_MIN:g}x "
            f"({self.cpus} usable CPU)"
        )
        lines = [
            "genfast bench"
            + (" (quick)" if self.meta.get("quick") else "")
            + f" — {self.cpus} usable CPU(s)"
        ]
        e = self.end_to_end
        lines.append(
            f"  end-to-end ingest: seed {e['seed_rps']:.0f} rec/s -> columnar "
            f"{e['fast_rps']:.0f} rec/s ({e['speedup']:.2f}x, {floor_kind})"
        )
        if "seed_payload_bytes_per_record" in e:
            lines.append(
                f"  E2 payload: per-record {e['seed_payload_bytes_per_record']:.1f} B/rec, "
                f"columnar {e['fast_payload_bytes_per_record']:.1f} B/rec"
            )
        f_ = self.featurization
        lines.append(
            f"  featurization: streaming {f_['seed_rps']:.0f} rec/s -> vectorized "
            f"{f_['fast_rps']:.0f} rec/s ({f_['speedup']:.2f}x, floor "
            f"{FEATURIZATION_SPEEDUP_MIN:g}x)"
        )
        eq = ", ".join(f"{k}={v}" for k, v in self.equality.items())
        lines.append(f"  equality: {eq}")
        return "\n".join(lines)


def _best_of(repeats: int, run: Callable[[], float]) -> float:
    """Best (minimum) measurement across repeats — noise-robust timing."""
    return min(run() for _ in range(repeats))


def _bench_end_to_end(cfg: GenfastBenchConfig, result: GenfastBenchResult) -> None:
    workload = cfg.workload()
    spec = FeatureSpec()

    def seed_run() -> float:
        t0 = time.perf_counter()
        run_seed_lane(workload, spec)
        return time.perf_counter() - t0

    def fast_run() -> float:
        t0 = time.perf_counter()
        run_fast_lane(workload, spec)
        return time.perf_counter() - t0

    seed_run()  # warm-up (allocator, wire caches, BLAS spin-up)
    seed_s = _best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = _best_of(cfg.repeats, fast_run)
    result.end_to_end = {
        "records": workload.records,
        "seed_s": seed_s,
        "fast_s": fast_s,
        "seed_rps": workload.records / seed_s,
        "fast_rps": workload.records / fast_s,
        "speedup": seed_s / fast_s,
    }
    seed_lane, fast_lane = run_seed_lane(workload, spec), run_fast_lane(workload, spec)
    # What each lane puts on E2 per record (names are two-byte symbols on
    # both; the columnar lane pays fixed-width columns and vocabularies).
    result.end_to_end["seed_payload_bytes_per_record"] = (
        sum(map(len, seed_lane.payloads)) / workload.records
    )
    result.end_to_end["fast_payload_bytes_per_record"] = (
        sum(map(len, fast_lane.payloads)) / workload.records
    )
    result.equality.update(lanes_equal(seed_lane, fast_lane))


def _bench_featurization(cfg: GenfastBenchConfig, result: GenfastBenchResult) -> None:
    workload = cfg.workload()
    spec = FeatureSpec()
    records = [MobiFlowRecord(**fields) for fields in field_stream(workload)]
    batch = MobiFlowBatch.from_records(records)

    def seed_run() -> float:
        encoder = spec.streaming_encoder()
        push = encoder.push
        t0 = time.perf_counter()
        for record in records:
            push(record)
        return time.perf_counter() - t0

    def fast_run() -> float:
        t0 = time.perf_counter()
        encode_batch(spec, batch)
        return time.perf_counter() - t0

    seed_run()
    seed_s = _best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = _best_of(cfg.repeats, fast_run)
    result.featurization = {
        "records": len(records),
        "seed_s": seed_s,
        "fast_s": fast_s,
        "seed_rps": len(records) / seed_s,
        "fast_rps": len(records) / fast_s,
        "speedup": seed_s / fast_s,
    }
    # Bit-identity of the vectorized rows against the streaming encoder.
    result.equality["vectorized_rows_identical"] = bool(
        np.array_equal(streaming_rows(spec, records), encode_batch(spec, batch))
    )


def run_bench(
    config: Optional[GenfastBenchConfig] = None, quick: bool = False
) -> GenfastBenchResult:
    """Run both measurements plus the equality re-verification."""
    cfg = config or (GenfastBenchConfig.quick() if quick else GenfastBenchConfig())
    result = GenfastBenchResult()
    result.meta = {
        "quick": quick,
        "records": cfg.records,
        "sessions": cfg.sessions,
        "batch_records": cfg.batch_records,
        "window": cfg.window,
    }
    _bench_end_to_end(cfg, result)
    _bench_featurization(cfg, result)
    return result


def violations(result: GenfastBenchResult, baseline: Optional[dict] = None) -> list:
    """Gate a result against the hard floors and the committed baseline."""
    out: list[str] = []
    for key, ok in result.equality.items():
        if not ok:
            out.append(f"equality contract broken: {key}")
    e2e = result.end_to_end.get("speedup", 0.0)
    if e2e < result.end_to_end_floor:
        kind = "multi-core" if result.multi_core_floor_applies else "single-core"
        out.append(
            f"end-to-end ingest speedup {e2e:.2f}x below the {kind} floor "
            f"{result.end_to_end_floor:g}x on {result.cpus} CPU(s)"
        )
    feat = result.featurization.get("speedup", 0.0)
    if feat < FEATURIZATION_SPEEDUP_MIN:
        out.append(
            f"featurization speedup {feat:.2f}x below floor "
            f"{FEATURIZATION_SPEEDUP_MIN:g}x"
        )
    if baseline:
        # Only compare measurements taken under the same floor regime — a
        # 1-CPU runner regressing against a 16-CPU baseline is noise.
        same_regime = baseline.get("floor_applied") == (
            "multi-core" if result.multi_core_floor_applies else "single-core"
        )
        if same_regime:
            for path, current in (
                (("end_to_end", "speedup"), e2e),
                (("featurization", "speedup"), feat),
            ):
                node = baseline
                for part in path:
                    node = node.get(part, {}) if isinstance(node, dict) else {}
                if isinstance(node, (int, float)) and current < node * BASELINE_SLACK:
                    out.append(
                        f"{'.'.join(path)} {current:.2f}x regressed below "
                        f"{BASELINE_SLACK:.0%} of committed baseline {node:.2f}x"
                    )
    return out


def load_baseline(path) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def save_result(result: GenfastBenchResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
