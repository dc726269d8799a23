"""Llmfast benchmark: verdict-plane throughput under duplicate-heavy load.

Three measurements:

- **analyzer storm throughput** — the default expert-referencing round
  (retrieval, prompt build, provider round trip, response parse, every
  time) vs the analyst with the content-addressed verdict cache over the
  same duplicate-heavy trace workload, in analyses/second;
- **RAG retrieval alone** — the reference ``CellularKnowledgeBase.retrieve``
  loop vs the precomputed-term-index :class:`VectorizedRetriever` the
  analyst runs, on the identical workload;
- **prompt assembly alone** — the reference ``PromptTemplate.render`` vs
  the :class:`CompiledPromptBuilder` single-join path the analyst runs.

Every run re-verifies the equality contracts: verdict *decisions*
(classification, ranked attacks, attribution, remediations) identical
per query, retrieval rankings identical per trace, prompts
byte-identical per trace (with and without snippets).  :func:`violations`
gates a result against the hard speedup floors and the committed
baseline (``BENCH_llmfast.json``).  No CPU gating: every win here is
single-threaded caching/vectorization, so the floors are unconditional.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.llm.analyst import ExpertAnalyst
from repro.llm.client import LlmClient, SimulatedLlmServer
from repro.llm.knowledge import CellularKnowledgeBase, VectorizedRetriever
from repro.llm.prompt import CompiledPromptBuilder, PromptTemplate
from repro.llmfast.settings import LlmfastSettings
from repro.llmfast.workload import decision_tuple, distinct_traces, duplicate_heavy

# Hard floors from the perf-trajectory acceptance gates (unconditional:
# no parallelism involved, a single-core runner hits them too).
STORM_SPEEDUP_MIN = 5.0
RAG_SPEEDUP_MIN = 3.0
PROMPT_SPEEDUP_MIN = 2.0
# A fresh run may regress this far below the committed baseline's measured
# ratio before we call it a regression (shared-runner noise allowance).
BASELINE_SLACK = 0.5


@dataclass
class LlmfastBenchConfig:
    distinct: int = 16
    analyses: int = 400
    retrievals: int = 2000
    prompts: int = 2000
    model: str = "chatgpt-4o"
    repeats: int = 3  # best-of repeats for every timing loop

    @classmethod
    def quick(cls) -> "LlmfastBenchConfig":
        return cls(distinct=8, analyses=120, retrievals=600, prompts=600, repeats=2)


@dataclass
class LlmfastBenchResult:
    storm: dict = field(default_factory=dict)
    rag: dict = field(default_factory=dict)
    prompt: dict = field(default_factory=dict)
    equality: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "storm": self.storm,
            "rag": self.rag,
            "prompt": self.prompt,
            "equality": self.equality,
            "meta": self.meta,
        }

    def report(self) -> str:
        lines = ["llmfast bench" + (" (quick)" if self.meta.get("quick") else "")]
        s = self.storm
        lines.append(
            f"  analyzer storm: seed {s['seed_aps']:.0f} analyses/s -> cached "
            f"{s['fast_aps']:.0f} analyses/s ({s['speedup']:.2f}x, floor "
            f"{STORM_SPEEDUP_MIN:g}x; {s['distinct']} distinct / "
            f"{s['analyses']} total)"
        )
        r = self.rag
        lines.append(
            f"  RAG retrieval: seed {r['seed_qps']:.0f} q/s -> vectorized "
            f"{r['fast_qps']:.0f} q/s ({r['speedup']:.2f}x, floor "
            f"{RAG_SPEEDUP_MIN:g}x)"
        )
        p = self.prompt
        lines.append(
            f"  prompt assembly: seed {p['seed_qps']:.0f} builds/s -> compiled "
            f"{p['fast_qps']:.0f} builds/s ({p['speedup']:.2f}x, floor "
            f"{PROMPT_SPEEDUP_MIN:g}x)"
        )
        eq = ", ".join(f"{k}={v}" for k, v in self.equality.items())
        lines.append(f"  equality: {eq}")
        return "\n".join(lines)


def _best_of(repeats: int, run: Callable[[], float]) -> float:
    """Best (minimum) measurement across repeats — noise-robust timing."""
    return min(run() for _ in range(repeats))


def _bench_storm(cfg: LlmfastBenchConfig, result: LlmfastBenchResult) -> None:
    traces = distinct_traces(cfg.distinct)
    workload = duplicate_heavy(traces, cfg.analyses)

    def seed_analyst() -> ExpertAnalyst:
        return ExpertAnalyst(
            client=LlmClient(server=SimulatedLlmServer(), model=cfg.model),
            use_rag=True,
        )

    def fast_analyst() -> ExpertAnalyst:
        return ExpertAnalyst(
            client=LlmClient(server=SimulatedLlmServer(), model=cfg.model),
            use_rag=True,
            llmfast=LlmfastSettings.all_on(),
        )

    def seed_run() -> float:
        analyst = seed_analyst()
        t0 = time.perf_counter()
        for records in workload:
            analyst.analyze(records)
        return time.perf_counter() - t0

    def fast_run() -> float:
        analyst = fast_analyst()
        t0 = time.perf_counter()
        for records in workload:
            analyst.analyze(records)
        return time.perf_counter() - t0

    seed_run()  # warm-up (allocator, engine caches)
    seed_s = _best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = _best_of(cfg.repeats, fast_run)
    result.storm = {
        "distinct": cfg.distinct,
        "analyses": cfg.analyses,
        "seed_s": seed_s,
        "fast_s": fast_s,
        "seed_aps": cfg.analyses / seed_s,
        "fast_aps": cfg.analyses / fast_s,
        "speedup": seed_s / fast_s,
    }
    # Decision identity per query (free text may differ on cache hits).
    ref, fast = seed_analyst(), fast_analyst()
    decisions_equal = all(
        decision_tuple(ref.analyze(records).response)
        == decision_tuple(fast.analyze(records).response)
        for records in workload
    )
    result.equality["verdict_decisions_identical"] = bool(decisions_equal)
    result.storm["cache"] = fast.cache_stats


def _bench_rag(cfg: LlmfastBenchConfig, result: LlmfastBenchResult) -> None:
    traces = distinct_traces(cfg.distinct)
    workload = duplicate_heavy(traces, cfg.retrievals)
    knowledge = CellularKnowledgeBase()

    def seed_run() -> float:
        t0 = time.perf_counter()
        for records in workload:
            knowledge.retrieve(records)
        return time.perf_counter() - t0

    def fast_run() -> float:
        retriever = VectorizedRetriever(knowledge)
        t0 = time.perf_counter()
        for records in workload:
            retriever.retrieve(records)
        return time.perf_counter() - t0

    seed_run()
    seed_s = _best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = _best_of(cfg.repeats, fast_run)
    result.rag = {
        "retrievals": cfg.retrievals,
        "seed_s": seed_s,
        "fast_s": fast_s,
        "seed_qps": cfg.retrievals / seed_s,
        "fast_qps": cfg.retrievals / fast_s,
        "speedup": seed_s / fast_s,
    }
    retriever = VectorizedRetriever(knowledge)
    result.equality["rag_rankings_identical"] = all(
        retriever.retrieve(records, top_k=k) == knowledge.retrieve(records, top_k=k)
        for records in traces
        for k in (1, 2, 4)
    )


def _bench_prompt(cfg: LlmfastBenchConfig, result: LlmfastBenchResult) -> None:
    traces = distinct_traces(cfg.distinct)
    workload = duplicate_heavy(traces, cfg.prompts)
    knowledge = CellularKnowledgeBase()

    def seed_run() -> float:
        t0 = time.perf_counter()
        for records in workload:
            PromptTemplate().render(records)
        return time.perf_counter() - t0

    def fast_run() -> float:
        builder = CompiledPromptBuilder()
        t0 = time.perf_counter()
        for records in workload:
            builder.render(records)
        return time.perf_counter() - t0

    seed_run()
    seed_s = _best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = _best_of(cfg.repeats, fast_run)
    result.prompt = {
        "prompts": cfg.prompts,
        "seed_s": seed_s,
        "fast_s": fast_s,
        "seed_qps": cfg.prompts / seed_s,
        "fast_qps": cfg.prompts / fast_s,
        "speedup": seed_s / fast_s,
    }
    builder = CompiledPromptBuilder()
    byte_equal = True
    for records in traces:
        snippets = knowledge.retrieve(records)
        template = PromptTemplate()
        if builder.render(records) != template.render(records):
            byte_equal = False
        template = PromptTemplate()
        template.retrieved_snippets = list(snippets)
        if snippets and builder.render(records, snippets) != template.render(records):
            byte_equal = False
    result.equality["prompts_byte_identical"] = byte_equal


def run_bench(
    config: Optional[LlmfastBenchConfig] = None, quick: bool = False
) -> LlmfastBenchResult:
    """Run all three measurements plus the equality re-verification."""
    cfg = config or (LlmfastBenchConfig.quick() if quick else LlmfastBenchConfig())
    result = LlmfastBenchResult()
    result.meta = {
        "quick": quick,
        "distinct": cfg.distinct,
        "analyses": cfg.analyses,
        "retrievals": cfg.retrievals,
        "prompts": cfg.prompts,
        "model": cfg.model,
    }
    _bench_storm(cfg, result)
    _bench_rag(cfg, result)
    _bench_prompt(cfg, result)
    return result


def violations(result: LlmfastBenchResult, baseline: Optional[dict] = None) -> list:
    """Gate a result against the hard floors and the committed baseline."""
    out: list[str] = []
    for key, ok in result.equality.items():
        if not ok:
            out.append(f"equality contract broken: {key}")
    checks = (
        ("storm", result.storm.get("speedup", 0.0), STORM_SPEEDUP_MIN),
        ("rag", result.rag.get("speedup", 0.0), RAG_SPEEDUP_MIN),
        ("prompt", result.prompt.get("speedup", 0.0), PROMPT_SPEEDUP_MIN),
    )
    for name, speedup, floor in checks:
        if speedup < floor:
            out.append(f"{name} speedup {speedup:.2f}x below floor {floor:g}x")
    if baseline:
        for name, speedup, _ in checks:
            committed = baseline.get(name, {})
            committed = (
                committed.get("speedup") if isinstance(committed, dict) else None
            )
            if isinstance(committed, (int, float)) and speedup < committed * BASELINE_SLACK:
                out.append(
                    f"{name}.speedup {speedup:.2f}x regressed below "
                    f"{BASELINE_SLACK:.0%} of committed baseline {committed:.2f}x"
                )
    return out


def load_baseline(path) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def save_result(result: LlmfastBenchResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
