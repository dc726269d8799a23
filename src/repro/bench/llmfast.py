"""Verdict-plane bench: analyzer throughput under duplicate-heavy load.

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
byte-identical per trace (with and without snippets).  No CPU gating:
every win here is single-threaded caching/vectorization, so the floors
are unconditional.

The storm the fast path targets is *duplicate-heavy*: an incident flood
re-raises the same handful of trace shapes (the same attack against many
sessions, or the same session re-flagged), so most queries share a
canonical trace signature.  :func:`distinct_traces` builds a deterministic
set of structurally distinct telemetry sequences (benign, signaling
storm, null cipher, identity exposure, replay — plus length-varied
benigns); :func:`duplicate_heavy` tiles them into a workload where each
distinct shape recurs many times in a deterministic shuffle.  The tests
use the same traces.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.driver import BenchResult, best_of
from repro.llm.analyst import ExpertAnalyst
from repro.llm.cache import LlmfastSettings
from repro.llm.client import LlmClient, SimulatedLlmServer
from repro.llm.knowledge import CellularKnowledgeBase, VectorizedRetriever
from repro.llm.prompt import CompiledPromptBuilder, PromptTemplate
from repro.telemetry.mobiflow import MobiFlowRecord


# -- the duplicate-heavy workload ------------------------------------------------


def _rec(t: float, msg: str, session: int = 1, **kwargs) -> MobiFlowRecord:
    defaults = dict(protocol="RRC", direction="UL", rnti=0x100 + session)
    defaults.update(kwargs)
    return MobiFlowRecord(timestamp=t, msg=msg, session_id=session, **defaults)


def benign_trace(session: int = 1, t0: float = 0.0, pad: int = 0) -> list:
    """A clean registration; ``pad`` extra identity round trips vary the
    msg sequence (and therefore the trace signature) without tripping any
    attack signature."""
    seq: list = [
        ("RRCSetupRequest", dict(establishment_cause="mo-Signalling")),
        ("RRCSetup", dict(direction="DL")),
        ("RRCSetupComplete", {}),
        ("RegistrationRequest", dict(suci="suci-001-01-abcdef")),
        ("AuthenticationRequest", dict(direction="DL")),
        ("AuthenticationResponse", {}),
        ("NASSecurityModeCommand", dict(direction="DL", cipher_alg=2, integrity_alg=2)),
        ("NASSecurityModeComplete", {}),
    ]
    for _ in range(pad):
        seq.append(("UECapabilityEnquiry", dict(direction="DL")))
        seq.append(("UECapabilityInformation", {}))
    seq += [
        ("RegistrationAccept", dict(direction="DL", s_tmsi=0xAB00 + session)),
        ("RegistrationComplete", {}),
        ("RRCRelease", dict(direction="DL")),
    ]
    return [
        _rec(t0 + 0.05 * i, msg, session=session, **kw)
        for i, (msg, kw) in enumerate(seq)
    ]


def storm_trace(connections: int = 6, t0: float = 0.0) -> list:
    """An RRC signaling storm: many setups, nothing completes."""
    records: list = []
    for i in range(connections):
        session = 10 + i
        records += [
            _rec(
                t0 + 0.15 * i,
                "RRCSetupRequest",
                session=session,
                establishment_cause="mo-Data",
            ),
            _rec(t0 + 0.15 * i + 0.02, "RRCSetup", session=session, direction="DL"),
        ]
    return records


def null_cipher_trace(session: int = 3, t0: float = 0.0) -> list:
    records = benign_trace(session=session, t0=t0)
    return [
        MobiFlowRecord(
            **{
                **r.to_dict(),
                **(
                    dict(cipher_alg=0, integrity_alg=0)
                    if r.msg == "NASSecurityModeCommand"
                    else {}
                ),
            }
        )
        for r in records
    ]


def identity_exposure_trace(session: int = 4, t0: float = 0.0) -> list:
    records = benign_trace(session=session, t0=t0)
    out = []
    for r in records:
        if r.msg == "RegistrationRequest":
            fields = r.to_dict()
            fields["supi"] = "imsi-001010123456789"
            out.append(MobiFlowRecord(**fields))
        else:
            out.append(r)
    return out


def replay_trace(session: int = 5, t0: float = 0.0, replays: int = 4) -> list:
    """The same S-TMSI re-raised in rapid succession (paging replay)."""
    records: list = []
    for i in range(replays):
        records += [
            _rec(
                t0 + 0.1 * i,
                "RRCSetupRequest",
                session=session,
                s_tmsi=0xBEEF,
                establishment_cause="mt-Access",
            ),
            _rec(t0 + 0.1 * i + 0.02, "RRCSetup", session=session, direction="DL"),
        ]
    return records


def distinct_traces(count: int = 16) -> list:
    """``count`` structurally distinct traces (distinct msg sequences)."""
    base = [
        benign_trace(session=1),
        storm_trace(connections=6),
        null_cipher_trace(session=3),
        identity_exposure_trace(session=4),
        replay_trace(session=5),
    ]
    out = list(base[:count])
    pad = 1
    while len(out) < count:
        # Length-varied benigns and storms round out the set.
        if pad % 2:
            out.append(benign_trace(session=20 + pad, pad=pad))
        else:
            out.append(storm_trace(connections=6 + pad))
        pad += 1
    return out


def duplicate_heavy(
    traces: list, total: int, seed: int = 11, rng: Optional[random.Random] = None
) -> list:
    """Tile ``traces`` to ``total`` queries in a deterministic shuffle."""
    rng = rng or random.Random(seed)
    workload = [traces[i % len(traces)] for i in range(total)]
    rng.shuffle(workload)
    return workload


def decision_tuple(response) -> tuple:
    """The verdict *decision* — the part the fast path must keep identical.

    Free text (explanation style, evidence timestamps) may differ between
    a cached and a fresh response; the classification, ranked attacks,
    attribution, and remediation set may not.
    """
    return (
        response.is_anomalous,
        tuple(name for name, _ in response.top_attacks),
        response.attribution,
        tuple(response.remediations),
    )


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
class LlmfastBenchResult(BenchResult):
    storm: dict = field(default_factory=dict)
    rag: dict = field(default_factory=dict)
    prompt: dict = field(default_factory=dict)

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
        lines.append(self.equality_line())
        return "\n".join(lines)


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
    seed_s = best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = best_of(cfg.repeats, fast_run)
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
    seed_s = best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = best_of(cfg.repeats, fast_run)
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
    seed_s = best_of(cfg.repeats, seed_run)
    fast_run()
    fast_s = best_of(cfg.repeats, fast_run)
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


def _checks(result: LlmfastBenchResult) -> tuple:
    return (
        ("storm", result.storm.get("speedup", 0.0), STORM_SPEEDUP_MIN),
        ("rag", result.rag.get("speedup", 0.0), RAG_SPEEDUP_MIN),
        ("prompt", result.prompt.get("speedup", 0.0), PROMPT_SPEEDUP_MIN),
    )


def floor_violations(result: LlmfastBenchResult) -> list:
    out = [f"equality contract broken: {k}" for k, ok in result.equality.items() if not ok]
    for name, speedup, floor in _checks(result):
        if speedup < floor:
            out.append(f"{name} speedup {speedup:.2f}x below floor {floor:g}x")
    return out


def baseline_checks(result: LlmfastBenchResult, baseline: dict) -> list:
    return [((name, "speedup"), speedup) for name, speedup, _ in _checks(result)]
