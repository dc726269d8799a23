"""Tests for the verdict-plane fast path (``XsecConfig.llmfast``,
:mod:`repro.llm.cache`).

Unit coverage for the settings, the vectorized retriever and the compiled
prompt builder every analyst runs (ranking- / byte-identical to their
references in ``tests/reference_llm.py``), the verdict cache and trace signatures, and
the analyzer xApp's cache/coalesce ledger — plus the five-scenario live
decision-identity contract against the default analyzer path.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SixGXSec, XsecConfig
from repro.core.framework import build_detector
from repro.core.llm_analyzer import SDL_VERDICT_NS, LlmAnalyzerXApp
from repro.core.mobiwatch import AnomalyEvent, MobiWatchXApp
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.llm.analyst import ExpertAnalyst
from repro.llm.client import LlmClient, SimulatedLlmServer
from repro.llm.knowledge import CellularKnowledgeBase, VectorizedRetriever
from repro.llm.prompt import CompiledPromptBuilder, parse_data_section
from repro.llm.cache import CachedVerdict, LlmfastSettings, VerdictCache, trace_signature
from repro.oran.ric import NearRtRic
from repro.ran.links import InterfaceLink
from repro.ran.network import NetworkConfig
from repro.sim import Simulator
from repro.telemetry.mobiflow import MobiFlowRecord

from tests.llm_traces import (
    benign_trace,
    decision_tuple,
    distinct_traces,
    duplicate_heavy,
    null_cipher_trace,
    storm_trace,
)
from tests.reference_llm import PromptTemplate, retrieve
from tests.test_llm import reference_parse_data_section
from tests.test_megabatch import ATTACK_SCENARIOS, NonzeroCountDetector


# ---------------------------------------------------------------------------
# settings


class TestSettings:
    def test_defaults_are_seed_path(self):
        settings = LlmfastSettings()
        assert not settings.fast_submit_enabled

    def test_fast_submit_needs_an_xapp_flag(self):
        assert not LlmfastSettings(cache_capacity=8).fast_submit_enabled
        assert LlmfastSettings(verdict_cache=True).fast_submit_enabled
        assert LlmfastSettings(coalesce=True).fast_submit_enabled

    def test_all_on(self):
        settings = LlmfastSettings.all_on()
        assert settings.verdict_cache and settings.coalesce
        assert settings.fast_submit_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_capacity": 0},
            {"max_inflight": 0},
            {"queue_capacity": 0},
            {"queue_capacity": -1},
        ],
    )
    def test_validation(self, kwargs):
        # The storm dispatcher's knobs are deleted, not merely validated.
        error = ValueError if "cache_capacity" in kwargs else TypeError
        with pytest.raises(error):
            LlmfastSettings(**kwargs)

    def test_default_config_keeps_seed_analyzer(self):
        config = XsecConfig()
        assert not config.llmfast.fast_submit_enabled
        sim = Simulator(seed=0)
        e2 = InterfaceLink(sim, "E2")
        e2.connect(a_handler=lambda m: None, b_handler=lambda m: None)
        ric = NearRtRic(sim, e2)
        watch = MobiWatchXApp(ric, config)
        analyzer = LlmAnalyzerXApp(ric, watch, config=config)
        # What distinguishes the default on the one submit path: no verdict
        # cache, no signatures, and every offered query reaches the provider.
        assert analyzer.analyst._cache is None
        assert analyzer.analyst._interner is None
        assert analyzer.analyst.signature_for(storm_trace()) is None
        watch.start_called = True
        analyzer.start()
        feed(watch, storm_trace())
        for session in (1, 2, 3):
            analyzer._on_anomaly(anomaly(session=session, indices=(0,)))
        assert analyzer.queries_sent == analyzer.offered == analyzer.pending == 3
        sim.run(until=15.0)
        assert analyzer.ledger() == {
            "offered": 3, "analyzed": 3, "coalesced": 0, "cache_hits": 0,
            "shed": 0, "pending": 0,
        }
        assert analyzer.analyst.analyses_run == len(analyzer.verdicts) == 3


# ---------------------------------------------------------------------------
# vectorized retrieval


class TestVectorizedRetrieval:
    def test_rankings_identical_to_seed(self):
        knowledge = CellularKnowledgeBase()
        retriever = VectorizedRetriever(knowledge)
        for records in distinct_traces(16):
            for top_k in (1, 2, 4, 10):
                assert retriever.retrieve(records, top_k=top_k) == retrieve(
                    knowledge, records, top_k=top_k
                )

    def test_empty_and_unknown_traces(self):
        knowledge = CellularKnowledgeBase()
        retriever = VectorizedRetriever(knowledge)
        assert retriever.retrieve([]) == retrieve(knowledge, [])
        unknown = [
            MobiFlowRecord(
                timestamp=0.0, msg="TotallyUnknownMessage", protocol="RRC", direction="UL"
            )
        ]
        assert retriever.retrieve(unknown) == retrieve(knowledge, unknown)

    def test_result_memo_hits_on_duplicates(self):
        retriever = VectorizedRetriever(CellularKnowledgeBase())
        trace = storm_trace()
        first = retriever.retrieve(trace)
        again = retriever.retrieve(list(trace))  # same content, new list
        assert first == again
        assert retriever.queries == 2
        assert retriever.memo_hits == 1


# ---------------------------------------------------------------------------
# compiled prompt assembly


class TestCompiledPrompts:
    def test_byte_identical_without_snippets(self):
        builder = CompiledPromptBuilder()
        for records in distinct_traces(16):
            assert builder.render(records) == PromptTemplate().render(records)

    def test_byte_identical_with_snippets(self):
        knowledge = CellularKnowledgeBase()
        builder = CompiledPromptBuilder()
        for records in distinct_traces(16):
            snippets = retrieve(knowledge, records)
            if not snippets:
                continue
            template = PromptTemplate()
            template.retrieved_snippets = list(snippets)
            assert builder.render(records, snippets) == template.render(records)

    def test_line_cache_hits_on_duplicates(self):
        builder = CompiledPromptBuilder()
        trace = benign_trace()
        builder.render(trace)
        hits_before = builder.line_cache_hits
        builder.render(trace)
        assert builder.line_cache_hits - hits_before == len(trace)

    def test_tiny_line_cache_never_wrong(self):
        builder = CompiledPromptBuilder(line_cache_capacity=2)
        for records in distinct_traces(6):
            assert builder.render(records) == PromptTemplate().render(records)


# ---------------------------------------------------------------------------
# trace signatures and the verdict cache


def _signature(records, model="chatgpt-4o", use_rag=False):
    from repro.llm.knowledge import AnalysisEngine

    engine = AnalysisEngine(CellularKnowledgeBase())
    snippets = ()
    if use_rag:
        snippets = tuple(retrieve(CellularKnowledgeBase(), records))
    return trace_signature(
        records, engine.analyze(records), model=model, use_rag=use_rag, snippets=snippets
    )


class TestTraceSignatures:
    def test_identical_content_same_signature(self):
        assert _signature(storm_trace()) == _signature(storm_trace())

    def test_msg_sequence_discriminates(self):
        assert _signature(storm_trace()) != _signature(benign_trace())
        assert _signature(benign_trace()) != _signature(benign_trace(pad=1))

    def test_model_and_rag_discriminate(self):
        trace = storm_trace()
        assert _signature(trace, model="chatgpt-4o") != _signature(trace, model="copilot")
        assert _signature(trace, use_rag=False) != _signature(trace, use_rag=True)

    def test_sessions_and_timestamps_do_not_discriminate(self):
        # The decision is a pure function of msgs + matches + model + RAG;
        # near-duplicates (same shapes, shifted time/session) share one
        # signature and one provider round trip.
        assert _signature(benign_trace(session=1, t0=0.0)) == _signature(
            benign_trace(session=9, t0=50.0)
        )


class TestVerdictCache:
    def _entry(self, tag="x"):
        from repro.llm.response import AnalysisResponse

        return CachedVerdict(
            response=AnalysisResponse(verdict="benign", explanation=tag),
            prompt=tag,
            model="chatgpt-4o",
        )

    def test_hit_miss_and_lru_eviction(self):
        cache = VerdictCache(capacity=2)
        sig_a, sig_b, sig_c = (
            _signature(benign_trace(pad=i)) for i in range(3)
        )
        cache.put(sig_a, self._entry("a"))
        cache.put(sig_b, self._entry("b"))
        assert cache.get(sig_a).prompt == "a"  # refreshes a's recency
        cache.put(sig_c, self._entry("c"))  # evicts b (LRU)
        assert cache.get(sig_b) is None
        assert cache.get(sig_a) is not None
        assert cache.get(sig_c) is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert stats["hits"] == 3 and stats["misses"] == 1


# ---------------------------------------------------------------------------
# the fast analyst


class TestAnalystFastPath:
    def _analysts(self, use_rag=True, model="chatgpt-4o"):
        server = SimulatedLlmServer()
        seed = ExpertAnalyst(
            client=LlmClient(server=server, model=model), use_rag=use_rag
        )
        fast = ExpertAnalyst(
            client=LlmClient(server=server, model=model),
            use_rag=use_rag,
            llmfast=LlmfastSettings(verdict_cache=True),
        )
        return seed, fast

    def test_default_analyst_equals_reference_retrieval_and_prompt(self):
        """What every analyst runs vs the references it replaced as defaults:
        the retrieval loop and ``PromptTemplate.render`` of
        ``tests/reference_llm.py``."""
        analyst, _ = self._analysts()
        knowledge = CellularKnowledgeBase()
        for records in distinct_traces(16):
            snippets = analyst.retrieve_snippets(records)
            assert snippets == retrieve(knowledge, records)
            assert analyst.build_prompt(records) == PromptTemplate().render(records)
            assert analyst.build_prompt(records, snippets) == PromptTemplate(
                retrieved_snippets=list(snippets)
            ).render(records)

    def test_decisions_identical_on_duplicate_heavy_workload(self):
        seed, fast = self._analysts()
        workload = duplicate_heavy(distinct_traces(8), 64)
        for records in workload:
            assert decision_tuple(seed.analyze(records).response) == decision_tuple(
                fast.analyze(records).response
            )
        assert fast.analyses_run == 8  # one provider round per distinct trace
        assert fast.cache_hits == 64 - 8
        assert fast.analyze(workload[0]).from_cache is True

    def test_seed_analyst_never_caches(self):
        seed, _ = self._analysts()
        trace = storm_trace()
        seed.analyze(trace)
        seed.analyze(trace)
        assert seed.analyses_run == 2
        assert seed.cache_hits == 0
        assert seed.cache_stats == {}


# ---------------------------------------------------------------------------
# the analyzer xApp fast path (unit level)


def make_stack(llmfast=None, evict_on_release=False, model="chatgpt-4o", cooldown=10.0):
    config = XsecConfig(
        llm_session_cooldown_s=cooldown,
        llm_model=model,
        llmfast=llmfast or LlmfastSettings(),
        evict_on_release=evict_on_release,
    )
    sim = Simulator(seed=0)
    e2 = InterfaceLink(sim, "E2")
    e2.connect(a_handler=lambda m: None, b_handler=lambda m: None)
    ric = NearRtRic(sim, e2)
    watch = MobiWatchXApp(ric, config)
    analyzer = LlmAnalyzerXApp(ric, watch, config=config)
    watch.start_called = True
    analyzer.start()
    return sim, ric, watch, analyzer


def feed(watch, records):
    from tests.test_core_units import indication

    watch.on_indication(indication(records))


def anomaly(session=1, ts=0.0, indices=(0,), score=1.0):
    return AnomalyEvent(
        detected_at=ts,
        session_id=session,
        rnti=0x10,
        s_tmsi=None,
        score=score,
        threshold=0.5,
        record_indices=indices,
        newest_record_ts=ts,
    )


def assert_ledger_invariant(analyzer):
    led = analyzer.ledger()
    assert led["offered"] == (
        led["analyzed"]
        + led["coalesced"]
        + led["cache_hits"]
        + led["shed"]
        + led["pending"]
    ), led


class TestAnalyzerFastPath:
    def test_cache_hit_skips_provider_round_trip(self):
        sim, ric, watch, analyzer = make_stack(
            llmfast=LlmfastSettings(verdict_cache=True)
        )
        feed(watch, storm_trace())
        analyzer._on_anomaly(anomaly(session=1, ts=0.0, indices=(0,)))
        sim.run(until=15.0)
        assert len(analyzer.verdicts) == 1
        # A different session raising the same trace hits the cache: no
        # second query, verdict delivered without the provider latency.
        analyzer._on_anomaly(anomaly(session=2, ts=15.0, indices=(0,)))
        sim.run(until=15.1)
        assert analyzer.queries_sent == 1
        assert analyzer.cache_hits == 1
        assert len(analyzer.verdicts) == 2
        assert analyzer.verdicts[1].verdict.from_cache is True
        assert decision_tuple(analyzer.verdicts[0].verdict.response) == decision_tuple(
            analyzer.verdicts[1].verdict.response
        )
        assert_ledger_invariant(analyzer)
        assert analyzer.pending == 0

    def test_concurrent_identical_queries_coalesce(self):
        sim, ric, watch, analyzer = make_stack(
            llmfast=LlmfastSettings(verdict_cache=True, coalesce=True)
        )
        feed(watch, storm_trace())
        for session in (1, 2, 3):
            analyzer._on_anomaly(anomaly(session=session, indices=(0,)))
        assert analyzer.queries_sent == 1  # one in-flight request, two waiters
        assert analyzer.coalesced == 2
        sim.run(until=15.0)
        assert len(analyzer.verdicts) == 3  # the verdict fanned out
        sessions = sorted(v.anomaly.session_id for v in analyzer.verdicts)
        assert sessions == [1, 2, 3]
        decisions = {
            decision_tuple(v.verdict.response) for v in analyzer.verdicts
        }
        assert len(decisions) == 1
        assert_ledger_invariant(analyzer)
        assert analyzer.pending == 0

    def test_cooldown_suppression_precedes_the_ledger(self):
        sim, ric, watch, analyzer = make_stack(llmfast=LlmfastSettings.all_on())
        feed(watch, storm_trace())
        analyzer._on_anomaly(anomaly(session=1, ts=0.0, indices=(0,)))
        analyzer._on_anomaly(anomaly(session=1, ts=1.0, indices=(0,)))
        assert analyzer.queries_suppressed == 1
        assert analyzer.offered == 1  # suppressed queries never enter the ledger
        sim.run(until=15.0)
        assert_ledger_invariant(analyzer)

    def test_human_review_escalation_on_fast_path(self):
        # copilot only perceives signaling storms: a null-cipher trace
        # comes back benign, contradicting the detector -> human review.
        sim, ric, watch, analyzer = make_stack(
            llmfast=LlmfastSettings.all_on(), model="copilot"
        )
        trace = null_cipher_trace(session=1)
        feed(watch, trace)
        # indices anchor context_for at the end of the trace so the
        # analyst sees the whole null-cipher sequence.
        analyzer._on_anomaly(anomaly(session=1, indices=(len(trace) - 1,)))
        sim.run(until=15.0)
        assert len(analyzer.verdicts) == 1
        assert analyzer.verdicts[0].needs_human_review
        assert len(analyzer.human_review_queue) == 1
        # The cached repeat escalates identically.
        analyzer._on_anomaly(anomaly(session=2, ts=14.0, indices=(len(trace) - 1,)))
        sim.run(until=15.5)
        assert analyzer.cache_hits == 1
        assert len(analyzer.human_review_queue) == 2


class TestVerdictKeys:
    def test_sdl_keys_are_monotonic_and_wide(self):
        sim, ric, watch, analyzer = make_stack()
        feed(watch, storm_trace() + benign_trace(session=30))
        analyzer._on_anomaly(anomaly(session=1, indices=(0,)))
        analyzer._on_anomaly(anomaly(session=2, indices=(1,)))
        sim.run(until=30.0)
        keys = ric.sdl.keys(SDL_VERDICT_NS)
        assert keys == ["000000000001", "000000000002"]
        # The counter is decoupled from len(self.verdicts): past the old
        # 6-digit pad width the keys keep sorting (and never collide).
        analyzer._verdict_seq = 999_999
        analyzer._on_anomaly(anomaly(session=3, ts=40.0, indices=(0,)))
        sim.run(until=80.0)
        keys = ric.sdl.keys(SDL_VERDICT_NS)
        assert len(keys) == 3
        assert keys[-1] == "000001000000"
        assert keys == sorted(keys)


class TestSessionEvictionPruning:
    def test_eviction_prunes_cooldown_state(self):
        sim, ric, watch, analyzer = make_stack(
            llmfast=LlmfastSettings.all_on(), evict_on_release=True
        )
        trace = benign_trace(session=1)
        feed(watch, trace[:-1])  # hold back the RRCRelease for now
        analyzer._on_anomaly(anomaly(session=1, ts=0.0, indices=(0,)))
        assert 1 in analyzer._session_last_query
        feed(watch, trace[-1:])  # the release drives the eviction
        assert 1 not in analyzer._session_last_query
        assert analyzer.sessions_evicted == 1
        # The evicted session re-appearing starts from a clean slate:
        # its next anomaly is not cooldown-suppressed.
        sim.run(until=15.0)
        analyzer._on_anomaly(anomaly(session=1, ts=1.0, indices=(0,)))
        assert analyzer.queries_suppressed == 0
        assert_ledger_invariant(analyzer)

    def test_seed_path_prunes_too(self):
        # The unbounded _session_last_query growth was a seed bug; the
        # pruning hook is active regardless of llmfast flags.
        sim, ric, watch, analyzer = make_stack(evict_on_release=True)
        trace = benign_trace(session=1)
        feed(watch, trace[:-1])
        analyzer._on_anomaly(anomaly(session=1, indices=(0,)))
        feed(watch, trace[-1:])
        assert analyzer._session_last_query == {}
        assert analyzer.sessions_evicted == 1


# ---------------------------------------------------------------------------
# live five-scenario decision identity (seed vs all-flags-on)


@pytest.fixture(scope="module")
def storm_detector():
    capture = generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )
    config = XsecConfig()
    windows = capture.labeled(config.spec, config.window, "benign").windowed.windows
    det_config = XsecConfig(detector="lstm", train_epochs=6)
    detector = build_detector(det_config)
    detector.fit(np.asarray(windows), epochs=6, lr=det_config.train_lr)
    # Lower operating point so every scenario produces verdict traffic
    # (identically for the seed and fast runs under comparison).
    detector.threshold.threshold *= 0.45
    return detector


def run_live(detector, llmfast, attack=None, net_kwargs=None, until=20.0):
    config = XsecConfig(
        detector=detector.name,
        train_epochs=6,
        llmfast=llmfast,
        llm_use_rag=True,
        llm_session_cooldown_s=1.0,
    )
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=77, **(net_kwargs or {})))
    xsec.deploy_detector(copy.deepcopy(detector))
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    if attack is not None:
        attack(xsec.net).arm()
    xsec.run(until=until)
    return xsec


def verdict_decisions(xsec):
    """The per-verdict decision set, excluding completed_at (cache hits
    land earlier than provider round trips — by design)."""
    return sorted(
        (
            v.anomaly.detected_at,
            v.anomaly.session_id,
            v.confirmed,
            v.verdict.response.top_attacks[0][0]
            if v.verdict.response.top_attacks
            else "",
            v.needs_human_review,
        )
        for v in xsec.analyzer.verdicts
    )


class TestLiveScenarioDecisionIdentity:
    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_all_flags_on_decisions_identical_to_seed(self, storm_detector, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        seed_run = run_live(
            storm_detector, LlmfastSettings(), attack=factory, net_kwargs=net_kwargs
        )
        fast_run = run_live(
            storm_detector,
            LlmfastSettings.all_on(),
            attack=factory,
            net_kwargs=net_kwargs,
        )
        assert len(seed_run.analyzer.verdicts) > 0
        assert verdict_decisions(fast_run) == verdict_decisions(seed_run)
        # The default run's prompts, byte for byte, from the references ...
        knowledge = CellularKnowledgeBase()
        parsed_lines: dict = {}
        for event in seed_run.analyzer.verdicts:
            records = seed_run.mobiwatch.context_for(
                event.anomaly, seed_run.config.llm_context_records
            )
            reference = PromptTemplate(retrieved_snippets=retrieve(knowledge, records))
            assert event.verdict.prompt == reference.render(records)
            # ... and read back by a provider that remembers lines as by one
            # that parses every prompt from scratch.
            assert parse_data_section(
                event.verdict.prompt, parsed_lines
            ) == reference_parse_data_section(event.verdict.prompt)
        assert parsed_lines
        assert (
            fast_run.analyzer.queries_suppressed == seed_run.analyzer.queries_suppressed
        )
        assert_ledger_invariant(fast_run.analyzer)
        assert fast_run.analyzer.pending == 0
        # The fast run never issues more provider queries than the seed.
        assert fast_run.analyzer.queries_sent <= seed_run.analyzer.queries_sent


# ---------------------------------------------------------------------------
# the one submit path against the parent's seed path (default config)

DEFAULT_RUNS_FIXTURE = Path(__file__).parent / "fixtures" / "analyzer_default_runs.json"


def default_analyzer_runs():
    """A default-config live run per attack scenario (BLAS-free detector, so
    the numbers travel between machines): every verdict with its timing, the
    provider query count, the SDL verdict namespace, and the ordered
    ``(sim time, event name)`` log of what the analyzer scheduled."""
    config = XsecConfig()
    detector = NonzeroCountDetector(window=config.window, feature_dim=config.spec.dim)
    detector.threshold.threshold = 4.5
    schedule = Simulator.schedule
    runs = {}
    for scenario, (factory, net_kwargs) in sorted(ATTACK_SCENARIOS.items()):
        log = []

        def logged(sim, delay, callback, name=""):
            if name.startswith("llm-analyzer"):
                log.append([sim.now, delay, name])
            return schedule(sim, delay, callback, name=name)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Simulator, "schedule", logged)
            xsec = run_live(detector, LlmfastSettings(), attack=factory, net_kwargs=net_kwargs)
        analyzer = xsec.analyzer
        runs[scenario] = {
            "verdicts": [
                [
                    v.anomaly.detected_at,
                    v.anomaly.session_id,
                    v.confirmed,
                    v.verdict.response.top_attacks[0][0]
                    if v.verdict.response.top_attacks
                    else "",
                    v.needs_human_review,
                    v.completed_at,
                ]
                for v in analyzer.verdicts
            ],
            "queries_sent": analyzer.queries_sent,
            "queries_suppressed": analyzer.queries_suppressed,
            "sdl_verdicts": [
                [key, xsec.ric.sdl.get(SDL_VERDICT_NS, key)]
                for key in sorted(xsec.ric.sdl.keys(SDL_VERDICT_NS))
            ],
            "log": log,
            "sim_events_total": xsec.net.sim.events_processed,
        }
    return runs


class TestParentDefaultRuns:
    """tests/fixtures/analyzer_default_runs.json is ``default_analyzer_runs()``
    as commit 323bba3 produced it, where the default config still took the
    seed's own ``_on_anomaly`` -> ``_complete`` path beside the fast one."""

    def test_one_submit_path_reproduces_seed_path(self):
        recorded = json.loads(DEFAULT_RUNS_FIXTURE.read_text())
        got = json.loads(json.dumps(default_analyzer_runs()))
        assert sorted(got) == sorted(ATTACK_SCENARIOS)
        for scenario, run in got.items():
            assert run["verdicts"], scenario
            assert run["queries_sent"] == len(run["log"]), scenario
            assert run == recorded[scenario], scenario
        assert any(run["queries_suppressed"] for run in got.values())
