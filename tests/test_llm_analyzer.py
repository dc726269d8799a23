"""Tests for the LLM analyzer xApp and the analyst it drives.

The vectorized retriever and the compiled prompt builder every analyst
runs (ranking- / byte-identical to their references in
``tests/reference_llm.py``); the analyzer's verdict keys, session pruning
and query ledger; that every verdict's prompt holds its own anomaly's
records and no other session's; and the five-scenario default runs
against the behaviour recorded before the analyzer had one submit path.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.core import SixGXSec, XsecConfig
from repro.core.llm_analyzer import SDL_VERDICT_NS, LlmAnalyzerXApp
from repro.core.mobiwatch import AnomalyEvent, MobiWatchXApp
from repro.llm.analyst import ExpertAnalyst
from repro.llm.client import LlmClient, SimulatedLlmServer
from repro.llm.knowledge import VectorizedRetriever
from repro.llm.prompt import CompiledPromptBuilder, format_record, parse_data_section
from repro.oran.ric import NearRtRic
from repro.ran.links import InterfaceLink
from repro.ran.network import NetworkConfig
from repro.sim import Simulator
from repro.telemetry.mobiflow import MobiFlowRecord

from tests.llm_traces import (
    benign_trace,
    distinct_traces,
    identity_exposure_trace,
    null_cipher_trace,
    storm_trace,
)
from tests.reference_llm import PromptTemplate, retrieve
from tests.test_llm import reference_parse_data_section
from tests.test_megabatch import ATTACK_SCENARIOS, NonzeroCountDetector


# ---------------------------------------------------------------------------
# vectorized retrieval


class TestVectorizedRetrieval:
    def test_rankings_identical_to_seed(self):
        retriever = VectorizedRetriever()
        for records in distinct_traces(16):
            for top_k in (1, 2, 4, 10):
                assert retriever.retrieve(records, top_k=top_k) == retrieve(
                    records, top_k=top_k
                )

    def test_empty_and_unknown_traces(self):
        retriever = VectorizedRetriever()
        assert retriever.retrieve([]) == retrieve([])
        unknown = [
            MobiFlowRecord(
                timestamp=0.0, msg="TotallyUnknownMessage", protocol="RRC", direction="UL"
            )
        ]
        assert retriever.retrieve(unknown) == retrieve(unknown)

    def test_result_memo_hits_on_duplicates(self):
        retriever = VectorizedRetriever()
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
        builder = CompiledPromptBuilder()
        for records in distinct_traces(16):
            snippets = retrieve(records)
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
# the analyst


class TestAnalyst:
    def test_default_analyst_equals_reference_retrieval_and_prompt(self):
        """What every analyst runs vs the references it replaced as defaults:
        the retrieval loop and ``PromptTemplate.render`` of
        ``tests/reference_llm.py``."""
        analyst = ExpertAnalyst(
            client=LlmClient(server=SimulatedLlmServer(), model="chatgpt-4o"),
            use_rag=True,
        )
        for records in distinct_traces(16):
            snippets = analyst.retrieve_snippets(records)
            assert snippets == retrieve(records)
            assert analyst.build_prompt(records) == PromptTemplate().render(records)
            assert analyst.build_prompt(records, snippets) == PromptTemplate(
                retrieved_snippets=list(snippets)
            ).render(records)


# ---------------------------------------------------------------------------
# the analyzer xApp (unit level)


def make_stack(evict_on_release=False, context_records=40, model="chatgpt-4o"):
    config = XsecConfig(
        llm_session_cooldown_s=10.0,
        llm_context_records=context_records,
        llm_model=model,
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


class TestEachVerdictExplainsItsOwnRecords:
    """Two sessions with the same message sequence and different SUPIs:
    each verdict's prompt holds its own anomaly's context records and no
    record of the other session, and each query is its own provider round
    trip, whether the two are offered together or one after the other."""

    SUPIS = {4: "imsi-001010000000004", 5: "imsi-001010000000005"}

    @pytest.mark.parametrize("gap_s", [0.0, 15.0], ids=["together", "one-after-the-other"])
    def test_prompt_data_is_the_anomaly_s_own_context(self, gap_s):
        traces = {
            session: identity_exposure_trace(session=session, t0=session, supi=supi)
            for session, supi in self.SUPIS.items()
        }
        length = len(traces[4])
        assert [r.msg for r in traces[4]] == [r.msg for r in traces[5]]
        sim, ric, watch, analyzer = make_stack(context_records=length)
        feed(watch, traces[4] + traces[5])
        analyzer._on_anomaly(anomaly(session=4, ts=0.0, indices=(length - 1,)))
        sim.run(until=gap_s)
        analyzer._on_anomaly(anomaly(session=5, ts=gap_s, indices=(2 * length - 1,)))
        sim.run(until=gap_s + 15.0)
        assert analyzer.ledger() == {
            "offered": 2, "analyzed": 2, "coalesced": 0, "cache_hits": 0,
            "shed": 0, "pending": 0,
        }
        assert analyzer.server.requests_served == analyzer.analyst.analyses_run == 2
        assert sorted(v.anomaly.session_id for v in analyzer.verdicts) == [4, 5]
        for event in analyzer.verdicts:
            session = event.anomaly.session_id
            data = parse_data_section(event.verdict.prompt)
            own = watch.context_for(event.anomaly, length)
            assert [format_record(r) for r in data] == [format_record(r) for r in own]
            assert {r.session_id for r in data} == {session}
            assert {r.supi for r in data} - {None} == {self.SUPIS[session]}


class TestHumanReview:
    def test_contradiction_escalates(self):
        # copilot only perceives signaling storms: a null-cipher trace
        # comes back benign, contradicting the detector -> human review.
        sim, ric, watch, analyzer = make_stack(model="copilot")
        trace = null_cipher_trace(session=1)
        feed(watch, trace)
        # indices anchor context_for at the end of the trace so the
        # analyst sees the whole null-cipher sequence.
        analyzer._on_anomaly(anomaly(session=1, indices=(len(trace) - 1,)))
        sim.run(until=15.0)
        assert len(analyzer.verdicts) == 1
        assert analyzer.verdicts[0].needs_human_review
        assert analyzer.human_review_queue == analyzer.verdicts
        assert analyzer.analyst.escalations == 1


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
        sim, ric, watch, analyzer = make_stack(evict_on_release=True)
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
        assert analyzer.queries_sent == 2

    def test_release_empties_cooldown_state(self):
        # The unbounded _session_last_query growth was a seed bug: with
        # release eviction on and nothing else set, the release leaves the
        # analyzer no per-session state.
        sim, ric, watch, analyzer = make_stack(evict_on_release=True)
        trace = benign_trace(session=1)
        feed(watch, trace[:-1])
        analyzer._on_anomaly(anomaly(session=1, indices=(0,)))
        feed(watch, trace[-1:])
        assert analyzer._session_last_query == {}
        assert analyzer.sessions_evicted == 1


# ---------------------------------------------------------------------------
# live runs


def run_live(detector, attack=None, net_kwargs=None, until=20.0):
    config = XsecConfig(
        detector=detector.name,
        train_epochs=6,
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


# ---------------------------------------------------------------------------
# the one submit path against the parent's seed path (default config)

DEFAULT_RUNS_FIXTURE = Path(__file__).parent / "fixtures" / "analyzer_default_runs.json"


def default_analyzer_runs(deployments=None):
    """A default-config live run per attack scenario (BLAS-free detector, so
    the numbers travel between machines): every verdict with its timing, the
    provider query count, the SDL verdict namespace, and the ordered
    ``(sim time, event name)`` log of what the analyzer scheduled. Each
    run's deployment is put in ``deployments`` by scenario when one is
    given."""
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
            xsec = run_live(detector, attack=factory, net_kwargs=net_kwargs)
        if deployments is not None:
            deployments[scenario] = xsec
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


@pytest.fixture(scope="module")
def default_runs():
    deployments: dict = {}
    return default_analyzer_runs(deployments), deployments


class TestParentDefaultRuns:
    """tests/fixtures/analyzer_default_runs.json is ``default_analyzer_runs()``
    as commit 323bba3 produced it, where the default config still took the
    seed's own ``_on_anomaly`` -> ``_complete`` path beside the fast one."""

    def test_one_submit_path_reproduces_seed_path(self, default_runs):
        recorded = json.loads(DEFAULT_RUNS_FIXTURE.read_text())
        got = json.loads(json.dumps(default_runs[0]))
        assert sorted(got) == sorted(ATTACK_SCENARIOS)
        for scenario, run in got.items():
            assert run["verdicts"], scenario
            assert run["queries_sent"] == len(run["log"]), scenario
            assert run == recorded[scenario], scenario
        assert any(run["queries_suppressed"] for run in got.values())

    def test_prompts_equal_the_reference_template(self, default_runs):
        """Every live prompt, byte for byte, from the references, and read
        back by a provider that remembers lines as by one that parses every
        prompt from scratch."""
        parsed_lines: dict = {}
        for xsec in default_runs[1].values():
            for event in xsec.analyzer.verdicts:
                records = xsec.mobiwatch.context_for(
                    event.anomaly, xsec.config.llm_context_records
                )
                reference = PromptTemplate(retrieved_snippets=retrieve(records))
                assert event.verdict.prompt == reference.render(records)
                assert parse_data_section(
                    event.verdict.prompt, parsed_lines
                ) == reference_parse_data_section(event.verdict.prompt)
        assert parsed_lines
