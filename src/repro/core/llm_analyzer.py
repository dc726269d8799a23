"""The LLM analyzer xApp (paper §3.3, Figure 3).

Receives anomaly events from MobiWatch over RMR, builds the Figure 5
prompt from the flagged sequence plus context, queries the configured LLM
through the REST-style client (with the provider's simulated response
latency), parses the text into classification / explanation / attribution
/ remediation, cross-compares with the detector's verdict (contradictions
escalate to human supervision), and publishes verdict events for the
closed-loop responder.

Every query takes one submit path.  With ``XsecConfig.llmfast`` flags on
(defaults off) anomalies whose canonical trace signature already has a
cached analysis resolve without a provider round trip, and concurrent
identical queries coalesce onto one pending request whose verdict fans out
to every waiter.  The ledger invariant ``offered == analyzed + coalesced +
cache_hits + pending`` holds at every instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import XsecConfig
from repro.core.mobiwatch import XSEC_ANOMALY_MTYPE, AnomalyEvent, MobiWatchXApp
from repro.llm.analyst import ExpertAnalyst, ExpertVerdict
from repro.llm.client import LlmClient, SimulatedLlmServer
from repro.obs.metrics import WallTimer
from repro.oran.xapp import XApp
from repro.slo import profiler as _profiler

SDL_VERDICT_NS = "xsec.verdicts"

VerdictCallback = Callable[["VerdictEvent"], None]


@dataclass(frozen=True)
class VerdictEvent:
    """Analyzer output for one anomaly event."""

    anomaly: AnomalyEvent
    verdict: ExpertVerdict
    completed_at: float

    @property
    def confirmed(self) -> bool:
        """LLM agrees with MobiWatch that the sequence is anomalous."""
        return self.verdict.response.is_anomalous

    @property
    def needs_human_review(self) -> bool:
        return self.verdict.needs_human_review


@dataclass
class _PendingQuery:
    """One in-flight provider request."""

    event: AnomalyEvent
    records: list
    signature: object = None
    # Coalesced anomalies waiting on this request's verdict.
    waiters: list = field(default_factory=list)


class LlmAnalyzerXApp(XApp):
    """Expert-referencing xApp chained behind MobiWatch."""

    def __init__(
        self,
        ric,
        mobiwatch: MobiWatchXApp,
        server: Optional[SimulatedLlmServer] = None,
        config: Optional[XsecConfig] = None,
        name: str = "llm-analyzer",
    ) -> None:
        super().__init__(ric, name)
        self.config = config or XsecConfig()
        self.mobiwatch = mobiwatch
        self.server = server or SimulatedLlmServer()
        llmfast = self.config.llmfast
        self.analyst = ExpertAnalyst(
            client=LlmClient(server=self.server, model=self.config.llm_model),
            use_rag=self.config.llm_use_rag,
            llmfast=llmfast,
        )
        self.verdicts: list[VerdictEvent] = []
        self.human_review_queue: list[VerdictEvent] = []
        self._callbacks: list[VerdictCallback] = []
        self._session_last_query: dict[int, float] = {}
        self.queries_sent = 0
        self.queries_suppressed = 0
        # Explicit monotonic verdict-key counter: SDL keys must not be
        # coupled to len(self.verdicts) (list length wraps key identity
        # past the pad width and breaks if the list is ever pruned).
        self._verdict_seq = 0
        # The ledger.  Terminal outcomes for every offered anomaly (one
        # that survived the cooldown): a full provider round trip
        # (analyzed), joining an in-flight request (coalesced), or a
        # verdict-cache hit (cache_hits); pending covers the rest.
        self.offered = 0
        self.analyzed = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.pending = 0
        self.sessions_evicted = 0
        self._inflight: dict = {}
        metrics = self.sim.obs.metrics
        self._queries_counter = metrics.counter(
            "llm.queries_total", help="LLM queries issued"
        )
        self._suppressed_counter = metrics.counter(
            "llm.queries_suppressed_total", help="queries dropped by cooldown"
        )
        self._latency_hist = metrics.histogram(
            "llm.response_latency_s", help="simulated provider round trip"
        )
        self._analyze_wall = metrics.histogram(
            "llm.analyze_wall_s", help="prompt build + parse wall-clock cost"
        )
        self._verdict_counters = {
            confirmed: metrics.counter(
                "llm.verdicts_total", labels={"confirmed": str(confirmed).lower()}
            )
            for confirmed in (True, False)
        }
        self._review_counter = metrics.counter(
            "llm.human_review_total", help="contradictions escalated to humans"
        )
        # repro.llmfast counters (gated: a flag that is off creates no
        # metric series).
        self._cache_hits_counter = None
        self._coalesced_counter = None
        if llmfast.verdict_cache:
            self._cache_hits_counter = metrics.counter(
                "llm.cache_hits_total", help="verdicts served from the cache"
            )
        if llmfast.coalesce:
            self._coalesced_counter = metrics.counter(
                "llm.coalesced_total", help="queries joined to an in-flight request"
            )
        # Bugfix: _session_last_query grew without bound — megabatch
        # session eviction never reached analyzer state.  Prune the
        # cooldown ledger whenever MobiWatch evicts the session
        # (release- or idle-driven).
        self._sessions_evicted_counter = None
        if self.config.megabatch.eviction_enabled:
            self._sessions_evicted_counter = metrics.counter(
                "llm.sessions_evicted_total",
                help="analyzer session state pruned by eviction",
            )
        mobiwatch.on_session_evicted(self._on_session_evicted)
        # repro.slo liveness heartbeat (gated so the disabled path creates
        # no new metric series).
        self._heartbeat_gauge = None
        if self.config.slo.enabled:
            self._heartbeat_gauge = metrics.gauge(
                "health.heartbeat_ts",
                labels={"component": self.name},
                help="sim time of the component's last heartbeat",
            )

    def start(self) -> None:
        super().start()
        # Receive MobiWatch's anomaly events.
        self.ric.rmr.add_route(XSEC_ANOMALY_MTYPE, self.name)

    def on_verdict(self, callback: VerdictCallback) -> None:
        self._callbacks.append(callback)

    # -- RMR ----------------------------------------------------------------

    def on_message(self, mtype: int, sub_id: int, payload) -> None:
        if mtype == XSEC_ANOMALY_MTYPE and isinstance(payload, AnomalyEvent):
            self._on_anomaly(payload)
        else:
            super().on_message(mtype, sub_id, payload)

    # -- session state ------------------------------------------------------

    def _on_session_evicted(self, session_id: int) -> None:
        if self._session_last_query.pop(session_id, None) is not None:
            self.sessions_evicted += 1
            if self._sessions_evicted_counter is not None:
                self._sessions_evicted_counter.inc()

    def ledger(self) -> dict:
        """The query accounting; the invariant must always hold."""
        return {
            "offered": self.offered,
            "analyzed": self.analyzed,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            # Nothing sheds a query; the frozen benchmarks/e2e harness sums
            # this term.
            "shed": 0,
            "pending": self.pending,
        }

    # -- analysis -----------------------------------------------------------------

    def _on_anomaly(self, event: AnomalyEvent) -> None:
        if self._heartbeat_gauge is not None:
            self._heartbeat_gauge.set(self.now)
        # MobiWatch is the pre-filter; the LLM is rate-limited per session
        # because each query is expensive (§3.3).
        last = self._session_last_query.get(event.session_id)
        if last is not None and self.now - last < self.config.llm_session_cooldown_s:
            self.queries_suppressed += 1
            self._suppressed_counter.inc()
            return
        self._session_last_query[event.session_id] = self.now
        records = self.mobiwatch.context_for(
            event, max_records=self.config.llm_context_records
        )
        self._submit(event, records)

    # -- verdict delivery ----------------------------------------------------

    def _verdict_row(self, event: AnomalyEvent, result: VerdictEvent) -> tuple:
        verdict = result.verdict
        self._verdict_seq += 1
        return (
            f"{self._verdict_seq:012d}",
            {
                "session": event.session_id,
                "model": verdict.model,
                "verdict": verdict.response.verdict,
                "top_attack": (
                    verdict.response.top_attacks[0][0]
                    if verdict.response.top_attacks
                    else ""
                ),
                "needs_human_review": verdict.needs_human_review,
                "completed_at": result.completed_at,
            },
        )

    def _deliver(self, event: AnomalyEvent, verdict: ExpertVerdict) -> None:
        """Record, persist, and publish one verdict."""
        result = VerdictEvent(anomaly=event, verdict=verdict, completed_at=self.now)
        self.verdicts.append(result)
        self._verdict_counters[result.confirmed].inc()
        self.log(
            "verdict",
            session=event.session_id,
            confirmed=result.confirmed,
            needs_human_review=result.needs_human_review,
        )
        self.sdl.set(SDL_VERDICT_NS, *self._verdict_row(event, result))
        store = getattr(self.mobiwatch, "provenance", None)
        if store is not None:
            store.attach_verdict(
                event.provenance_id,
                model=verdict.model,
                verdict_text=verdict.response.verdict,
                top_attack=(
                    verdict.response.top_attacks[0][0]
                    if verdict.response.top_attacks
                    else ""
                ),
                confirmed=result.confirmed,
                completed_at=result.completed_at,
            )
        if result.needs_human_review:
            # Contradictory results require human supervision (§3.3).
            self.human_review_queue.append(result)
            self._review_counter.inc()
        for callback in self._callbacks:
            callback(result)

    # -- the submit path -----------------------------------------------------

    def _submit(self, event: AnomalyEvent, records) -> None:
        llmfast = self.config.llmfast
        self.offered += 1
        # Both None by default: a signature needs the verdict cache or
        # coalescing on, a cached verdict the cache on and holding it.
        signature = self.analyst.signature_for(records)
        verdict = self.analyst.cached_verdict(signature, detector_flagged=True)
        if verdict is not None:
            self.cache_hits += 1
            self._cache_hits_counter.inc()
            # The verdict is already resolved; deliver it on the next sim
            # step (no provider round trip, no WAN latency).
            self.schedule(
                0.0,
                lambda: self._deliver(event, verdict),
                name=f"{self.name}.llm-cached",
            )
            return
        if llmfast.coalesce and signature is not None:
            inflight = self._inflight.get(signature)
            if inflight is not None:
                inflight.waiters.append(event)
                self.coalesced += 1
                self._coalesced_counter.inc()
                return
        request = _PendingQuery(event=event, records=records, signature=signature)
        self.pending += 1
        self.queries_sent += 1
        self._queries_counter.inc()
        # Simulate the web-API round trip: the verdict lands after the
        # provider's response latency.
        prompt_probe = "".join(r.msg for r in records)
        latency = self.server.latency_for(self.config.llm_model, prompt_probe)
        self._latency_hist.observe(latency)
        if llmfast.coalesce and signature is not None:
            self._inflight[signature] = request
        self.schedule(
            latency, lambda: self._on_response(request), name=f"{self.name}.llm"
        )

    def _on_response(self, request: _PendingQuery) -> None:
        self._inflight.pop(request.signature, None)
        with _profiler.profile_block("llm.analyze"), WallTimer(self._analyze_wall):
            verdict = self.analyst.analyze(
                request.records, detector_flagged=True, signature=request.signature
            )
        self.pending -= 1
        self.analyzed += 1
        # The verdict fans out to the primary anomaly and every coalesced
        # waiter.
        self._deliver(request.event, verdict)
        for waiter in request.waiters:
            self._deliver(waiter, verdict)
