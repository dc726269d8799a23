"""The LLM analyzer xApp (paper §3.3, Figure 3).

Receives anomaly events from MobiWatch over RMR, builds the Figure 5
prompt from the flagged sequence plus context, queries the configured LLM
through the REST-style client (with the provider's simulated response
latency), parses the text into classification / explanation / attribution
/ remediation, cross-compares with the detector's verdict (contradictions
escalate to human supervision), and publishes verdict events for the
closed-loop responder.

With ``XsecConfig.llmfast`` flags on (defaults off: the seed path is
bit-identical) the xApp runs the verdict-plane fast path: anomalies whose
canonical trace signature already has a cached analysis resolve without a
provider round trip; concurrent identical queries coalesce onto one
pending request and the verdict fans out to every waiter; and the
storm-safe dispatcher bounds provider concurrency, orders the backlog by
severity, sheds (counted, never silently) once the backlog overflows, and
persists each completion's verdict fan-out as one batched SDL write.  The
ledger invariant ``offered == analyzed + coalesced + cache_hits + shed +
pending`` holds at every instant.
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
from repro.scale.sharded_sdl import ShardedSdl
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
    """One in-flight or queued provider request (repro.llmfast)."""

    event: AnomalyEvent
    records: list
    signature: object = None
    priority: float = 0.0
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
            llmfast=llmfast if llmfast.fast_submit_enabled else None,
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
        # repro.llmfast ledger.  Terminal outcomes for every offered
        # anomaly (one that survived the cooldown): a full provider
        # round trip (analyzed), joining an in-flight request
        # (coalesced), a verdict-cache hit (cache_hits), or a counted
        # drop under storm load (shed); pending covers the rest.
        self.offered = 0
        self.analyzed = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.shed = 0
        self.pending = 0
        self.sessions_evicted = 0
        self._fast = llmfast if llmfast.fast_submit_enabled else None
        self._dispatcher = None
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
        # repro.llmfast counters (gated: the disabled path creates no new
        # metric series).
        self._cache_hits_counter = None
        self._coalesced_counter = None
        self._shed_counter = None
        if self._fast is not None:
            self._cache_hits_counter = metrics.counter(
                "llm.cache_hits_total", help="verdicts served from the cache"
            )
            self._coalesced_counter = metrics.counter(
                "llm.coalesced_total", help="queries joined to an in-flight request"
            )
            self._shed_counter = metrics.counter(
                "llm.shed_total", help="queries shed by the storm dispatcher"
            )
            if llmfast.dispatch:
                from repro.llmfast.dispatch import StormDispatcher

                self._dispatcher = StormDispatcher(
                    max_inflight=llmfast.max_inflight,
                    queue_capacity=llmfast.queue_capacity,
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
        """The fast-path accounting; the invariant must always hold."""
        return {
            "offered": self.offered,
            "analyzed": self.analyzed,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
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
        if self._fast is not None:
            self._fast_submit(event, records)
            return
        self.queries_sent += 1
        self._queries_counter.inc()
        # Simulate the web-API round trip: the verdict lands after the
        # provider's response latency.
        prompt_probe = "".join(r.msg for r in records)
        latency = self.server.latency_for(self.config.llm_model, prompt_probe)
        self._latency_hist.observe(latency)
        self.schedule(
            latency, lambda: self._complete(event, records), name=f"{self.name}.llm"
        )

    def _complete(self, event: AnomalyEvent, records) -> None:
        with _profiler.profile_block("llm.analyze"), WallTimer(self._analyze_wall):
            verdict = self.analyst.analyze(records, detector_flagged=True)
        self._deliver(event, verdict)

    # -- verdict delivery (shared by the seed and fast paths) ----------------

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

    def _deliver(self, event: AnomalyEvent, verdict: ExpertVerdict, rows=None) -> None:
        """Record, persist, and publish one verdict.

        ``rows`` batches the SDL write: when a list is passed the row is
        appended for the caller to persist via ``set_many``; otherwise it
        is written immediately (the seed's one-write-per-verdict path).
        """
        result = VerdictEvent(anomaly=event, verdict=verdict, completed_at=self.now)
        self.verdicts.append(result)
        self._verdict_counters[result.confirmed].inc()
        self.log(
            "verdict",
            session=event.session_id,
            confirmed=result.confirmed,
            needs_human_review=result.needs_human_review,
        )
        row = self._verdict_row(event, result)
        if rows is None:
            self.sdl.set(SDL_VERDICT_NS, row[0], row[1])
        else:
            rows.append(row)
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

    # -- fast path (repro.llmfast) -------------------------------------------

    def _fast_submit(self, event: AnomalyEvent, records) -> None:
        fast = self._fast
        self.offered += 1
        signature = self.analyst.signature_for(records)
        if fast.verdict_cache and signature is not None:
            verdict = self.analyst.cached_verdict(signature, detector_flagged=True)
            if verdict is not None:
                self.cache_hits += 1
                self._cache_hits_counter.inc()
                # The verdict is already resolved; deliver it on the next
                # sim step (no provider round trip, no WAN latency).
                self.schedule(
                    0.0,
                    lambda: self._deliver(event, verdict),
                    name=f"{self.name}.llm-cached",
                )
                return
        if fast.coalesce and signature is not None:
            inflight = self._inflight.get(signature)
            if inflight is not None:
                inflight.waiters.append(event)
                self.coalesced += 1
                self._coalesced_counter.inc()
                return
        threshold = event.threshold if event.threshold else 1.0
        request = _PendingQuery(
            event=event,
            records=records,
            signature=signature,
            priority=event.score / threshold,
        )
        self.pending += 1
        if self._dispatcher is None:
            self._fire(request)
            return
        outcome, item = self._dispatcher.submit(request.priority, request)
        if outcome == "dispatch":
            self._fire(item)
        elif outcome == "shed":
            # Counted, never silent: the dropped request (the newcomer or
            # a displaced lower-priority queued entry) is logged.
            self.pending -= 1
            self.shed += 1
            self._shed_counter.inc()
            self.log(
                "query shed under storm load",
                session=item.event.session_id,
                priority=round(item.priority, 3),
                backlog=self._dispatcher.backlog,
            )
        # "queued": the dispatcher holds it until a slot frees up.

    def _fire(self, request: _PendingQuery) -> None:
        self.queries_sent += 1
        self._queries_counter.inc()
        records = request.records
        prompt_probe = "".join(r.msg for r in records)
        latency = self.server.latency_for(self.config.llm_model, prompt_probe)
        self._latency_hist.observe(latency)
        if self._fast.coalesce and request.signature is not None:
            self._inflight[request.signature] = request
        self.schedule(
            latency, lambda: self._fast_complete(request), name=f"{self.name}.llm"
        )

    def _fast_complete(self, request: _PendingQuery) -> None:
        if request.signature is not None:
            self._inflight.pop(request.signature, None)
        with _profiler.profile_block("llm.analyze"), WallTimer(self._analyze_wall):
            verdict = self.analyst.analyze(
                request.records, detector_flagged=True, signature=request.signature
            )
        self.pending -= 1
        self.analyzed += 1
        # The verdict fans out to the primary anomaly and every coalesced
        # waiter; with dispatch on, the whole fan-out persists as one
        # batched SDL write.
        rows: Optional[list] = [] if self._dispatcher is not None else None
        self._deliver(request.event, verdict, rows=rows)
        for waiter in request.waiters:
            self._deliver(waiter, verdict, rows=rows)
        if rows:
            self._persist_rows(rows)
        if self._dispatcher is not None:
            next_request = self._dispatcher.complete()
            if next_request is not None:
                self._fire(next_request)

    def _persist_rows(self, rows: list) -> None:
        """Batch-persist one completion's verdict fan-out."""
        if isinstance(self.sdl, ShardedSdl):
            # Group by session so placement matches per-session reads.
            groups: dict[str, list] = {}
            for row in rows:
                groups.setdefault(str(row[1]["session"]), []).append(row)
            for shard_key, pairs in groups.items():
                self.sdl.set_many(SDL_VERDICT_NS, pairs, shard_key=shard_key)
        else:
            self.sdl.set_many(SDL_VERDICT_NS, rows)
