"""Cellular-security knowledge base and rule-based analysis engine.

This is the domain expertise the paper's LLMs bring to bear — attack
signatures, 3GPP procedure knowledge, attribution and remediation guidance
— implemented as an explicit knowledge base. The simulated model backends
share this single engine; per-model capability profiles then decide which
matched signatures each model actually *perceives* (Table 3 calibration).

The same knowledge base powers the retrieval augmentation (§5, Specialized
LLM for 6G): :meth:`VectorizedRetriever.retrieve` returns the procedure
snippets most relevant to a trace, which the prompt template can append.

Its articles are the one attack catalogue: :func:`classify` maps a top
attack to its article, which names the ground truth and the response.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.oran.e2sm_kpm import (
    ACTION_BLOCKLIST_TMSI,
    ACTION_RATE_LIMIT_ACCESS,
    ACTION_RELEASE_UE,
)
from repro.telemetry.mobiflow import MobiFlowRecord

# Signature identifiers (stable keys used by the model profiles).
SIG_SIGNALING_STORM = "signaling_storm"
SIG_TMSI_REPLAY = "tmsi_replay"
SIG_PLAINTEXT_SUCI = "plaintext_suci_uplink"
SIG_OUT_OF_ORDER_IDENTITY = "out_of_order_identity"
SIG_NULL_CIPHER = "null_cipher_downgrade"
SIG_AUTH_FORGERY = "auth_challenge_forgery"


@dataclass(frozen=True)
class SignatureMatch:
    """One attack signature detected in a trace."""

    signature: str
    confidence: float  # 0..1
    evidence: tuple  # human-readable evidence strings


@dataclass(frozen=True)
class AttackArticle:
    """Knowledge-base entry describing one attack class."""

    signature: str
    attack_name: str
    aliases: tuple
    ground_truth: str  # the Attack.name of the class
    response: tuple  # E2 control actions answering it, preferred first
    explanation: str
    attribution: str
    implications: str
    remediations: tuple
    procedure_snippet: str  # 3GPP background used for RAG


KNOWLEDGE_ARTICLES: dict[str, AttackArticle] = {
    SIG_SIGNALING_STORM: AttackArticle(
        signature=SIG_SIGNALING_STORM,
        attack_name="BTS resource depletion DoS (signaling storm)",
        aliases=("BTS DoS", "RRC flooding", "signaling storm"),
        ground_truth="bts_dos",
        response=(ACTION_RATE_LIMIT_ACCESS, ACTION_RELEASE_UE),
        explanation=(
            "The trace shows a rapid succession of RRC connection setups that "
            "progress to the authentication challenge and are then abandoned. "
            "Each uncompleted connection pins an RNTI, a CU context and an "
            "authentication vector, so a sustained stream exhausts gNodeB "
            "resources and blocks legitimate devices."
        ),
        attribution=(
            "A rogue UE (commodity SDR with a modified open-source stack) "
            "within radio range of the cell."
        ),
        implications=(
            "Denial of service at the base station: RNTI and context "
            "exhaustion, elevated signaling load toward the AMF, and service "
            "degradation for legitimate subscribers."
        ),
        remediations=(
            "Rate-limit RRC connection requests per radio context",
            "Shorten the contention-resolution/inactivity timers under load",
            "Blocklist the offending access patterns via RAN control actions",
        ),
        procedure_snippet=(
            "TS 38.331: RRCSetupRequest -> RRCSetup -> RRCSetupComplete must "
            "be followed by the NAS registration and authentication exchange; "
            "connections abandoned after AuthenticationRequest hold resources "
            "until the network's supervision timers expire."
        ),
    ),
    SIG_TMSI_REPLAY: AttackArticle(
        signature=SIG_TMSI_REPLAY,
        attack_name="Blind DoS via 5G-S-TMSI replay",
        aliases=("Blind DoS", "TMSI hijack", "detach attack"),
        ground_truth="blind_dos",
        response=(ACTION_BLOCKLIST_TMSI, ACTION_RELEASE_UE),
        explanation=(
            "The same 5G-S-TMSI is presented by several distinct RRC "
            "connections in a short span. A network receiving a connection "
            "claiming an attached UE's temporary identity releases the "
            "existing connection, so replaying a sniffed S-TMSI repeatedly "
            "keeps knocking the victim offline without touching its radio."
        ),
        attribution=(
            "An adversary that sniffed the victim's S-TMSI (e.g. from "
            "paging) and replays it from a rogue UE."
        ),
        implications=(
            "Targeted denial of service against one subscriber; the victim "
            "sees repeated unexplained connection releases."
        ),
        remediations=(
            "Require integrity verification before releasing the old context",
            "Refresh temporary identities aggressively after each use",
            "Bar access for identities exhibiting replay patterns",
        ),
        procedure_snippet=(
            "TS 23.502: a ServiceRequest or RRCSetupRequest carrying a "
            "5G-S-TMSI implies re-access by the identified UE; TS 33.501 "
            "recommends reallocating the 5G-GUTI after each use precisely "
            "because temporary identities are replayable pre-authentication."
        ),
    ),
    SIG_PLAINTEXT_SUCI: AttackArticle(
        signature=SIG_PLAINTEXT_SUCI,
        attack_name="Uplink identity extraction (SUCI concealment downgrade)",
        aliases=("AdaptOver", "uplink IMSI extraction", "null-scheme SUCI"),
        ground_truth="uplink_id_extraction",
        response=(ACTION_RELEASE_UE,),
        explanation=(
            "A registration carries a null-scheme SUCI: the subscriber's "
            "permanent identifier is transmitted in plaintext. The message "
            "sequence itself is standard compliant — the null concealment "
            "scheme is legal — which makes this easy to miss; but a UE that "
            "normally conceals its SUPI suddenly using the null scheme "
            "indicates an uplink overshadowing attack harvesting identities."
        ),
        attribution=(
            "A MITM/overshadowing transmitter rewriting the victim's uplink "
            "registration at the physical layer."
        ),
        implications=(
            "Permanent-identifier disclosure enabling long-term tracking and "
            "targeted attacks against the subscriber."
        ),
        remediations=(
            "Disallow the null concealment scheme in network policy",
            "Alert on concealment-scheme changes per subscriber",
            "Investigate the radio environment for overshadowing equipment",
        ),
        procedure_snippet=(
            "TS 33.501 Annex C: SUCI protection schemes include the null "
            "scheme (no concealment); operators may restrict acceptable "
            "schemes. A null-scheme SUCI exposes the MSIN in cleartext."
        ),
    ),
    SIG_OUT_OF_ORDER_IDENTITY: AttackArticle(
        signature=SIG_OUT_OF_ORDER_IDENTITY,
        attack_name="Downlink identity extraction (injected Identity Request)",
        aliases=("LTrack", "downlink IMSI extraction", "identity request injection"),
        ground_truth="downlink_id_extraction",
        response=(ACTION_RELEASE_UE,),
        explanation=(
            "The network issued an AuthenticationRequest but received an "
            "IdentityResponse exposing the permanent identifier instead of "
            "the expected AuthenticationResponse. The UE answered an "
            "IdentityRequest the network never sent — an over-the-air "
            "downlink overwrite asked the device for its identity in the "
            "pre-security window."
        ),
        attribution=(
            "A MITM relay/overshadowing transmitter that overwrote the "
            "downlink authentication message toward the victim."
        ),
        implications=(
            "Plaintext identity disclosure and location tracking of the "
            "victim subscriber."
        ),
        remediations=(
            "Flag identity responses that were never solicited by the core",
            "Deploy downlink integrity protection where supported",
            "Correlate RF anomalies near the reporting cell",
        ),
        procedure_snippet=(
            "TS 24.501 §5.4.1: after an AuthenticationRequest the UE answers "
            "with AuthenticationResponse (or AuthenticationFailure). An "
            "IdentityResponse at that point is out of procedure order, and "
            "pre-security identity procedures are unprotected."
        ),
    ),
    SIG_NULL_CIPHER: AttackArticle(
        signature=SIG_NULL_CIPHER,
        attack_name="Null cipher & integrity downgrade",
        aliases=("null security", "NEA0/NIA0 bidding down"),
        ground_truth="null_cipher",
        response=(ACTION_RELEASE_UE,),
        explanation=(
            "The security mode procedure selected NEA0/NIA0 — no ciphering "
            "and no integrity protection. All subsequent NAS/AS traffic for "
            "this connection is readable and forgeable over the air. A UE "
            "advertising only null algorithms is bidding the network down."
        ),
        attribution=(
            "A modified UE stack advertising null-only security capabilities "
            "(or a MITM rewriting the capability exchange)."
        ),
        implications=(
            "Complete loss of confidentiality and integrity for the session; "
            "message injection and eavesdropping become trivial."
        ),
        remediations=(
            "Configure the network to reject null algorithms (TS 33.501)",
            "Alert on any security mode selecting NEA0/NIA0",
            "Quarantine subscribers that repeatedly bid down",
        ),
        procedure_snippet=(
            "TS 33.501 §5.11.1: NEA0/NIA0 are the null algorithms; their use "
            "is restricted to emergency services. Networks should order "
            "algorithm preference lists to exclude null where possible."
        ),
    ),
    SIG_AUTH_FORGERY: AttackArticle(
        signature=SIG_AUTH_FORGERY,
        attack_name="Rogue-network challenge forgery (impersonation probe)",
        aliases=("challenge forgery", "network impersonation", "fake AMF"),
        ground_truth="challenge_forgery",
        response=(ACTION_RELEASE_UE,),
        explanation=(
            "Devices answered authentication challenges with MAC failures: "
            "the challenges were not generated with the subscribers' keys. "
            "Someone without home-network credentials is injecting "
            "AuthenticationRequests over the air — the opening move of a "
            "network-impersonation (rogue base station / fake AMF) campaign."
        ),
        attribution=(
            "An over-the-air MiTM or rogue network element forging downlink "
            "NAS authentication messages without the subscriber keys."
        ),
        implications=(
            "Registration outages for affected subscribers and "
            "reconnaissance for a network-impersonation attack."
        ),
        remediations=(
            "Correlate MAC-failure bursts with cells/sectors and inspect RF",
            "Rate-limit re-challenges to contain signaling load",
            "Verify E2/backhaul integrity to rule out infrastructure compromise",
        ),
        procedure_snippet=(
            "TS 33.501 §6.1.3: in 5G-AKA the UE verifies AUTN (MAC and SQN "
            "freshness) before answering; a MAC failure means the challenge "
            "was not produced by the home network. Repeated MAC failures "
            "across devices indicate forged downlink authentication."
        ),
    ),
}


_BY_NAME: dict[str, AttackArticle] = {
    name.lower(): article
    for article in KNOWLEDGE_ARTICLES.values()
    for name in (article.attack_name, *article.aliases)
}


def classify(name: str) -> Optional[AttackArticle]:
    """The article whose attack name or alias is ``name`` (compared
    case-insensitively, otherwise exactly); None for a class outside the
    catalogue."""
    return _BY_NAME.get(name.lower())


def trace_terms(records: Iterable[MobiFlowRecord]) -> frozenset:
    """The retrieval terms of a trace: message names plus state markers."""
    terms = set()
    for record in records:
        terms.add(record.msg.lower())
        if record.cipher_alg == 0 or record.integrity_alg == 0:
            terms.update(("nea0", "nia0", "null"))
        if record.exposes_permanent_identity():
            terms.update(("suci", "supi", "plaintext"))
        if record.s_tmsi is not None:
            terms.add("s-tmsi")
    return frozenset(terms)


class VectorizedRetriever:
    """The RAG retrieval ``ExpertAnalyst`` runs.

    A trace's relevance to an article is the number of the trace's terms
    (:func:`trace_terms`) found in the article's snippet and explanation;
    the ``top_k`` articles of nonzero score are returned by ``(-score,
    signature)``. Traces with the same term set (the common case in a
    burst) reuse the finished ranking from a bounded memo; a miss scores
    the six articles with one substring test per term.

    The contract — enforced in ``tests/test_llm_analyzer.py`` against the loop
    in ``tests/reference_llm.py`` — is *exact ranking equality*, including
    the ``(-score, signature)`` tie-break and the ``score > 0`` cutoff.
    """

    def __init__(self, result_memo_capacity: int = 4096) -> None:
        self._articles = [
            (
                (article.procedure_snippet + " " + article.explanation).lower(),
                article.signature,
                article.procedure_snippet,
            )
            for article in KNOWLEDGE_ARTICLES.values()
        ]
        self._result_memo: dict[tuple, list[str]] = {}
        self._result_memo_capacity = result_memo_capacity
        self.queries = 0
        self.memo_hits = 0

    def retrieve(self, records: list[MobiFlowRecord], top_k: int = 2) -> list[str]:
        """The ``top_k`` snippets of nonzero score, by (-score, signature)."""
        self.queries += 1
        terms = trace_terms(records)
        memo_key = (terms, top_k)
        cached = self._result_memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return list(cached)
        ranked = sorted(
            (
                (sum(term in text for term in terms), signature, snippet)
                for text, signature, snippet in self._articles
            ),
            key=lambda item: (-item[0], item[1]),
        )
        result = [snippet for score, _, snippet in ranked[:top_k] if score > 0]
        if len(self._result_memo) >= self._result_memo_capacity:
            self._result_memo.clear()
        self._result_memo[memo_key] = result
        return list(result)


class AnalysisEngine:
    """Evaluates every attack signature against a telemetry trace."""

    # Signaling-storm thresholds.
    STORM_MIN_SETUPS = 4
    STORM_MAX_MEDIAN_GAP_S = 1.5
    # TMSI replay threshold: distinct connections presenting one TMSI.
    REPLAY_MIN_SESSIONS = 3
    # Authentication MAC failures across this many entries indicate forgery.
    FORGERY_MIN_FAILURES = 2

    def __init__(self) -> None:
        # Prompt lines already read, for llm.prompt.parse_data_section: the
        # backends of one simulated provider share this engine, so each
        # deployment starts cold and every model behind it reads a line once.
        self.parsed_lines: dict[str, MobiFlowRecord] = {}

    def analyze(self, records: list[MobiFlowRecord]) -> list[SignatureMatch]:
        """Return all signature matches, strongest first."""
        matches = [
            match
            for check in (
                self._check_signaling_storm,
                self._check_tmsi_replay,
                self._check_plaintext_suci,
                self._check_out_of_order_identity,
                self._check_null_cipher,
                self._check_auth_forgery,
            )
            if (match := check(records)) is not None
        ]
        matches.sort(key=lambda m: -m.confidence)
        return matches

    # -- individual signatures -------------------------------------------------

    def _check_signaling_storm(self, records) -> Optional[SignatureMatch]:
        setups = [r for r in records if r.msg == "RRCSetupRequest"]
        if len(setups) < self.STORM_MIN_SETUPS:
            return None
        auth_responses = sum(1 for r in records if r.msg == "AuthenticationResponse")
        accepts = sum(1 for r in records if r.msg == "RegistrationAccept")
        if auth_responses > len(setups) / 2 or accepts > len(setups) / 2:
            return None  # most connections complete: busy but healthy
        gaps = [
            b.timestamp - a.timestamp for a, b in zip(setups, setups[1:])
        ]
        median_gap = statistics.median(gaps) if gaps else 0.0
        if median_gap > self.STORM_MAX_MEDIAN_GAP_S:
            return None
        rntis = {r.rnti for r in setups if r.rnti is not None}
        confidence = min(1.0, 0.5 + 0.1 * len(setups))
        return SignatureMatch(
            signature=SIG_SIGNALING_STORM,
            confidence=confidence,
            evidence=(
                f"{len(setups)} connection setups within "
                f"{records[-1].timestamp - records[0].timestamp:.1f}s "
                f"(median inter-arrival {median_gap:.2f}s)",
                f"{len(rntis)} distinct RNTIs consumed",
                f"only {auth_responses} authentication responses observed",
            ),
        )

    def _check_tmsi_replay(self, records) -> Optional[SignatureMatch]:
        presented: dict[int, set] = {}
        for record in records:
            if record.msg in ("RRCSetupRequest", "ServiceRequest") and record.s_tmsi is not None:
                presented.setdefault(record.s_tmsi, set()).add(record.session_id)
        replayed = {
            tmsi: sessions
            for tmsi, sessions in presented.items()
            if len(sessions) >= self.REPLAY_MIN_SESSIONS
        }
        if not replayed:
            return None
        tmsi, sessions = max(replayed.items(), key=lambda item: len(item[1]))
        return SignatureMatch(
            signature=SIG_TMSI_REPLAY,
            confidence=min(1.0, 0.4 + 0.15 * len(sessions)),
            evidence=(
                f"S-TMSI 0x{tmsi:08x} presented by {len(sessions)} distinct connections",
                "connections abandon at the authentication stage after the "
                "legitimate holder is released",
            ),
        )

    def _check_plaintext_suci(self, records) -> Optional[SignatureMatch]:
        exposing = [
            r
            for r in records
            if r.msg == "RegistrationRequest"
            and r.suci is not None
            and r.suci.startswith("suci-null-")
        ]
        if not exposing:
            return None
        return SignatureMatch(
            signature=SIG_PLAINTEXT_SUCI,
            confidence=0.55,  # standard compliant: inherently low confidence
            evidence=(
                f"null-scheme SUCI {exposing[0].suci!r} exposes the permanent identifier",
                "message sequence is otherwise standard compliant",
            ),
        )

    def _check_out_of_order_identity(self, records) -> Optional[SignatureMatch]:
        by_session: dict[int, list[MobiFlowRecord]] = {}
        for record in records:
            by_session.setdefault(record.session_id, []).append(record)
        for session_records in by_session.values():
            for prev, current in zip(session_records, session_records[1:]):
                if (
                    prev.msg == "AuthenticationRequest"
                    and current.msg == "IdentityResponse"
                    and current.supi is not None
                ):
                    return SignatureMatch(
                        signature=SIG_OUT_OF_ORDER_IDENTITY,
                        confidence=0.9,
                        evidence=(
                            "IdentityResponse followed AuthenticationRequest "
                            "where an AuthenticationResponse was expected",
                            f"permanent identifier {current.supi!r} disclosed in plaintext",
                        ),
                    )
        return None

    def _check_auth_forgery(self, records) -> Optional[SignatureMatch]:
        failures = [r for r in records if r.msg == "AuthenticationFailure"]
        if len(failures) < self.FORGERY_MIN_FAILURES:
            return None
        sessions = {r.session_id for r in failures}
        return SignatureMatch(
            signature=SIG_AUTH_FORGERY,
            confidence=min(1.0, 0.5 + 0.15 * len(failures)),
            evidence=(
                f"{len(failures)} authentication MAC failures across "
                f"{len(sessions)} connection(s)",
                "challenges were not generated with the subscriber keys",
            ),
        )

    def _check_null_cipher(self, records) -> Optional[SignatureMatch]:
        null_smc = [
            r
            for r in records
            if r.msg in ("NASSecurityModeCommand", "RRCSecurityModeCommand")
            and (r.cipher_alg == 0 or r.integrity_alg == 0)
        ]
        if not null_smc:
            return None
        return SignatureMatch(
            signature=SIG_NULL_CIPHER,
            confidence=0.95,
            evidence=(
                "security mode command selected null algorithms "
                f"(cipher NEA{null_smc[0].cipher_alg}, integrity NIA{null_smc[0].integrity_alg})",
                "all subsequent traffic on this connection is unprotected",
            ),
        )
