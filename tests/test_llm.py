"""Tests for the LLM expert-referencing stack."""

import pytest

from repro.llm import (
    AnalysisEngine,
    CellularKnowledgeBase,
    ExpertAnalyst,
    LlmClient,
    LlmServerError,
    MODEL_PROFILES,
    PromptTemplate,
    SimulatedLlmServer,
    build_default_backends,
    format_records,
    parse_data_section,
    parse_response,
)
from repro.llm.knowledge import (
    SIG_NULL_CIPHER,
    SIG_OUT_OF_ORDER_IDENTITY,
    SIG_PLAINTEXT_SUCI,
    SIG_SIGNALING_STORM,
    SIG_TMSI_REPLAY,
)
from repro.llm.response import ResponseParseError
from repro.telemetry.mobiflow import MobiFlowRecord


def rec(t, msg, session=1, **kwargs):
    defaults = dict(protocol="RRC", direction="UL", rnti=0x100 + session)
    defaults.update(kwargs)
    return MobiFlowRecord(timestamp=t, msg=msg, session_id=session, **defaults)


def benign_session(session=1, t0=0.0):
    seq = [
        ("RRCSetupRequest", dict(establishment_cause="mo-Signalling")),
        ("RRCSetup", dict(direction="DL")),
        ("RRCSetupComplete", {}),
        ("RegistrationRequest", dict(suci="suci-001-01-abcdef")),
        ("AuthenticationRequest", dict(direction="DL")),
        ("AuthenticationResponse", {}),
        ("NASSecurityModeCommand", dict(direction="DL", cipher_alg=2, integrity_alg=2)),
        ("NASSecurityModeComplete", {}),
        ("RegistrationAccept", dict(direction="DL", s_tmsi=0xAB00 + session)),
        ("RegistrationComplete", {}),
        ("RRCRelease", dict(direction="DL")),
    ]
    return [
        rec(t0 + 0.05 * i, msg, session=session, **kw) for i, (msg, kw) in enumerate(seq)
    ]


def storm_trace():
    records = []
    for i in range(6):
        t0 = i * 0.15
        session = 10 + i
        records += [
            rec(t0, "RRCSetupRequest", session=session),
            rec(t0 + 0.01, "RRCSetup", session=session, direction="DL"),
            rec(t0 + 0.03, "RRCSetupComplete", session=session),
            rec(t0 + 0.04, "RegistrationRequest", session=session, suci=f"suci-001-01-{i}"),
            rec(t0 + 0.06, "AuthenticationRequest", session=session, direction="DL"),
        ]
    return sorted(records, key=lambda r: r.timestamp)


def replay_trace():
    records = []
    for i in range(4):
        t0 = i * 2.0
        session = 20 + i
        records += [
            rec(t0, "RRCSetupRequest", session=session, s_tmsi=0xDEAD),
            rec(t0 + 0.01, "RRCSetup", session=session, direction="DL"),
            rec(t0 + 0.03, "ServiceRequest", session=session, s_tmsi=0xDEAD, protocol="NAS"),
            rec(t0 + 0.05, "AuthenticationRequest", session=session, direction="DL"),
        ]
    return records


def null_cipher_trace():
    records = benign_session(session=30)
    return [
        MobiFlowRecord(
            **{
                **r.to_dict(),
                "cipher_alg": 0 if r.msg == "NASSecurityModeCommand" else r.cipher_alg,
                "integrity_alg": 0 if r.msg == "NASSecurityModeCommand" else r.integrity_alg,
            }
        )
        for r in records
    ]


def downlink_extraction_trace():
    records = benign_session(session=40)
    # Insert IdentityResponse right after AuthenticationRequest.
    out = []
    for r in records:
        out.append(r)
        if r.msg == "AuthenticationRequest":
            out.append(
                rec(
                    r.timestamp + 0.02,
                    "IdentityResponse",
                    session=40,
                    protocol="NAS",
                    supi="imsi-00101123456789",
                )
            )
    return out


def uplink_extraction_trace():
    records = benign_session(session=50)
    return [
        MobiFlowRecord(
            **{
                **r.to_dict(),
                "suci": "suci-null-001-01-123456789"
                if r.msg == "RegistrationRequest"
                else r.suci,
            }
        )
        for r in records
    ]


def reference_parse_data_section(text):
    """``parse_data_section`` as it was before it read line by line and
    remembered lines: one regex pass over the whole text, a record built
    per match. Kept as the oracle."""
    from repro.llm.prompt import _LINE_RE
    from repro.ran.messages import Message, MessageError
    from repro.ran.security import CipherAlg, IntegrityAlg

    def protocol(name):
        try:
            return Message.lookup(name).PROTOCOL.value
        except MessageError:
            return "RRC"

    return [
        MobiFlowRecord(
            timestamp=float(m["t"]),
            msg=m["msg"],
            protocol=protocol(m["msg"]),
            direction=m["dir"],
            session_id=int(m["session"]),
            rnti=None if m["rnti"] == "-" else int(m["rnti"], 16),
            s_tmsi=None if m["tmsi"] == "-" else int(m["tmsi"], 16),
            suci=None if m["suci"] == "-" else m["suci"],
            supi=None if m["supi"] == "-" else m["supi"],
            cipher_alg=None if m["cipher"] == "-" else int(CipherAlg[m["cipher"]]),
            integrity_alg=None if m["integrity"] == "-" else int(IntegrityAlg[m["integrity"]]),
            establishment_cause=None if m["cause"] == "-" else m["cause"],
        )
        for m in _LINE_RE.finditer(text)
    ]


class TestParsedLinesMemo:
    """The provider remembers lines it has read (line text -> record); what
    it returns is what one regex pass over the prompt returns."""

    RECORDS = benign_session() + benign_session(session=2, t0=3.0)

    def _texts(self):
        lines = format_records(self.RECORDS).split("\n")
        prompt = PromptTemplate(retrieved_snippets=["TS 33.501: t=1.0 is not an entry"]).render(
            self.RECORDS
        )
        return {
            "prompt": prompt,
            "same_prompt_again": prompt,
            "overlapping_context": PromptTemplate().render(self.RECORDS[4:] + self.RECORDS[:2]),
            "entry_mid_line": f"note: {lines[0]} (first entry)\n{lines[1]}",
            "two_entries_on_a_line": f"{lines[0]} {lines[1]}\n{lines[2]}",
            "trailing_text": f"{lines[3]} trailing\n{lines[3]}",
            "crlf": "\r\n".join(lines[:4]),
            "other_line_separators": "\x0b".join(lines[:3]) + "\u2028" + lines[3],
            "garbage": "t=zz session=1 msg=\nt=1.0 session=\n\n   \nmsg=RRCSetup dir=UL",
            "unknown_names": "t=1.000 session=1 msg=NoSuchMessage dir=UL rnti=- s_tmsi=- "
            "suci=- supi=- cipher=- integrity=- cause=-",
            "empty": "",
        }

    def test_equals_one_regex_pass_with_and_without_a_memo(self):
        memo = {}
        for name, text in self._texts().items():
            expected = reference_parse_data_section(text)
            assert parse_data_section(text) == expected, name
            assert parse_data_section(text, memo) == expected, name
        assert len(reference_parse_data_section(self._texts()["prompt"])) == len(self.RECORDS)

    def test_only_a_line_that_is_exactly_one_entry_is_remembered(self):
        memo = {}
        texts = self._texts()
        for name in ("entry_mid_line", "two_entries_on_a_line", "garbage", "crlf"):
            parse_data_section(texts[name], memo)
        lines = format_records(self.RECORDS).split("\n")
        assert set(memo) == {lines[1], lines[2], lines[3]}
        first = parse_data_section(texts["prompt"], memo)
        assert set(lines) <= set(memo)
        again = parse_data_section(texts["prompt"], memo)
        assert all(a is b for a, b in zip(first, again))  # dict hits, not rebuilt

    def test_memo_is_bounded_then_cleared(self, monkeypatch):
        from repro.llm import prompt as prompt_module

        monkeypatch.setattr(prompt_module, "_PARSED_LINES_CAPACITY", 5)
        memo = {}
        text = format_records(self.RECORDS)
        assert parse_data_section(text, memo) == reference_parse_data_section(text)
        assert 0 < len(memo) <= 5

    def test_backends_of_one_server_share_the_engine_s_memo(self):
        server = SimulatedLlmServer()
        backends = list(server.backends.values())
        memo = backends[0].engine.parsed_lines
        assert all(backend.engine.parsed_lines is memo for backend in backends) and not memo
        prompt = PromptTemplate().render(self.RECORDS)
        backends[0].complete(prompt)
        assert len(memo) == len(set(format_records(self.RECORDS).split("\n")))
        # Another deployment's provider starts cold.
        assert not SimulatedLlmServer().backends[backends[0].name].engine.parsed_lines


class TestPromptRoundtrip:
    def test_render_contains_template_text(self):
        prompt = PromptTemplate().render(benign_session())
        assert "AI security analyst" in prompt
        assert "anomalous or benign" in prompt
        assert "top 3 most possible attacks" in prompt

    def test_records_roundtrip_through_prompt(self):
        records = benign_session()
        parsed = parse_data_section(PromptTemplate().render(records))
        assert len(parsed) == len(records)
        for original, roundtripped in zip(records, parsed):
            assert roundtripped.msg == original.msg
            assert roundtripped.session_id == original.session_id
            assert roundtripped.rnti == original.rnti
            assert roundtripped.s_tmsi == original.s_tmsi
            assert roundtripped.suci == original.suci
            assert roundtripped.cipher_alg == original.cipher_alg

    def test_rag_snippets_appended(self):
        template = PromptTemplate(retrieved_snippets=["TS 33.501 says X"])
        prompt = template.render(benign_session())
        assert "TS 33.501 says X" in prompt

    def test_format_records_one_line_each(self):
        text = format_records(benign_session())
        assert len(text.splitlines()) == len(benign_session())


class TestAnalysisEngine:
    def setup_method(self):
        self.engine = AnalysisEngine()

    def _signatures(self, records):
        return {m.signature for m in self.engine.analyze(records)}

    def test_benign_trace_matches_nothing(self):
        assert self._signatures(benign_session()) == set()

    def test_storm_detected(self):
        assert SIG_SIGNALING_STORM in self._signatures(storm_trace())

    def test_replay_detected(self):
        assert SIG_TMSI_REPLAY in self._signatures(replay_trace())

    def test_null_cipher_detected(self):
        assert SIG_NULL_CIPHER in self._signatures(null_cipher_trace())

    def test_downlink_extraction_detected(self):
        assert SIG_OUT_OF_ORDER_IDENTITY in self._signatures(downlink_extraction_trace())

    def test_uplink_extraction_detected(self):
        assert SIG_PLAINTEXT_SUCI in self._signatures(uplink_extraction_trace())

    def test_busy_but_healthy_cell_not_a_storm(self):
        records = []
        for i in range(6):
            records += benign_session(session=60 + i, t0=i * 0.3)
        records.sort(key=lambda r: r.timestamp)
        assert SIG_SIGNALING_STORM not in self._signatures(records)

    def test_matches_sorted_by_confidence(self):
        trace = storm_trace() + null_cipher_trace()
        trace.sort(key=lambda r: r.timestamp)
        matches = self.engine.analyze(trace)
        confidences = [m.confidence for m in matches]
        assert confidences == sorted(confidences, reverse=True)


class TestKnowledgeRetrieval:
    def test_retrieves_relevant_snippets(self):
        kb = CellularKnowledgeBase()
        snippets = kb.retrieve(null_cipher_trace(), top_k=2)
        assert any("null" in s.lower() for s in snippets)

    def test_top_k_respected(self):
        kb = CellularKnowledgeBase()
        assert len(kb.retrieve(storm_trace(), top_k=1)) <= 1


class TestBackends:
    def setup_method(self):
        self.backends = build_default_backends()

    def test_all_profiles_have_backends(self):
        assert set(self.backends) == set(MODEL_PROFILES)

    def test_deterministic_responses(self):
        prompt = PromptTemplate().render(storm_trace())
        backend = self.backends["chatgpt-4o"]
        assert backend.complete(prompt) == backend.complete(prompt)

    def test_perceived_attack_produces_anomalous_verdict(self):
        prompt = PromptTemplate().render(storm_trace())
        response = parse_response(self.backends["chatgpt-4o"].complete(prompt))
        assert response.is_anomalous
        assert response.top_attacks
        assert response.remediations

    def test_blind_spot_produces_benign_verdict(self):
        # Claude's profile does not perceive signaling storms (Table 3).
        prompt = PromptTemplate().render(storm_trace())
        response = parse_response(self.backends["claude-3-sonnet"].complete(prompt))
        assert not response.is_anomalous

    def test_empty_prompt_is_benign(self):
        response = parse_response(self.backends["gemini"].complete("no data here"))
        assert not response.is_anomalous


class TestResponseParser:
    def test_parse_full_response(self):
        text = (
            "Verdict: anomalous\n"
            "Explanation: something bad.\n"
            "Top attacks:\n"
            "1. Attack A — impact a\n"
            "2. Attack B — impact b\n"
            "Attribution: a rogue UE\n"
            "Remediation:\n- step one\n- step two"
        )
        response = parse_response(text)
        assert response.is_anomalous
        assert response.top_attacks == [("Attack A", "impact a"), ("Attack B", "impact b")]
        assert response.attribution == "a rogue UE"
        assert response.remediations == ["step one", "step two"]

    def test_missing_verdict_raises(self):
        with pytest.raises(ResponseParseError):
            parse_response("Explanation: whatever")

    def test_unknown_verdict_raises(self):
        with pytest.raises(ResponseParseError):
            parse_response("Verdict: maybe?")


class TestClientServer:
    def test_complete_roundtrip(self):
        server = SimulatedLlmServer()
        client = LlmClient(server=server, model="chatgpt-4o")
        text = client.complete(PromptTemplate().render(storm_trace()))
        assert "Verdict:" in text
        assert server.requests_served == 1
        assert client.requests_sent == 1

    def test_unknown_model_rejected(self):
        server = SimulatedLlmServer()
        with pytest.raises(LlmServerError):
            LlmClient(server=server, model="gpt-99").complete("hi")

    def test_malformed_request_rejected(self):
        server = SimulatedLlmServer()
        with pytest.raises(LlmServerError):
            server.post({"model": "gemini", "messages": []})
        with pytest.raises(LlmServerError):
            server.post({"model": "gemini", "messages": [{"role": "user"}]})

    def test_latency_is_deterministic_and_positive(self):
        server = SimulatedLlmServer()
        a = server.latency_for("gemini", "prompt")
        b = server.latency_for("gemini", "prompt")
        assert a == b
        assert a > 0


class TestExpertAnalyst:
    def test_agreement_and_escalation(self):
        server = SimulatedLlmServer()
        analyst = ExpertAnalyst(client=LlmClient(server=server, model="chatgpt-4o"))
        verdict = analyst.analyze(storm_trace(), detector_flagged=True)
        assert verdict.agrees_with_detector
        assert not verdict.needs_human_review
        # A model blind to the attack contradicts the detector -> escalate.
        blind = ExpertAnalyst(client=LlmClient(server=server, model="claude-3-sonnet"))
        contradicted = blind.analyze(storm_trace(), detector_flagged=True)
        assert contradicted.needs_human_review
        assert blind.escalations == 1

    def test_rag_augments_prompt(self):
        server = SimulatedLlmServer()
        analyst = ExpertAnalyst(
            client=LlmClient(server=server, model="chatgpt-4o"), use_rag=True
        )
        verdict = analyst.analyze(null_cipher_trace())
        assert "3GPP protocol knowledge" in verdict.prompt
