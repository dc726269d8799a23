"""Tests for the RAG / fine-tuning study (§5, Specialized LLM for 6G)."""

import pytest

from repro.experiments.datasets import AttackDatasetConfig
from repro.experiments.rag_study import RagStudyConfig, run_rag_study
from repro.llm.knowledge import CellularKnowledgeBase, VectorizedRetriever
from repro.llm.profiles import FINETUNED_PROFILE, MODEL_PROFILES
from tests.reference_llm import retrieve

SMALL_ATTACK = AttackDatasetConfig(
    bts_dos_instances=1,
    blind_dos_instances=1,
    uplink_id_instances=1,
    downlink_id_instances=1,
    null_cipher_instances=1,
)


@pytest.fixture(scope="module")
def result():
    return run_rag_study(RagStudyConfig(attack=SMALL_ATTACK))


class TestRagStudy:
    def test_zero_shot_matches_table3_counts(self, result):
        # ChatGPT-4o misses exactly one trace zero-shot (§4.2).
        assert result.correct_count("zero-shot", "chatgpt-4o") == 6
        assert result.correct_count("zero-shot", "copilot") == 3

    def test_rag_never_hurts(self, result):
        for model in result.config.models:
            assert result.correct_count("rag", model) >= result.correct_count(
                "zero-shot", model
            )

    def test_rag_closes_chatgpt_gap(self, result):
        # With the SUCI-scheme snippet in the prompt, ChatGPT-4o catches the
        # uplink identity extraction it misses zero-shot.
        assert result.correct_count("rag", "chatgpt-4o") == 7
        assert result.grid[("rag", "uplink_id_extraction", "chatgpt-4o")]
        assert not result.grid[("zero-shot", "uplink_id_extraction", "chatgpt-4o")]

    def test_rag_lifts_copilot(self, result):
        assert result.correct_count("rag", "copilot") > result.correct_count(
            "zero-shot", "copilot"
        )

    def test_finetuned_model_answers_everything(self, result):
        assert result.correct_count("finetuned", "xsec-ft-7b") == len(result.cases)

    def test_benign_traces_stay_correct_under_rag(self, result):
        for model in result.config.models:
            assert result.grid[("rag", "benign_1", model)]
            assert result.grid[("rag", "benign_2", model)]

    def test_render(self, result):
        text = result.render()
        assert "Zero-shot" in text
        assert "xsec-ft-7b" in text

    def test_retrieval_ranks_like_the_reference_on_the_study_traces(self, result):
        # The analysts retrieve through VectorizedRetriever; on every trace
        # the study shows a model it must rank like the reference loop.
        knowledge = CellularKnowledgeBase()
        retriever = VectorizedRetriever(knowledge)
        for case in result.cases:
            assert retriever.retrieve(case.records) == retrieve(
                knowledge, case.records
            ), case.name


class TestProfiles:
    def test_finetuned_profile_registered(self):
        assert "xsec-ft-7b" in MODEL_PROFILES
        # Perceives every signature in the knowledge base, including the
        # challenge-forgery extension.
        assert len(FINETUNED_PROFILE.perceives) == 6

    def test_rag_boosts_are_disjoint_from_perception(self):
        for profile in MODEL_PROFILES.values():
            assert not (profile.perceives & profile.rag_boost)

    def test_finetuned_is_fast(self):
        slowest_cloud = max(
            p.mean_latency_s for p in MODEL_PROFILES.values() if p.vendor != "local"
        )
        assert FINETUNED_PROFILE.mean_latency_s < slowest_cloud
