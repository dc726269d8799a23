"""Simulated LLM backends.

Each backend is one "model behind the API": it receives the *prompt text*,
parses the telemetry data section out of it (as a real model reads the
prompt), runs the shared cellular-security analysis engine, filters the
matched signatures through its capability profile, and writes a sectioned
natural-language analysis in its own voice. Responses are deterministic
per (model, prompt) — matching the paper's observation that repeated
ChatGPT-4o runs gave consistent results (§4.2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.llm.knowledge import AnalysisEngine, CellularKnowledgeBase, SignatureMatch
from repro.llm.profiles import MODEL_PROFILES, ModelProfile
from repro.llm.prompt import parse_data_section

_BENIGN_OPENERS = (
    "The message flow follows the expected 5G registration procedure",
    "This sequence is consistent with a normal attach and session lifecycle",
    "Nothing in the trace departs from standard protocol behaviour",
)

_HEDGES = ("It appears that ", "Based on the available attributes, ", "Likely, ")


@dataclass
class SimulatedLlmBackend:
    """One simulated model: profile + shared analysis engine."""

    profile: ModelProfile
    engine: AnalysisEngine

    @property
    def name(self) -> str:
        return self.profile.name

    def complete(self, prompt: str) -> str:
        """Answer the Figure 5 prompt with a sectioned text analysis."""
        records = parse_data_section(prompt, self.engine.parsed_lines)
        if not records:
            return (
                "Verdict: benign\n"
                "Explanation: No telemetry entries were found in the provided "
                "data, so there is nothing to flag."
            )
        matches = self.engine.analyze(records)
        effective = self.profile.perceives | self._rag_unlocked(prompt)
        perceived = [m for m in matches if m.signature in effective]
        if not perceived:
            return self._benign_text(prompt, records, missed=bool(matches))
        return self._anomalous_text(prompt, perceived)

    def _rag_unlocked(self, prompt: str) -> frozenset:
        """Signatures unlocked by retrieved knowledge present in the prompt.

        Retrieval augmentation closes *knowledge* gaps: when the prompt
        carries the 3GPP snippet describing a procedure, a model that knows
        how to reason but lacked that domain fact can now connect it
        (paper §5, Specialized LLM for 6G).
        """
        unlocked = set()
        for signature in self.profile.rag_boost:
            snippet = self.engine.knowledge.article(signature).procedure_snippet
            if snippet[:60] in prompt:
                unlocked.add(signature)
        return frozenset(unlocked)

    # -- text generation -------------------------------------------------------

    def _style_seed(self, prompt: str) -> int:
        digest = hashlib.sha256((self.name + prompt).encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")

    def _hedge(self, seed: int) -> str:
        if not self.profile.hedging:
            return ""
        return _HEDGES[seed % len(_HEDGES)]

    def _benign_text(self, prompt: str, records, missed: bool) -> str:
        seed = self._style_seed(prompt)
        opener = _BENIGN_OPENERS[seed % len(_BENIGN_OPENERS)]
        detail = ""
        if self.profile.verbosity >= 2:
            sessions = len({r.session_id for r in records})
            detail = (
                f" The trace spans {len(records)} control messages across "
                f"{sessions} connection(s); registrations progress through "
                "setup, authentication, and security mode activation in the "
                "expected order."
            )
        # A model that *missed* a real attack still writes a confident
        # benign analysis — this is the failure mode Table 3's ✗ records.
        return (
            "Verdict: benign\n"
            f"Explanation: {self._hedge(seed)}{opener}.{detail}"
        )

    def _anomalous_text(self, prompt: str, perceived: list[SignatureMatch]) -> str:
        seed = self._style_seed(prompt)
        knowledge = self.engine.knowledge
        primary = perceived[0]
        article = knowledge.article(primary.signature)
        evidence = "; ".join(primary.evidence)
        explanation = f"{self._hedge(seed)}{article.explanation} Evidence: {evidence}."
        if self.profile.verbosity >= 3 and len(perceived) > 1:
            extra = knowledge.article(perceived[1].signature)
            explanation += (
                f" The trace additionally shows indicators of "
                f"{extra.attack_name.lower()}."
            )

        # Top-3 most possible attacks: perceived signatures first, padded
        # with that model's nearest alternates from the knowledge base.
        candidates = [knowledge.article(m.signature) for m in perceived]
        for signature in sorted(self.profile.perceives):
            if len(candidates) >= 3:
                break
            alternate = knowledge.article(signature)
            if alternate not in candidates:
                candidates.append(alternate)
        attack_lines = [
            f"{rank}. {entry.attack_name} — {entry.implications}"
            for rank, entry in enumerate(candidates[:3], start=1)
        ]
        remediation_lines = [f"- {step}" for step in article.remediations]
        return (
            "Verdict: anomalous\n"
            f"Explanation: {explanation}\n"
            "Top attacks:\n" + "\n".join(attack_lines) + "\n"
            f"Attribution: {article.attribution}\n"
            "Remediation:\n" + "\n".join(remediation_lines)
        )


def build_default_backends(
    knowledge: Optional[CellularKnowledgeBase] = None,
) -> dict[str, SimulatedLlmBackend]:
    """The five evaluated models, sharing one analysis engine."""
    engine = AnalysisEngine(knowledge)
    return {
        name: SimulatedLlmBackend(profile=profile, engine=engine)
        for name, profile in MODEL_PROFILES.items()
    }
