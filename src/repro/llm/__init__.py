"""LLM-based expert referencing (paper §3.3).

The paper chains MobiWatch with large language models queried over RESTful
web APIs to *classify, explain, attribute, and remediate* flagged cellular
sequences. With no network access in this environment, the five evaluated
models (ChatGPT-4o, Gemini, Copilot, Llama3, Claude 3 Sonnet) are
**simulated**: a shared rule-based cellular-security analysis engine
(:mod:`.knowledge`) reads the *prompt text* exactly as a real model would,
and per-model capability profiles (:mod:`.profiles`) reproduce Table 3's
✓/✗ pattern — which model perceives which attack signature. Everything
around the generation — prompt construction (:mod:`.prompt`, Figure 5),
response parsing (:mod:`.response`), the REST-shaped client
(:mod:`.client`), retrieval augmentation (:mod:`.knowledge`) — is the real
system code a drop-in production API key would drive unchanged.
"""

from repro.llm.knowledge import (
    AnalysisEngine,
    CellularKnowledgeBase,
    SignatureMatch,
)
from repro.llm.prompt import parse_data_section
from repro.llm.response import AnalysisResponse, parse_response
from repro.llm.profiles import MODEL_PROFILES, ModelProfile
from repro.llm.backends import SimulatedLlmBackend, build_default_backends
from repro.llm.client import LlmClient, LlmServerError, SimulatedLlmServer
from repro.llm.analyst import ExpertAnalyst

__all__ = [
    "AnalysisEngine",
    "CellularKnowledgeBase",
    "SignatureMatch",
    "parse_data_section",
    "AnalysisResponse",
    "parse_response",
    "MODEL_PROFILES",
    "ModelProfile",
    "SimulatedLlmBackend",
    "build_default_backends",
    "LlmClient",
    "LlmServerError",
    "SimulatedLlmServer",
    "ExpertAnalyst",
]
