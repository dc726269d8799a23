"""RESTful-style LLM client (paper §3.3: "accesses the LLMs through
RESTful web APIs").

The client speaks a chat-completions-shaped request/response protocol to a
server object. :class:`SimulatedLlmServer` hosts the simulated backends
behind that same protocol, so swapping in a real HTTP transport would not
change any caller code. Simulated latency lets the pipeline measure
realistic end-to-end explanation times.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional, Protocol

from repro.llm.backends import SimulatedLlmBackend, build_default_backends


class LlmServerError(RuntimeError):
    """Raised for API-level failures (unknown model, malformed request)."""


class LlmTransport(Protocol):
    """Anything that can answer a chat-completions request."""

    def post(self, request: dict) -> dict: ...


class SimulatedLlmServer:
    """In-process stand-in for the providers' web APIs."""

    def __init__(self, backends: Optional[dict[str, SimulatedLlmBackend]] = None) -> None:
        self.backends = backends or build_default_backends()
        self.requests_served = 0

    def post(self, request: dict) -> dict:
        model = request.get("model")
        if model not in self.backends:
            raise LlmServerError(f"unknown model {model!r}")
        messages = request.get("messages")
        if not isinstance(messages, list) or not messages:
            raise LlmServerError("request has no messages")
        last = messages[-1]
        if last.get("role") != "user" or not isinstance(last.get("content"), str):
            raise LlmServerError("last message must be a user message with content")
        backend = self.backends[model]
        text = backend.complete(last["content"])
        self.requests_served += 1
        return {
            "model": model,
            "choices": [
                {"index": 0, "message": {"role": "assistant", "content": text}}
            ],
            "usage": {
                "prompt_tokens": len(last["content"].split()),
                "completion_tokens": len(text.split()),
            },
        }

    def latency_for(self, model: str, prompt: str) -> float:
        """Deterministic per-request latency (mean per profile ±30%)."""
        backend = self.backends.get(model)
        if backend is None:
            raise LlmServerError(f"unknown model {model!r}")
        digest = hashlib.sha256((model + prompt).encode("utf-8")).digest()
        jitter = (digest[0] / 255.0 - 0.5) * 0.6  # -0.3 .. +0.3
        return backend.profile.mean_latency_s * (1.0 + jitter)


@dataclass
class LlmClient:
    """Caller-side API wrapper used by the LLM analyzer xApp."""

    server: LlmTransport
    model: str
    system_preamble: str = ""
    requests_sent: int = 0

    def complete(self, prompt: str) -> str:
        """Send one zero-shot prompt; return the assistant text."""
        messages: list[dict[str, Any]] = []
        if self.system_preamble:
            messages.append({"role": "system", "content": self.system_preamble})
        messages.append({"role": "user", "content": prompt})
        response = self.server.post({"model": self.model, "messages": messages})
        self.requests_sent += 1
        try:
            return response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise LlmServerError(f"malformed API response: {response!r}") from exc
