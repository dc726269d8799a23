"""Framework configuration for 6G-XSec."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.llm.cache import LlmfastSettings
from repro.telemetry.features import FeatureSpec


@dataclass
class XsecConfig:
    """All the knobs of the deployed framework (defaults match §4)."""

    # Telemetry featurization.
    spec: FeatureSpec = field(default_factory=FeatureSpec)
    window: int = 6

    # Detection (paper §4.1: 99th-percentile threshold; the LSTM's per-step
    # scores use a slightly lower operating point, see EXPERIMENTS.md).
    detector: str = "autoencoder"  # "autoencoder" | "lstm"
    threshold_percentile: float = 99.0
    ae_hidden_dim: int = 128
    ae_latent_dim: int = 24
    lstm_hidden_dim: int = 64
    train_epochs: int = 50
    train_lr: float = 2e-3
    seed: int = 7
    # Bounded per-session state. evict_on_release: an RRCRelease record
    # finishes the session (its final window is scored at once, its state
    # dropped). evict_idle_s > 0: a sweep every evict_idle_s / 2 drops
    # sessions untouched for that long. Off by default: a re-appearing
    # session restarts its window history.
    evict_on_release: bool = False
    evict_idle_s: float = 0.0

    # E2 reporting.
    report_period_s: float = 0.1

    # LLM expert referencing.
    llm_model: str = "chatgpt-4o"
    llm_use_rag: bool = False
    # Cooldown before re-querying the LLM about the same session (the LLM
    # is the expensive stage; MobiWatch is the pre-filter).
    llm_session_cooldown_s: float = 30.0
    # Context entries included around a flagged window.
    llm_context_records: int = 40

    # Automated responses (paper §5, Automated Network Responses).
    auto_release: bool = False
    auto_blocklist: bool = False
    # dApp-style radio control: cap the setup-request rate at the DU when a
    # signaling storm is confirmed (effective against RNTI-hopping floods).
    auto_rate_limit: bool = False
    rate_limit_max_setups: int = 3
    rate_limit_window_s: float = 1.0

    # SLO plane (repro.obs): burn-rate alerting over declarative
    # objectives, the health scoreboard, profiler hooks, verdict provenance
    # and JSONL snapshots (to slo_export_path, else kept in memory), all
    # on or all off. Off keeps every output bit-identical to the seed (see
    # docs/OBSERVABILITY.md).
    slo_enabled: bool = False
    slo_export_path: Optional[str] = None

    # Verdict-plane fast path (repro.llm.cache): content-addressed verdict
    # cache + in-flight coalescing. Defaults send one provider request per
    # query (see docs/PERFORMANCE.md, "Verdict plane").
    llmfast: LlmfastSettings = field(default_factory=LlmfastSettings)

    def __post_init__(self) -> None:
        if self.train_epochs < 1:
            raise ValueError(f"train_epochs must be >= 1, got {self.train_epochs}")
        if not (math.isfinite(self.train_lr) and self.train_lr > 0):
            raise ValueError(f"train_lr must be finite and > 0, got {self.train_lr}")
        if self.evict_idle_s < 0:
            raise ValueError(f"evict_idle_s must be >= 0, got {self.evict_idle_s}")
