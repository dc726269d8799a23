"""Framework configuration for 6G-XSec."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hotpath.settings import HotpathSettings
from repro.llmfast.settings import LlmfastSettings
from repro.megabatch.settings import MegabatchSettings
from repro.runtime.settings import RuntimeSettings
from repro.scale.settings import ScaleSettings
from repro.slo.settings import SloSettings
from repro.telemetry.features import FeatureSpec
from repro.trainfast.settings import TrainfastSettings


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

    # Horizontal scaling (repro.scale): sharded SDL, ingest batching.
    # Defaults preserve the seed's single-node behaviour bit-for-bit
    # (see docs/SCALING.md).
    scale: ScaleSettings = field(default_factory=ScaleSettings)

    # Inference hot path (repro.hotpath): incremental per-session LSTM
    # scoring and the float32 kernel tier. Defaults keep scoring exact
    # (see docs/PERFORMANCE.md).
    hotpath: HotpathSettings = field(default_factory=HotpathSettings)

    # Training fast path (repro.trainfast): training-kernel precision,
    # multi-core experiment sweeps, content-addressed dataset cache.
    # Defaults keep training exact and serial (see docs/PERFORMANCE.md,
    # "Training fast path").
    trainfast: TrainfastSettings = field(default_factory=TrainfastSettings)

    # repro.megabatch: the int8/float16 quantized LSTM tier and bounded
    # per-session state via eviction. Defaults keep scoring exact and
    # never evict (see docs/PERFORMANCE.md).
    megabatch: MegabatchSettings = field(default_factory=MegabatchSettings)

    # SLO/observability plane (repro.slo): burn-rate alerting over
    # declarative objectives, continuous profiling, OpenMetrics/JSONL
    # export, verdict provenance. Defaults keep every output bit-identical
    # to the seed (see docs/OBSERVABILITY.md).
    slo: SloSettings = field(default_factory=SloSettings)

    # Process-parallel service runtime (repro.runtime): MobiWatch scoring
    # in supervised OS worker processes over the TLV socket transport,
    # restart-on-crash, and the `python -m repro runtime` deployment mode.
    # Defaults keep everything in-process and bit-identical to the seed
    # (see docs/RUNTIME.md).
    runtime: RuntimeSettings = field(default_factory=RuntimeSettings)

    # Verdict-plane fast path (repro.llmfast): content-addressed verdict
    # cache + in-flight coalescing. Defaults send one provider request per
    # query (see docs/PERFORMANCE.md, "Verdict plane").
    llmfast: LlmfastSettings = field(default_factory=LlmfastSettings)
