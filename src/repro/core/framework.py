"""One-call assembly of the full 6G-XSec deployment (Figure 3).

``SixGXSec`` stands up the simulated 5G network, embeds the RIC agent in
the CU, connects the near-RT RIC over E2, registers the MobiWatch and LLM
analyzer xApps, attaches the SMO (non-RT RIC) with the train-then-deploy
workflow and A1 policies, and wires the closed-loop pipeline.

Typical use::

    xsec = SixGXSec(XsecConfig())
    xsec.train_from_benign(benign_windows)       # SMO training job
    ue = xsec.net.add_ue("pixel5")
    xsec.net.sim.schedule(1.0, ue.start_session)
    xsec.run(until=30.0)
    print(xsec.pipeline.summary())
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import XsecConfig
from repro.core.llm_analyzer import LlmAnalyzerXApp
from repro.core.mobiwatch import MobiWatchXApp
from repro.core.pipeline import ClosedLoopPipeline
from repro.llm.client import SimulatedLlmServer
from repro.ml.detector import AnomalyDetector, AutoencoderDetector, LstmDetector
from repro.oran.e2agent import RicAgent
from repro.oran.ric import NearRtRic
from repro.oran.smo import Smo
from repro.ran.links import InterfaceLink
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.slo.runtime import SloRuntime


def build_detector(config: XsecConfig) -> AnomalyDetector:
    """Construct the configured (untrained) detector."""
    if config.detector == "autoencoder":
        detector: AnomalyDetector = AutoencoderDetector(
            window=config.window,
            feature_dim=config.spec.dim,
            hidden_dim=config.ae_hidden_dim,
            latent_dim=config.ae_latent_dim,
            percentile=config.threshold_percentile,
            seed=config.seed,
        )
    elif config.detector == "lstm":
        detector = LstmDetector(
            window=config.window,
            feature_dim=config.spec.dim,
            hidden_dim=config.lstm_hidden_dim,
            percentile=config.threshold_percentile,
            seed=config.seed,
        )
    else:
        raise ValueError(f"unknown detector {config.detector!r}")
    return detector


class SixGXSec:
    """The assembled framework around a fresh simulated network."""

    def __init__(
        self,
        config: Optional[XsecConfig] = None,
        network_config: Optional[NetworkConfig] = None,
        llm_server: Optional[SimulatedLlmServer] = None,
    ) -> None:
        self.config = config or XsecConfig()
        self.net = FiveGNetwork(network_config or NetworkConfig(seed=self.config.seed))
        self.e2 = InterfaceLink(self.net.sim, "E2", latency_s=0.002)
        self.agent = RicAgent(self.net, self.e2)
        self.ric = NearRtRic(self.net.sim, self.e2, runtime=self.config.runtime)
        self.e2.connect(a_handler=self.agent.on_e2, b_handler=self.ric.e2term.on_e2)
        self.llm_server = llm_server or SimulatedLlmServer()
        self.mobiwatch = MobiWatchXApp(self.ric, self.config)
        self.analyzer = LlmAnalyzerXApp(
            self.ric, self.mobiwatch, server=self.llm_server, config=self.config
        )
        self.pipeline = ClosedLoopPipeline(self.mobiwatch, self.analyzer, self.config)
        self.smo = Smo(self.ric)
        # repro.slo: the observability plane (SLO engine, profilers,
        # exporter, health scoreboard). None when every slo switch is off,
        # so the seed path constructs nothing new.
        self.slo: Optional[SloRuntime] = None
        if self.config.slo.any_enabled:
            self.slo = SloRuntime(
                self.config.slo,
                self.obs.metrics,
                clock=lambda: self.net.sim.now,
            )
            # MobiWatch minted the store (it owns the SDL handle); the
            # runtime exposes it so `slo explain` has one entry point.
            self.slo.provenance = self.mobiwatch.provenance
            if self.slo.scoreboard is not None:
                sdl = self.ric.sdl
                if hasattr(sdl, "shard_names"):
                    self.slo.scoreboard.watch_sharded_sdl(sdl)
        self._started = False

    @property
    def obs(self):
        """The deployment's observability context (``repro.obs``)."""
        return self.net.sim.obs

    def start(self) -> None:
        """Bring up E2 and the xApps (idempotent)."""
        if self._started:
            return
        self._started = True
        self.agent.start()
        self.ric.start()

    # -- model lifecycle ----------------------------------------------------------

    def train_from_benign(self, benign_windows: np.ndarray, **train_kwargs) -> AnomalyDetector:
        """Run the SMO train-then-deploy job on benign windows."""
        kwargs = dict(
            epochs=self.config.train_epochs,
            lr=self.config.train_lr,
        )
        kwargs.update(train_kwargs)

        def collect():
            return np.asarray(benign_windows)

        def train(dataset):
            detector = build_detector(self.config)
            detector.attach_metrics(self.obs.metrics)
            detector.fit(dataset, **kwargs)
            return detector

        job_name = f"mobiwatch-{self.config.detector}"
        self.smo.submit_training_job(
            job_name, collect=collect, train=train, deploy=self.deploy_detector
        )
        job = self.smo.run_job(job_name)
        if job.error:
            raise RuntimeError(f"training job failed: {job.error}")
        return job.model

    def deploy_detector(self, detector: AnomalyDetector) -> None:
        """Deploy an externally trained detector directly."""
        self.mobiwatch.deploy_detector(detector)
        # The scoring worker processes only exist after deployment (they
        # load the trained weights), so the scoreboard attaches here. The
        # probes are keyed by worker name; re-deploys overwrite in place.
        if (
            self.slo is not None
            and self.slo.scoreboard is not None
            and self.mobiwatch.pool is not None
        ):
            self.slo.scoreboard.watch_supervisor(
                self.mobiwatch.pool.supervisor, name=self.mobiwatch.name
            )

    # -- execution ---------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        self.start()
        if self.slo is not None:
            self.slo.schedule_ticks(self.net.sim, until)
        processed = self.net.run(until=until, max_events=max_events)
        self.pipeline.poll_anomalies()
        if self.slo is not None:
            self.slo.finalize()
        return processed

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Release out-of-process resources (idempotent).

        The seed deployment owns nothing outside the interpreter, so this
        is a no-op there; with ``runtime.score_in_processes`` it drains
        and stops the scoring worker processes.
        """
        if self.mobiwatch.pool is not None:
            self.mobiwatch.pool.close()

    def __enter__(self) -> "SixGXSec":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
