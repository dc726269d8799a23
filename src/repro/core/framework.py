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
        self.ric = NearRtRic(self.net.sim, self.e2)
        self.e2.connect(a_handler=self.agent.on_e2, b_handler=self.ric.e2term.on_e2)
        self.llm_server = llm_server or SimulatedLlmServer()
        self.mobiwatch = MobiWatchXApp(self.ric, self.config)
        self.analyzer = LlmAnalyzerXApp(
            self.ric, self.mobiwatch, server=self.llm_server, config=self.config
        )
        self.pipeline = ClosedLoopPipeline(self.mobiwatch, self.analyzer, self.config)
        self.smo = Smo(self.ric)
        # The SLO plane joins the obs context (engine, scoreboard, profiler,
        # exporter); off, the seed path constructs nothing new. Its one
        # provenance store is MobiWatch's, which owns the SDL handle.
        if self.config.slo_enabled:
            self.obs.enable_slo(self.config.slo_export_path)
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

    # -- execution ---------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        self.start()
        self.obs.schedule_ticks(self.net.sim, until)
        processed = self.net.run(until=until, max_events=max_events)
        self.pipeline.poll_anomalies()
        self.obs.finalize()
        return processed

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Release the SLO plane's process-global profiler (idempotent).

        The deployment owns nothing else outside the interpreter; the
        observed state stays readable after closing.
        """
        self.obs.shutdown()

    def __enter__(self) -> "SixGXSec":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
