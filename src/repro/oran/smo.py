"""Service Management and Orchestration (SMO) with a non-RT RIC.

Per the paper (§2.1, §3.2): time-insensitive tasks — notably ML model
training — run in the SMO as rApps on the non-real-time RIC, and trained
models are then deployed into the near-RT xApps ("Train -> Deploy" in
Figure 3). This module provides the rApp base class, a training-job
workflow with an ML model catalog, and the A1 interface toward the near-RT
RIC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.oran.a1 import (
    A1Interface,
    DETECTION_POLICY_TYPE,
    RESPONSE_POLICY_TYPE,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.oran.ric import NearRtRic


class JobState(enum.Enum):
    PENDING = "pending"
    COLLECTING = "collecting"
    TRAINING = "training"
    DEPLOYED = "deployed"
    FAILED = "failed"


@dataclass
class TrainingJob:
    """One train-then-deploy workflow instance."""

    name: str
    collect: Callable[[], Any]
    train: Callable[[Any], Any]
    deploy: Callable[[Any], None]
    state: JobState = JobState.PENDING
    error: Optional[str] = None
    model: Any = None


class RApp:
    """Base class for non-real-time RIC applications."""

    def __init__(self, smo: "Smo", name: str) -> None:
        self.smo = smo
        self.name = name
        smo.register_rapp(self)

    def run(self) -> None:
        """Override with the rApp's (non-real-time) logic."""


class Smo:
    """SMO hosting the non-RT RIC: rApps, model catalog, A1."""

    def __init__(self, ric: "NearRtRic") -> None:
        self.ric = ric
        self.a1 = A1Interface(ric)
        self.a1.register_policy_type(DETECTION_POLICY_TYPE)
        self.a1.register_policy_type(RESPONSE_POLICY_TYPE)
        self.rapps: dict[str, RApp] = {}
        self.jobs: dict[str, TrainingJob] = {}
        # Deployed-model catalog: name -> model object.
        self.model_catalog: dict[str, Any] = {}

    def register_rapp(self, rapp: RApp) -> None:
        if rapp.name in self.rapps:
            raise ValueError(f"rApp {rapp.name!r} already registered")
        self.rapps[rapp.name] = rapp

    def submit_training_job(
        self,
        name: str,
        collect: Callable[[], Any],
        train: Callable[[Any], Any],
        deploy: Callable[[Any], None],
    ) -> TrainingJob:
        """Register a train-then-deploy job (run it with :meth:`run_job`)."""
        if name in self.jobs:
            raise ValueError(f"job {name!r} already submitted")
        job = TrainingJob(name=name, collect=collect, train=train, deploy=deploy)
        self.jobs[name] = job
        return job

    def run_job(self, name: str) -> TrainingJob:
        """Execute a job synchronously (training is non-real-time)."""
        job = self.jobs[name]
        try:
            job.state = JobState.COLLECTING
            dataset = job.collect()
            job.state = JobState.TRAINING
            job.model = job.train(dataset)
            job.deploy(job.model)
            self.model_catalog[name] = job.model
            job.state = JobState.DEPLOYED
        except Exception as exc:  # noqa: BLE001 - job failures are data
            job.state = JobState.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        return job
