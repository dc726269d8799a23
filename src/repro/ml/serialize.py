"""Detector persistence: save/load trained models to a single ``.npz``.

The SMO's model catalog needs durable artifacts (Figure 3's
train-then-deploy splits across machines in a real deployment). A saved
detector carries its weights, hyperparameters, and the fitted threshold,
so a deployment can load and serve it without retraining.
"""

from __future__ import annotations

import io
import pathlib
from typing import Union

import numpy as np

from repro import wire
from repro.ml.detector import AnomalyDetector, AutoencoderDetector, LstmDetector

_FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


class SerializeError(ValueError):
    """Raised on malformed or incompatible model files."""


def _meta_for(detector: AnomalyDetector) -> dict:
    meta = {
        "format": _FORMAT_VERSION,
        "kind": detector.name,
        "window": detector.window,
        "feature_dim": detector.feature_dim,
        "percentile": detector.threshold.percentile,
        "threshold": detector.threshold.threshold,
    }
    if isinstance(detector, AutoencoderDetector):
        meta["hidden_dim"] = detector.model.hidden_dim
        meta["latent_dim"] = detector.model.latent_dim
        meta["aggregate"] = detector.aggregate
    elif isinstance(detector, LstmDetector):
        meta["hidden_dim"] = detector.model.hidden_dim
    return meta


def _params_of(detector: AnomalyDetector) -> list[np.ndarray]:
    if isinstance(detector, AutoencoderDetector):
        return [p.value for p in detector.model.model.params()]
    if isinstance(detector, LstmDetector):
        return [p.value for p in detector.model.params()]
    raise SerializeError(f"cannot serialize detector kind {detector.name!r}")


def save_detector(detector: AnomalyDetector, path: PathLike) -> None:
    """Write a trained detector (weights + config + threshold) to ``path``."""
    with open(path, "wb") as handle:
        handle.write(dumps_detector(detector))


def dumps_detector(detector: AnomalyDetector) -> bytes:
    """Serialize a trained detector to bytes (the ``.npz`` format in memory).

    The process runtime (repro.runtime) ships models to scoring-worker
    processes as bytes over the spawn arguments, so the worker can
    deserialize without touching the filesystem.
    """
    if detector.threshold.threshold is None:
        raise SerializeError("refusing to save an unfitted detector")
    arrays = {f"param_{i}": value for i, value in enumerate(_params_of(detector))}
    if detector.training_scores is not None:
        arrays["training_scores"] = detector.training_scores
    arrays["meta"] = np.frombuffer(wire.encode(_meta_for(detector)), dtype=np.ubyte)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def loads_detector(data: bytes) -> AnomalyDetector:
    """Deserialize a detector produced by :func:`dumps_detector`."""
    return load_detector(io.BytesIO(data))


def load_detector(path: "PathLike | io.BytesIO") -> AnomalyDetector:
    """Load a detector saved by :func:`save_detector`."""
    with np.load(path) as archive:
        try:
            meta = wire.decode(archive["meta"].tobytes())
        except (KeyError, wire.WireError) as exc:
            raise SerializeError(f"not a detector file: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("format") != _FORMAT_VERSION:
            raise SerializeError(f"unsupported format {meta.get('format')!r}")
        kind = meta.get("kind")
        if kind == "autoencoder":
            detector: AnomalyDetector = AutoencoderDetector(
                window=meta["window"],
                feature_dim=meta["feature_dim"],
                hidden_dim=meta["hidden_dim"],
                latent_dim=meta["latent_dim"],
                percentile=meta["percentile"],
                aggregate=meta["aggregate"],
            )
            params = detector.model.model.params()
        elif kind == "lstm":
            detector = LstmDetector(
                window=meta["window"],
                feature_dim=meta["feature_dim"],
                hidden_dim=meta["hidden_dim"],
                percentile=meta["percentile"],
            )
            params = detector.model.params()
        else:
            raise SerializeError(f"unknown detector kind {kind!r}")
        for i, param in enumerate(params):
            stored = archive[f"param_{i}"]
            if stored.shape != param.value.shape:
                raise SerializeError(
                    f"weight {i} shape mismatch: {stored.shape} vs {param.value.shape}"
                )
            param.value[...] = stored
        detector.threshold.threshold = float(meta["threshold"])
        if "training_scores" in archive:
            detector.training_scores = archive["training_scores"]
    return detector
