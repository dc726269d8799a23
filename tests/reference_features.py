"""The seed ``StreamingEncoder`` (as of PR 20), kept verbatim as a test oracle.

``repro.telemetry.features.StreamingEncoder`` lays its columns out once per
spec and keeps its rate windows as deques; this one re-derives everything
per push and filters whole lists. ``tests/test_features.py`` holds the two
bit-equal on arbitrary record sequences. Not imported by ``src``.
"""

from typing import Optional

import numpy as np

from repro.telemetry.features import (
    _ALG_SLOTS,
    _RATE_SLOTS,
    _RATE_WINDOW_S,
    _TMSI_EPISODE_HORIZON_S,
    FeatureSpec,
)
from repro.telemetry.mobiflow import MobiFlowRecord


class SeedStreamingEncoder:
    def __init__(self, spec: FeatureSpec) -> None:
        self.spec = spec
        self._seen_sessions: set[int] = set()
        self._tmsi_episodes: dict[int, tuple] = {}
        self._recent_setups: list[float] = []
        self._recent_sessions: list[tuple[float, int]] = []
        self._churn_seen: set[int] = set()
        self._prev: Optional[MobiFlowRecord] = None

    def push(self, record: MobiFlowRecord) -> np.ndarray:
        """Encode one record, updating the causal state."""
        spec = self.spec
        row = np.zeros(spec.dim, dtype=np.float32)
        col = 0
        if spec.include_messages:
            try:
                idx = spec.message_vocab.index(record.msg)
            except ValueError:
                idx = len(spec.message_vocab)
            row[col + idx] = 1.0
            col += len(spec.message_vocab) + 1
            row[col + (0 if record.direction == "UL" else 1)] = 1.0
            col += 2
        if spec.include_state:
            if record.establishment_cause is None:
                row[col + len(spec.cause_vocab)] = 1.0
            else:
                try:
                    cause_idx = spec.cause_vocab.index(record.establishment_cause)
                except ValueError:
                    cause_idx = len(spec.cause_vocab)
                row[col + cause_idx] = 1.0
            col += len(spec.cause_vocab) + 1
            cipher = record.cipher_alg if record.cipher_alg is not None else 4
            weight = 1.0 if cipher == 4 else spec.state_weight
            row[col + min(cipher, 4)] = weight
            col += _ALG_SLOTS
            integ = record.integrity_alg if record.integrity_alg is not None else 4
            weight = 1.0 if integ == 4 else spec.state_weight
            row[col + min(integ, 4)] = weight
            col += _ALG_SLOTS
        if spec.include_identifiers:
            new_session = record.session_id not in self._seen_sessions
            self._seen_sessions.add(record.session_id)
            tmsi_reused = False
            if record.s_tmsi is not None:
                episode = self._tmsi_episodes.get(record.s_tmsi)
                if episode is None:
                    count = 1
                else:
                    count, last_seen = episode
                    if record.timestamp - last_seen > _TMSI_EPISODE_HORIZON_S:
                        count += 1
                self._tmsi_episodes[record.s_tmsi] = (count, record.timestamp)
                tmsi_reused = count >= 3
            row[col + 0] = float(new_session)
            row[col + 1] = spec.identifier_weight * float(tmsi_reused)
            row[col + 2] = spec.identifier_weight * float(
                record.exposes_permanent_identity()
            )
            row[col + 3] = float(self._prev is not None and self._prev.msg == record.msg)
            col += 4
        if spec.include_timing:
            iat = (
                record.timestamp - self._prev.timestamp
                if self._prev is not None
                else 0.0
            )
            bucket = len(spec.iat_buckets)
            for i, bound in enumerate(spec.iat_buckets):
                if iat < bound:
                    bucket = i
                    break
            row[col + bucket] = 1.0
            col += len(spec.iat_buckets) + 1
        if spec.include_rates:
            horizon = record.timestamp - _RATE_WINDOW_S
            self._recent_setups[:] = [t for t in self._recent_setups if t > horizon]
            self._recent_sessions[:] = [
                (t, s) for t, s in self._recent_sessions if t > horizon
            ]
            if record.msg == "RRCSetupRequest":
                self._recent_setups.append(record.timestamp)
            if record.session_id and record.session_id not in self._churn_seen:
                self._churn_seen.add(record.session_id)
                self._recent_sessions.append((record.timestamp, record.session_id))
            row[col + min(len(self._recent_setups), _RATE_SLOTS - 1)] = 1.0
            col += _RATE_SLOTS
            row[col + min(len(self._recent_sessions), _RATE_SLOTS - 1)] = 1.0
            col += _RATE_SLOTS
        self._prev = record
        return row
