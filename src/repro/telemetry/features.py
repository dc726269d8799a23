"""Featurization of MobiFlow telemetry for the unsupervised models (§3.2).

The paper one-hot encodes the categorical variables of each telemetry entry
and slides a window of size ``N`` over the series, so each model input is a
sequence ``S_i = {x_i .. x_{i+N-1}}`` flattened to a vector.

Per-entry features (all categorical, matching the paper's choice to use
"categorical features in the security telemetry ... including the control
messages and device identifiers such as UE's RNTI and TMSI"):

- message name (one-hot over the protocol vocabulary + "other"),
- link direction,
- establishment cause,
- ciphering / integrity algorithm identifiers,
- identifier-derived flags: fresh session start, temporary identity reused
  from a *different* session (the RNTI/TMSI relation features), permanent
  identity exposed in plaintext, message repeated back-to-back,
- inter-arrival-time bucket (captures flooding cadence).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries

# Message vocabulary: the control-plane messages the collector emits.
DEFAULT_MESSAGE_VOCAB: tuple[str, ...] = (
    "RRCSetupRequest",
    "RRCSetup",
    "RRCSetupComplete",
    "RRCReject",
    "RRCSecurityModeCommand",
    "RRCSecurityModeComplete",
    "RRCSecurityModeFailure",
    "RRCReconfiguration",
    "RRCReconfigurationComplete",
    "RRCRelease",
    "MeasurementReport",
    "Paging",
    "RRCReestablishmentRequest",
    "RegistrationRequest",
    "AuthenticationRequest",
    "AuthenticationResponse",
    "AuthenticationFailure",
    "AuthenticationReject",
    "IdentityRequest",
    "IdentityResponse",
    "NASSecurityModeCommand",
    "NASSecurityModeComplete",
    "NASSecurityModeReject",
    "RegistrationAccept",
    "RegistrationComplete",
    "RegistrationReject",
    "ServiceRequest",
    "ServiceAccept",
    "ServiceReject",
    "ConfigurationUpdateCommand",
    "DeregistrationRequest",
    "DeregistrationAccept",
)

DEFAULT_CAUSE_VOCAB: tuple[str, ...] = (
    "emergency",
    "highPriorityAccess",
    "mt-Access",
    "mo-Signalling",
    "mo-Data",
    "mo-VoiceCall",
    "mo-SMS",
    "mps-PriorityAccess",
)

# Inter-arrival-time bucket upper bounds (seconds); last bucket is open.
DEFAULT_IAT_BUCKETS: tuple[float, ...] = (0.01, 0.05, 0.2, 1.0)

_ALG_SLOTS = 5  # NEA0..NEA3 / NIA0..NIA3 + "absent"

# Rate features: counts within a trailing window, clipped into buckets
# {0, 1, 2, 3+}. Connection floods (BTS DoS) land in the top bucket.
_RATE_WINDOW_S = 1.0
_RATE_SLOTS = 4

# Uses of one TMSI separated by less than this merge into one usage episode
# (covers RLC duplicates and T300 retries, which re-present the identity).
_TMSI_EPISODE_HORIZON_S = 1.0


@dataclass(frozen=True)
class FeatureSpec:
    """Defines the per-entry feature encoding. Frozen so a spec trained
    against stays byte-identical at inference time."""

    message_vocab: tuple[str, ...] = DEFAULT_MESSAGE_VOCAB
    cause_vocab: tuple[str, ...] = DEFAULT_CAUSE_VOCAB
    iat_buckets: tuple[float, ...] = DEFAULT_IAT_BUCKETS
    include_messages: bool = True
    include_identifiers: bool = True
    include_state: bool = True
    include_timing: bool = True
    include_rates: bool = True
    # Feature-group weights: security-relevant rare bits carry more signal
    # per dimension than the bulky message one-hot, so reconstruction /
    # prediction errors on them are amplified. Set both to 1.0 for an
    # unweighted encoding (ablation A3 covers this choice).
    identifier_weight: float = 3.0
    state_weight: float = 2.0

    @property
    def dim(self) -> int:
        dim = 0
        if self.include_messages:
            dim += len(self.message_vocab) + 1  # + other
            dim += 2  # direction
        if self.include_state:
            dim += len(self.cause_vocab) + 1  # + absent
            dim += 2 * _ALG_SLOTS
        if self.include_identifiers:
            dim += 4  # new_session, tmsi_reused, identity_exposed, repeated
        if self.include_timing:
            dim += len(self.iat_buckets) + 1
        if self.include_rates:
            dim += 2 * _RATE_SLOTS  # setup-request rate, session churn
        return dim

    def feature_names(self) -> list[str]:
        names: list[str] = []
        if self.include_messages:
            names += [f"msg={m}" for m in self.message_vocab] + ["msg=<other>"]
            names += ["dir=UL", "dir=DL"]
        if self.include_state:
            names += [f"cause={c}" for c in self.cause_vocab] + ["cause=<absent>"]
            names += [f"cipher={i}" for i in range(4)] + ["cipher=<absent>"]
            names += [f"integrity={i}" for i in range(4)] + ["integrity=<absent>"]
        if self.include_identifiers:
            names += ["new_session", "tmsi_reused", "identity_exposed", "repeated_msg"]
        if self.include_timing:
            bounds = [f"iat<{b}" for b in self.iat_buckets] + ["iat>=last"]
            names += bounds
        if self.include_rates:
            names += [f"setup_rate={i}" for i in ("0", "1", "2", "3+")]
            names += [f"session_churn={i}" for i in ("0", "1", "2", "3+")]
        if len(names) != self.dim:
            raise AssertionError("feature_names out of sync with dim")
        return names

    # -- encoding ------------------------------------------------------------

    def streaming_encoder(self) -> "StreamingEncoder":
        """A stateful per-record encoder for live pipelines."""
        return StreamingEncoder(self)

    def encode_series(self, series: TelemetrySeries) -> np.ndarray:
        """Encode a time-ordered telemetry series to an ``[M, dim]`` float32
        matrix: every record is pushed through one fresh
        :meth:`streaming_encoder`, the live featurizer, so a model trains on
        exactly the features MobiWatch scores.

        The identifier-relation flags are computed causally: each entry only
        looks at entries before it. A series whose timestamps go backwards
        raises ``ValueError`` (``TelemetrySeries.append`` refuses one; a
        series built from a list is not checked until here).
        """
        out = np.empty((len(series), self.dim), dtype=np.float32)
        push = self.streaming_encoder().push
        last = float("-inf")
        for index, record in enumerate(series):
            if record.timestamp < last:
                raise ValueError(
                    "encode_series requires a time-ordered series "
                    f"({record.timestamp} < {last})"
                )
            last = record.timestamp
            out[index] = push(record)
        return out


class StreamingEncoder:
    """Stateful record-at-a-time featurizer (the live-inference path).

    State tracked across pushes: sessions seen, per-TMSI usage episodes
    (uses separated by more than the horizon start a new episode, so
    retransmissions and T300 retries merge; benign GUTI reuse spans two
    episodes, replay attacks three or more), recent setup-request and
    session-churn rate windows, and the previous record's message and
    timestamp. Everything the frozen spec fixes — the column of each
    group, of each vocabulary entry, the row width — is laid out once here.
    """

    def __init__(self, spec: FeatureSpec) -> None:
        self.spec = spec
        self._seen_sessions: set[int] = set()
        self._tmsi_episodes: dict[int, tuple] = {}
        # Rate windows: the event timestamps still inside the trailing
        # window. Only their count is a feature, so they are kept ascending
        # (insort: MobiWatch clamps time, a bare caller may let it decrease)
        # and expiry pops from the left.
        self._recent_setups: deque[float] = deque()
        self._recent_sessions: deque[float] = deque()
        self._churn_seen: set[int] = set()
        self._prev: Optional[tuple[str, float]] = None  # (msg, timestamp)
        # What a row holds before any record is looked at: zeros, and the
        # identifier weight's "off" product (-0.0 under a negative weight).
        self._blank = np.zeros(spec.dim, dtype=np.float32)
        col = 0
        if spec.include_messages:
            self._msg_other = col + len(spec.message_vocab)
            self._msg_cols = {
                msg: col + i for msg, i in first_index(spec.message_vocab).items()
            }
            self._dir_col = self._msg_other + 1
            col = self._dir_col + 2
        if spec.include_state:
            self._cause_absent = col + len(spec.cause_vocab)
            self._cause_cols = {
                cause: col + i for cause, i in first_index(spec.cause_vocab).items()
            }
            self._alg_col = self._cause_absent + 1
            col = self._alg_col + 2 * _ALG_SLOTS
        if spec.include_identifiers:
            self._ident_col = col
            self._blank[col + 1 : col + 3] = spec.identifier_weight * 0.0
            col += 4
        if spec.include_timing:
            self._iat_col = col
            col += len(spec.iat_buckets) + 1
        if spec.include_rates:
            self._rate_col = col

    def push(self, record: MobiFlowRecord) -> np.ndarray:
        """Encode one record, updating the causal state."""
        spec = self.spec
        row = self._blank.copy()
        msg = record.msg
        timestamp = record.timestamp
        prev = self._prev
        if spec.include_messages:
            row[self._msg_cols.get(msg, self._msg_other)] = 1.0
            row[self._dir_col + (0 if record.direction == "UL" else 1)] = 1.0
        if spec.include_state:
            # An unknown cause shares the absent column.
            row[self._cause_cols.get(record.establishment_cause, self._cause_absent)] = 1.0
            col = self._alg_col
            for alg in (record.cipher_alg, record.integrity_alg):
                if alg is None or alg == 4:
                    row[col + 4] = 1.0
                else:
                    row[col + min(alg, 4)] = spec.state_weight
                col += _ALG_SLOTS
        if spec.include_identifiers:
            col = self._ident_col
            session_id = record.session_id
            if session_id not in self._seen_sessions:
                self._seen_sessions.add(session_id)
                row[col] = 1.0
            s_tmsi = record.s_tmsi
            if s_tmsi is not None:
                episode = self._tmsi_episodes.get(s_tmsi)
                if episode is None:
                    count = 1
                else:
                    count, last_seen = episode
                    if timestamp - last_seen > _TMSI_EPISODE_HORIZON_S:
                        count += 1
                self._tmsi_episodes[s_tmsi] = (count, timestamp)
                if count >= 3:
                    row[col + 1] = spec.identifier_weight
            # MobiFlowRecord.exposes_permanent_identity, inlined.
            suci = record.suci
            if record.supi or (suci and suci.startswith("suci-null-")):
                row[col + 2] = spec.identifier_weight
            if prev is not None and prev[0] == msg:
                row[col + 3] = 1.0
        if spec.include_timing:
            iat = timestamp - prev[1] if prev is not None else 0.0
            col = self._iat_col
            for bound in spec.iat_buckets:
                if iat < bound:
                    break
                col += 1
            row[col] = 1.0
        if spec.include_rates:
            horizon = timestamp - _RATE_WINDOW_S
            setups = self._recent_setups
            sessions = self._recent_sessions
            while setups and setups[0] <= horizon:
                setups.popleft()
            while sessions and sessions[0] <= horizon:
                sessions.popleft()
            if msg == "RRCSetupRequest":
                insort(setups, timestamp)
            session_id = record.session_id
            if session_id and session_id not in self._churn_seen:
                self._churn_seen.add(session_id)
                insort(sessions, timestamp)
            col = self._rate_col
            row[col + min(len(setups), _RATE_SLOTS - 1)] = 1.0
            row[col + _RATE_SLOTS + min(len(sessions), _RATE_SLOTS - 1)] = 1.0
        self._prev = (msg, timestamp)
        return row


def first_index(vocab: Sequence[str]) -> dict[str, int]:
    """name -> first index, matching ``tuple.index`` on duplicate entries."""
    index: dict[str, int] = {}
    for i, name in enumerate(vocab):
        index.setdefault(name, i)
    return index


def sliding_windows(matrix: np.ndarray, window: int) -> np.ndarray:
    """Flattened sliding windows: ``[M, D] -> [M-N+1, N*D]``.

    For a C-contiguous ``matrix`` this is **zero-copy**: the result is a
    read-only strided view whose row ``i`` aliases source rows
    ``i..i+N-1``, so the N-record overlap between consecutive windows is
    shared memory rather than duplicated (a window matrix would otherwise
    be ~N times the size of the per-record matrix). Aliasing contract:
    mutating ``matrix`` changes every window that covers the mutated rows,
    and the view itself rejects writes — callers that need an independent,
    writable buffer must ``.copy()``. Non-contiguous inputs fall back to
    the copying path and return a plain owned array.
    """
    if window < 1:
        raise ValueError("window size must be >= 1")
    m, dim = matrix.shape
    if m < window:
        return np.zeros((0, window * dim), dtype=matrix.dtype)
    if matrix.flags.c_contiguous:
        item = matrix.itemsize
        return np.lib.stride_tricks.as_strided(
            matrix,
            shape=(m - window + 1, window * dim),
            strides=(dim * item, item),
            writeable=False,
        )
    return np.stack(
        [matrix[i : i + window].reshape(-1) for i in range(m - window + 1)]
    )


def session_windows(
    session_ids: Sequence[int], per_record: np.ndarray, window: int, dim: int
) -> tuple[np.ndarray, list]:
    """Session-mode window assembly: slide within each nonzero session's
    record sequence (stream order), one left-padded window per short
    session, sessions in sorted-id order. Returns ``(windows,
    window_records)``."""
    groups: dict[int, list[int]] = {}
    for index, session_id in enumerate(session_ids):
        if session_id == 0:
            continue  # untracked records (no RNTI correlation)
        groups.setdefault(session_id, []).append(index)
    # One row per sliding position, one per short session: sized up
    # front so rows land in the final matrix (no stack of copies).
    total = sum(max(len(indices) - window + 1, 1) for indices in groups.values())
    windows = np.zeros((total, window * dim), dtype=per_record.dtype)
    window_records: list = []
    row = 0
    for session_id in sorted(groups):
        indices = groups[session_id]
        if len(indices) >= window:
            for start in range(len(indices) - window + 1):
                chosen = indices[start : start + window]
                np.take(per_record, chosen, axis=0, out=windows[row].reshape(window, dim))
                window_records.append(tuple(chosen))
                row += 1
        else:
            # Short (possibly abandoned) session: one left-padded window.
            windows[row].reshape(window, dim)[window - len(indices) :] = (
                per_record[indices]
            )
            window_records.append(tuple(indices))
            row += 1
    return windows, window_records


@dataclass
class WindowedDataset:
    """Sliding-window view of a telemetry series, ready for the models.

    Two windowing modes:

    - ``"session"`` (default, what MobiWatch deploys): windows slide within
      each UE session's record sequence, so the models learn the protocol
      grammar of a connection. A session shorter than the window — e.g. a
      connection abandoned at the authentication stage — yields a single
      zero-left-padded window, making *uncompleted* connections (the BTS DoS
      signature) first-class inputs. Per-record features are still computed
      over the global time-ordered stream, so cross-session relations (TMSI
      reuse, connection rates) survive sessionization.
    - ``"global"``: windows slide over the raw interleaved stream (kept as
      an ablation).

    ``window_records[i]`` lists the source-record indices each window covers.
    """

    spec: FeatureSpec
    window: int
    windows: np.ndarray  # [num_windows, window * spec.dim]
    per_record: np.ndarray  # [M, spec.dim]
    window_records: list  # list[tuple[int, ...]] source indices per window
    mode: str = "session"

    @classmethod
    def from_series(
        cls,
        series: TelemetrySeries,
        spec: FeatureSpec,
        window: int,
        mode: str = "session",
        *,
        cache=None,
    ) -> "WindowedDataset":
        """Encode and window a series.

        ``cache`` (optional) is a :class:`repro.experiments.cache.DatasetCache`
        (or any object with the same ``windowed`` method): datasets are then
        memoized on the series' *content* digest, so repeated encodes of the
        same capture — e.g. across ablation-sweep configurations — are free.
        Cached arrays are read-only; copy before mutating.
        """
        if mode not in ("session", "global"):
            raise ValueError(f"mode must be 'session' or 'global', got {mode!r}")
        if cache is not None:
            return cache.windowed(series, spec, window, mode, builder=cls._assemble)
        return cls._assemble(series, spec, window, mode, spec.encode_series(series))

    @classmethod
    def _assemble(
        cls,
        series: TelemetrySeries,
        spec: FeatureSpec,
        window: int,
        mode: str,
        per_record: np.ndarray,
    ) -> "WindowedDataset":
        """Window an already-encoded per-record matrix (see from_series)."""
        if mode == "global":
            windows = sliding_windows(per_record, window)
            window_records = [
                tuple(range(i, i + window)) for i in range(windows.shape[0])
            ]
            return cls(
                spec=spec,
                window=window,
                windows=windows,
                per_record=per_record,
                window_records=window_records,
                mode=mode,
            )
        # Session mode: group record indices per session, in stream order.
        windows, window_records = session_windows(
            [record.session_id for record in series], per_record, window, spec.dim
        )
        return cls(
            spec=spec,
            window=window,
            windows=windows,
            per_record=per_record,
            window_records=window_records,
            mode=mode,
        )

    @property
    def num_windows(self) -> int:
        return self.windows.shape[0]

    def record_indices(self, window_index: int) -> tuple:
        """Source-record indices one window covers."""
        if not 0 <= window_index < self.num_windows:
            raise IndexError(window_index)
        return self.window_records[window_index]

    def record_range(self, window_index: int) -> tuple[int, int]:
        """Source-record index range ``[start, end)`` of one window."""
        indices = self.record_indices(window_index)
        return indices[0], indices[-1] + 1
