"""One-pass vectorized featurization: every offline dataset build.

The live :class:`~repro.telemetry.features.StreamingEncoder` walks the
stream record by record, allocating one ``[dim]`` row per entry and
maintaining python-set/list causal state.  :func:`encode_batch` computes
the identical ``[M, dim]`` float32 matrix from an in-memory
struct-of-arrays :class:`~repro.telemetry.batch.MobiFlowBatch` in a handful
of numpy passes:

- message / direction / cause one-hots: per-batch-vocab lookup tables
  gathered by the interned id columns, scattered into a preallocated
  matrix;
- inter-arrival buckets: ``np.diff`` + ``searchsorted`` over the bucket
  bounds (the same float64 comparisons the seed loop performs);
- TMSI usage episodes: a stable sort by TMSI (preserving time order
  within each group) and a segmented cumulative sum over
  gap-larger-than-horizon flags — episode counts per presentation without
  a python dict;
- setup-rate / session-churn windows: ``searchsorted`` over the ordered
  event timestamps and positions, reproducing the seed's prune-then-count
  exactly (events with ``t <= horizon`` pruned, the current record's own
  event included);
- new-session / churn first occurrences: ``np.unique(return_index=True)``
  masks.

**Equality contract**: for any time-ordered stream this module's output is
bit-identical (float64 arithmetic, float32 storage) to the seed encoder's.
``tests/test_telemetry_batch.py`` verifies it on all five attack-scenario captures
plus the benign mix; the golden-vector fixture freezes the column layout
itself.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.batch import MobiFlowBatch
from repro.telemetry.features import (
    _ALG_SLOTS,
    _RATE_SLOTS,
    _RATE_WINDOW_S,
    _TMSI_EPISODE_HORIZON_S,
    FeatureSpec,
    first_index,
)


def encode_batch(spec: FeatureSpec, batch: MobiFlowBatch) -> np.ndarray:
    """Encode a struct-of-arrays batch to the seed-identical ``[M, dim]`` matrix."""
    m = len(batch)
    out = np.zeros((m, spec.dim), dtype=np.float32)
    if m == 0:
        return out
    ts = batch.timestamps
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("vectorized featurization requires a time-ordered batch")
    rows = np.arange(m)
    col = 0

    if spec.include_messages:
        nv = len(spec.message_vocab)
        spec_index = first_index(spec.message_vocab)
        lut = np.array(
            [spec_index.get(name, nv) for name in batch.msg_vocab], dtype=np.intp
        )
        out[rows, col + lut[batch.msg_ids]] = 1.0
        col += nv + 1
        dir_lut = np.array(
            [0 if name == "UL" else 1 for name in batch.direction_vocab], dtype=np.intp
        )
        out[rows, col + dir_lut[batch.direction_ids]] = 1.0
        col += 2

    if spec.include_state:
        nc = len(spec.cause_vocab)
        cause_index = first_index(spec.cause_vocab)
        cause_lut = np.array(
            [cause_index.get(name, nc) for name in batch.cause_vocab] or [nc],
            dtype=np.intp,
        )
        cause_idx = np.where(
            batch.cause_ids >= 0, cause_lut[np.maximum(batch.cause_ids, 0)], nc
        )
        out[rows, col + cause_idx] = 1.0
        col += nc + 1
        for values, present in (
            (batch.cipher_alg, batch.cipher_present),
            (batch.integrity_alg, batch.integrity_present),
        ):
            filled = np.where(present, values, 4)
            weight = np.where(filled == 4, 1.0, spec.state_weight)  # float64
            out[rows, col + np.minimum(filled, 4)] = weight.astype(np.float32)
            col += _ALG_SLOTS

    if spec.include_identifiers:
        _, first_idx = np.unique(batch.session_ids, return_index=True)
        new_session = np.zeros(m, dtype=bool)
        new_session[first_idx] = True

        tmsi_reused = np.zeros(m, dtype=bool)
        pres = np.flatnonzero(batch.s_tmsi_present)
        if pres.size:
            # Sort presentations by TMSI value; the stable sort keeps each
            # TMSI's uses in time order, so consecutive entries within a
            # group are consecutive uses of that identity.
            order = pres[np.argsort(batch.s_tmsi[pres], kind="stable")]
            values = batch.s_tmsi[order]
            times = ts[order]
            k = order.size
            new_group = np.empty(k, dtype=bool)
            new_group[0] = True
            new_group[1:] = values[1:] != values[:-1]
            gap = np.zeros(k, dtype=np.int64)
            gap[1:] = (~new_group[1:]) & (
                (times[1:] - times[:-1]) > _TMSI_EPISODE_HORIZON_S
            )
            # Episode count at each use = 1 + gaps since the group started.
            episodes = np.cumsum(gap)
            starts = np.maximum.accumulate(np.where(new_group, np.arange(k), 0))
            count = 1 + episodes - episodes[starts]
            tmsi_reused[order] = count >= 3

        repeated = np.zeros(m, dtype=bool)
        repeated[1:] = batch.msg_ids[1:] == batch.msg_ids[:-1]

        out[:, col] = new_session
        weight = float(spec.identifier_weight)
        out[:, col + 1] = (weight * tmsi_reused.astype(np.float64)).astype(np.float32)
        out[:, col + 2] = (
            weight * batch.identity_exposed().astype(np.float64)
        ).astype(np.float32)
        out[:, col + 3] = repeated
        col += 4

    if spec.include_timing:
        nb = len(spec.iat_buckets)
        iat = np.empty(m, dtype=np.float64)
        iat[0] = 0.0
        np.subtract(ts[1:], ts[:-1], out=iat[1:])
        bounds = np.asarray(spec.iat_buckets, dtype=np.float64)
        if nb == 0:
            bucket = np.zeros(m, dtype=np.intp)
        elif np.all(bounds[1:] >= bounds[:-1]):
            # First bucket whose bound exceeds the iat == count of bounds <= it.
            bucket = np.searchsorted(bounds, iat, side="right")
        else:
            # Unsorted bounds: reproduce the seed's first-match scan.
            cmp = iat[:, None] < bounds[None, :]
            bucket = np.where(cmp.any(axis=1), cmp.argmax(axis=1), nb)
        out[rows, col + bucket] = 1.0
        col += nb + 1

    if spec.include_rates:
        horizon = ts - _RATE_WINDOW_S
        # Setup-request rate: events = every RRCSetupRequest record. The
        # seed prunes t <= horizon then appends the current record's event
        # before counting; positions <= i minus timestamps <= horizon is
        # the same count (the stream is time-ordered, so nothing at a later
        # position can fall inside an earlier record's trailing window).
        try:
            setup_id = batch.msg_vocab.index("RRCSetupRequest")
        except ValueError:
            setup_positions = np.empty(0, dtype=np.intp)
        else:
            setup_positions = np.flatnonzero(batch.msg_ids == setup_id)
        in_window = np.searchsorted(
            ts[setup_positions], horizon, side="right"
        )
        through = np.searchsorted(setup_positions, rows, side="right")
        out[rows, col + np.minimum(through - in_window, _RATE_SLOTS - 1)] = 1.0
        col += _RATE_SLOTS
        # Session churn: events = first occurrence of each nonzero session.
        uniq, first_idx = np.unique(batch.session_ids, return_index=True)
        churn_positions = np.sort(first_idx[uniq != 0])
        in_window = np.searchsorted(ts[churn_positions], horizon, side="right")
        through = np.searchsorted(churn_positions, rows, side="right")
        out[rows, col + np.minimum(through - in_window, _RATE_SLOTS - 1)] = 1.0
        col += _RATE_SLOTS

    return out


def encode_series(spec: FeatureSpec, series) -> np.ndarray:
    """What :meth:`FeatureSpec.encode_series` runs."""
    return encode_batch(spec, MobiFlowBatch.from_records(series))
