"""MobiFlow batches — struct-of-arrays telemetry for the offline featurizer.

The pipeline moves telemetry as one :class:`MobiFlowRecord` object per
entry.  A :class:`MobiFlowBatch` holds the same entries struct-of-arrays:
numpy columns for timestamps/ids/algorithms, small per-batch vocabularies
for the string categories (message name, protocol, direction, establishment
cause) with int id columns gathered against them, and plain tuples for the
rare free-form identifier strings (SUCI/SUPI).

It is an *in-memory* representation, not a wire format: the input of the
vectorized featurizer (:mod:`repro.telemetry.vectorized`, behind
``FeatureSpec.encode_series``).  On E2 a batch crosses as per-record TLV
(:mod:`repro.telemetry.encoder`).  The representation is *exact*:
``MobiFlowBatch.from_records(rs).to_records() == rs`` field for field, which
is what lets the vectorized featurizer match the streaming encoder bit for
bit.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.telemetry.mobiflow import MobiFlowRecord


class _Interner:
    """Append-only string vocabulary: name -> dense id."""

    __slots__ = ("names", "_ids")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._ids[name] = ident
            self.names.append(name)
        return ident


class MobiFlowBatch:
    """An immutable struct-of-arrays view of a MobiFlow record sequence."""

    __slots__ = (
        "timestamps",
        "msg_ids",
        "msg_vocab",
        "protocol_ids",
        "protocol_vocab",
        "direction_ids",
        "direction_vocab",
        "session_ids",
        "rnti",
        "rnti_present",
        "s_tmsi",
        "s_tmsi_present",
        "suci",
        "supi",
        "cipher_alg",
        "cipher_present",
        "integrity_alg",
        "integrity_present",
        "cause_ids",
        "cause_vocab",
        "_exposed",
    )

    def __init__(
        self,
        *,
        timestamps: np.ndarray,
        msg_ids: np.ndarray,
        msg_vocab: tuple[str, ...],
        protocol_ids: np.ndarray,
        protocol_vocab: tuple[str, ...],
        direction_ids: np.ndarray,
        direction_vocab: tuple[str, ...],
        session_ids: np.ndarray,
        rnti: np.ndarray,
        rnti_present: np.ndarray,
        s_tmsi: np.ndarray,
        s_tmsi_present: np.ndarray,
        suci: tuple[Optional[str], ...],
        supi: tuple[Optional[str], ...],
        cipher_alg: np.ndarray,
        cipher_present: np.ndarray,
        integrity_alg: np.ndarray,
        integrity_present: np.ndarray,
        cause_ids: np.ndarray,
        cause_vocab: tuple[str, ...],
    ) -> None:
        self.timestamps = timestamps
        self.msg_ids = msg_ids
        self.msg_vocab = msg_vocab
        self.protocol_ids = protocol_ids
        self.protocol_vocab = protocol_vocab
        self.direction_ids = direction_ids
        self.direction_vocab = direction_vocab
        self.session_ids = session_ids
        self.rnti = rnti
        self.rnti_present = rnti_present
        self.s_tmsi = s_tmsi
        self.s_tmsi_present = s_tmsi_present
        self.suci = suci
        self.supi = supi
        self.cipher_alg = cipher_alg
        self.cipher_present = cipher_present
        self.integrity_alg = integrity_alg
        self.integrity_present = integrity_present
        self.cause_ids = cause_ids
        self.cause_vocab = cause_vocab
        self._exposed: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.timestamps)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[MobiFlowRecord]) -> "MobiFlowBatch":
        builder = MobiFlowBatchBuilder()
        for record in records:
            builder.append(record)
        return builder.build()

    # -- conversion -----------------------------------------------------------

    def to_records(self) -> list[MobiFlowRecord]:
        """Reconstruct the exact per-record objects (field-for-field equal)."""
        msg_vocab = self.msg_vocab
        protocol_vocab = self.protocol_vocab
        direction_vocab = self.direction_vocab
        cause_vocab = self.cause_vocab
        out = []
        for i in range(len(self)):
            cause_id = int(self.cause_ids[i])
            out.append(
                MobiFlowRecord(
                    timestamp=float(self.timestamps[i]),
                    msg=msg_vocab[self.msg_ids[i]],
                    protocol=protocol_vocab[self.protocol_ids[i]],
                    direction=direction_vocab[self.direction_ids[i]],
                    session_id=int(self.session_ids[i]),
                    rnti=int(self.rnti[i]) if self.rnti_present[i] else None,
                    s_tmsi=int(self.s_tmsi[i]) if self.s_tmsi_present[i] else None,
                    suci=self.suci[i],
                    supi=self.supi[i],
                    cipher_alg=int(self.cipher_alg[i]) if self.cipher_present[i] else None,
                    integrity_alg=(
                        int(self.integrity_alg[i]) if self.integrity_present[i] else None
                    ),
                    establishment_cause=cause_vocab[cause_id] if cause_id >= 0 else None,
                )
            )
        return out

    def identity_exposed(self) -> np.ndarray:
        """Per-record ``exposes_permanent_identity()``, computed once."""
        if self._exposed is None:
            self._exposed = np.fromiter(
                (
                    bool(supi) or bool(suci and suci.startswith("suci-null-"))
                    for supi, suci in zip(self.supi, self.suci)
                ),
                dtype=bool,
                count=len(self),
            )
        return self._exposed


class MobiFlowBatchBuilder:
    """Accumulates entries column-wise; ``build()`` freezes a batch.

    ``append()`` takes a record object (the collector's output);
    ``append_fields()`` takes the raw field values so synthetic generators
    can skip building record objects entirely.
    """

    __slots__ = (
        "_timestamps",
        "_msg_ids",
        "_msg",
        "_protocol_ids",
        "_protocol",
        "_direction_ids",
        "_direction",
        "_session_ids",
        "_rnti",
        "_s_tmsi",
        "_suci",
        "_supi",
        "_cipher",
        "_integrity",
        "_cause_ids",
        "_cause",
    )

    def __init__(self) -> None:
        self._timestamps: list[float] = []
        self._msg_ids: list[int] = []
        self._msg = _Interner()
        self._protocol_ids: list[int] = []
        self._protocol = _Interner()
        self._direction_ids: list[int] = []
        self._direction = _Interner()
        self._session_ids: list[int] = []
        self._rnti: list[Optional[int]] = []
        self._s_tmsi: list[Optional[int]] = []
        self._suci: list[Optional[str]] = []
        self._supi: list[Optional[str]] = []
        self._cipher: list[Optional[int]] = []
        self._integrity: list[Optional[int]] = []
        self._cause_ids: list[int] = []
        self._cause = _Interner()

    def __len__(self) -> int:
        return len(self._timestamps)

    def append(self, record: MobiFlowRecord) -> None:
        self.append_fields(
            record.timestamp,
            record.msg,
            record.protocol,
            record.direction,
            session_id=record.session_id,
            rnti=record.rnti,
            s_tmsi=record.s_tmsi,
            suci=record.suci,
            supi=record.supi,
            cipher_alg=record.cipher_alg,
            integrity_alg=record.integrity_alg,
            establishment_cause=record.establishment_cause,
        )

    def append_fields(
        self,
        timestamp: float,
        msg: str,
        protocol: str,
        direction: str,
        session_id: int = 0,
        rnti: Optional[int] = None,
        s_tmsi: Optional[int] = None,
        suci: Optional[str] = None,
        supi: Optional[str] = None,
        cipher_alg: Optional[int] = None,
        integrity_alg: Optional[int] = None,
        establishment_cause: Optional[str] = None,
    ) -> None:
        self._timestamps.append(timestamp)
        self._msg_ids.append(self._msg.intern(msg))
        self._protocol_ids.append(self._protocol.intern(protocol))
        self._direction_ids.append(self._direction.intern(direction))
        self._session_ids.append(session_id)
        self._rnti.append(rnti)
        self._s_tmsi.append(s_tmsi)
        self._suci.append(suci)
        self._supi.append(supi)
        self._cipher.append(cipher_alg)
        self._integrity.append(integrity_alg)
        self._cause_ids.append(
            self._cause.intern(establishment_cause) if establishment_cause is not None else -1
        )

    def build(self) -> MobiFlowBatch:
        n = len(self._timestamps)

        def nullable(values: list[Optional[int]]) -> tuple[np.ndarray, np.ndarray]:
            present = np.fromiter((v is not None for v in values), dtype=bool, count=n)
            filled = np.fromiter(
                (v if v is not None else 0 for v in values), dtype=np.int64, count=n
            )
            return filled, present

        rnti, rnti_present = nullable(self._rnti)
        s_tmsi, s_tmsi_present = nullable(self._s_tmsi)
        cipher, cipher_present = nullable(self._cipher)
        integrity, integrity_present = nullable(self._integrity)
        return MobiFlowBatch(
            timestamps=np.asarray(self._timestamps, dtype=np.float64),
            msg_ids=np.asarray(self._msg_ids, dtype=np.intp),
            msg_vocab=tuple(self._msg.names),
            protocol_ids=np.asarray(self._protocol_ids, dtype=np.intp),
            protocol_vocab=tuple(self._protocol.names),
            direction_ids=np.asarray(self._direction_ids, dtype=np.intp),
            direction_vocab=tuple(self._direction.names),
            session_ids=np.asarray(self._session_ids, dtype=np.int64),
            rnti=rnti,
            rnti_present=rnti_present,
            s_tmsi=s_tmsi,
            s_tmsi_present=s_tmsi_present,
            suci=tuple(self._suci),
            supi=tuple(self._supi),
            cipher_alg=cipher,
            cipher_present=cipher_present,
            integrity_alg=integrity,
            integrity_present=integrity_present,
            cause_ids=np.asarray(self._cause_ids, dtype=np.int64),
            cause_vocab=tuple(self._cause.names),
        )
