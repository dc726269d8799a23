"""Columnar MobiFlow batches — struct-of-arrays telemetry (repro.genfast).

The seed pipeline moves telemetry as one :class:`MobiFlowRecord` object per
entry.  A :class:`MobiFlowBatch` holds the same entries struct-of-arrays:
numpy columns for timestamps/ids/algorithms, small per-batch vocabularies
for the string categories (message name, protocol, direction, establishment
cause) with int id columns gathered against them, and plain tuples for the
rare free-form identifier strings (SUCI/SUPI).

The representation is *exact*: ``MobiFlowBatch.from_records(rs).to_records()
== rs`` field for field, which is what lets the columnar wire path
(:mod:`repro.telemetry.encoder`) decode byte-identically to the seed
per-record stream, and the vectorized featurizer
(:mod:`repro.telemetry.vectorized`) match the seed encoder bit for bit.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.telemetry.mobiflow import MobiFlowRecord

# Wire column names, in schema order. Nullable int columns travel as lists
# with None holes; vocab-id columns as small-int lists against the batch's
# own vocab lists (interned once per batch instead of once per record).
_WIRE_META_KEYS = ("msg_vocab", "protocol_vocab", "direction_vocab", "cause_vocab")


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

    @classmethod
    def concat(cls, batches: Sequence["MobiFlowBatch"]) -> "MobiFlowBatch":
        """Concatenate batches into one, re-interning the vocabularies.

        ``concat(bs).to_records() == sum((b.to_records() for b in bs), [])``
        exactly; per-batch vocab ids are remapped through a LUT gather, so
        the cost is O(total records) with no per-record Python work.
        """
        batches = list(batches)
        if not batches:
            return MobiFlowBatchBuilder().build()
        if len(batches) == 1:
            return batches[0]

        def remap(interner: _Interner, vocab: tuple, ids: np.ndarray) -> np.ndarray:
            lut = np.fromiter(
                (interner.intern(name) for name in vocab),
                dtype=ids.dtype,
                count=len(vocab),
            )
            return lut[ids] if len(vocab) else ids

        msg, protocol, direction, cause = (
            _Interner(), _Interner(), _Interner(), _Interner(),
        )
        msg_ids, protocol_ids, direction_ids, cause_ids = [], [], [], []
        for batch in batches:
            msg_ids.append(remap(msg, batch.msg_vocab, batch.msg_ids))
            protocol_ids.append(remap(protocol, batch.protocol_vocab, batch.protocol_ids))
            direction_ids.append(remap(direction, batch.direction_vocab, batch.direction_ids))
            # Cause ids use -1 for "no cause": remap the valid ids, keep holes.
            remapped = remap(cause, batch.cause_vocab, np.maximum(batch.cause_ids, 0))
            cause_ids.append(np.where(batch.cause_ids >= 0, remapped, -1))
        return cls(
            timestamps=np.concatenate([b.timestamps for b in batches]),
            msg_ids=np.concatenate(msg_ids),
            msg_vocab=tuple(msg.names),
            protocol_ids=np.concatenate(protocol_ids),
            protocol_vocab=tuple(protocol.names),
            direction_ids=np.concatenate(direction_ids),
            direction_vocab=tuple(direction.names),
            session_ids=np.concatenate([b.session_ids for b in batches]),
            rnti=np.concatenate([b.rnti for b in batches]),
            rnti_present=np.concatenate([b.rnti_present for b in batches]),
            s_tmsi=np.concatenate([b.s_tmsi for b in batches]),
            s_tmsi_present=np.concatenate([b.s_tmsi_present for b in batches]),
            suci=tuple(s for b in batches for s in b.suci),
            supi=tuple(s for b in batches for s in b.supi),
            cipher_alg=np.concatenate([b.cipher_alg for b in batches]),
            cipher_present=np.concatenate([b.cipher_present for b in batches]),
            integrity_alg=np.concatenate([b.integrity_alg for b in batches]),
            integrity_present=np.concatenate([b.integrity_present for b in batches]),
            cause_ids=np.concatenate(cause_ids),
            cause_vocab=tuple(cause.names),
        )

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

    # -- wire columns ---------------------------------------------------------

    def to_columns(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """``(columns, meta)`` for :func:`repro.wire.encode_columnar`.

        Numeric columns travel as packed little-endian buffers (one TLV
        bytes value per column, not one TLV value per record); only the
        rare free-form identifier strings stay per-element lists.
        """

        def packed(values: np.ndarray, dtype: str) -> bytes:
            return np.ascontiguousarray(values, dtype=dtype).tobytes()

        columns = {
            "timestamp": packed(self.timestamps, "<f8"),
            "msg": packed(self.msg_ids, "<i4"),
            "protocol": packed(self.protocol_ids, "<i4"),
            "direction": packed(self.direction_ids, "<i4"),
            "session_id": packed(self.session_ids, "<i8"),
            "rnti": packed(self.rnti, "<i8"),
            "rnti_present": packed(self.rnti_present, "<u1"),
            "s_tmsi": packed(self.s_tmsi, "<i8"),
            "s_tmsi_present": packed(self.s_tmsi_present, "<u1"),
            "suci": list(self.suci),
            "supi": list(self.supi),
            "cipher_alg": packed(self.cipher_alg, "<i8"),
            "cipher_present": packed(self.cipher_present, "<u1"),
            "integrity_alg": packed(self.integrity_alg, "<i8"),
            "integrity_present": packed(self.integrity_present, "<u1"),
            "establishment_cause": packed(self.cause_ids, "<i8"),
        }
        meta = {
            "msg_vocab": list(self.msg_vocab),
            "protocol_vocab": list(self.protocol_vocab),
            "direction_vocab": list(self.direction_vocab),
            "cause_vocab": list(self.cause_vocab),
        }
        return columns, meta

    @classmethod
    def from_columns(
        cls, columns: dict[str, Any], meta: dict[str, Any], n: int
    ) -> "MobiFlowBatch":
        for key in _WIRE_META_KEYS:
            if not isinstance(meta.get(key), list):
                raise ValueError(f"columnar MobiFlow batch missing vocab {key!r}")

        def unpack(name: str, dtype: str) -> np.ndarray:
            data = columns.get(name)
            if not isinstance(data, (bytes, bytearray)):
                raise ValueError(f"columnar MobiFlow column {name!r} is not packed bytes")
            values = np.frombuffer(data, dtype=dtype)
            if len(values) != n:
                raise ValueError(
                    f"columnar MobiFlow column {name!r} holds {len(values)} of {n} values"
                )
            return values

        # Field values are held to the rules the per-record lane applies
        # one record at a time (telemetry.encoder._FIELD_RULES): a batch
        # that breaks one is a ValueError, which rejects its indication.
        def strings(name: str) -> tuple:
            data = columns.get(name)
            if not isinstance(data, list) or len(data) != n:
                raise ValueError(f"columnar MobiFlow column {name!r} is not a list of {n}")
            if not set(map(type, data)) <= {str, type(None)}:
                raise ValueError(f"columnar MobiFlow column {name!r} holds a non-string")
            return tuple(data)

        def vocab(key: str) -> tuple:
            names = meta[key]
            if not set(map(type, names)) <= {str}:
                raise ValueError(f"columnar MobiFlow vocab {key!r} holds a non-string")
            return tuple(names)

        def non_negative(name: str, present: Optional[np.ndarray] = None) -> np.ndarray:
            values = unpack(name, "<i8")
            if ((values if present is None else values[present]) < 0).any():
                raise ValueError(f"columnar MobiFlow column {name!r} holds a negative value")
            return values

        def ids(name: str, dtype: str, vocab_key: str, lowest: int = 0) -> np.ndarray:
            # Ids index the batch's own vocab in to_records(): one out of
            # range would be an IndexError there (or, negative, silently
            # the wrong name), so bytes off the wire are checked here.
            values = unpack(name, dtype)
            size = len(meta[vocab_key])
            if n and not (lowest <= values.min() and values.max() < size):
                raise ValueError(
                    f"columnar MobiFlow column {name!r} has an id outside {vocab_key!r}"
                )
            return values

        timestamps = unpack("timestamp", "<f8")
        if not np.isfinite(timestamps).all():
            raise ValueError("columnar MobiFlow batch holds a timestamp that is not finite")
        cipher_present = unpack("cipher_present", np.bool_)
        integrity_present = unpack("integrity_present", np.bool_)
        return cls(
            timestamps=timestamps,
            msg_ids=ids("msg", "<i4", "msg_vocab"),
            msg_vocab=vocab("msg_vocab"),
            protocol_ids=ids("protocol", "<i4", "protocol_vocab"),
            protocol_vocab=vocab("protocol_vocab"),
            direction_ids=ids("direction", "<i4", "direction_vocab"),
            direction_vocab=vocab("direction_vocab"),
            session_ids=non_negative("session_id"),
            rnti=unpack("rnti", "<i8"),
            rnti_present=unpack("rnti_present", np.bool_),
            s_tmsi=unpack("s_tmsi", "<i8"),
            s_tmsi_present=unpack("s_tmsi_present", np.bool_),
            suci=strings("suci"),
            supi=strings("supi"),
            cipher_alg=non_negative("cipher_alg", cipher_present),
            cipher_present=cipher_present,
            integrity_alg=non_negative("integrity_alg", integrity_present),
            integrity_present=integrity_present,
            cause_ids=ids("establishment_cause", "<i8", "cause_vocab", lowest=-1),
            cause_vocab=vocab("cause_vocab"),
        )


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

    def flush(self) -> MobiFlowBatch:
        """Freeze the accumulated entries and reset the builder."""
        batch = self.build()
        self.__init__()
        return batch
