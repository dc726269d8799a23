"""MobiFlow record schema — the paper's Table 1 telemetry.

Each record is one telemetry entry ``x_i`` collected at one control-message
transmission. Categories:

- **Message**: the RRC or NAS message name and direction.
- **Identifier**: RNTI, 5G-S-TMSI, SUCI/SUPI as observed on the wire.
- **State**: negotiated ciphering/integrity algorithms, RRC establishment
  cause.

A record is built at every hop of the loop — by the collector at the gNB
and again by the E2 decoder in the RIC — so it is an immutable named tuple:
construction, hashing and equality are tuple's own C code. A changed copy
is ``record._replace(field=...)``.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional


class MobiFlowRecord(NamedTuple):
    """One telemetry entry ``x_i`` (paper §3.1).

    Immutable, and hashed and compared as the tuple of its fields — so,
    unlike a class of its own, a record also equals a plain tuple holding
    the same values (nothing in the program compares the two).
    """

    timestamp: float
    msg: str
    protocol: str  # "RRC" | "NAS"
    direction: str  # "UL" | "DL"
    session_id: int = 0
    rnti: Optional[int] = None
    s_tmsi: Optional[int] = None
    suci: Optional[str] = None
    supi: Optional[str] = None  # plaintext permanent identifier, if exposed
    cipher_alg: Optional[int] = None
    integrity_alg: Optional[int] = None
    establishment_cause: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()

    def to_wire_dict(self) -> dict[str, Any]:
        """Non-null fields only — the compact E2 (key, value) payload."""
        return {name: value for name, value in zip(FIELD_NAMES, self) if value is not None}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MobiFlowRecord":
        if not _FIELD_NAME_SET.issuperset(data):
            raise ValueError(
                f"unknown MobiFlow fields: {sorted(set(data) - _FIELD_NAME_SET)}"
            )
        return cls(**data)

    def exposes_permanent_identity(self) -> bool:
        """True when the permanent subscriber identity is visible in clear."""
        if self.supi:
            return True
        return bool(self.suci and self.suci.startswith("suci-null-"))


FIELD_NAMES: tuple[str, ...] = MobiFlowRecord._fields
_FIELD_NAME_SET: frozenset[str] = frozenset(FIELD_NAMES)


class TelemetrySeries:
    """An ordered multivariate time series ``tau = {x_1 .. x_M}``."""

    def __init__(self, records: Optional[list[MobiFlowRecord]] = None) -> None:
        self._records: list[MobiFlowRecord] = list(records or [])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MobiFlowRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TelemetrySeries(self._records[index])
        return self._records[index]

    @property
    def records(self) -> list[MobiFlowRecord]:
        return list(self._records)

    def append(self, record: MobiFlowRecord) -> None:
        if self._records and record.timestamp < self._records[-1].timestamp:
            raise ValueError(
                "telemetry must be appended in timestamp order "
                f"({record.timestamp} < {self._records[-1].timestamp})"
            )
        self._records.append(record)

    def extend(self, records: Iterator[MobiFlowRecord]) -> None:
        for record in records:
            self.append(record)

    def sessions(self) -> dict[int, list[MobiFlowRecord]]:
        """Group records by session id, preserving order."""
        out: dict[int, list[MobiFlowRecord]] = {}
        for record in self._records:
            out.setdefault(record.session_id, []).append(record)
        return out

    def message_names(self) -> list[str]:
        return [record.msg for record in self._records]

    def time_span(self) -> float:
        if len(self._records) < 2:
            return 0.0
        return self._records[-1].timestamp - self._records[0].timestamp
