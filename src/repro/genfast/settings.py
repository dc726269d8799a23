"""Configuration for the repro.genfast generation & ingest fast lane.

The one flag defaults to off.  The enabled path is *contracted* against
the per-record one: columnar indications decode to byte-identical
per-record streams, so enabling it never changes ``AnomalyEvent`` streams
— it changes the bytes on E2 and how fast they are produced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GenfastSettings:
    """Flags for the telemetry generation/ingest fast lane.

    columnar_batches
        The RIC agent ships each report tick as one columnar
        ``MobiFlowBatch`` indication (struct-of-arrays TLV with interned
        message/direction/cause vocab ids) instead of a list of
        per-record dicts.  MobiWatch decodes it back to the identical
        per-record stream, so everything downstream is unchanged.
    """

    columnar_batches: bool = False

    @property
    def any_enabled(self) -> bool:
        return self.columnar_batches

    @classmethod
    def all_on(cls) -> "GenfastSettings":
        """Every fast-lane flag enabled (benches, tests)."""
        return cls(columnar_batches=True)
