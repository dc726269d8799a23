"""repro.genfast — columnar telemetry generation & ingest.

The fast lane behind ``XsecConfig.genfast``: columnar
:class:`~repro.telemetry.batch.MobiFlowBatch` indications with interned
vocab ids on E2, decoded back to the identical per-record stream.

Default keeps per-record TLV on E2.
"""

from repro.genfast.settings import GenfastSettings

__all__ = ["GenfastSettings"]
