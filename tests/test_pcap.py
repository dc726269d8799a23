"""Tests for the F1AP/NGAP capture stream."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ran.pcap import CaptureRecord, PcapError, PcapStream
from repro.ran.rrc import RrcSetup, RrcSetupRequest


class TestCapture:
    def test_capture_and_decode(self):
        stream = PcapStream()
        stream.capture(1.5, "F1AP", RrcSetupRequest(ue_identity=7))
        assert len(stream) == 1
        record = stream.records[0]
        assert record.timestamp == 1.5
        assert record.interface == "F1AP"
        decoded = record.decode()
        assert isinstance(decoded, RrcSetupRequest)
        assert decoded.ue_identity == 7

    def test_unknown_interface_rejected(self):
        with pytest.raises(PcapError):
            PcapStream().capture(0.0, "X2AP", RrcSetup())

    def test_byte_size_counts_payloads(self):
        stream = PcapStream()
        stream.capture(0.0, "F1AP", RrcSetup())
        assert stream.byte_size() == len(stream.records[0].payload)

    def test_extend_appends_records(self):
        a, b = PcapStream(), PcapStream()
        a.capture(0.0, "F1AP", RrcSetup())
        b.capture(1.0, "NGAP", RrcSetup())
        a.extend(b)
        assert [r.interface for r in a] == ["F1AP", "NGAP"]

    def test_equal_timestamps_are_in_order(self):
        stream = PcapStream()
        stream.capture(1.0, "F1AP", RrcSetup())
        stream.capture(1.0, "NGAP", RrcSetup())
        other = PcapStream()
        other.capture(1.0, "F1AP", RrcSetup())
        stream.extend(other)
        assert [r.timestamp for r in PcapStream.from_bytes(stream.to_bytes())] == [1.0] * 3

    def test_capture_earlier_than_the_last_is_refused(self):
        stream = PcapStream()
        stream.capture(2.0, "F1AP", RrcSetup())
        with pytest.raises(PcapError, match=r"1\.5 at index 1 .*\(2\.0\)"):
            stream.capture(1.5, "NGAP", RrcSetup())
        assert len(stream) == 1

    def test_extend_starting_earlier_than_the_last_is_refused(self):
        a, b = PcapStream(), PcapStream()
        a.capture(2.0, "F1AP", RrcSetup())
        b.capture(1.0, "NGAP", RrcSetup())
        b.capture(3.0, "NGAP", RrcSetup())
        with pytest.raises(PcapError, match=r"1\.0 at index 1 .*\(2\.0\)"):
            a.extend(b)
        assert len(a) == 1


class TestSerialization:
    def _sample(self):
        stream = PcapStream()
        stream.capture(0.25, "F1AP", RrcSetupRequest(ue_identity=1))
        stream.capture(0.50, "NGAP", RrcSetup(rrc_transaction_id=2))
        stream.capture(0.75, "F1AP", RrcSetup(rrc_transaction_id=3))
        return stream

    def test_roundtrip(self):
        stream = self._sample()
        restored = PcapStream.from_bytes(stream.to_bytes())
        assert len(restored) == len(stream)
        for original, copy in zip(stream, restored):
            assert original == copy

    def test_roundtrip_preserves_message_content(self):
        restored = PcapStream.from_bytes(self._sample().to_bytes())
        assert restored.records[0].decode().ue_identity == 1
        assert restored.records[1].decode().rrc_transaction_id == 2

    def test_empty_stream_roundtrip(self):
        assert len(PcapStream.from_bytes(PcapStream().to_bytes())) == 0

    def test_truncated_data_rejected(self):
        data = self._sample().to_bytes()
        with pytest.raises(PcapError):
            PcapStream.from_bytes(data[: len(data) - 3])

    def test_bad_magic_rejected(self):
        data = bytearray(self._sample().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(PcapError):
            PcapStream.from_bytes(bytes(data))

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, timestamp):
        """A NaN passes every timestamp-order check downstream and an
        infinity breaks the order later; both are refused at the load,
        naming the record."""
        data = bytearray(self._sample().to_bytes())
        header = struct.calcsize(">HBdI")
        offset = header + struct.unpack_from(">I", data, header - 4)[0]
        struct.pack_into(">d", data, offset + 3, timestamp)
        with pytest.raises(PcapError, match=f"at offset {offset}$"):
            PcapStream.from_bytes(bytes(data))


class TestBackwardsCapture:
    """A benign capture (seed 3, 8 sim-s) with its last record moved to the
    front. It frames and serialises fine; before the load refused it, the
    collector emitted a record from it and then raised a bare ValueError
    out of ``TelemetrySeries.append``, its session state already moved."""

    def test_load_names_the_record_and_both_timestamps(self):
        from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset

        dataset = generate_benign_dataset(BenignDatasetConfig(seed=3, duration_s=8.0))
        records = dataset.net.pcap.records
        moved = [records[-1]] + records[:-1]
        code = {"F1AP": 1, "NGAP": 2}
        data = b"".join(
            struct.pack(">HBdI", 0x6F5C, code[r.interface], r.timestamp, len(r.payload))
            + r.payload
            for r in moved
        )
        offset = struct.calcsize(">HBdI") + len(moved[0].payload)
        expected = (
            f"capture timestamp {moved[1].timestamp!r} at offset {offset} is earlier "
            f"than the stream's last one ({moved[0].timestamp!r})"
        )
        with pytest.raises(PcapError) as refused:
            PcapStream.from_bytes(data)
        assert str(refused.value) == expected


# A well-formed framed record whose timestamp is any double, with NaN and
# the infinities drawn often.
_framed_record = st.builds(
    lambda iface, timestamp, payload: struct.pack(
        ">HBdI", 0x6F5C, iface, timestamp, len(payload)
    )
    + payload,
    st.sampled_from([1, 2]),
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.binary(max_size=24),
)


def _edited(data: bytes, edit) -> bytes:
    """``data`` as is (None), cut short (a negative int), or with one byte
    overwritten (``(position, byte)``)."""
    if edit is None:
        return data
    if isinstance(edit, int):
        return data[:edit]
    position, byte = edit
    out = bytearray(data)
    out[position % len(out)] = byte
    return bytes(out)


@given(
    st.binary()
    | st.builds(
        _edited,
        st.lists(_framed_record, min_size=1, max_size=4).map(b"".join),
        st.none() | st.integers(-8, -1) | st.tuples(st.integers(0), st.integers(0, 255)),
    )
)
def test_from_bytes_round_trips_or_raises_pcap_error(data):
    """Any input either loads into finite, non-decreasing timestamps that
    serialise back to exactly the input, or is refused with ``PcapError``."""
    try:
        stream = PcapStream.from_bytes(data)
    except PcapError:
        return
    timestamps = [record.timestamp for record in stream]
    assert all(math.isfinite(timestamp) for timestamp in timestamps)
    assert timestamps == sorted(timestamps)
    assert stream.to_bytes() == data
