"""Property-based tests (hypothesis) over the core data paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.prompt import parse_data_section
from repro.oran.zerotrust import E2Authenticator
from repro.telemetry.encoder import decode_batch, decode_record, encode_batch, encode_record
from repro.telemetry.features import FeatureSpec, WindowedDataset
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries
from tests.reference_llm import format_records

MESSAGE_NAMES = st.sampled_from(
    [
        "RRCSetupRequest",
        "RRCSetup",
        "RegistrationRequest",
        "AuthenticationRequest",
        "AuthenticationResponse",
        "NASSecurityModeCommand",
        "RegistrationAccept",
        "MeasurementReport",
        "RRCRelease",
        "SomethingUnknown",
    ]
)

records_strategy = st.builds(
    MobiFlowRecord,
    timestamp=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    msg=MESSAGE_NAMES,
    protocol=st.sampled_from(["RRC", "NAS"]),
    direction=st.sampled_from(["UL", "DL"]),
    session_id=st.integers(min_value=0, max_value=50),
    rnti=st.one_of(st.none(), st.integers(min_value=1, max_value=0xFFEF)),
    s_tmsi=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    suci=st.one_of(st.none(), st.from_regex(r"suci-[0-9a-f]{1,12}", fullmatch=True)),
    supi=st.one_of(st.none(), st.from_regex(r"imsi-[0-9]{14}", fullmatch=True)),
    cipher_alg=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    integrity_alg=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    establishment_cause=st.one_of(st.none(), st.sampled_from(["mo-Data", "mt-Access"])),
)


def sorted_series(records):
    ordered = sorted(records, key=lambda r: r.timestamp)
    return TelemetrySeries(ordered)


class TestEncoderProperties:
    @settings(max_examples=200)
    @given(records_strategy)
    def test_record_roundtrip(self, record):
        assert decode_record(encode_record(record)) == record

    @settings(max_examples=50)
    @given(st.lists(records_strategy, max_size=20))
    def test_batch_roundtrip(self, records):
        assert decode_batch(encode_batch(records)) == records


class TestFeaturizerProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(records_strategy, min_size=1, max_size=30))
    def test_dimensions_and_bounds(self, records):
        spec = FeatureSpec()
        series = sorted_series(records)
        matrix = spec.encode_series(series)
        assert matrix.shape == (len(series), spec.dim)
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= max(spec.identifier_weight, spec.state_weight, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(records_strategy, min_size=1, max_size=30))
    def test_message_onehot_always_sums_to_one(self, records):
        spec = FeatureSpec()
        matrix = spec.encode_series(sorted_series(records))
        block = matrix[:, : len(spec.message_vocab) + 1]
        assert np.allclose(block.sum(axis=1), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(records_strategy, min_size=2, max_size=20))
    def test_causality(self, records):
        """Dropping a suffix never changes the prefix encoding."""
        spec = FeatureSpec()
        series = sorted_series(records)
        full = spec.encode_series(series)
        cut = len(series) // 2
        prefix = spec.encode_series(series[:cut])
        assert np.array_equal(full[:cut], prefix)


class TestWindowingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(records_strategy, min_size=1, max_size=40),
        st.integers(min_value=2, max_value=8),
    )
    def test_session_windows_cover_all_tracked_records(self, records, window):
        spec = FeatureSpec()
        series = sorted_series(records)
        dataset = WindowedDataset.from_series(series, spec, window, mode="session")
        covered = {i for idxs in dataset.window_records for i in idxs}
        tracked = {i for i, r in enumerate(series) if r.session_id != 0}
        assert covered == tracked

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(records_strategy, min_size=1, max_size=40),
        st.integers(min_value=2, max_value=8),
    )
    def test_windows_stay_within_one_session(self, records, window):
        spec = FeatureSpec()
        series = sorted_series(records)
        dataset = WindowedDataset.from_series(series, spec, window, mode="session")
        for indices in dataset.window_records:
            sessions = {series[i].session_id for i in indices}
            assert len(sessions) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(records_strategy, min_size=1, max_size=40),
        st.integers(min_value=2, max_value=8),
    )
    def test_window_vector_width(self, records, window):
        spec = FeatureSpec()
        dataset = WindowedDataset.from_series(
            sorted_series(records), spec, window, mode="session"
        )
        assert dataset.windows.shape[1] == window * spec.dim


class TestPromptProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(records_strategy, min_size=1, max_size=15))
    def test_prompt_line_count(self, records):
        text = format_records(records)
        assert len(text.splitlines()) == len(records)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(records_strategy, min_size=1, max_size=15))
    def test_identity_fields_survive_prompt_roundtrip(self, records):
        parsed = parse_data_section(format_records(records))
        assert len(parsed) == len(records)
        for original, roundtripped in zip(records, parsed):
            assert roundtripped.msg == original.msg
            assert roundtripped.rnti == original.rnti
            assert roundtripped.s_tmsi == original.s_tmsi
            assert roundtripped.supi == original.supi
            assert roundtripped.cipher_alg == original.cipher_alg


class TestZeroTrustProperties:
    @settings(max_examples=100)
    @given(st.binary(max_size=200))
    def test_seal_verify_roundtrip_any_payload(self, payload):
        sender = E2Authenticator(node_id="n", key=b"k" * 16)
        receiver = E2Authenticator(node_id="r", key=b"r" * 16)
        assert receiver.verify(sender.seal(payload), {"n": b"k" * 16}) == payload

    @settings(max_examples=100)
    @given(st.binary(max_size=200))
    def test_garbage_never_verifies_or_crashes(self, data):
        receiver = E2Authenticator(node_id="r", key=b"r" * 16)
        assert receiver.verify(data, {"n": b"k" * 16}) is None
