"""Tests for model/telemetry persistence and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.ml import AutoencoderDetector, LstmDetector
from repro.ml.serialize import SerializeError, load_detector, save_detector
from repro.ran import FiveGNetwork, NetworkConfig
from repro.telemetry import MobiFlowCollector
from repro.telemetry.persist import load_pcap, load_series, save_pcap, save_series


@pytest.fixture(scope="module")
def small_capture():
    net = FiveGNetwork(NetworkConfig(seed=5))
    for i in range(2):
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.2 + i, ue.start_session)
    net.run(until=20.0)
    series = MobiFlowCollector().parse_stream(net.pcap)
    return net, series


class TestDetectorSerialization:
    def _trained(self, cls, **kwargs):
        rng = np.random.default_rng(0)
        windows = rng.random((120, 4 * 10))
        detector = cls(window=4, feature_dim=10, seed=1, **kwargs)
        detector.fit(windows, epochs=3)
        return detector, windows

    @pytest.mark.parametrize("cls", [AutoencoderDetector, LstmDetector])
    def test_roundtrip_preserves_scores(self, cls, tmp_path):
        detector, windows = self._trained(cls)
        path = tmp_path / "model.npz"
        save_detector(detector, path)
        restored = load_detector(path)
        assert restored.name == detector.name
        assert restored.threshold.threshold == detector.threshold.threshold
        assert np.allclose(restored.scores(windows), detector.scores(windows))

    def test_unfitted_detector_rejected(self, tmp_path):
        detector = AutoencoderDetector(window=4, feature_dim=10)
        with pytest.raises(SerializeError):
            save_detector(detector, tmp_path / "model.npz")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, whatever=np.zeros(3))
        with pytest.raises(SerializeError):
            load_detector(path)

    def test_training_scores_preserved(self, tmp_path):
        detector, _ = self._trained(AutoencoderDetector)
        path = tmp_path / "model.npz"
        save_detector(detector, path)
        restored = load_detector(path)
        assert np.allclose(restored.training_scores, detector.training_scores)


class TestTelemetryPersistence:
    def test_series_roundtrip(self, small_capture, tmp_path):
        _, series = small_capture
        path = tmp_path / "capture.mfl"
        written = save_series(series, path)
        assert written > 0
        restored = load_series(path)
        assert restored.records == series.records

    def test_series_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mfl"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_series(path)

    def test_pcap_roundtrip(self, small_capture, tmp_path):
        net, _ = small_capture
        path = tmp_path / "capture.pcap"
        save_pcap(net.pcap, path)
        restored = load_pcap(path)
        assert len(restored) == len(net.pcap)
        # Re-parsing the restored capture yields identical telemetry.
        series_a = MobiFlowCollector().parse_stream(net.pcap)
        series_b = MobiFlowCollector().parse_stream(restored)
        assert series_a.records == series_b.records


class TestCli:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        benign = root / "benign.mfl"
        attack = root / "attack.mfl"
        model = root / "model.npz"
        assert (
            main(
                [
                    "collect",
                    "--kind",
                    "benign",
                    "--out",
                    str(benign),
                    "--duration",
                    "120",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "collect",
                    "--kind",
                    "attack",
                    "--out",
                    str(attack),
                    "--duration",
                    "90",
                    "--seed",
                    "4",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(benign),
                    "--model",
                    str(model),
                    "--epochs",
                    "15",
                ]
            )
            == 0
        )
        return benign, attack, model

    def test_detect_benign_is_quietish(self, workspace, capsys):
        benign, attack, model = workspace
        code = main(["detect", "--data", str(benign), "--model", str(model)])
        assert code == 0
        out = capsys.readouterr().out
        assert "windows scored" in out

    def test_detect_escapes_record_text(self, workspace, tmp_path, capsys):
        """A message name is telemetry, not trusted text: its control bytes
        and line breaks reach the terminal escaped, one line per session."""
        from repro.ml.serialize import load_detector, save_detector
        from repro.telemetry.mobiflow import TelemetrySeries
        from repro.telemetry.persist import load_series, save_series

        benign, attack, model = workspace
        detector = load_detector(model)
        detector.threshold.threshold = 1e-12  # flag every session
        save_detector(detector, tmp_path / "eager.npz")
        hostile = "RRCSetup\x1b[2J\n  session 0: peak score 0.0000 [forged"
        series = load_series(attack)
        save_series(
            TelemetrySeries([r._replace(msg=hostile) for r in series]), tmp_path / "hostile.mfl"
        )
        data, eager = str(tmp_path / "hostile.mfl"), str(tmp_path / "eager.npz")
        code = main(["detect", "--data", data, "--model", eager])
        assert code == 0
        out = capsys.readouterr().out
        assert not any((ch < " " and ch != "\n") or ch == "\x7f" for ch in out)
        summary, *sessions = out.splitlines()
        assert "windows scored" in summary and sessions
        assert all(line.startswith("  session ") and line.endswith(" ...]") for line in sessions)
        assert "RRCSetup\\x1b[2J\\n  session 0" in sessions[0]

    def test_detect_attack_fail_on_alarm(self, workspace):
        benign, attack, model = workspace
        code = main(
            ["detect", "--data", str(attack), "--model", str(model), "--fail-on-alarm"]
        )
        assert code == 2

    def test_explain_session(self, workspace, capsys):
        benign, attack, model = workspace
        from repro.telemetry.persist import load_series

        series = load_series(attack)
        session = next(r.session_id for r in series if r.session_id)
        code = main(
            ["explain", "--data", str(attack), "--session", str(session)]
        )
        assert code == 0
        assert "Verdict:" in capsys.readouterr().out

    def test_explain_missing_session(self, workspace):
        benign, attack, model = workspace
        assert main(["explain", "--data", str(attack), "--session", "999999"]) == 1

    def test_pcap_export(self, tmp_path):
        out = tmp_path / "t.mfl"
        pcap = tmp_path / "t.pcap"
        assert (
            main(
                [
                    "collect",
                    "--kind",
                    "benign",
                    "--out",
                    str(out),
                    "--pcap",
                    str(pcap),
                    "--duration",
                    "60",
                ]
            )
            == 0
        )
        assert pcap.stat().st_size > 0

    def test_slo_report_counts_closed_and_pending_incidents(self, capsys):
        """An incident is closed once its verdict is in; on the default 30 s
        run 13 of the 30 alarms are still waiting for one at sim end."""
        main(["slo", "report", "--duration", "30"])
        out = capsys.readouterr().out
        assert (
            "30 provenance records minted, 30 incidents (17 closed with a verdict, 13 pending)"
            in out
        )

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
