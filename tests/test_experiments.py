"""Tests for the experiment harness (small-scale configurations)."""

import hashlib

import numpy as np
import pytest

from repro import cli
from repro.experiments.ablations import (
    AblationConfig,
    run_feature_ablation,
    run_threshold_ablation,
    run_window_ablation,
)
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import (
    AttackDatasetConfig,
    BenignDatasetConfig,
    generate_attack_dataset,
    generate_benign_dataset,
)
from repro.experiments.figure4 import Figure4Config, run_figure4
from repro.experiments.figure5 import Figure5Config, run_figure5
from repro.experiments.reporting import render_score_series, render_table
from repro.experiments.table2 import Table2Config, run_table2
from repro.experiments.table3 import PAPER_TABLE3, Table3Config, run_table3
from repro.ran import FiveGNetwork, NetworkConfig
from repro.telemetry.features import FeatureSpec

# Small/fast configurations shared by the tests.
SMALL_BENIGN = BenignDatasetConfig(
    duration_s=180.0,
    ue_mix=(("pixel5", 1), ("galaxy_a53", 1), ("oai_ue", 2)),
)
SMALL_ATTACK = AttackDatasetConfig(
    bts_dos_instances=1,
    blind_dos_instances=1,
    uplink_id_instances=1,
    downlink_id_instances=1,
    null_cipher_instances=1,
)


class TestColosseum:
    def test_scenario_generates_many_sessions(self):
        net = FiveGNetwork(NetworkConfig(seed=5))
        stats = run_scenario(
            net,
            ColosseumScenario(duration_s=60.0, mean_think_time_s=4.0),
        )
        assert stats.sessions_started > 20
        assert stats.sessions_completed > 0.8 * stats.sessions_started
        assert len(stats.ues) == sum(count for _, count in ColosseumScenario().ue_mix)

    def test_paper_scale_benign_dataset(self):
        from tests.test_attacks import revision_2_bytes

        capture = generate_benign_dataset()
        # The paper collected "over 100 UE sessions" and ~2.5 MB of pcap.
        # Scale is what was captured — the same 16 032 envelopes and 8 742
        # telemetry records before and after wire format revisions 2 and 4
        # — not the bytes the codec spends on it: 2 446 854 B with every
        # name spelled out, 847 966 B with two-byte symbols (revisions 2
        # and 3), 681 517 B with one-byte symbols (revision 4).
        assert capture.stats.sessions_completed > 100
        assert len(capture.net.pcap) == 16_032
        assert len(capture.series) == 8_742
        assert capture.net.pcap.byte_size() == 681_517
        two_byte = sum(len(revision_2_bytes(record.decode())) for record in capture.net.pcap)
        assert two_byte == 847_966


class TestAttackDataset:
    def test_all_five_attack_types_present(self):
        capture = generate_attack_dataset(SMALL_ATTACK)
        names = {attack.name for attack in capture.attacks}
        assert names == {
            "bts_dos",
            "blind_dos",
            "uplink_id_extraction",
            "downlink_id_extraction",
            "null_cipher",
        }

    def test_every_attack_left_malicious_records(self):
        capture = generate_attack_dataset(SMALL_ATTACK)
        for attack in capture.attacks:
            hits = [r for r in capture.series if attack.is_malicious(r)]
            assert hits, f"{attack.name} produced no ground-truth records"

    def test_labeling_is_mixed(self):
        capture = generate_attack_dataset(SMALL_ATTACK)
        labeled = capture.labeled(FeatureSpec(), 6, "attack")
        assert 0 < labeled.malicious_window_count < labeled.num_windows


class TestTable2Small:
    @pytest.fixture(scope="class")
    def result(self):
        config = Table2Config(
            epochs=25, cv_folds=2, benign=SMALL_BENIGN, attack=SMALL_ATTACK
        )
        return run_table2(config)

    def test_all_four_rows_present(self, result):
        keys = {(r.dataset, r.model) for r in result.results}
        assert keys == {
            ("benign", "autoencoder"),
            ("attack", "autoencoder"),
            ("benign", "lstm"),
            ("attack", "lstm"),
        }

    def test_benign_rows_have_no_positives(self, result):
        for model in ("autoencoder", "lstm"):
            row = result.by_key("benign", model)
            assert not row.metrics.has_positives
            assert row.metrics.recall is None

    def test_benign_false_alarms_under_paper_bound(self, result):
        # Paper: "a small portion of false positives (<10%)".
        for model in ("autoencoder", "lstm"):
            row = result.by_key("benign", model)
            assert row.metrics.false_positive_rate < 0.10

    def test_attack_event_recall_is_total(self, result):
        for model in ("autoencoder", "lstm"):
            row = result.by_key("attack", model)
            assert row.event_recall == 1.0

    def test_attack_window_recall_substantial(self, result):
        # Window-level recall at this reduced scale; the full-scale bench
        # reproduces the paper-shape numbers (see EXPERIMENTS.md).
        row = result.by_key("attack", "autoencoder")
        assert row.metrics.recall > 0.5

    def test_render_includes_paper_reference(self, result):
        text = result.render()
        assert "93.23%" in text
        assert "Table 2" in text


class TestFigure4Small:
    @pytest.fixture(scope="class")
    def result(self):
        config = Figure4Config(epochs=10, benign=SMALL_BENIGN, attack=SMALL_ATTACK)
        return run_figure4(config)

    def test_scores_cover_every_window(self, result):
        assert len(result.scores) == len(result.labels)

    def test_bursts_for_every_instance(self, result):
        names = {burst.attack_name for burst in result.bursts}
        assert len(names) == 5

    def test_attack_bursts_peak_above_threshold(self, result):
        for burst in result.bursts:
            assert burst.scores.max() > result.threshold, burst.attack_name

    def test_render_contains_plot_and_legend(self, result):
        text = result.render()
        assert "threshold" in text
        assert "Per-instance burst statistics" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3(Table3Config(attack=SMALL_ATTACK))

    def test_grid_matches_paper(self, result):
        assert result.matches_paper()

    def test_seven_rows(self, result):
        assert len(result.cases) == 7
        names = [case.name for case in result.cases]
        assert names[-2:] == ["benign_1", "benign_2"]

    def test_benign_rows_all_correct(self, result):
        for trace in ("benign_1", "benign_2"):
            for model in result.config.models:
                assert result.grid[(trace, model)]

    def test_render_grid(self, result):
        text = result.render()
        assert "chatgpt-4o" in text
        assert "Paper row" in text

    def test_repeated_run_consistent(self, result):
        # §4.2: repeated experiments gave consistent results.
        again = run_table3(Table3Config(attack=SMALL_ATTACK))
        assert again.grid == result.grid


class TestFigure5:
    def test_prompt_and_response(self):
        result = run_figure5(Figure5Config(attack=SMALL_ATTACK))
        assert "AI security analyst" in result.prompt
        assert result.response.is_anomalous
        assert result.identifies_signaling_storm
        assert "Figure 5" in result.render()


class TestPaperArtifactsArePinned:
    """``python -m repro report table3|figure5|rag`` stdout, byte for byte:
    a change that moves a grade, a prompt or a response shows here."""

    @pytest.mark.parametrize(
        "artifact,digest",
        [
            ("table3", "7b7b5a224ff8244defa703b2869f64931e6a2d9a7ec899ee1e4cee09970615ad"),
            ("figure5", "f60d4172f379c4aa5e0499de30bb2c62c78df7c955174a9f82e7d0bf29d109cb"),
            ("rag", "5a76c6d7878927fd48349eb03a8c8dc15ee90c860d0e2dc69960211e2ae99ced"),
        ],
    )
    def test_report_stdout_digest(self, artifact, digest, capsys):
        assert cli.main(["report", artifact]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestAblations:
    @pytest.fixture(scope="class")
    def config(self):
        return AblationConfig(epochs=8, benign=SMALL_BENIGN, attack=SMALL_ATTACK)

    def test_window_sweep(self, config):
        result = run_window_ablation(config, windows=(4, 6))
        assert [row.label for row in result.rows] == ["N=4", "N=6"]

    def test_threshold_sweep_monotonic(self, config):
        result = run_threshold_ablation(config, percentiles=(90.0, 99.0, 99.9))
        fp_rates = [row.benign_fp_rate for row in result.rows]
        recalls = [row.attack_recall for row in result.rows]
        # Raising the threshold cannot increase false alarms or recall.
        assert fp_rates == sorted(fp_rates, reverse=True)
        assert recalls == sorted(recalls, reverse=True)

    def test_feature_ablation_rows(self, config):
        result = run_feature_ablation(config)
        labels = [row.label for row in result.rows]
        for expected in ("full", "no-identifiers", "unweighted", "global-windows"):
            assert expected in labels
        for row in result.rows:
            assert 0.0 <= row.benign_fp_rate <= 1.0
            assert 0.0 <= row.attack_recall <= 1.0
        assert "Ablation A3" in result.render()


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["A", "Bee"], [["1", "22"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")

    def test_render_score_series_empty(self):
        assert "(no data)" in render_score_series([], threshold=1.0)

    def test_render_score_series_marks_threshold(self):
        text = render_score_series([0.1, 0.9], threshold=0.5, labels=["", "bts"])
        assert "threshold = 0.5000" in text
        assert "legend" in text
