"""The one bench driver behind ``python -m repro bench <name>``.

The bench bodies are stubbed: what is under test is the driver's contract
— which runs may write a baseline, what an unreadable baseline does, and
the exit code — not the timings.
"""

import json
import re

import pytest

from repro.bench import driver
from repro.bench import obs as obs_bench
from repro.bench.obs import OVERHEAD_MAX_PCT, ObsBenchResult
from repro.cli import main


def _passing_result():
    result = ObsBenchResult(
        per_tick={"overhead_pct": OVERHEAD_MAX_PCT / 3},
        equality={"observed_scores_exact": True},
        meta={},
    )
    result.report = lambda: "obs bench (stub)"
    return result


@pytest.fixture
def stubbed(monkeypatch):
    """``repro.bench.obs`` with its body replaced by a passing result;
    returns the list of ``quick`` flags it was run with."""
    runs = []

    def run_bench(quick=False):
        runs.append(quick)
        result = _passing_result()
        result.meta["quick"] = quick
        return result

    monkeypatch.setattr(obs_bench, "run_bench", run_bench)
    return runs


def _baseline(tmp_path, text=None):
    path = tmp_path / "BENCH_obs.json"
    path.write_text(text if text is not None else json.dumps(_passing_result().to_dict()))
    return path


def test_quick_run_never_overwrites_the_baseline(stubbed, tmp_path, capsys):
    path = _baseline(tmp_path)
    before = path.read_bytes()
    code = main(["bench", "obs", "--quick", "--update", "--baseline", str(path)])
    assert code == 1
    assert path.read_bytes() == before
    assert stubbed == []  # refused before the bench ran
    assert "--quick" in capsys.readouterr().err


def test_full_run_updates_the_baseline(stubbed, tmp_path):
    path = _baseline(tmp_path, "{}")
    assert main(["bench", "obs", "--update", "--baseline", str(path)]) == 0
    assert stubbed == [False]
    written = json.loads(path.read_text())
    assert written["per_tick"] == _passing_result().per_tick
    assert written["meta"]["quick"] is False


# Truncated JSON, a non-object, bytes that are not UTF-8.
@pytest.mark.parametrize("text", ['{"tiers": {"lstm": {"megabatch_sp', "[1, 2]", "\xff"])
def test_corrupt_baseline_fails_naming_the_file(stubbed, tmp_path, capsys, text):
    path = _baseline(tmp_path, text)
    assert main(["bench", "obs", "--quick", "--baseline", str(path)]) == 1
    assert str(path) in capsys.readouterr().err
    with pytest.raises(ValueError, match=re.escape(str(path))):
        driver.load_baseline(path)


def test_missing_baseline_gates_on_floors(stubbed, tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["bench", "obs", "--quick", "--baseline", str(path)]) == 0
    assert "gating on floors only" in capsys.readouterr().out
    assert driver.load_baseline(path) is None


def test_red_gate_exits_one_and_json_snapshot_written(monkeypatch, tmp_path, capsys):
    result = _passing_result()
    result.per_tick["overhead_pct"] = OVERHEAD_MAX_PCT + 0.5
    monkeypatch.setattr(obs_bench, "run_bench", lambda quick=False: result)
    snapshot = tmp_path / "smoke.json"
    code = main(
        ["bench", "obs", "--quick", "--json", str(snapshot), "--baseline", str(_baseline(tmp_path))]
    )
    assert code == 1
    assert "ceiling" in capsys.readouterr().err
    assert json.loads(snapshot.read_text()) == result.to_dict()


def test_regression_against_the_baseline_exits_one(monkeypatch, tmp_path, capsys):
    """Under the ceiling but crept above the committed figure: still red."""
    committed = _passing_result()
    committed.per_tick["overhead_pct"] = 0.1
    path = _baseline(tmp_path, json.dumps(committed.to_dict()))
    result = _passing_result()
    result.per_tick["overhead_pct"] = 0.1 + obs_bench.BASELINE_CREEP + 0.5
    assert result.per_tick["overhead_pct"] < OVERHEAD_MAX_PCT
    monkeypatch.setattr(obs_bench, "run_bench", lambda quick=False: result)
    assert main(["bench", "obs", "--quick", "--baseline", str(path)]) == 1
    assert "crept" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["hotpath-bench"], ["llmfast-bench"], ["megabatch-bench"], ["trainfast-bench"],
     ["obs-bench"], ["runtime", "bench"], ["bench", "runtime"]],
)  # fmt: skip
def test_no_aliases(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # an argparse usage error
