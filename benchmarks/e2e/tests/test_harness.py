"""Tests of the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/e2e/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for entry in (str(REPO / "src"), str(E2E.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e import harness, metrics, run, speed, trace, workloads  # noqa: E402
from e2e.trace import BOUNDARY, C0, C1, PARENT, Boundary, Tracer  # noqa: E402


# -- span arithmetic -----------------------------------------------------------


class _Outer:
    def call(self, inner=None, depth=0):
        if inner is not None:
            inner.call()
        if depth:
            self.call(depth=depth - 1)
        return depth


class _Inner:
    def call(self):
        return "x"


def _span(boundary, parent, c0, c1):
    span = [boundary, parent, 0, 0.0, 0.0, c0, c1, 0]
    assert span[BOUNDARY] == boundary and span[PARENT] == parent
    assert (span[C0], span[C1]) == (c0, c1)
    return span


def test_self_time_subtracts_direct_children_only():
    boundaries = [Boundary("a", _Outer, "call"), Boundary("b", _Inner, "call")]
    spans = [
        _span(0, -1, 0.0, 10.0),  # a: 10 s, children cover 6
        _span(1, 0, 1.0, 5.0),    # b: 4 s, child covers 1
        _span(0, 1, 2.0, 3.0),    # a nested inside b: 1 s
        _span(1, 0, 6.0, 8.0),    # b: 2 s
    ]
    layers = trace.summarize(spans, boundaries)
    assert layers["a"]["self_s"] == pytest.approx(4.0 + 1.0)
    assert layers["b"]["self_s"] == pytest.approx(3.0 + 2.0)
    assert layers["a"]["calls"] == 2 and layers["b"]["calls"] == 2
    # Every instant of the root span is counted exactly once.
    assert sum(layer["self_s"] for layer in layers.values()) == pytest.approx(10.0)


def test_recursive_spans_of_one_layer_sum_to_the_root():
    boundaries = [Boundary("a", _Outer, "call")]
    spans = [_span(0, -1, 0.0, 8.0), _span(0, 0, 1.0, 7.0), _span(0, 1, 2.0, 3.0)]
    layers = trace.summarize(spans, boundaries)
    assert layers["a"]["self_s"] == pytest.approx(8.0)
    assert layers["a"]["calls"] == 3


def test_tracer_records_nesting_and_recursion():
    tracer = Tracer([Boundary("a", _Outer, "call"), Boundary("b", _Inner, "call")])
    with tracer:
        _Outer().call(inner=_Inner(), depth=2)
    parents = [span[PARENT] for span in tracer.spans]
    layers = [tracer.boundaries[span[BOUNDARY]].layer for span in tracer.spans]
    assert layers == ["a", "b", "a", "a"]
    assert parents == [-1, 0, 0, 2]
    for span in tracer.spans:
        assert span[C1] >= span[C0]
    summary = tracer.summarize()
    root = tracer.spans[0][C1] - tracer.spans[0][C0]
    assert summary["a"]["self_s"] + summary["b"]["self_s"] == pytest.approx(root)


# -- patching ------------------------------------------------------------------


def _held(boundaries):
    return [vars(b.owner)[b.attr] for b in boundaries]


def test_patches_restored_after_a_traced_run():
    tracer = Tracer()
    before = _held(tracer.boundaries)
    tracer.install()
    assert all(
        now is not was for now, was in zip(_held(tracer.boundaries), before)
    )
    tracer.uninstall()
    assert all(now is was for now, was in zip(_held(tracer.boundaries), before))
    # classmethods stay classmethods (encode_indication is one).
    kinds = {b.name: type(raw) for b, raw in zip(tracer.boundaries, before)}
    assert kinds["MobiFlowKpmModel.encode_indication"] is classmethod


def test_patches_restored_after_an_exception():
    class Boom:
        def go(self):
            raise RuntimeError("boom")

    original = vars(Boom)["go"]
    tracer = Tracer([Boundary("x", Boom, "go")])
    with pytest.raises(RuntimeError):
        with tracer:
            Boom().go()
    assert vars(Boom)["go"] is original
    assert tracer.spans and tracer.spans[0][C1] >= tracer.spans[0][C0]
    assert not tracer._stack


def test_failed_install_leaves_nothing_patched():
    class Half:
        def there(self):
            return 1

    original = vars(Half)["there"]
    tracer = Tracer([Boundary("x", Half, "there"), Boundary("x", Half, "missing")])
    with pytest.raises(KeyError):
        tracer.install()
    assert vars(Half)["there"] is original


# -- statistics ----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values[:99], 90) is None  # 9.9 beyond
    assert metrics.percentile(values, 99) is None
    assert metrics.percentile(list(range(1000)), 99) == 989
    assert metrics.percentile(list(range(19)), 50) is None
    assert metrics.percentile(list(range(20)), 50) == 9
    assert metrics.percentile([], 50) is None
    # The alarm-plane rule: a median from >= 100 samples only.
    assert metrics.percentile(values[:99], 50, beyond=50) is None
    assert metrics.percentile(values, 50, beyond=50) == 50


def test_spread_is_range_over_median():
    assert metrics.spread([1.0, 1.1, 0.9]) == pytest.approx(0.2)


# -- the speed probe -----------------------------------------------------------


def test_speed_is_reference_time_over_measured_time():
    probe = speed.SpeedProbe()
    with pytest.raises(ValueError):
        probe.speed_since(probe.mark())
    mark = probe.mark()
    probe(4)
    assert probe.calls == 4 and probe.cpu_s > 0
    assert probe.speed_since(mark) == pytest.approx(
        4 * speed.REFERENCE_CALL_S / probe.cpu_s
    )
    # Only the calls since the mark count.
    later = probe.mark()
    probe()
    assert probe.speed_since(later) == pytest.approx(
        speed.REFERENCE_CALL_S / (probe.cpu_s - later[1])
    )


def test_a_pass_is_stated_in_reference_cpu_seconds():
    result = harness.PassResult(
        cpu_s=2.0, wall_s=2.1, speed=0.8, deploy_s=0.0, rss_peak_mb=0.0,
        exact={}, samples={}, problems=[],
    )  # fmt: skip
    assert result.reference_cpu_s == pytest.approx(1.6)


# -- workloads -----------------------------------------------------------------


def test_fast_profile_tolerates_missing_fields():
    @dataclass
    class Lanes:
        kept: bool = False

    @dataclass
    class Config:
        lanes: Lanes = field(default_factory=Lanes)

    config = Config()
    applied = workloads.apply_fast_lanes(
        config,
        (
            ("lanes", {"kept": True, "deleted_flag": True}),
            ("deleted_family", {"anything": True}),
        ),
    )
    assert applied == ["lanes.kept"]
    assert config.lanes.kept is True


def test_fast_profile_sets_every_current_flag():
    applied = workloads.apply_fast_lanes(workloads.default_config())
    wanted = [f"{family}.{flag}" for family, flags in workloads.FAST_LANES for flag in flags]
    assert applied == wanted


def _wire(capture):
    return [(ts, iface, message.to_wire()) for ts, iface, message in capture]


def test_capture_is_determined_by_the_seed():
    workload = workloads.WORKLOADS["replay_storm"]
    first = harness.record_capture(workload, seed=3, scale=0.25)
    again = harness.record_capture(workload, seed=3, scale=0.25)
    other = harness.record_capture(workload, seed=4, scale=0.25)
    assert first.records > 100
    assert _wire(first.messages) == _wire(again.messages)
    assert first.records == again.records
    assert _wire(first.messages) != _wire(other.messages)


# -- the catalogue and BENCHMARK.json -------------------------------------------


def test_catalogue_sizes():
    assert len(metrics.END_TO_END) == 16
    assert len(metrics.PER_LAYER) == 69
    assert len(workloads.WORKLOADS) == 4
    names = [m.name for m in metrics.END_TO_END] + [n for n, _, _ in metrics.PER_LAYER]
    assert len(set(names)) == len(names)


def test_benchmark_json_agrees_with_the_catalogue():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.driver_bound}
        for m in metrics.driver_end_to_end()
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.driver_per_layer()
    ]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]


# -- compare --------------------------------------------------------------------


def _metric(better="lower", bound=0.1, absolute=False):
    return metrics.Metric("m", "s", better, bound, absolute)


def test_compare_verdicts():
    lower, higher = _metric(), _metric("higher")
    assert run.verdict(lower, 1.0, 1.05) == "same"
    assert run.verdict(lower, 1.0, 1.2) == "worse"
    assert run.verdict(lower, 1.0, 0.8) == "better"
    assert run.verdict(higher, 100.0, 80.0) == "worse"
    assert run.verdict(higher, 100.0, 120.0) == "better"
    # Absolute bounds: +0.001 on a ratio, 0 on a loss.
    assert run.verdict(_metric(bound=0.001, absolute=True), 0.0, 0.0005) == "same"
    assert run.verdict(_metric(bound=0.0, absolute=True), 0.0, 0.0001) == "worse"
    assert run.verdict(lower, None, None) == "same"
    assert run.verdict(lower, None, 1.0) == "unresolved"


def test_compare_is_unresolved_when_wide_passes_overlap():
    metric = _metric()
    wide_a, wide_b = [0.8, 1.0, 1.3], [0.9, 1.2, 1.4]
    assert run.verdict(metric, 1.0, 1.2, wide_a, wide_b) == "unresolved"
    # Wide but disjoint: every pass of B is worse than every pass of A.
    assert run.verdict(metric, 1.0, 2.0, wide_a, [1.8, 2.0, 2.3]) == "worse"
    # Tight passes: the medians decide.
    assert run.verdict(metric, 1.0, 1.2, [0.99, 1.0, 1.01], [1.19, 1.2, 1.21]) == "worse"


# -- the command -----------------------------------------------------------------


def _run(*args, timeout=60):
    return subprocess.run(
        [sys.executable, str(E2E / "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=timeout,
    )


def test_quick_run_of_everything_finishes_within_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    done = _run("--quick", "--json", str(out))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 60
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == list(workloads.WORKLOADS)
    for record in results.values():
        assert record["problems"] == []
        assert record["scale"] == 0.25
        assert set(record["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert {n for n, _, _ in metrics.PER_LAYER} <= set(record["per_layer"])
        assert record["end_to_end"]["record_loss_ratio"]["value"] == 0
    # A result set compared with itself is all `same`.
    same = _run("--compare", str(out), str(out))
    assert same.returncode == 0
    assert " worse" not in same.stdout and " unresolved" not in same.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only the benchmark in it: non-zero exit, no result."""
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "live_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == "" and "src/repro is missing" in done.stderr


@pytest.mark.parametrize("traced", [0, 1])
def test_driver_line(traced):
    done = _run("--quick", "--workload", "replay_benign", "--seed", "5", "--trace", str(traced))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = (
        [n for n, _, _ in metrics.driver_per_layer()]
        if traced
        else [m.name for m in metrics.driver_end_to_end()]
    )
    assert list(line["metrics"]) == wanted
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and entry["unit"]
