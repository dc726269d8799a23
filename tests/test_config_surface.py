"""The configuration surface: every knob is read by the program, and the
flags whose lanes became the only path — or lost their measurement and
were deleted with their lane — stay deleted.

A settings field nothing reads is a configuration the tests must cover
for no behaviour at all (``genfast.sim_fastlane`` was read by nothing;
``genfast.vectorized_features`` only by an external benchmark;
``XsecConfig.history_cap`` by nothing, for as long as only the
``*Settings`` families were held to this).

The surface is held whole: every field is a top-level ``XsecConfig``
field (the last ``*Settings`` family, ``llmfast``, went with the verdict
cache), and each must be read by the program.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import XsecConfig

SRC = Path(repro.__file__).parent

# The families dissolved into XsecConfig.scoring (itself deleted since) /
# evict_on_release / evict_idle_s, ``scale``, folded into ``runtime``,
# ``slo``, become ``slo_enabled`` / ``slo_export_path``, ``runtime``,
# deleted with the one SDL and the one ingest path, and ``llmfast``,
# deleted with the verdict cache and in-flight coalescing: their flags stay
# deleted because the family does. A deleted family is named by its class
# name, a string derived from its XsecConfig field (``scale`` -> "Scale"
# + "Settings").
DISSOLVED = {
    f"{family.capitalize()}Settings": family
    for family in ("hotpath", "megabatch", "trainfast", "scale", "slo", "runtime", "llmfast")
}
HOTPATH, MEGABATCH, TRAINFAST, SCALE, SLO, RUNTIME, LLMFAST = DISSOLVED

DELETED = [
    (HOTPATH, "compiled"),
    (HOTPATH, "arena"),
    (TRAINFAST, "compiled_trainer"),
    (TRAINFAST, "compiled_scoring"),
    (LLMFAST, "vectorized_rag"),
    (LLMFAST, "compiled_prompts"),
    (LLMFAST, "prompt_cache_capacity"),
    (MEGABATCH, "enabled"),
    # The columnar E2 lane and its whole family (docs/PERFORMANCE.md,
    # "Flag verdicts").
    (XsecConfig, "genfast"),
    # The storm dispatcher.
    (LLMFAST, "dispatch"),
    (LLMFAST, "max_inflight"),
    (LLMFAST, "queue_capacity"),
    # Verification modes: the replay is the tests' oracle, the tolerances
    # their constants.
    (HOTPATH, "incremental_mode"),
    (HOTPATH, "self_check"),
    (HOTPATH, "float32_rtol"),
    (HOTPATH, "float32_atol"),
    # One value ever in use: constants of the int8 tier (deleted since).
    (MEGABATCH, "state_dtype"),
    (MEGABATCH, "calibration"),
    (MEGABATCH, "calibration_percentile"),
    (MEGABATCH, "quantized_metric_tol"),
    # Declared with the first MobiWatch, read by nothing since.
    (XsecConfig, "history_cap"),
    # The in-process inference pool and the two typed-in service times.
    (SCALE, "pool_batch_windows"),
    (SCALE, "pool_workers"),
    (SCALE, "pool_service_time_s"),
    (SCALE, "sdl_service_time_s"),
    # Shell families: one scoring choice, the eviction and training knobs
    # top level, the sweep period evict_idle_s / 2. The sweep knobs became
    # keyword arguments of run_table2 and the ablations, and were later
    # deleted there too, with the fork pool and the dataset cache they
    # selected (test_experiments_have_one_serial_uncached_path).
    (XsecConfig, "hotpath"),
    (XsecConfig, "megabatch"),
    (XsecConfig, "trainfast"),
    (XsecConfig, "evict_sweep_s"),
    (XsecConfig, "sweep_workers"),
    (XsecConfig, "cache"),
    (XsecConfig, "cache_dir"),
    # One precision ever trained in: the one training loop is float64.
    (XsecConfig, "trainer_dtype"),
    # One topology family: ``scale`` folded into ``runtime``. Knobs that
    # only ever took one value are module constants (ShardedSdl's vnodes,
    # oran.e2term's INGEST_*, runtime.supervisor's DRAIN_TIMEOUT_S, the
    # start method picked by default_start_method()); the soak's queue
    # knobs are SoakConfig's; the analyzer and SDL-shard processes are
    # gone with the second process client that spoke to them.
    (XsecConfig, "scale"),
    (SCALE, "sdl_vnodes"),
    (SCALE, "ingest_flush_interval_s"),
    (SCALE, "ingest_capacity"),
    (SCALE, "ingest_drop_policy"),
    (RUNTIME, "analyzer"),
    (RUNTIME, "queue_capacity"),
    (RUNTIME, "dispatch_records"),
    (RUNTIME, "dispatch_interval_s"),
    (RUNTIME, "drop_policy"),
    (RUNTIME, "drain_timeout_s"),
    (RUNTIME, "start_method"),
    # One scoring tier: float64 "exact" is the only way a window is scored.
    (XsecConfig, "scoring"),
    # One process: MobiWatch scores in its own process, so the worker pool's
    # switch, size, restart policy and heartbeats are gone, and so is the
    # backlog threshold only the pool's supervisor ever reported against.
    (RUNTIME, "score_in_processes"),
    (RUNTIME, "workers"),
    (RUNTIME, "max_restarts"),
    (RUNTIME, "backoff_base_s"),
    (RUNTIME, "backoff_max_s"),
    (RUNTIME, "crash_loop_window_s"),
    (RUNTIME, "heartbeat_interval_s"),
    (RUNTIME, "heartbeat_timeout_s"),
    (SLO, "backlog_degraded"),
    # The background stack sampler: off by default, turned on by no preset
    # and no caller but its own tests; the profile_block() hooks remain.
    (SLO, "sampling_profiler"),
    (SLO, "sampling_interval_s"),
    # One observability package: the plane is all on or all off
    # (slo_enabled), the export file a top-level deployment setting
    # (slo_export_path), and the cadence, windows, thresholds and dwells
    # constants of repro.obs.objectives / repro.obs.exporter.
    (SLO, "enabled"),
    (SLO, "eval_interval_s"),
    (SLO, "fast_window_s"),
    (SLO, "slow_window_s"),
    (SLO, "fast_burn_threshold"),
    (SLO, "slow_burn_threshold"),
    (SLO, "pending_for_s"),
    (SLO, "resolve_after_s"),
    (SLO, "heartbeat_stale_s"),
    (SLO, "profiler"),
    (SLO, "export_interval_s"),
    (SLO, "export_path"),
    # One SDL and one ingest path: the RIC always runs the plain
    # SharedDataLayer and fans each indication out inline, so the topology
    # family that could pick a sharded SDL or an ingest batcher is gone.
    (XsecConfig, "runtime"),
    (RUNTIME, "sdl_shards"),
    (RUNTIME, "sdl_replication"),
    (RUNTIME, "ingest_flush_records"),
    # One verdict path: every query is one provider round trip over its own
    # records. The cache and the coalescing handed one UE's prompt and
    # verdict to another UE's anomaly.
    (LLMFAST, "verdict_cache"),
    (LLMFAST, "coalesce"),
    (LLMFAST, "cache_capacity"),
    # One value ever in use: a confirmed signaling storm caps setup requests
    # at AccessRatePolicy's default rate.
    (XsecConfig, "rate_limit_max_setups"),
    (XsecConfig, "rate_limit_window_s"),
]


def _program_sources(declared_in: Path) -> str:
    """Everything under src/repro that can *use* a knob declared in
    ``declared_in``: every module but that one."""
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
        if path != declared_in
    )


def test_settings_families():
    """No field of the surface is a ``*Settings`` family any more."""
    assert [
        f.name
        for f in dataclasses.fields(XsecConfig)
        if type(getattr(XsecConfig(), f.name)).__name__.endswith("Settings")
    ] == []


def test_field_names_are_unique_across_the_surface():
    """A name on two settings (a family and the top level, or two families)
    is one knob described twice, and it blinds the read test below: a field
    counts as read when ``.name`` appears anywhere in the program, so one
    copy's reader vouches for the other. No family is left, so this holds
    the top level against any family that comes back."""
    defaults = XsecConfig()
    families = {
        f.name: type(getattr(defaults, f.name))
        for f in dataclasses.fields(XsecConfig)
        if dataclasses.is_dataclass(getattr(defaults, f.name))
    }
    names = [
        field.name
        for cls in (*families.values(), XsecConfig)
        for field in dataclasses.fields(cls)
        if cls is not XsecConfig or field.name not in families
    ]
    assert names and sorted({name for name in names if names.count(name) > 1}) == []


def test_nothing_outside_the_scale_package_imports_it():
    """The RIC has one SDL: ``repro.scale`` survives only for the composed
    benchmark's tracer, which still wraps ``ShardedSdl`` by name, and no
    module of the program may start deploying it again."""
    importers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if SRC / "scale" not in path.parents
        and re.search(
            r"^\s*(from\s+repro\.scale\b|import\s+repro\.scale\b)",
            path.read_text(encoding="utf-8"),
            re.MULTILINE,
        )
    ]
    assert importers == []


def test_every_top_level_field_is_read_by_the_program():
    sources = _program_sources(SRC / "core" / "config.py")
    unread = [
        field.name
        for field in dataclasses.fields(XsecConfig)
        if not re.search(rf"\.{field.name}\b", sources)
    ]
    assert unread == []


def _owner_name(owner) -> str:
    return owner if isinstance(owner, str) else owner.__name__


@pytest.mark.parametrize(
    "settings,name", DELETED, ids=[f"{_owner_name(cls)}.{name}" for cls, name in DELETED]
)
def test_promoted_flags_stay_deleted(settings, name):
    if isinstance(settings, str):
        # A dissolved family: neither it nor its flag is an XsecConfig field.
        fields = {f.name for f in dataclasses.fields(XsecConfig)}
        assert DISSOLVED[settings] not in fields and name not in fields
        return
    with pytest.raises(TypeError):
        settings(**{name: True})


def test_scoring_tier_cannot_be_selected():
    """Not even the tier that survived: there is nothing to choose."""
    with pytest.raises(TypeError):
        XsecConfig(scoring="exact")


# A deleted command, as argv, and the word argparse refuses in it. The
# whole ``bench`` subcommand is gone: the observability gate is the pytest
# module benchmarks/bench_obs_overhead.py. The ``*-bench`` spellings were
# the aliases of its benches before they moved under ``bench``.
DELETED_COMMANDS = {
    "bench-megabatch": (("bench", "megabatch"), "bench"),
    "bench-obs": (("bench", "obs"), "bench"),
    "bench-runtime": (("bench", "runtime"), "bench"),
    "runtime-run": (("runtime", "run"), "runtime"),
    "runtime-bench": (("runtime", "bench"), "runtime"),
    **{
        f"{name}-bench": ((f"{name}-bench",), f"{name}-bench")
        for name in ("hotpath", "llmfast", "megabatch", "trainfast", "obs")
    },
}


@pytest.mark.parametrize(
    "argv,refused", DELETED_COMMANDS.values(), ids=list(DELETED_COMMANDS)
)
def test_deleted_command_is_a_usage_error(argv, refused):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert f"invalid choice: '{refused}'" in run.stderr


def test_no_module_starts_processes():
    """One process: the scoring worker pool went first, then the experiment
    sweep's fork pool. No module of the program may start a process or a
    pool again."""
    pattern = re.compile(
        r"^\s*(import|from)\s+(multiprocessing|concurrent\.futures|subprocess)\b"
        r"|^\s*from\s+concurrent\s+import\s+futures\b"
        r"|\bos\.fork\b",
        re.MULTILINE,
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never uses. A use is a ``Name`` node, a
    name inside a string that parses as an expression (a quoted forward
    annotation such as ``"NearRtRic"``), or an entry of ``__all__``."""
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(entry.value for entry in node.value.elts)
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    """No linter runs in CI, so an import a change leaves behind stays
    unless this finds it."""
    offenders = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def _experiment_builders():
    from repro.experiments.ablations import (
        run_feature_ablation,
        run_threshold_ablation,
        run_window_ablation,
    )
    from repro.experiments.datasets import CollectedDataset
    from repro.experiments.table2 import run_table2
    from repro.telemetry.dataset import LabeledDataset
    from repro.telemetry.features import WindowedDataset

    return [
        run_table2,
        run_window_ablation,
        run_threshold_ablation,
        run_feature_ablation,
        WindowedDataset.from_series,
        LabeledDataset.build,
        CollectedDataset.labeled,
    ]


@pytest.mark.parametrize(
    "builder", _experiment_builders(), ids=lambda builder: builder.__qualname__
)
def test_experiments_have_one_serial_uncached_path(builder):
    """The sweep pool and the dataset cache are deleted with the keywords
    that selected them: every experiment runs serially and encodes its
    captures afresh."""
    parameters = inspect.signature(builder).parameters
    assert {"sweep_workers", "cache", "cache_dir"} & set(parameters) == set()


def test_settings_field_total():
    """The whole surface, families and top level: 79 family fields before
    the eleven promoted flags were deleted, 68 before the columnar lane, the
    storm dispatcher and the verification-only knobs, 56 before the
    inference pool and the service-time models; 52 + 20 = 72 before the
    shell families dissolved into one scoring choice; 66 before the
    compiled trainer and its ``trainer_dtype`` were deleted; 65 before
    ``scale`` (7) folded into ``runtime`` (17 -> 11 fields) and the family
    went from the top level; 52 before ``scoring`` and its four non-exact
    tiers were deleted; 51 before the scoring worker pool's eight
    ``runtime`` fields (11 -> 3) and ``slo.backlog_degraded`` went with
    it; 42 before the sampling profiler's two ``slo`` fields were deleted;
    40 before the twelve-field ``slo`` family became the top-level
    ``slo_enabled`` and ``slo_export_path``; 30 before the ``runtime``
    family (``sdl_shards``, ``sdl_replication``, ``ingest_flush_records``)
    was deleted with the sharded SDL and the ingest batcher it selected;
    27 = 3 family + 24 top-level before ``llmfast`` (``verdict_cache``,
    ``coalesce``, ``cache_capacity``) was deleted with the verdict cache and
    the in-flight coalescing: 24, all top-level; 24 before the two
    one-value rate-limit knobs became ``AccessRatePolicy``'s defaults: 22."""
    assert len(dataclasses.fields(XsecConfig)) <= 22
