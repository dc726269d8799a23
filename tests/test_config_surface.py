"""The configuration surface: every knob is read by the program, and the
flags whose lanes became the only path — or lost their measurement and
were deleted with their lane — stay deleted.

A settings field nothing reads is a configuration the tests must cover
for no behaviour at all (``genfast.sim_fastlane`` was read by nothing;
``genfast.vectorized_features`` only by an external benchmark;
``XsecConfig.history_cap`` by nothing, for as long as only the
``*Settings`` families were held to this).

The surface is held whole: settings families and top-level fields count
alike, and both must be read by the program.
"""

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
from repro.core.pipeline import ClosedLoopPipeline
from repro.llm.cache import LlmfastSettings
from repro.runtime.settings import RuntimeSettings
from repro.slo.settings import SloSettings

SRC = Path(repro.__file__).parent

# family name on XsecConfig -> its *Settings dataclass
FAMILIES = {
    f.name: type(getattr(XsecConfig(), f.name))
    for f in dataclasses.fields(XsecConfig)
    if type(getattr(XsecConfig(), f.name)).__name__.endswith("Settings")
}

# The families dissolved into XsecConfig.scoring (itself deleted since) /
# evict_on_release / evict_idle_s, and ``scale``, folded into ``runtime``: their flags stay
# deleted because the family does. A deleted family is named by its class
# name, a string derived from its XsecConfig field (``scale`` -> "Scale"
# + "Settings").
DISSOLVED = {
    f"{family.capitalize()}Settings": family
    for family in ("hotpath", "megabatch", "trainfast", "scale")
}
HOTPATH, MEGABATCH, TRAINFAST, SCALE = DISSOLVED

DELETED = [
    (HOTPATH, "compiled"),
    (HOTPATH, "arena"),
    (TRAINFAST, "compiled_trainer"),
    (TRAINFAST, "compiled_scoring"),
    (LlmfastSettings, "vectorized_rag"),
    (LlmfastSettings, "compiled_prompts"),
    (LlmfastSettings, "prompt_cache_capacity"),
    (MEGABATCH, "enabled"),
    # The columnar E2 lane and its whole family (docs/PERFORMANCE.md,
    # "Flag verdicts").
    (XsecConfig, "genfast"),
    # The storm dispatcher.
    (LlmfastSettings, "dispatch"),
    (LlmfastSettings, "max_inflight"),
    (LlmfastSettings, "queue_capacity"),
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
    # top level, the sweep knobs keyword arguments of the sweep entry
    # points (run_table2, the ablations), the sweep period evict_idle_s / 2.
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
    (RuntimeSettings, "analyzer"),
    (RuntimeSettings, "queue_capacity"),
    (RuntimeSettings, "dispatch_records"),
    (RuntimeSettings, "dispatch_interval_s"),
    (RuntimeSettings, "drop_policy"),
    (RuntimeSettings, "drain_timeout_s"),
    (RuntimeSettings, "start_method"),
    # One scoring tier: float64 "exact" is the only way a window is scored.
    (XsecConfig, "scoring"),
    # One process: MobiWatch scores in its own process, so the worker pool's
    # switch, size, restart policy and heartbeats are gone, and so is the
    # backlog threshold only the pool's supervisor ever reported against.
    (RuntimeSettings, "score_in_processes"),
    (RuntimeSettings, "workers"),
    (RuntimeSettings, "max_restarts"),
    (RuntimeSettings, "backoff_base_s"),
    (RuntimeSettings, "backoff_max_s"),
    (RuntimeSettings, "crash_loop_window_s"),
    (RuntimeSettings, "heartbeat_interval_s"),
    (RuntimeSettings, "heartbeat_timeout_s"),
    (SloSettings, "backlog_degraded"),
    # The background stack sampler: off by default, turned on by no preset
    # and no caller but its own tests; the profile_block() hooks remain.
    (SloSettings, "sampling_profiler"),
    (SloSettings, "sampling_interval_s"),
]


def _program_sources(declared_in: Path) -> str:
    """Everything under src/repro that can *use* a knob declared in
    ``declared_in``: not that module, not the benches (repro/bench/), not
    scale_report()'s echo."""
    echo = inspect.getsource(ClosedLoopPipeline.scale_report)
    chunks = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "bench" in path.parents or path == declared_in:
            continue
        chunks.append(path.read_text(encoding="utf-8").replace(echo, ""))
    return "\n".join(chunks)


def test_settings_families():
    assert sorted(FAMILIES) == ["llmfast", "runtime", "slo"]


def test_frozen_benchmark_flag_names():
    """benchmarks/e2e/workloads.py::FAST_LANES sets these *by name* and skips
    what it does not find: a rename would silently turn ``replay_storm_fast``
    into ``replay_storm``. They move only in a benchmark-only PR.

    FAST_LANES also names ``hotpath.dtype``, set to ``"float64"``: with the
    family gone it is skipped, which changes nothing (float64 is the one
    precision MobiWatch scores in)."""
    config = XsecConfig()
    assert {"verdict_cache", "coalesce"} <= {
        f.name for f in dataclasses.fields(config.llmfast)
    }


def _names_carrying(cls, field: str) -> list:
    """The field itself plus the derived members of its settings class that
    read it (``fast_submit_enabled`` for ``verdict_cache``).
    Validation and ``any_enabled`` are no readers: they name every flag of
    a family."""
    names = [field]
    for name, member in vars(cls).items():
        function = member.fget if isinstance(member, property) else member
        if name.startswith("__") or name == "any_enabled" or not inspect.isfunction(function):
            continue
        if re.search(rf"self\.{field}\b", inspect.getsource(function)):
            names.append(name)
    return names


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_field_is_read_by_the_program(family):
    sources = _program_sources(SRC / family / "settings.py")
    cls = FAMILIES[family]
    unread = [
        field.name
        for field in dataclasses.fields(cls)
        if not any(
            re.search(rf"\.{name}\b", sources)
            for name in _names_carrying(cls, field.name)
        )
    ]
    assert unread == []


def test_every_top_level_field_is_read_by_the_program():
    sources = _program_sources(SRC / "core" / "config.py")
    unread = [
        field.name
        for field in dataclasses.fields(XsecConfig)
        if field.name not in FAMILIES and not re.search(rf"\.{field.name}\b", sources)
    ]
    assert unread == []


def test_field_names_are_unique_across_the_surface():
    """A name on two settings (a family and the top level, or two families)
    is one knob described twice, and it blinds the test above: a field
    counts as read when ``.name`` appears anywhere in the program, so one
    copy's reader vouches for the other."""
    names = [
        field.name
        for cls in (*FAMILIES.values(), XsecConfig)
        for field in dataclasses.fields(cls)
        if cls is not XsecConfig or field.name not in FAMILIES
    ]
    assert sorted({name for name in names if names.count(name) > 1}) == []


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


@pytest.mark.parametrize(
    "argv,refused",
    [(("bench", "megabatch"), "megabatch"), (("runtime", "run"), "runtime")],
    ids=["bench-megabatch", "runtime-run"],
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
    it; 42 before the sampling profiler's two ``slo`` fields were deleted:
    40 = 18 family + 22 top-level."""
    family_fields = sum(len(dataclasses.fields(cls)) for cls in FAMILIES.values())
    top_level = len(dataclasses.fields(XsecConfig)) - len(FAMILIES)
    assert family_fields + top_level <= 40
