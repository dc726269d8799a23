"""The configuration surface: every knob is read by the program, and the
flags whose lanes became the only path — or lost their measurement and
were deleted with their lane — stay deleted.

A settings field nothing reads is a configuration the tests must cover
for no behaviour at all (``genfast.sim_fastlane`` was read by nothing;
``genfast.vectorized_features`` only by an external benchmark;
``XsecConfig.history_cap`` by nothing, for as long as only the
``*Settings`` families were held to this).
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.core.config import XsecConfig
from repro.core.pipeline import ClosedLoopPipeline
from repro.hotpath.settings import HotpathSettings
from repro.llmfast.settings import LlmfastSettings
from repro.megabatch.settings import MegabatchSettings
from repro.scale.settings import ScaleSettings
from repro.trainfast.settings import TrainfastSettings

SRC = Path(repro.__file__).parent

# family name on XsecConfig -> its *Settings dataclass
FAMILIES = {
    f.name: type(getattr(XsecConfig(), f.name))
    for f in dataclasses.fields(XsecConfig)
    if type(getattr(XsecConfig(), f.name)).__name__.endswith("Settings")
}

DELETED = [
    (HotpathSettings, "compiled"),
    (HotpathSettings, "arena"),
    (TrainfastSettings, "compiled_trainer"),
    (TrainfastSettings, "compiled_scoring"),
    (LlmfastSettings, "vectorized_rag"),
    (LlmfastSettings, "compiled_prompts"),
    (LlmfastSettings, "prompt_cache_capacity"),
    (MegabatchSettings, "enabled"),
    # The columnar E2 lane and its whole family (docs/PERFORMANCE.md,
    # "Flag verdicts").
    (XsecConfig, "genfast"),
    # The storm dispatcher.
    (LlmfastSettings, "dispatch"),
    (LlmfastSettings, "max_inflight"),
    (LlmfastSettings, "queue_capacity"),
    # Verification modes: the replay is the tests' oracle, the tolerances
    # their constants.
    (HotpathSettings, "incremental_mode"),
    (HotpathSettings, "self_check"),
    (HotpathSettings, "float32_rtol"),
    (HotpathSettings, "float32_atol"),
    # One value ever in use: constants of repro.megabatch.quantized.
    (MegabatchSettings, "state_dtype"),
    (MegabatchSettings, "calibration"),
    (MegabatchSettings, "calibration_percentile"),
    (MegabatchSettings, "quantized_metric_tol"),
    # Declared with the first MobiWatch, read by nothing since.
    (XsecConfig, "history_cap"),
    # The in-process inference pool and the two typed-in service times.
    (ScaleSettings, "pool_batch_windows"),
    (ScaleSettings, "pool_workers"),
    (ScaleSettings, "pool_service_time_s"),
    (ScaleSettings, "sdl_service_time_s"),
]


def _program_sources(declared_in: Path) -> str:
    """Everything under src/repro that can *use* a knob declared in
    ``declared_in``: not that module, not the benches, not scale_report()'s
    echo."""
    echo = inspect.getsource(ClosedLoopPipeline.scale_report)
    chunks = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "bench.py" or path == declared_in:
            continue
        chunks.append(path.read_text(encoding="utf-8").replace(echo, ""))
    return "\n".join(chunks)


def test_settings_families():
    assert sorted(FAMILIES) == [
        "hotpath", "llmfast", "megabatch", "runtime", "scale", "slo", "trainfast",
    ]  # fmt: skip


def test_frozen_benchmark_flag_names():
    """benchmarks/e2e/workloads.py::FAST_LANES sets these *by name* and skips
    what it does not find: a rename would silently turn ``replay_storm_fast``
    into ``replay_storm``. They move only in a benchmark-only PR."""
    config = XsecConfig()
    assert {"verdict_cache", "coalesce"} <= {
        f.name for f in dataclasses.fields(config.llmfast)
    }
    assert "dtype" in {f.name for f in dataclasses.fields(config.hotpath)}


def _names_carrying(cls, field: str) -> list:
    """The field itself plus the derived members of its settings class that
    read it (``resolved_start_method()`` for ``start_method``).  Validation
    and ``any_enabled`` are no readers: they name every flag of a family."""
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


@pytest.mark.parametrize(
    "settings,name", DELETED, ids=[f"{cls.__name__}.{name}" for cls, name in DELETED]
)
def test_promoted_flags_stay_deleted(settings, name):
    with pytest.raises(TypeError):
        settings(**{name: True})


def test_settings_field_total():
    """79 before the eleven promoted flags were deleted, 68 before the
    columnar lane, the storm dispatcher and the verification-only knobs, 56
    before the inference pool and the service-time models."""
    total = sum(len(dataclasses.fields(cls)) for cls in FAMILIES.values())
    assert total <= 52
