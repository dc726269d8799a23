"""The closed loop's operator outputs, pinned on the default testbed.

One 30 s run of the live testbed with the SLO plane on (the run behind
``python -m repro slo explain --duration 30``) must reproduce, from the one
incident record per alarm, exactly what the loop printed and persisted
before its stage arithmetic and evidence chain were kept in one place:

- ``render_stage_breakdown()`` and ``stage_breakdown()``;
- ``latency_report()``;
- the default ``slo explain`` render;
- the final ``xsec.provenance`` SDL dicts.

tests/fixtures/loop_outputs.json was recorded at the commit before that
change (with its always-zero ``sdl_write`` stage row taken out). A capture
digest hashes the window's records as the E2SM encodes them, so wire format
revision 4 re-pinned the 31 digests (30 SDL dicts, one ``slo explain``
line) and nothing else.
Regenerate it only from a commit whose outputs you trust:
``PYTHONPATH=<that checkout>/src python -c "import sys, json;
sys.path.insert(0, 'tests'); import test_loop_outputs as t;
print(json.dumps(t.loop_outputs_run(), indent=1, sort_keys=True))"``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import XsecConfig
from repro.experiments.testbed import LiveTestbedConfig, run_live_testbed
from repro.obs.provenance import SDL_PROVENANCE_NS

FIXTURE = Path(__file__).parent / "fixtures" / "loop_outputs.json"


def loop_outputs_run() -> dict:
    """The default ``slo`` testbed, 30 sim-s; its outputs as JSON values."""
    config = XsecConfig(auto_release=True, auto_blocklist=True, slo_enabled=True)
    run = run_live_testbed(LiveTestbedConfig(xsec=config, live_duration_s=30.0))
    xsec = run.xsec
    try:
        pipeline = xsec.pipeline
        sdl = xsec.ric.sdl
        outputs = {
            "stage_breakdown_render": pipeline.render_stage_breakdown(),
            "stage_breakdown": pipeline.stage_breakdown(),
            "latency_report": pipeline.latency_report(),
            "slo_explain": pipeline.explain(),
            "provenance": {
                key: sdl.get(SDL_PROVENANCE_NS, key) for key in sdl.keys(SDL_PROVENANCE_NS)
            },
        }
    finally:
        xsec.close()
    return json.loads(json.dumps(outputs))


@pytest.fixture(scope="module")
def outputs():
    return loop_outputs_run()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


class TestLoopOutputsArePinned:
    def test_stage_breakdown_render(self, outputs, recorded):
        assert outputs["stage_breakdown_render"] == recorded["stage_breakdown_render"]

    def test_stage_breakdown(self, outputs, recorded):
        assert outputs["stage_breakdown"] == recorded["stage_breakdown"]
        assert list(outputs["stage_breakdown"]) == [
            "capture", "indication", "detection", "verdict", "action"
        ]

    def test_latency_report(self, outputs, recorded):
        assert outputs["latency_report"] == recorded["latency_report"]

    def test_slo_explain_render(self, outputs, recorded):
        assert outputs["slo_explain"] == recorded["slo_explain"]

    def test_provenance_sdl_dicts(self, outputs, recorded):
        assert len(outputs["provenance"]) == 30
        assert outputs["provenance"] == recorded["provenance"]
