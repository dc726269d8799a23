"""Experiment E3 — Table 3: can LLMs explain cellular anomalies?

For each of the five models and each of the five attack traces (plus two
benign sequences), render the Figure 5 zero-shot prompt, query the model,
parse the response, and score correctness exactly as the paper does: ✓ if
the model classified the trace correctly (attack traces -> anomalous,
benign traces -> benign) with a correct explanation; ✗ otherwise.
Explanation correctness for attack traces requires the named top attack to
match the ground-truth attack class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.datasets import (
    AttackDatasetConfig,
    CollectedDataset,
    generate_attack_dataset,
)
from repro.experiments.reporting import render_table
from repro.llm.analyst import ExpertAnalyst
from repro.llm.client import LlmClient, SimulatedLlmServer

# Attack display order and the paper's expected ✓/✗ grid (Table 3).
ATTACK_ROWS = (
    "bts_dos",
    "blind_dos",
    "uplink_id_extraction",
    "downlink_id_extraction",
    "null_cipher",
)
MODEL_ORDER = ("chatgpt-4o", "gemini", "copilot", "llama3", "claude-3-sonnet")

PAPER_TABLE3 = {
    "bts_dos": (True, True, True, False, False),
    "blind_dos": (True, False, False, True, False),
    "uplink_id_extraction": (False, False, False, False, True),
    "downlink_id_extraction": (True, True, False, True, True),
    "null_cipher": (True, True, False, True, True),
    "benign_1": (True, True, True, True, True),
    "benign_2": (True, True, True, True, True),
}

# Ground-truth attack class -> keyword that must appear in the model's top
# attack name for the explanation to count as correct.
_ATTACK_KEYWORDS = {
    "bts_dos": "signaling storm",
    "blind_dos": "tmsi",
    "uplink_id_extraction": "uplink identity",
    "downlink_id_extraction": "downlink identity",
    "null_cipher": "null cipher",
}


@dataclass
class Table3Config:
    attack: AttackDatasetConfig = field(default_factory=AttackDatasetConfig)
    use_rag: bool = False
    models: tuple = MODEL_ORDER


@dataclass
class TraceCase:
    """One evaluated trace: records + ground truth."""

    name: str
    records: list
    is_attack: bool


@dataclass
class Table3Result:
    cases: list
    grid: dict  # (trace name, model) -> bool correct
    config: Table3Config

    def matches_paper(self) -> bool:
        for trace, expected in PAPER_TABLE3.items():
            for model, value in zip(MODEL_ORDER, expected):
                if model not in self.config.models:
                    continue
                if self.grid.get((trace, model)) != value:
                    return False
        return True

    def render(self) -> str:
        headers = ["Attack / Trace"] + [m for m in self.config.models] + ["Paper row"]
        rows = []
        for case in self.cases:
            row = [case.name]
            for model in self.config.models:
                row.append("Y" if self.grid[(case.name, model)] else "x")
            expected = PAPER_TABLE3.get(case.name)
            row.append(
                "".join("Y" if v else "x" for v in expected) if expected else "?"
            )
            rows.append(row)
        return render_table(
            rows=rows,
            headers=headers,
            title="Table 3 — LLM classification correctness (Y=correct, x=wrong)",
        )


def build_traces(capture: CollectedDataset) -> list[TraceCase]:
    """One trace per attack type + two benign session sequences."""
    records = capture.series.records
    cases: list[TraceCase] = []
    seen_types = set()
    for attack in capture.attacks:
        if attack.name in seen_types:
            continue
        malicious_sessions = {
            record.session_id
            for record in records
            if attack.is_malicious(record)
        }
        if not malicious_sessions:
            continue
        seen_types.add(attack.name)
        trace = [r for r in records if r.session_id in malicious_sessions]
        cases.append(TraceCase(name=attack.name, records=trace, is_attack=True))
    # Two benign sequences "to avoid bias" (§4.2).
    malicious = [
        any(a.is_malicious(r) for a in capture.attacks) for r in records
    ]
    benign_sessions = sorted(
        {
            r.session_id
            for r, bad in zip(records, malicious)
            if r.session_id and not bad
        }
    )
    clean_sessions = [
        s
        for s in benign_sessions
        if not any(
            bad for r, bad in zip(records, malicious) if r.session_id == s
        )
    ]
    for i, session in enumerate(clean_sessions[:2], start=1):
        trace = [r for r in records if r.session_id == session]
        cases.append(TraceCase(name=f"benign_{i}", records=trace, is_attack=False))
    # Keep the paper's row order.
    order = {name: i for i, name in enumerate(ATTACK_ROWS)}
    cases.sort(key=lambda c: (order.get(c.name, 99), c.name))
    return cases


def _is_correct(case: TraceCase, response) -> bool:
    if not case.is_attack:
        return not response.is_anomalous
    if not response.is_anomalous:
        return False
    keyword = _ATTACK_KEYWORDS[case.name]
    top = response.top_attacks[0][0].lower() if response.top_attacks else ""
    return keyword in top


def run_table3(
    config: Optional[Table3Config] = None,
    capture: Optional[CollectedDataset] = None,
) -> Table3Result:
    config = config or Table3Config()
    capture = capture or generate_attack_dataset(config.attack)
    cases = build_traces(capture)
    server = SimulatedLlmServer()
    grid: dict = {}
    for model in config.models:
        analyst = ExpertAnalyst(
            client=LlmClient(server=server, model=model), use_rag=config.use_rag
        )
        for case in cases:
            verdict = analyst.analyze(case.records, detector_flagged=case.is_attack)
            grid[(case.name, model)] = _is_correct(case, verdict.response)
    return Table3Result(cases=cases, grid=grid, config=config)
