"""Structured analysis responses and the text parser (xApp side).

The LLM xApp receives free text from the model API and parses it back into
the four outputs the paper asks for (§3.3): classification, explanation,
attribution, remediation. The simulated backends *generate* text in the
same sectioned style real models produce when given the Figure 5 prompt,
so the parser is exercised on every query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class AnalysisResponse:
    """Parsed LLM analysis of one flagged sequence."""

    verdict: str  # "anomalous" | "benign"
    explanation: str
    top_attacks: list = field(default_factory=list)  # (attack name, implications)
    attribution: str = ""
    remediations: list = field(default_factory=list)
    raw_text: str = ""

    @property
    def is_anomalous(self) -> bool:
        return self.verdict == "anomalous"


class ResponseParseError(ValueError):
    """Raised when the model output cannot be parsed."""


_SECTION_RE = re.compile(
    r"^(Verdict|Explanation|Top attacks|Attribution|Remediation)\s*:\s*",
    re.IGNORECASE | re.MULTILINE,
)


def _split_sections(text: str) -> dict[str, str]:
    sections: dict[str, str] = {}
    matches = list(_SECTION_RE.finditer(text))
    for i, match in enumerate(matches):
        name = match.group(1).lower()
        start = match.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[name] = text[start:end].strip()
    return sections


def parse_response(text: str) -> AnalysisResponse:
    """Parse sectioned analyst output into an :class:`AnalysisResponse`."""
    sections = _split_sections(text)
    if "verdict" not in sections:
        raise ResponseParseError("no Verdict section in model output")
    verdict_raw = sections["verdict"].lower()
    if "anomal" in verdict_raw:
        verdict = "anomalous"
    elif "benign" in verdict_raw or "normal" in verdict_raw:
        verdict = "benign"
    else:
        raise ResponseParseError(f"unparseable verdict {sections['verdict']!r}")

    top_attacks: list[tuple[str, str]] = []
    attacks_text = sections.get("top attacks", "")
    for line in attacks_text.splitlines():
        line = line.strip()
        match = re.match(r"^\d+\.\s*(?P<name>[^—]+?)\s*(?:—\s*(?P<impl>.*))?$", line)
        if match:
            top_attacks.append(
                (match["name"].strip(), (match["impl"] or "").strip())
            )

    remediations = [
        line.strip().lstrip("-• ").strip()
        for line in sections.get("remediation", "").splitlines()
        if line.strip()
    ]

    return AnalysisResponse(
        verdict=verdict,
        explanation=sections.get("explanation", ""),
        top_attacks=top_attacks,
        attribution=sections.get("attribution", ""),
        remediations=remediations,
        raw_text=text,
    )
