"""Prompt construction — the Figure 5 template.

The template is reproduced verbatim from the paper::

    You are an AI security analyst tasked with identifying potential
    attacks within a 5G network. You have access to a cellular traffic
    sequence of attributes:
    <DATA_DESCRIPTIONS>
    <DATA>
    Determine whether this sequence is anomalous or benign and explain
    why. Next, if the sequence constitutes attacks, provide the top 3 most
    possible attacks, and describe the implications.

``<DATA_DESCRIPTIONS>`` lists the MobiFlow attributes (Table 1);
``<DATA>`` is the flagged telemetry sequence rendered one entry per line.
:func:`parse_data_section` is the inverse used by the simulated backends —
they read the records back out of the prompt text, exactly as a real model
reads them.

String fields come off the air, so a value is rendered with every
character outside a conservative set percent-escaped (:func:`_escape`): no
value can end its entry's line, add a field, or forge an entry of its own.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional
from urllib.parse import quote, unquote

from repro.ran.messages import Message, MessageError
from repro.ran.security import CipherAlg, IntegrityAlg
from repro.telemetry.mobiflow import MobiFlowRecord

DATA_DESCRIPTIONS = """\
Each line is one control-plane telemetry entry with attributes:
- t: capture timestamp in seconds
- session: RRC connection (session) identifier
- msg: RRC or NAS control message name
- dir: link direction (UL = device to network, DL = network to device)
- rnti: Radio Network Temporary Identifier of the connection (hex)
- s_tmsi: 5G S-Temporary Mobile Subscriber Identity, if observed (hex)
- suci: Subscription Concealed Identifier, if carried by the message
- supi: Subscription Permanent Identifier, ONLY if exposed in plaintext
- cipher/integrity: security algorithms selected (NEA0/NIA0 = null)
- cause: RRC establishment cause, on connection requests"""

TEMPLATE = """\
You are an AI security analyst tasked with identifying potential attacks \
within a 5G network. You have access to a cellular traffic sequence of \
attributes:
{data_descriptions}

{data}

Determine whether this sequence is anomalous or benign and explain why. \
Next, if the sequence constitutes attacks, provide the top 3 most possible \
attacks, and describe the implications.{extra}"""


def _alg_name(kind: str, value: Optional[int]) -> str:
    if value is None:
        return "-"
    prefix = "NEA" if kind == "cipher" else "NIA"
    return f"{prefix}{value}"


# A string field's characters outside alphanumerics and ``-._:+/`` render
# as the %XX of their UTF-8 bytes.
_UNSAFE = re.compile(r"[^A-Za-z0-9\-._:+/]")


def _escape(value: str) -> str:
    """A string field as it appears on its line: values inside the safe
    set as they are, except ``-``, which would read back as None."""
    if value == "-":
        return "%2D"
    if _UNSAFE.search(value) is None:
        return value
    # quote() leaves "~" as it is; nothing else outside the set.
    return quote(value, safe="-._:+/", errors="surrogatepass").replace("~", "%7E")


def _unescape(value: str) -> str:
    return unquote(value, errors="surrogatepass") if "%" in value else value


def _optional(value: Optional[str]) -> str:
    return "-" if value is None else _escape(value)


def format_record(record: MobiFlowRecord) -> str:
    """Render one telemetry entry as a prompt line."""
    parts = [
        f"t={record.timestamp:.3f}",
        f"session={record.session_id}",
        f"msg={_escape(record.msg)}",
        f"dir={_escape(record.direction)}",
        f"rnti={'0x%04x' % record.rnti if record.rnti is not None else '-'}",
        f"s_tmsi={'0x%08x' % record.s_tmsi if record.s_tmsi is not None else '-'}",
        f"suci={_optional(record.suci)}",
        f"supi={_optional(record.supi)}",
        f"cipher={_alg_name('cipher', record.cipher_alg)}",
        f"integrity={_alg_name('integrity', record.integrity_alg)}",
        f"cause={_optional(record.establishment_cause)}",
    ]
    return " ".join(parts)


# String fields are \S* (an empty string renders as nothing); the rest \S+.
_LINE_RE = re.compile(
    r"t=(?P<t>[\d.]+) session=(?P<session>\d+) msg=(?P<msg>\S*) dir=(?P<dir>\S*) "
    r"rnti=(?P<rnti>\S+) s_tmsi=(?P<tmsi>\S+) suci=(?P<suci>\S*) supi=(?P<supi>\S*) "
    r"cipher=(?P<cipher>\S+) integrity=(?P<integrity>\S+) cause=(?P<cause>\S*)"
)


# Lines a simulated provider remembers before it forgets them all (the
# prompt builder's line cache on the xApp side is bounded the same way).
_PARSED_LINES_CAPACITY = 65536


def _read_optional(value: str) -> Optional[str]:
    return None if value == "-" else _unescape(value)


def _record_from_match(match: re.Match) -> MobiFlowRecord:
    msg = _unescape(match["msg"])
    try:
        protocol = Message.lookup(msg).PROTOCOL.value
    except MessageError:
        protocol = "RRC"
    cipher = match["cipher"]
    integrity = match["integrity"]
    return MobiFlowRecord(
        timestamp=float(match["t"]),
        msg=msg,
        protocol=protocol,
        direction=_unescape(match["dir"]),
        session_id=int(match["session"]),
        rnti=None if match["rnti"] == "-" else int(match["rnti"], 16),
        s_tmsi=None if match["tmsi"] == "-" else int(match["tmsi"], 16),
        suci=_read_optional(match["suci"]),
        supi=_read_optional(match["supi"]),
        cipher_alg=None if cipher == "-" else int(CipherAlg[cipher]),
        integrity_alg=None if integrity == "-" else int(IntegrityAlg[integrity]),
        establishment_cause=_read_optional(match["cause"]),
    )


def parse_data_section(
    text: str, parsed_lines: Optional[dict[str, MobiFlowRecord]] = None
) -> list[MobiFlowRecord]:
    """Read telemetry entries back out of prompt text (backend side).

    An alarm's context overlaps the last one's, so a provider reads most
    entries many times over. ``parsed_lines`` (line text -> record, the
    caller's to keep between prompts; records are frozen) turns a line seen
    before into a dict hit. Only a line that is exactly one entry is
    remembered — no entry spans a newline, so reading line by line finds
    what reading the whole text would.
    """
    if parsed_lines is None:
        parsed_lines = {}
    records: list[MobiFlowRecord] = []
    for line in text.split("\n"):
        record = parsed_lines.get(line)
        if record is not None:
            records.append(record)
            continue
        matches = list(_LINE_RE.finditer(line))
        if len(matches) == 1 and matches[0].span() == (0, len(line)):
            if len(parsed_lines) >= _PARSED_LINES_CAPACITY:
                parsed_lines.clear()
            record = parsed_lines[line] = _record_from_match(matches[0])
            records.append(record)
        else:
            records.extend(_record_from_match(match) for match in matches)
    return records


_RAG_HEADER = "\n\nRelevant 3GPP protocol knowledge for reference:\n"


class CompiledPromptBuilder:
    """The Figure 5 prompt, assembled from interned segments (what
    ``ExpertAnalyst.build_prompt`` runs).

    A plain ``TEMPLATE.format`` re-pays three costs on every query: the
    pass over the full template (re-copying the static Figure 5 preamble
    and data descriptions), per-record line formatting (eleven field
    formats and a join per telemetry entry), and the RAG bullet-list
    rendering.  In the live analyzer the same records appear in many
    consecutive prompts — ``context_for`` returns sliding windows over the
    shared history — so most of that work is recomputation.

    This builder splits the template once at construction into static
    segments (so assembly is a single ``str.join``), interns rendered
    record lines keyed on the (frozen, hashable) record itself, and
    memoizes the rendered RAG block per snippet tuple.  The contract —
    enforced in ``tests/test_llm_analyzer.py`` against the plain template in
    ``tests/reference_llm.py`` — is byte-identical output for every input.
    """

    def __init__(
        self,
        data_descriptions: str = DATA_DESCRIPTIONS,
        line_cache_capacity: int = 65536,
    ) -> None:
        # Split the formatted template around sentinel characters that
        # cannot appear in the template text: whatever str.format would
        # have produced, the joined segments reproduce byte-for-byte.
        probe = TEMPLATE.format(
            data_descriptions=data_descriptions, data="\x00", extra="\x01"
        )
        prefix, rest = probe.split("\x00")
        middle, suffix = rest.split("\x01")
        self._prefix = prefix
        self._middle = middle
        self._suffix = suffix
        # Interned record lines kept before the cache resets.
        self._line_cache: dict[MobiFlowRecord, str] = {}
        self._line_cache_capacity = line_cache_capacity
        self._extra_cache: dict[tuple, str] = {}
        self.renders = 0
        self.line_cache_hits = 0

    def _line(self, record: MobiFlowRecord) -> str:
        line = self._line_cache.get(record)
        if line is None:
            if len(self._line_cache) >= self._line_cache_capacity:
                self._line_cache.clear()
            line = self._line_cache[record] = format_record(record)
        else:
            self.line_cache_hits += 1
        return line

    def _extra(self, snippets: tuple) -> str:
        extra = self._extra_cache.get(snippets)
        if extra is None:
            if len(self._extra_cache) >= 1024:
                self._extra_cache.clear()
            extra = self._extra_cache[snippets] = _RAG_HEADER + "\n".join(
                f"- {snippet}" for snippet in snippets
            )
        return extra

    def render(
        self,
        records: Iterable[MobiFlowRecord],
        retrieved_snippets: Optional[list] = None,
    ) -> str:
        self.renders += 1
        line = self._line
        data = "\n".join([line(record) for record in records])
        parts = [self._prefix, data, self._middle]
        if retrieved_snippets:
            parts.append(self._extra(tuple(retrieved_snippets)))
        if self._suffix:
            parts.append(self._suffix)
        return "".join(parts)
