"""Re-pin the wire codec's golden bytes after wire format revisions 2, 3 and 4.

Revision 2 writes a string that is an entry of ``wire.SYMBOLS`` as the tag
``0x09`` plus its index; nothing else about the format moved. Revision 3
leaves a MobiFlow record's ``protocol`` and ``direction`` off when they are
the catalogue entry of its ``msg`` (the record codec's rule; the generic
codec is unchanged). Revision 4 writes a symbol whose index is below 240 as
the one tag byte ``0x10 + index``. This script derives the new bytes of
every golden vector *from the old bytes and the pinned tables*
(``wire_symbols.json``, ``mobiflow_catalogue.json``) with a TLV walker of
its own — it never calls ``repro.wire`` — so the pins it writes are a second
opinion on the encoder, not a copy of its output:

- ``wire_decode_golden.json``: every ``hex``/``decoded`` row stays as it is
  (the old bytes must keep decoding); a row whose canonical bytes changed
  gains ``hex_v2`` (two-byte symbols) and ``hex_v4`` (one-byte symbols, what
  the generic encoder writes today). A row without a table string gets
  neither, which is the proof that only names moved. A row that is a batch
  of MobiFlow records (:data:`RECORD_BATCHES`) also gains ``hex_v3`` and
  ``hex_v4_records``: what the record codec wrote for those records at
  revision 3, and writes at revision 4.
- the inline hex literals of ``tests/test_wire.py::GOLDEN_VECTORS`` (which
  ``tests/test_wire_plans.py::TestGoldenBytes`` reads) and of
  ``tests/test_hotpath.py::_TRICKY_VALUES`` are rewritten in place from the
  same old -> new map (revision 1 or 2 bytes -> revision 4 bytes).

Idempotent: ``python tests/fixtures/repin_wire_golden.py`` from anywhere.
Run it again after appending to the table only if a golden vector holds
one of the new names.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
TESTS = FIXTURES.parent
GOLDEN = FIXTURES / "wire_decode_golden.json"
INLINE = (TESTS / "test_wire.py", TESTS / "test_hotpath.py")

TAG_FLOAT, TAG_STR, TAG_LIST, TAG_DICT, TAG_SYMBOL = 0x04, 0x05, 0x07, 0x08, 0x09
# Revision 4: tag 0x10 + index for an index below SHORT_SYMBOLS.
TAG_SHORT_SYMBOL, SHORT_SYMBOLS = 0x10, 240
SYMBOL_INDEX = {
    name.encode("utf-8"): index
    for index, name in enumerate(json.loads((FIXTURES / "wire_symbols.json").read_text()))
}
SYMBOL_TEXT = {index: name.decode("utf-8") for name, index in SYMBOL_INDEX.items()}
CATALOGUE = {
    name: (protocol, direction)
    for name, protocol, direction in json.loads(
        (FIXTURES / "mobiflow_catalogue.json").read_text()
    )
}
# Golden rows whose value is a list of MobiFlow record dicts.
RECORD_BATCHES = ("wire:mobiflow_batch",)


def _varint(length: int) -> bytes:
    out = bytearray()
    while True:
        byte, length = length & 0x7F, length >> 7
        out.append(byte | 0x80 if length else byte)
        if not length:
            return bytes(out)


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    length = shift = 0
    while True:
        byte = data[offset]
        offset += 1
        length |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return length, offset


def symbol(index: int, revision: int = 4) -> bytes:
    """The symbol TLV of table entry ``index`` as ``revision`` writes it."""
    if revision >= 4 and index < SHORT_SYMBOLS:
        return bytes((TAG_SHORT_SYMBOL + index,))
    return bytes((TAG_SYMBOL, index))


def _rewrite_at(data: bytes, offset: int, revision: int) -> tuple[bytes, int]:
    """The ``revision`` (2 or 4) bytes of the value at ``offset``, of any
    revision."""
    tag = data[offset]
    if tag >= TAG_SHORT_SYMBOL:
        return symbol(tag - TAG_SHORT_SYMBOL, revision), offset + 1
    if tag < 0x03:
        return data[offset : offset + 1], offset + 1
    if tag == TAG_FLOAT:
        return data[offset : offset + 9], offset + 9
    if tag == TAG_SYMBOL:
        return symbol(data[offset + 1], revision), offset + 2
    length, body = _read_varint(data, offset + 1)
    stop = body + length
    if tag == TAG_STR and data[body:stop] in SYMBOL_INDEX:
        return symbol(SYMBOL_INDEX[data[body:stop]], revision), stop
    if tag not in (TAG_LIST, TAG_DICT):
        return data[offset:stop], stop
    children = bytearray()
    while body < stop:
        child, body = _rewrite_at(data, body, revision)
        children += child
    assert body == stop
    return bytes((tag,)) + _varint(len(children)) + bytes(children), stop


def canonical(data: bytes, revision: int = 4) -> bytes:
    """``data`` with every table string, spelled out or a symbol of either
    width, written as ``revision`` writes it (by default what the encoder
    writes today)."""
    new, offset = _rewrite_at(data, 0, revision)
    assert offset == len(data)
    return new


def _text(tlv: bytes):
    """The string a TLV of any revision holds, or None when it holds none."""
    if tlv[0] >= TAG_SHORT_SYMBOL:
        return SYMBOL_TEXT[tlv[0] - TAG_SHORT_SYMBOL]
    if tlv[0] == TAG_SYMBOL:
        return SYMBOL_TEXT[tlv[1]]
    if tlv[0] == TAG_STR:
        _, body = _read_varint(tlv, 1)
        return tlv[body:].decode("utf-8")
    return None


def _children(data: bytes, offset: int) -> tuple[list[bytes], int]:
    """The child TLVs of the container at ``offset``, and where it ends."""
    length, body = _read_varint(data, offset + 1)
    stop = body + length
    children = []
    while body < stop:
        _, end = _rewrite_at(data, body, 4)
        children.append(data[body:end])
        body = end
    return children, stop


def revision_3_batch(data: bytes) -> bytes:
    """A revision-2 MobiFlow batch with every ``protocol`` / ``direction``
    that equals the catalogue entry of its record's ``msg`` left off."""
    assert data[0] == TAG_LIST
    records, stop = _children(data, 0)
    assert stop == len(data)
    out = b""
    for record in records:
        assert record[0] == TAG_DICT
        items, _ = _children(record, 0)
        pairs = [(_text(key), value) for key, value in zip(items[::2], items[1::2])]
        msg = next(_text(value) for key, value in pairs if key == "msg")
        derived = dict(zip(("protocol", "direction"), CATALOGUE.get(msg, ())))
        kept = b"".join(
            key_tlv + value
            for key_tlv, (key, value) in zip(items[::2], pairs)
            if key not in derived or _text(value) != derived[key]
        )
        out += bytes((TAG_DICT,)) + _varint(len(kept)) + kept
    return bytes((TAG_LIST,)) + _varint(len(out)) + out


def repin_fixture() -> dict[str, str]:
    """Refresh ``hex_v2``, ``hex_v3``, ``hex_v4`` and ``hex_v4_records``;
    returns old hex (revision 1 or 2) -> revision-4 hex of the rows whose
    canonical bytes moved."""
    rows = json.loads(GOLDEN.read_text())
    moved: dict[str, str] = {}
    out = []
    for row in rows:
        first = bytes.fromhex(row["hex"])
        pinned = {"id": row["id"], "hex": row["hex"]}
        v2, v4 = canonical(first, 2).hex(), canonical(first, 4).hex()
        if v2 != row["hex"]:
            pinned["hex_v2"] = v2
        if row["id"] in RECORD_BATCHES:
            pinned["hex_v3"] = revision_3_batch(bytes.fromhex(v2)).hex()
        if v4 != row["hex"]:
            pinned["hex_v4"] = moved[row["hex"]] = moved[v2] = v4
        if row["id"] in RECORD_BATCHES:
            pinned["hex_v4_records"] = canonical(bytes.fromhex(pinned["hex_v3"])).hex()
        pinned["decoded"] = row["decoded"]
        out.append(pinned)
    GOLDEN.write_text(json.dumps(out, indent=1))
    return moved


_HEX_LINE = re.compile(r'^([ \t]+)"([0-9a-f]+)"(,?)$')


def repin_inline(path: Path, moved: dict[str, str]) -> int:
    """Rewrite each run of hex-literal lines that spells an old vector."""
    lines = path.read_text().split("\n")
    out: list[str] = []
    run: list[re.Match] = []
    count = 0

    def flush() -> None:
        nonlocal count
        if not run:
            return
        new = moved.get("".join(match[2] for match in run))
        if new is None:
            out.extend(match[0] for match in run)
        else:
            indent, comma = run[0][1], run[-1][3]
            chunks = [new[i : i + 64] for i in range(0, len(new), 64)]
            out.extend(f'{indent}"{chunk}"' for chunk in chunks)
            out[-1] += comma
            count += 1
        run.clear()

    for line in lines:
        match = _HEX_LINE.match(line)
        if match is None:
            flush()
            out.append(line)
            continue
        run.append(match)
        if match[3]:  # a trailing comma ends the literal
            flush()
    flush()
    path.write_text("\n".join(out))
    return count


def main() -> None:
    moved = repin_fixture()
    rows = len(set(moved.values()))
    print(f"{GOLDEN.name}: {rows} rows carry hex_v2 and hex_v4, {len(RECORD_BATCHES)} hex_v3")
    for path in INLINE:
        print(f"{path.name}: {repin_inline(path, moved)} literals re-pinned")


if __name__ == "__main__":
    main()
