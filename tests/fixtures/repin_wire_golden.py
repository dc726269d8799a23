"""Re-pin the wire codec's golden bytes after wire format revision 2.

Revision 2 writes a string that is an entry of ``wire.SYMBOLS`` as the tag
``0x09`` plus its index; nothing else about the format moved. This script
derives the new canonical bytes of every golden vector *from the old bytes
and the pinned table* (``wire_symbols.json``) with a TLV walker of its own —
it never calls ``repro.wire`` — so the pins it writes are a second opinion
on the encoder, not a copy of its output:

- ``wire_decode_golden.json``: every ``hex``/``decoded`` row stays as it is
  (the old bytes must keep decoding); a row whose canonical bytes changed
  gains ``hex_v2``. A row without a table string gets none, which is the
  proof that only names moved.
- the inline hex literals of ``tests/test_wire.py::GOLDEN_VECTORS`` (which
  ``tests/test_wire_plans.py::TestGoldenBytes`` reads) and of
  ``tests/test_hotpath.py::_TRICKY_VALUES`` are rewritten in place from the
  same old -> new map.

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
SYMBOL_INDEX = {
    name.encode("utf-8"): index
    for index, name in enumerate(json.loads((FIXTURES / "wire_symbols.json").read_text()))
}


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


def _rewrite_at(data: bytes, offset: int) -> tuple[bytes, int]:
    """The revision-2 bytes of the value at ``offset``, of either revision."""
    tag = data[offset]
    if tag < 0x03:
        return data[offset : offset + 1], offset + 1
    if tag == TAG_FLOAT:
        return data[offset : offset + 9], offset + 9
    if tag == TAG_SYMBOL:
        return data[offset : offset + 2], offset + 2
    length, body = _read_varint(data, offset + 1)
    stop = body + length
    if tag == TAG_STR and data[body:stop] in SYMBOL_INDEX:
        return bytes((TAG_SYMBOL, SYMBOL_INDEX[data[body:stop]])), stop
    if tag not in (TAG_LIST, TAG_DICT):
        return data[offset:stop], stop
    children = bytearray()
    while body < stop:
        child, body = _rewrite_at(data, body)
        children += child
    assert body == stop
    return bytes((tag,)) + _varint(len(children)) + bytes(children), stop


def canonical(data: bytes) -> bytes:
    """``data`` with every spelled-out table string replaced by its symbol."""
    new, offset = _rewrite_at(data, 0)
    assert offset == len(data)
    return new


def repin_fixture() -> dict[str, str]:
    """Refresh ``hex_v2``; returns old hex -> new hex of the rows that moved."""
    rows = json.loads(GOLDEN.read_text())
    moved: dict[str, str] = {}
    out = []
    for row in rows:
        new = canonical(bytes.fromhex(row["hex"])).hex()
        pinned = {"id": row["id"], "hex": row["hex"]}
        if new != row["hex"]:
            pinned["hex_v2"] = moved[row["hex"]] = new
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
    print(f"{GOLDEN.name}: {len(moved)} rows carry hex_v2")
    for path in INLINE:
        print(f"{path.name}: {repin_inline(path, moved)} literals re-pinned")


if __name__ == "__main__":
    main()
