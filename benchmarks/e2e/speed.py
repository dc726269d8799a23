"""How fast is the box right now?

``process_time`` does not survive this kind of box: on a shared 2-vCPU VM
the same deterministic pass reads 0.93 CPU-s one moment and 1.30 the
next, and whole minutes run 15-25% slow.  The spread of raw
records/CPU-s over ten runs was 10-25%, wider than any bound worth
setting.

:class:`SpeedProbe` is a fixed piece of interpreter and numpy work, none
of it the program's own code, timed in CPU-seconds.  The harness calls it
at every slice boundary *inside* a pass (1.3 ms per half sim-second), so
the probe samples exactly the stretch of time the pass ran in.  A pass's
CPU time is then stated in *reference* CPU-seconds::

    reference CPU-s = measured CPU-s * speed
    speed           = calls * REFERENCE_CALL_S / CPU-s the calls took

A box (or a moment) that runs the probe 20% slower is credited 20% fewer
CPU-seconds.  ``speed`` is 1.0 on the box the first baseline was taken on
when nothing else ran, so reference CPU-seconds read like that box's.
With it the ten-run spread of records/CPU-s is 2-3% (README, "Noise").
What it cannot cancel is interference that hits the program and the
probe differently; the mix below (attribute access, dict and bytes work
over a few MB of objects, small matmuls) is chosen to resemble the
program's.
"""

from __future__ import annotations

import struct
from time import process_time

import numpy as np

# CPU-seconds one probe call takes on the reference box (quiet).
REFERENCE_CALL_S = 0.0013

_OBJECTS = 40_000
_STEPS = 900
_MATMULS = 36


class _Item:
    __slots__ = ("number", "blob", "fields")

    def __init__(self, number: int) -> None:
        self.number = number
        self.blob = b"x" * (number % 17)
        self.fields = {"k": number}

    def size(self) -> int:
        return len(self.blob) + self.number


class SpeedProbe:
    """Accumulates ``calls`` and the ``cpu_s`` they took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((1, 70))
        self._w1 = rng.standard_normal((70, 32))
        self._w2 = rng.standard_normal((32, 70))
        self._items = [_Item(i) for i in range(_OBJECTS)]
        self._cursor = 0
        self.calls = 0
        self.cpu_s = 0.0

    def __call__(self, times: int = 1) -> None:
        start = process_time()
        for _ in range(times):
            self._work()
        self.cpu_s += process_time() - start
        self.calls += times

    def _work(self) -> None:
        items, cursor = self._items, self._cursor
        counts: dict = {}
        total = 0
        out = bytearray()
        for step in range(cursor, cursor + _STEPS):
            index = (step * 7919) % _OBJECTS
            item = items[index]
            total += item.size()
            counts[index & 1023] = counts.get(index & 1023, 0) + item.fields["k"]
            if index & 7 == 0:
                out += struct.pack(">IH", index, total & 0xFFFF)
        self._cursor = (cursor + _STEPS) % _OBJECTS
        x, w1, w2 = self._x, self._w1, self._w2
        for _ in range(_MATMULS):
            y = np.tanh(x @ w1) @ w2
            float(((y - x) ** 2).mean())

    def mark(self) -> tuple:
        return self.calls, self.cpu_s

    def speed_since(self, mark: tuple) -> float:
        """Box speed over the calls made since ``mark`` (1.0 = reference)."""
        calls, cpu_s = self.calls - mark[0], self.cpu_s - mark[1]
        if calls == 0:
            raise ValueError("no probe call since the mark")
        return calls * REFERENCE_CALL_S / cpu_s
