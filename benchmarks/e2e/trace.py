"""Outside-in span tracing for the composed benchmark.

The program is measured from outside: :class:`Tracer` wraps the *class
attributes* of each layer's public boundary before a deployment is
built (several are bound at construction, e.g.
``net.f1.add_tap(self.collector.on_capture)``, so patching instances is
not enough) and restores them afterwards.  One thread, so the span that
"caused" another is simply the one below it on the stack.

A span is a list ``[boundary, parent, trace_id, t0, t1, c0, c1, work]``:
``t*`` are ``perf_counter`` (wall) and ``c*`` ``thread_time`` (CPU)
seconds, ``parent`` the index of the enclosing span in the same pass
(-1 for a root) and ``work`` a boundary-specific count (bytes encoded,
keys written, windows scored...).  ``trace_id`` is ``pass.sequence``
where ``sequence`` numbers the agent's indications: a collector span
carries the sequence of the indication that will ship its record, every
other root span the newest indication shipped, and a nested span its
parent's.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from time import perf_counter, thread_time
from typing import Callable, Optional

# Span list slots.
BOUNDARY, PARENT, TRACE, T0, T1, C0, C1, WORK = range(8)


@dataclass(frozen=True)
class Boundary:
    """One wrapped attribute: ``owner.attr`` accounted to ``layer``."""

    layer: str
    owner: type
    attr: str
    # (args, kwargs, result) -> count of work done by the call.
    work: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.owner.__name__}.{self.attr}"


def default_boundaries() -> list[Boundary]:
    """The layer table of the README (imports the program lazily)."""
    from repro.core.llm_analyzer import LlmAnalyzerXApp
    from repro.core.mobiwatch import MobiWatchXApp
    from repro.llm.analyst import ExpertAnalyst
    from repro.llm.client import LlmClient
    from repro.ml.detector import AnomalyDetector
    from repro.oran.e2sm_kpm import MobiFlowKpmModel
    from repro.oran.e2term import E2Termination
    from repro.oran.rmr import RmrRouter
    from repro.oran.sdl import SharedDataLayer
    from repro.scale.sharded_sdl import ShardedSdl
    from repro.sim.engine import Simulator
    from repro.telemetry.collector import MobiFlowCollector
    from repro.telemetry.features import StreamingEncoder

    def result_bytes(args, kwargs, result):
        return sum(len(part) for part in result)

    def one(args, kwargs, result):
        return 1

    def pairs(args, kwargs, result):
        return len(kwargs["pairs"] if "pairs" in kwargs else args[2])

    def rows(args, kwargs, result):
        windows = kwargs["windows"] if "windows" in kwargs else args[1]
        return len(windows)

    def result_len(args, kwargs, result):
        return len(result)

    out = [
        Boundary("ran", Simulator, "run"),
        Boundary("collector", MobiFlowCollector, "on_capture"),
        Boundary("e2_encode", MobiFlowKpmModel, "encode_indication", result_bytes),
        Boundary("e2term", E2Termination, "on_e2"),
        Boundary("e2term", RmrRouter, "send", one),
        Boundary("e2_decode", MobiFlowKpmModel, "decode_indication"),
        Boundary("featurize", StreamingEncoder, "push"),
        Boundary("score", AnomalyDetector, "scores", rows),
        Boundary("mobiwatch", MobiWatchXApp, "on_indication"),
        Boundary("analyzer", LlmAnalyzerXApp, "on_message"),
        Boundary("analyzer", ExpertAnalyst, "analyze"),
        Boundary("context", MobiWatchXApp, "context_for", result_len),
        Boundary("retrieve", ExpertAnalyst, "retrieve_snippets"),
        Boundary("prompt", ExpertAnalyst, "build_prompt", result_len),
        Boundary("dispatch", LlmClient, "complete"),
        Boundary("action", MobiWatchXApp, "release_ue"),
        Boundary("action", MobiWatchXApp, "blocklist_tmsi"),
        Boundary("action", MobiWatchXApp, "rate_limit_access"),
    ]
    for sdl in (SharedDataLayer, ShardedSdl):
        out += [
            Boundary("sdl_write", sdl, "set", one),
            Boundary("sdl_write", sdl, "set_many", pairs),
            Boundary("sdl_read", sdl, "get"),
            Boundary("sdl_read", sdl, "items"),
            Boundary("sdl_read", sdl, "keys"),
        ]
    return out


class Tracer:
    """Records spans at the wrapped boundaries while installed."""

    def __init__(self, boundaries: Optional[list[Boundary]] = None) -> None:
        self.boundaries = (
            default_boundaries() if boundaries is None else list(boundaries)
        )
        self.spans: list[list] = []
        self.pass_index = 0
        # Indications shipped so far in this pass (see module docstring).
        self.sequence = 0
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        try:
            for index, boundary in enumerate(self.boundaries):
                # vars(): the attribute as the class itself holds it, so a
                # classmethod/staticmethod is restored as what it was.
                raw = vars(boundary.owner)[boundary.attr]
                self._originals.append((boundary.owner, boundary.attr, raw))
                setattr(boundary.owner, boundary.attr, self._wrap(index, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def _wrap(self, index: int, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_function(index, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_function(index, raw.__func__))
        return self._wrap_function(index, raw)

    def _wrap_function(self, index: int, fn):
        boundary = self.boundaries[index]
        work = boundary.work
        stack = self._stack
        collector = boundary.layer == "collector"
        ships = boundary.layer == "e2_encode"
        # Simulator.run (one per slice of a pass) encloses everything; the
        # spans directly under it are the roots of the per-indication traces.
        outermost = {
            i for i, b in enumerate(self.boundaries) if b.layer == "ran"
        }
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][BOUNDARY] not in outermost:
                trace = spans[parent][TRACE]
            else:
                trace = tracer.sequence + 1 if collector else tracer.sequence
            span = [index, parent, trace, 0.0, 0.0, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[T0] = perf_counter()
            span[C0] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[C1] = thread_time()
                span[T1] = perf_counter()
                stack.pop()
                if ships:
                    tracer.sequence += 1
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return traced

    # -- per-pass bookkeeping ------------------------------------------------

    def begin_pass(self, pass_index: int) -> None:
        self.spans = []
        self.pass_index = pass_index
        self.sequence = 0
        self._stack.clear()

    def summarize(self) -> dict:
        return summarize(self.spans, self.boundaries)

    def dump(self, handle) -> None:
        """Write this pass's spans as JSON lines."""
        names = [b.name for b in self.boundaries]
        layers = [b.layer for b in self.boundaries]
        for index, span in enumerate(self.spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "parent": span[PARENT],
                        "trace": f"{self.pass_index}.{span[TRACE]}",
                        "layer": layers[span[BOUNDARY]],
                        "name": names[span[BOUNDARY]],
                        "t0": span[T0],
                        "t1": span[T1],
                        "cpu0": span[C0],
                        "cpu1": span[C1],
                        "work": span[WORK],
                    }
                )
            )
            handle.write("\n")


def summarize(spans: list[list], boundaries: list[Boundary]) -> dict:
    """Per-layer calls / work / self CPU-seconds for one pass's spans.

    A span's self time is its duration minus the time its *direct* child
    spans cover (children are strictly nested in a single thread, so they
    never overlap each other); summing self time by layer therefore counts
    every instant of a root span exactly once, whatever the nesting —
    including a layer nested inside itself.
    """
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[C1] - span[C0]
    layers: dict[str, dict] = {}
    for boundary in boundaries:
        layers.setdefault(
            boundary.layer,
            {"calls": 0, "work": 0, "self_s": 0.0, "by_boundary": {}},
        )["by_boundary"].setdefault(boundary.name, {"calls": 0, "work": 0})
    for index, span in enumerate(spans):
        boundary = boundaries[span[BOUNDARY]]
        duration = span[C1] - span[C0]
        layer = layers[boundary.layer]
        layer["calls"] += 1
        layer["work"] += span[WORK]
        layer["self_s"] += duration - child[index]
        entry = layer["by_boundary"][boundary.name]
        entry["calls"] += 1
        entry["work"] += span[WORK]
    return layers


def inclusive_cpu_s(spans: list[list], boundaries: list[Boundary], name: str) -> list:
    """CPU-seconds of every whole call (children included) of one boundary."""
    wanted = {i for i, b in enumerate(boundaries) if b.name == name}
    return [s[C1] - s[C0] for s in spans if s[BOUNDARY] in wanted]
