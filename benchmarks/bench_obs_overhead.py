"""Observability-overhead gate: the price of watching the hot path.

The whole point of the SLO plane is that you can leave it on: the
counters, the profiler hooks, the SLO engine and the export plane must
cost the hot path almost nothing. This module measures the fully-observed
cost of the one scoring call MobiWatch makes per tick and asserts it stays
at or below :data:`OVERHEAD_MAX_PCT`. The cost has two very different
components:

- **per-tick hook overhead** — what observing adds to
  ``detector.scores(gather, per_row=True)`` on a gather of tick height
  (1-7 rows, as on ``replay_benign``): the
  :class:`~repro.ml.compiled.CompiledModel` counters (kernel calls and
  windows, score-memo hits / misses / size) and its sampled
  ``ml.compiled.scores`` profiler branch. A ~1us delta on a ~200us call is
  below shared-runner wall-clock noise, so it is measured over thousands
  of **adjacent call pairs** on **one detector object** — two gathers of
  one height, order alternating — with the instrumentation toggled between
  the two calls (the toggled-off state *is* the unobserved code path, an
  ``is None`` branch). A pair shares one machine state, and a trimmed mean
  of the pair differences drops the pairs a burst of neighbouring load
  split. Every gather holds rows the score memo has not seen, so every
  call reaches the kernels and pays every hook. The plain calls' trimmed
  mean is the denominator.
- **amortised plane overhead** — the per-cadence work (latency histogram
  observe, :class:`~repro.obs.objectives.SloEngine` tick,
  :func:`~repro.obs.exporter.render_openmetrics`): micro-benchmarked
  per-call costs divided across the ticks of one cadence interval.

Two contracts ride along: observed scores are bit-identical to plain ones,
and the OpenMetrics exposition ends in ``# EOF``.

Run it with one BLAS thread (two OpenBLAS threads on two shared vCPUs give
intermittent 5-30x-slow readings); ``-s`` shows the figures::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_obs_overhead.py -q
"""

from __future__ import annotations

import copy
import itertools
import statistics
import time

import numpy as np

from repro.ml.compiled import SCORE_MEMO_CAPACITY
from repro.ml.detector import LstmDetector
from repro.obs import profiler as _profiler
from repro.obs.exporter import render_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.objectives import EVAL_INTERVAL_S, SloEngine, SloObjective
from repro.obs.profiler import Profiler

# Ceiling on the fully-observed slowdown of the tick's scoring call.
OVERHEAD_MAX_PCT = 3.0

WINDOW, FEATURE_DIM, HIDDEN_DIM, SEED = 6, 71, 64, 7
# Gather heights, cycled tick after tick: replay_benign's ticks score 1-7
# sessions.
MAX_TICK_HEIGHT = 7
# Plain/observed call pairs, and the share of pair differences cut from
# each tail before averaging.
PAIRS = 2000
TRIM = 0.1
# Best-of repeats and repetitions of every micro-timing loop.
REPEATS = 3
MICRO_REPS = 400
# Plane cadences, in ticks: one histogram observe + one engine tick per
# TICK_EVERY, one OpenMetrics render per EXPORT_EVERY (about 500 and 2,000
# records at replay_benign's ~12.6 records per indication).
TICK_EVERY = 40
EXPORT_EVERY = 160

_LATENCY_BUCKETS = (1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0)
# The CompiledModel instruments the hooks toggle (None = unobserved).
_HOOKS = ("_calls_counter", "_windows_counter", "_memo_hits", "_memo_misses", "_memo_size")


def _detector() -> LstmDetector:
    return LstmDetector(
        window=WINDOW, feature_dim=FEATURE_DIM, hidden_dim=HIDDEN_DIM, seed=SEED
    )


def _gathers() -> list:
    """Pairs of tick gathers of one height, heights cycling, over a pool of
    distinct rows larger than the score memo: no row repeats before the
    memo, full, has cleared it, so every call reaches the kernels."""
    heights = itertools.cycle(range(1, MAX_TICK_HEIGHT + 1))
    sizes = []
    while 2 * sum(sizes) <= SCORE_MEMO_CAPACITY or len(sizes) % MAX_TICK_HEIGHT:
        sizes.append(next(heights))
    rng = np.random.default_rng(SEED)
    # Sparse one-hots in float32, like MobiWatch's arena rows.
    rows = iter((rng.random((2 * sum(sizes), WINDOW * FEATURE_DIM)) < 0.08).astype(np.float32))
    return [
        tuple(np.stack([next(rows) for _ in range(height)]) for _ in range(2))
        for height in sizes
    ]


def _trimmed_mean(values: list) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut : len(values) - cut])


def _per_call_s(run_once) -> float:
    """Best-of-REPEATS mean seconds per call of ``run_once``."""

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(MICRO_REPS):
            run_once()
        return (time.perf_counter() - t0) / MICRO_REPS

    run()  # warm-up
    return min(run() for _ in range(REPEATS))


def _observed_registry() -> tuple:
    """A registry holding the scoring-latency histogram, and an engine over
    objectives on that family."""
    metrics = MetricsRegistry()
    hist = metrics.histogram("mobiwatch.inference_wall_s", buckets=_LATENCY_BUCKETS)
    objectives = [
        SloObjective(
            name="score-latency", target=0.99, metric="mobiwatch.inference_wall_s", threshold=0.01
        ),
        SloObjective(
            name="score-tail", target=0.999, metric="mobiwatch.inference_wall_s", threshold=0.05
        ),
    ]
    # The engine as deployed: its clock steps by the engine's own cadence.
    wall = [0.0]
    engine = SloEngine(metrics, objectives=objectives, clock=lambda: wall[0])

    def tick() -> None:
        wall[0] += EVAL_INTERVAL_S
        engine.tick()

    return metrics, hist, tick


def _plane_per_tick_s() -> float:
    """The per-cadence plane work, amortised over one tick."""
    metrics, hist, tick = _observed_registry()
    observe_s = _per_call_s(lambda: hist.observe(0.002))
    tick_s = _per_call_s(tick)
    render_s = _per_call_s(lambda: render_openmetrics(metrics))
    return (observe_s + tick_s) / TICK_EVERY + render_s / EXPORT_EVERY


def _hook_per_tick_s(detector, pairs: list) -> tuple:
    """(plain seconds, observed-minus-plain seconds) per tick's scoring
    call, each the trimmed mean over PAIRS adjacent call pairs."""
    detector.attach_metrics(MetricsRegistry())
    compiled = detector.compiled
    wired = [getattr(compiled, name) for name in _HOOKS]
    prof = Profiler()

    def timed(observed: bool, gather: np.ndarray) -> float:
        """One tick's scoring call, hooks toggled: unwiring the instruments
        is the unobserved code path bit for bit (``is not None`` is their
        permanent guard), on the very same object."""
        for name, instrument in zip(_HOOKS, wired):
            setattr(compiled, name, instrument if observed else None)
        if observed:
            _profiler.activate(prof)
        try:
            t0 = time.perf_counter()
            detector.scores(gather, per_row=True)
            return time.perf_counter() - t0
        finally:
            _profiler.deactivate()

    stream = itertools.cycle(pairs)
    for _ in range(len(pairs)):  # warm-up (allocator, row-view caches)
        timed(False, next(stream)[0])
    plain, deltas = [], []
    for pair in range(PAIRS):
        first = bool(pair % 2)
        one, other = next(stream)
        a = timed(first, one)
        b = timed(not first, other)
        plain_s, observed_s = (b, a) if first else (a, b)
        plain.append(plain_s)
        deltas.append(observed_s - plain_s)
    return _trimmed_mean(plain), max(0.0, _trimmed_mean(deltas))


def test_full_observability_stays_under_the_ceiling(capsys):
    plane_s = _plane_per_tick_s()
    plain_s, hook_s = _hook_per_tick_s(_detector(), _gathers())
    hook_pct = hook_s / plain_s * 100.0
    plane_pct = plane_s / plain_s * 100.0
    overhead_pct = hook_pct + plane_pct
    with capsys.disabled():
        print(
            f"\nobs overhead: plain call {plain_s * 1e6:.2f}us; fully observed "
            f"{overhead_pct:+.2f}% (hooks {hook_pct:+.2f}% = {hook_s * 1e9:.0f}ns, "
            f"plane {plane_pct:+.2f}%, ceiling {OVERHEAD_MAX_PCT:.1f}%)"
        )
    assert overhead_pct <= OVERHEAD_MAX_PCT


def test_observed_scores_are_bit_identical():
    """Full observability must not change one bit of the scores."""
    gathers = [gather for gather, _ in _gathers()[:96]]
    plain = _detector()
    watched = copy.deepcopy(plain)
    watched.attach_metrics(MetricsRegistry())
    _profiler.activate(Profiler())
    try:
        observed = [watched.scores(g, per_row=True).tobytes() for g in gathers]
    finally:
        _profiler.deactivate()
    assert observed == [plain.scores(g, per_row=True).tobytes() for g in gathers]


def test_openmetrics_exposition_is_terminated():
    metrics, hist, _ = _observed_registry()
    hist.observe(0.002)
    assert render_openmetrics(metrics).endswith("# EOF\n")
