"""The score memo under ``AnomalyDetector.scores(m, per_row=True)``.

The float64 kernels are row-exact (tests/test_hotpath.py::TestRowExactKernels):
a row's score is a function of that row's bytes alone. So a snapshot may
remember each score under its row's bytes and answer a repeat without a
kernel pass — and nothing observable may change: same bytes out as the
layer-walking reference for any batch, a bounded dict, a lifetime that ends
with the weights (``fit``) or the deployment (``recompile``), and a cost
that stays small when every window is new.
"""

import copy
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro.ml import compiled as compiled_module
from repro.ml.compiled import SCORE_MEMO_CAPACITY
from repro.obs.metrics import MetricsRegistry
from tests.reference_scoring import reference_scores
from tests.test_hotpath import (
    _ROW_DETECTORS,
    _ROW_DIM,
    _ROW_SHAPES,
    _ROW_WINDOW,
    _row_batch,
    _row_detector,
)

_WIDTH = _ROW_WINDOW * _ROW_DIM
_KINDS = sorted(_ROW_DETECTORS)


def _fresh(kind):
    """Own copy of a fitted detector, cold memo, with a registry to read."""
    detector = copy.deepcopy(_row_detector(kind))
    detector.recompile()
    registry = MetricsRegistry()
    detector.attach_metrics(registry)
    return detector, registry


def _memo_counts(registry, detector):
    """(hits, misses, size, kernel windows) as production metrics report them."""
    labels = {"model": detector.name}
    return (
        int(registry.counter("ml.score_memo_hits_total", labels=labels).value),
        int(registry.counter("ml.score_memo_misses_total", labels=labels).value),
        int(registry.gauge("ml.score_memo_size", labels=labels).value),
        int(registry.counter("ml.compiled_windows_total", labels=labels).value),
    )


@st.composite
def _batches(draw, max_rows=24):
    """A batch that repeats rows, and holds rows that differ only in the sign
    of a zero or are NaN — equal (or unordered) values, different bytes."""
    shape = draw(st.sampled_from(_ROW_SHAPES))
    pool = _row_batch(draw(st.integers(1, 6)), shape, draw(st.integers(0, 2**32 - 1)))
    pool = pool.astype(draw(st.sampled_from([np.float32, np.float64])))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_rows))
    matrix = pool[picks]
    for row in draw(st.lists(st.integers(0, len(picks) - 1), max_size=3)):
        column = draw(st.integers(0, _WIDTH - 1))
        kind = draw(st.sampled_from(["flip-zero", "nan"]))
        if kind == "nan":
            matrix[row, column] = np.nan
        elif matrix[row, column] == 0:
            matrix[row, column] = -matrix[row, column]
    return matrix


class TestMemoNeverChangesAScore:
    @pytest.mark.parametrize("kind", _KINDS)
    @given(batches=st.lists(_batches(), min_size=1, max_size=3), seed=st.integers(0, 2**16))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
    @hypothesis_settings(deadline=None)  # budget: the profile's (conftest.py)
    def test_bytes_equal_reference_for_any_batch_sequence(self, kind, batches, seed):
        detector, registry = _fresh(kind)
        rng = np.random.default_rng(seed)
        scored = 0
        for matrix in batches:
            want = reference_scores(detector, matrix, per_row=True)
            order = rng.permutation(len(matrix))
            # Cold or warm, repeated, permuted, widened without a value change.
            variants = [(matrix, want), (matrix, want), (matrix[order], want[order])]
            if matrix.dtype == np.float32:
                variants.append((matrix.astype(np.float64), want))
            for variant, expect in variants:
                got = detector.scores(variant, per_row=True)
                assert got.dtype == np.float64
                assert got.tobytes() == expect.tobytes()
                scored += len(variant)
        hits, misses, size, kernel_windows = _memo_counts(registry, detector)
        assert hits + misses == scored
        assert kernel_windows == misses == size  # nothing evicted, nothing twice

    @pytest.mark.parametrize("kind", _KINDS)
    def test_equal_values_in_either_float_width_share_a_score_not_an_entry(self, kind):
        detector, registry = _fresh(kind)
        narrow = _row_batch(5, "one-hot", 1)
        assert narrow.dtype == np.float32
        first = detector.scores(narrow, per_row=True)
        second = detector.scores(narrow.astype(np.float64), per_row=True)
        assert first.tobytes() == second.tobytes()
        assert _memo_counts(registry, detector)[:3] == (0, 10, 10)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_other_dtypes_are_scored_as_the_kernels_convert_them(self, kind):
        """An int32 row has a float32 row's width: keyed as float64, never as
        the float32 row of the same bytes."""
        detector, _ = _fresh(kind)
        ints = (_row_batch(4, "one-hot", 2) * 3).astype(np.int32)
        aliased = ints.view(np.float32)
        for matrix in (aliased, ints, aliased):
            want = reference_scores(detector, np.asarray(matrix, dtype=np.float64), per_row=True)
            assert detector.scores(matrix, per_row=True).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_signed_zero_and_nan_rows_are_their_own_entries(self, kind):
        detector, registry = _fresh(kind)
        row = np.zeros((1, _WIDTH), dtype=np.float32)
        signed = row.copy()
        signed[0, 3] = -0.0
        nan = row.copy()
        nan[0, 7] = np.nan
        matrix = np.concatenate([row, signed, nan, row, nan])
        got = detector.scores(matrix, per_row=True)
        assert got.tobytes() == reference_scores(detector, matrix, per_row=True).tobytes()
        assert np.isnan(got[[2, 4]]).all() and not np.isnan(got[[0, 1, 3]]).any()
        assert _memo_counts(registry, detector)[:3] == (2, 3, 3)


class TestMemoIsBounded:
    @pytest.mark.parametrize("kind", ["lstm", "autoencoder-max"])
    @given(
        heights=st.lists(st.integers(1, 20), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @hypothesis_settings(deadline=None)  # budget: the profile's (conftest.py)
    def test_capacity_is_never_exceeded_and_scores_hold(self, kind, heights, seed):
        """Batches below, at and above the capacity; the memo clears and
        refills, the bytes never move."""
        detector, registry = _fresh(kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_module, "SCORE_MEMO_CAPACITY", 8)
            for step, n in enumerate(heights):
                matrix = _row_batch(n, "one-hot", seed + step % 2)
                got = detector.scores(matrix, per_row=True)
                assert got.tobytes() == reference_scores(detector, matrix, per_row=True).tobytes()
                assert _memo_counts(registry, detector)[2] <= 8

    def test_capacity_is_at_most_seven_mib_of_keys_at_the_deployed_geometry(self):
        key = bytes(_WIDTH * 4)  # one float32 gather row
        assert SCORE_MEMO_CAPACITY * key.__sizeof__() <= 7 * 2**20

    def test_full_memo_clears_and_keeps_the_batch_that_filled_it(self):
        detector, registry = _fresh("lstm")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_module, "SCORE_MEMO_CAPACITY", 8)
            detector.scores(_row_batch(6, "one-hot", 1), per_row=True)
            late = _row_batch(5, "one-hot", 2)
            detector.scores(late, per_row=True)
            assert _memo_counts(registry, detector)[:3] == (0, 11, 5)
            detector.scores(late, per_row=True)
            assert _memo_counts(registry, detector)[:3] == (5, 11, 5)


class TestMemoLifetime:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_fit_and_recompile_start_empty(self, kind):
        detector, registry = _fresh(kind)
        matrix = _row_batch(7, "one-hot", 3)
        detector.scores(matrix, per_row=True)
        stale = detector.compiled
        assert _memo_counts(registry, detector)[2] == 7
        detector.recompile()
        assert detector.compiled is not stale
        assert _memo_counts(registry, detector)[2] == 0
        detector.scores(matrix, per_row=True)
        train = (np.random.default_rng(5).random((48, _WIDTH)) < 0.08).astype(np.float64)
        detector.fit(train, epochs=1)
        detector.compiled  # the post-fit snapshot registers its own gauge
        assert _memo_counts(registry, detector)[2] == 0
        # New weights, new scores: nothing of the old snapshot answers.
        got = detector.scores(matrix, per_row=True)
        assert got.tobytes() == reference_scores(detector, matrix, per_row=True).tobytes()
        assert _memo_counts(registry, detector)[:2] == (0, 21)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_refit_rebuilds_the_zero_state_projection(self):
        """Step 0's recurrent projection (``zeros @ Wh``) is made once per
        snapshot; a re-fit's scores must use the new weights' product."""
        detector, _ = _fresh("lstm")
        for n in (1, 3):
            detector.scores(_row_batch(n, "one-hot", n), per_row=True)
        rng = np.random.default_rng(11)
        detector.fit(rng.normal(size=(48, _WIDTH)) * (rng.random((48, _WIDTH)) < 0.2), epochs=1)
        for n in (1, 3):
            matrix = _row_batch(n, "dense", 40 + n)
            want = reference_scores(detector, matrix, per_row=True)
            assert detector.scores(matrix, per_row=True).tobytes() == want.tobytes()
        # With finite weights that product is all zeros whatever they are; an
        # infinite recurrent weight makes a stale one visible (NaN vs finite).
        detector.model.Wh.value[0] = np.inf
        detector.recompile()
        for n in (1, 3):
            matrix = _row_batch(n, "dense", 50 + n)
            want = reference_scores(detector, matrix, per_row=True)
            assert np.isnan(want).all()
            assert detector.scores(matrix, per_row=True).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_offline_scoring_never_touches_it(self, kind):
        detector, registry = _fresh(kind)
        matrix = _row_batch(9, "one-hot", 4)
        detector.scores(matrix)
        detector.scores(matrix)
        detector.detect(matrix)
        assert _memo_counts(registry, detector)[:3] == (0, 0, 0)
        assert detector.scores(matrix[:0], per_row=True).shape == (0,)
        assert _memo_counts(registry, detector)[:3] == (0, 0, 0)


class TestWorstCaseIsCheap:
    """An adversary who makes every window unique buys one hash and one
    insert per window — no scan, no copy of the batch, no second kernel call."""

    def test_all_unique_batch_is_one_kernel_call_on_the_callers_matrix(self):
        detector, registry = _fresh("lstm")
        snapshot = detector.compiled
        kernel, seen = snapshot.scores, []

        def spy(windows, per_row=False):
            seen.append(windows)
            return kernel(windows, per_row)

        snapshot.scores = spy
        matrix = _row_batch(32, "dense", 9)
        detector.scores(matrix, per_row=True)
        assert len(seen) == 1 and seen[0] is matrix
        # A partly known batch sends only its new rows, each once.
        mixed = np.concatenate([matrix[:4], _row_batch(3, "dense", 10), matrix[:2]])
        mixed[8] = mixed[5]
        detector.scores(mixed, per_row=True)
        assert len(seen) == 2 and len(seen[1]) == 3
        assert _memo_counts(registry, detector)[:3] == (6, 35, 35)

    def test_per_window_overhead_at_tick_height(self):
        """Budget 3 us per window over the kernel call (docs/PERFORMANCE.md;
        ~1.2 us measured at 64 rows). Asserted with a 5x margin on the best of
        several repeats, so a loaded box does not fail a correct change."""
        detector, _ = _fresh("lstm")
        rng = np.random.default_rng(0)
        batches = [(rng.random((64, _WIDTH)) < 0.08).astype(np.float32) for _ in range(40)]
        zeros = np.zeros(64)
        best = float("inf")
        for _ in range(5):
            detector.recompile()
            snapshot = detector.compiled
            snapshot.scores = lambda windows, per_row=False: zeros[: len(windows)]
            start = time.perf_counter()
            for matrix in batches:
                snapshot.memo_scores(matrix)
            best = min(best, time.perf_counter() - start)
        assert best / (64 * len(batches)) < 5 * 3e-6
