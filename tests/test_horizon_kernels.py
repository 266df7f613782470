"""The horizon kernels against their straightforward formulations.

``CostMatrix.reference_parts`` and ``CostMatrix.marker_parts`` walk the
pair sums in cache-sized strips, and ``fold_marker_states`` bisects in
cache-sized chunks of streams.  Neither may change a single bit of the
result.  The oracles below are the plain formulations: one large
broadcast block per pass for the parts, a masked gather for the
condensed pair markers, and one unchunked ``(K, streams, markers)``
bisection for the fold.  The tests shrink the strip budget and the
chunk size so that strip and chunk edges fall inside small cases.

The restore tests check that a horizon snapshot whose cached state does
not fit its names is rejected at the boundary, rather than crashing the
next push.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import stats
from repro.analysis.stats import fold_marker_states, quantile_fold_fractions
from repro.core import correlation
from repro.core.correlation import CostMatrix, RollingCostHorizon
from repro.traces.trace import ReferenceSpec, TraceSet

#: Element budget of the oracles' single broadcast block.
_ORACLE_BLOCK = 8_000_000
#: Samples per test window.
SAMPLES = 5
#: The strip budget patched in below: an ``n``-VM window fits one strip
#: up to ``n == EDGE`` and splits from ``EDGE + 1`` on.
EDGE = 6
STRIP_BUDGET = EDGE * EDGE * SAMPLES


def _oracle_markers(sorted_rows, fractions):
    samples = sorted_rows.shape[-1]
    position = fractions * (samples - 1)
    low = np.floor(position).astype(np.intp)
    high = np.minimum(low + 1, samples - 1)
    t = (position - low).astype(sorted_rows.dtype)
    one = sorted_rows.dtype.type(1.0)
    return sorted_rows[..., low] * (one - t) + sorted_rows[..., high] * t


def _oracle_reference_parts(traces, spec):
    data = traces.matrix
    n = traces.num_traces
    samples = data.shape[1]
    refs = data.max(axis=1) if spec.is_peak else np.percentile(data, spec.percentile, axis=1)
    joint = np.empty((n, n), dtype=float)
    start = 0
    while start < n:
        rows = max(1, _ORACLE_BLOCK // max(1, (n - start) * samples))
        stop = min(start + rows, n)
        sums = data[start:stop, None, :] + data[None, start:, :]
        if spec.is_peak:
            joint[start:stop, start:] = sums.max(axis=2)
        else:
            joint[start:stop, start:] = np.percentile(sums, spec.percentile, axis=2)
        start = stop
    lower = np.tril_indices(n, k=-1)
    joint[lower] = joint.T[lower]
    return refs.astype(float), joint


def _oracle_marker_parts(traces, spec, fractions):
    data = traces.matrix
    n = traces.num_traces
    samples = data.shape[1]
    single_markers = _oracle_markers(np.sort(data, axis=1), fractions)
    tri_rows, tri_cols = np.triu_indices(n, k=1)
    pair_markers = np.empty((tri_rows.size, fractions.size), dtype=np.float32)
    narrow = data.astype(np.float32)
    start = 0
    while start < n:
        rows = max(1, _ORACLE_BLOCK // max(1, (n - start) * samples))
        stop = min(start + rows, n)
        sums = narrow[start:stop, None, :] + narrow[None, start:, :]
        sums.sort(axis=2)
        block = _oracle_markers(sums, fractions)
        sel = (tri_rows >= start) & (tri_rows < stop)
        pair_markers[sel] = block[tri_rows[sel] - start, tri_cols[sel] - start]
        start = stop
    return single_markers, pair_markers, samples


def _oracle_fold(marker_heights, counts, q, fractions):
    heights = np.asarray(marker_heights)
    dtype = heights.dtype
    num_states, _, num_markers = heights.shape
    fr = np.asarray(fractions, dtype=float)
    p = q / 100.0
    target = int(np.argmin(np.abs(fr - p)))
    weights = np.asarray(counts, dtype=float)
    if num_states == 1:
        return heights[0, :, target].astype(float)
    weights = (weights / weights.sum()).astype(dtype)
    fr = fr.astype(dtype)
    p_t = dtype.type(p)
    half = dtype.type(0.5)
    low = heights[:, :, target].min(axis=0)
    high = heights[:, :, target].max(axis=0)
    for _ in range(12):
        mid = half * (low + high)
        idx = (mid[None, :, None] >= heights).sum(axis=2)
        cell = np.clip(idx, 1, num_markers - 1)
        lower = np.take_along_axis(heights, (cell - 1)[:, :, None], axis=2)[..., 0]
        upper = np.take_along_axis(heights, cell[:, :, None], axis=2)[..., 0]
        span = upper - lower
        sloped = span > 0.0
        t = np.where(sloped, (mid - lower) / np.where(sloped, span, dtype.type(1.0)), mid >= upper)
        np.clip(t, 0.0, 1.0, out=t)
        mixture = (weights[:, None] * (fr[cell - 1] + t * (fr[cell] - fr[cell - 1]))).sum(axis=0)
        above = mixture >= p_t
        high = np.where(above, mid, high)
        low = np.where(above, low, mid)
    return high.astype(float)


def _window(rng, n, samples=SAMPLES):
    matrix = rng.lognormal(0.0, 0.5, size=(n, samples))
    # Idle VMs and exact ties give the percentile and sort paths atoms.
    matrix[::4] = 0.0
    if n > 2:
        matrix[1, :] = matrix[2, :]
    matrix.flags.writeable = False
    return TraceSet.from_matrix(matrix, tuple(f"vm{i}" for i in range(n)), 5.0)


def _assert_identical(got, want):
    for a, b in zip(got, want, strict=True):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
        else:
            assert a == b


STRIP_SIZES = [1, 2, EDGE - 1, EDGE, EDGE + 1, 4 * EDGE + 3]


class TestPairStrips:
    @pytest.fixture(autouse=True)
    def small_strips(self, monkeypatch):
        monkeypatch.setattr(correlation, "_BLOCK_ELEMENTS", STRIP_BUDGET)

    def test_edge_sizes_split_where_intended(self, rng):
        def strips(n):
            return len(list(correlation._pair_strips(_window(rng, n).matrix)))

        assert strips(EDGE) == 1
        assert strips(EDGE + 1) == 2
        assert strips(4 * EDGE + 3) > 4

    @pytest.mark.parametrize("n", STRIP_SIZES)
    @pytest.mark.parametrize("spec", [ReferenceSpec(), ReferenceSpec(90.0)])
    def test_reference_parts_match_the_broadcast_oracle(self, rng, n, spec):
        window = _window(rng, n)
        _assert_identical(
            CostMatrix.reference_parts(window, spec), _oracle_reference_parts(window, spec)
        )

    @pytest.mark.parametrize("n", STRIP_SIZES)
    def test_marker_parts_match_the_gather_oracle(self, rng, n):
        spec = ReferenceSpec(90.0)
        fractions = quantile_fold_fractions(spec.percentile)
        window = _window(rng, n)
        _assert_identical(
            CostMatrix.marker_parts(window, spec, fractions),
            _oracle_marker_parts(window, spec, fractions),
        )


CHUNK = 4
FOLD_STREAMS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


def _marker_states(rng, num_states, streams, dtype):
    fractions = quantile_fold_fractions(90.0)
    raw = rng.lognormal(0.0, 0.6, size=(num_states, streams, fractions.size))
    # Coarse rounding makes duplicate markers (CDF atoms) common; idle
    # and constant streams make whole-state atoms.
    heights = np.sort(np.round(raw * 4.0) / 4.0, axis=2)
    heights[:, ::3, :] = 0.0
    heights[0, 1::3, :] = 1.5
    return heights.astype(dtype), fractions


class TestChunkedFold:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(stats, "_FOLD_CHUNK_STREAMS", CHUNK)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_states", [1, 2, 3])
    @pytest.mark.parametrize("streams", FOLD_STREAMS)
    def test_matches_the_unchunked_oracle(self, rng, streams, num_states, dtype):
        heights, fractions = _marker_states(rng, num_states, streams, dtype)
        counts = rng.integers(1, 500, size=num_states)
        want = _oracle_fold(heights, counts, 90.0, fractions)
        got = fold_marker_states(heights, counts, 90.0, fractions)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # A list of states folds without being stacked, to the same bits.
        listed = fold_marker_states(list(heights), counts, 90.0, fractions)
        assert np.array_equal(listed, want)

    @pytest.mark.parametrize("seed", [129, 600, 1332, 2850])
    def test_many_states_with_a_one_stream_tail(self, seed):
        """NumPy sums a ``(K, 1)`` array over ``K >= 8`` pairwise, not in
        order, so a trailing one-stream chunk must not be bisected alone.

        States on a small integer grid put the mixture within an ulp of
        ``p`` often enough for the summation order to flip a bisection
        step; these seeds are draws where it does.
        """
        rng = np.random.default_rng(seed)
        num_states = int(rng.choice([8, 9, 10, 12, 16, 24, 32, 33, 35]))
        fractions = quantile_fold_fractions(90.0)
        streams = 2 * CHUNK + 1
        heights = np.sort(
            rng.integers(0, 5, size=(num_states, streams, fractions.size)), axis=2
        ).astype(np.float32)
        if rng.random() < 0.7:
            counts = np.full(num_states, 100)
        else:
            counts = rng.integers(1, 4, size=num_states)
        want = _oracle_fold(heights, counts, 90.0, fractions)
        assert np.array_equal(fold_marker_states(heights, counts, 90.0, fractions), want)

    def test_real_window_states(self, rng):
        spec = ReferenceSpec(90.0)
        fractions = quantile_fold_fractions(spec.percentile)
        parts = [CostMatrix.marker_parts(_window(rng, 9, 24), spec, fractions) for _ in range(3)]
        counts = [part[2] for part in parts]
        for which in (0, 1):
            states = np.stack([part[which] for part in parts])
            want = _oracle_fold(states, counts, spec.percentile, fractions)
            got = fold_marker_states(
                [part[which] for part in parts], counts, spec.percentile, fractions
            )
            assert np.array_equal(got, want)


NAMES3 = ("a", "b", "c")


def _filled_horizon(rng, spec, mode):
    horizon = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
    for _ in range(2):
        horizon.push(TraceSet.from_matrix(rng.lognormal(0.0, 0.5, size=(3, 8)), NAMES3, 5.0))
    return horizon


class TestRestoreRejectsInconsistentState:
    def _rejects(self, horizon, state, match):
        before = horizon.snapshot()
        with pytest.raises(ValueError, match=match):
            horizon.restore(state)
        after = horizon.snapshot()
        assert after["names"] == before["names"] and after["filled"] == before["filled"]

    def test_peak_parts_cut_to_fewer_rows(self, rng):
        live = _filled_horizon(rng, ReferenceSpec(), "exact")
        state = live.snapshot()
        state["parts"] = [(refs[:2], joint[:2, :2]) for refs, joint in state["parts"]]
        twin = RollingCostHorizon(ReferenceSpec(), horizon_periods=3)
        self._rejects(twin, state, "reference parts")

    def test_p2_marker_parts_cut_to_fewer_rows(self, rng):
        spec = ReferenceSpec(90.0)
        live = _filled_horizon(rng, spec, "p2")
        good = live.snapshot()
        singles_cut = dict(good)
        singles_cut["marker_parts"] = [
            (single[:2], pair, count) for single, pair, count in good["marker_parts"]
        ]
        pairs_cut = dict(good)
        pairs_cut["marker_parts"] = [
            (single, pair[:1], count) for single, pair, count in good["marker_parts"]
        ]
        no_count = dict(good)
        no_count["marker_parts"] = [
            (single, pair, 0) for single, pair, _count in good["marker_parts"]
        ]
        twin = RollingCostHorizon(spec, horizon_periods=3, mode="p2")
        self._rejects(twin, singles_cut, "marker parts")
        self._rejects(twin, pairs_cut, "marker parts")
        self._rejects(twin, no_count, "positive")
        twin.restore(good)
        window = TraceSet.from_matrix(rng.lognormal(0.0, 0.5, size=(3, 8)), NAMES3, 5.0)
        assert np.array_equal(twin.push(window).as_array(), live.push(window).as_array())

    def test_exact_buffer_rows_and_fill(self, rng):
        spec = ReferenceSpec(90.0)
        live = _filled_horizon(rng, spec, "exact")
        good = live.snapshot()
        short = dict(good, buffer=good["buffer"][:2])
        overfull = dict(good, filled=good["buffer"].shape[1] + 1)
        unbuffered = dict(good, buffer=None)
        twin = RollingCostHorizon(spec, horizon_periods=3, mode="exact")
        self._rejects(twin, short, "rows")
        self._rejects(twin, overfull, "exceeds")
        self._rejects(twin, unbuffered, "exceeds")

    def test_cached_state_without_names(self, rng):
        live = _filled_horizon(rng, ReferenceSpec(), "exact")
        state = dict(live.snapshot(), names=None)
        twin = RollingCostHorizon(ReferenceSpec(), horizon_periods=3)
        self._rejects(twin, state, "names no VMs")
