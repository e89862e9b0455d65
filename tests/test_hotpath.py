"""Hot-path pinning tests: ring windower, overlap feature cache, fused kernel.

This optimisation round rebuilt three layers for raw speed — the ring-buffer
:class:`~repro.signals.windows.StreamingWindower`, the overlap-aware
:class:`~repro.features.cache.BeatPartialCache` and the preallocated fused
batch pipeline of :class:`~repro.quant.quantized_model.QuantizedSVM` — all
under one contract: **bit-exactness** against the straightforward reference
computation.  These tests pin that contract:

* a hypothesis property that the ring windower (forced to wrap and grow by a
  tiny initial capacity, with a snapshot/restore mid-stream) emits windows
  bit-identical to a one-shot push of the same beats,
* feature-cache parity fuzz (cached vs ``feature_cache=False``) over
  overlapping streamed windows, the seizure-enriched offline stride
  (``seizure_step_s < step_s``), and a windower reset after a gap,
* fused-kernel parity against the reference per-row path across random
  quantization configs, batch shapes, threads, pickling and the wide-word
  fallback.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features.cache import BeatPartialCache
from repro.features.extractor import FeatureExtractor
from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import MonitorFleet, StreamingMonitor
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.windows import (
    BeatWindow,
    StreamingWindower,
    WindowingParams,
    extract_windows,
)
from repro.svm.model import train_svm


class TinyWindower(StreamingWindower):
    """Ring windower with a 4-slot initial buffer: every test wraps and grows."""

    _INITIAL_CAPACITY = 4


def _windows_equal(a, b):
    assert len(a) == len(b)
    for wa, wb in zip(a, b):
        assert wa.start_s == wb.start_s
        assert wa.end_s == wb.end_s
        assert wa.first_beat_index == wb.first_beat_index
        assert np.array_equal(wa.beat_times_s, wb.beat_times_s)
        assert np.array_equal(wa.rr_s, wb.rr_s)
        assert np.array_equal(wa.r_amplitudes_mv, wb.r_amplitudes_mv)


def _beat_stream(rng, n_beats):
    rr = rng.uniform(0.3, 1.4, size=n_beats)
    times = np.cumsum(rr)
    amps = 1.0 + 0.3 * rng.standard_normal(n_beats)
    return times, amps


class TestRingWindowerProperty:
    @given(
        n_beats=st.integers(0, 120),
        n_chunks=st.integers(1, 12),
        step_divisor=st.sampled_from([1, 2, 4]),
        snapshot_at=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_ring_matches_one_shot(
        self, n_beats, n_chunks, step_divisor, snapshot_at, seed
    ):
        """Any chunking, wraparound, growth and a mid-stream snapshot/restore
        emit exactly the windows of a single push of the whole stream."""
        rng = np.random.default_rng(seed)
        times, amps = _beat_stream(rng, n_beats)
        params = WindowingParams(
            window_s=10.0, step_s=10.0 / step_divisor, min_beats=4
        )

        reference = StreamingWindower(params)
        expected = reference.push(times, amps)

        boundaries = np.sort(rng.integers(0, n_beats + 1, size=n_chunks - 1))
        edges = np.concatenate(([0], boundaries, [n_beats])).astype(int)
        ring = TinyWindower(params)
        emitted = []
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if k == snapshot_at % max(n_chunks, 1):
                # Round-trip through the picklable snapshot mid-stream —
                # possibly mid-wrap of the tiny ring buffer.
                state = pickle.loads(pickle.dumps(ring.snapshot()))
                ring = TinyWindower.from_snapshot(state)
            emitted.extend(ring.push(times[lo:hi], amps[lo:hi]))

        _windows_equal(expected, emitted)

    def test_absolute_beat_index_survives_restore(self):
        rng = np.random.default_rng(3)
        times, amps = _beat_stream(rng, 80)
        params = WindowingParams(window_s=8.0, step_s=2.0, min_beats=4)
        ring = TinyWindower(params)
        out = list(ring.push(times[:50], amps[:50]))
        ring = TinyWindower.from_snapshot(ring.snapshot())
        out.extend(ring.push(times[50:], amps[50:]))
        firsts = [w.first_beat_index for w in out]
        assert all(f >= 0 for f in firsts)
        assert firsts == sorted(firsts)


def _stream_windows(params, times, amps, rng, resets=()):
    """Windows emitted from a chunked stream, with optional mid-stream resets.

    ``resets`` holds chunk indices; before pushing that chunk the windower is
    reset to the chunk's first beat time (a gap in the stream).
    """
    windower = StreamingWindower(params)
    edges = np.sort(rng.integers(0, times.shape[0] + 1, size=6))
    edges = np.concatenate(([0], edges, [times.shape[0]])).astype(int)
    out = []
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if k in resets and hi > lo:
            windower.reset(float(times[lo]) - 0.01)
        out.extend(windower.push(times[lo:hi], amps[lo:hi]))
    return out


class TestFeatureCacheParity:
    def _assert_parity(self, windows):
        cached = FeatureExtractor(feature_cache=True)
        uncached = FeatureExtractor(feature_cache=False)
        assert cached._cache is not None
        assert uncached._cache is None
        compared = 0
        for window in windows:
            try:
                expected = uncached.extract_beat_window(window)
            except ValueError:
                with pytest.raises(ValueError):
                    cached.extract_beat_window(window)
                continue
            got = cached.extract_beat_window(window)
            assert np.array_equal(expected, got)
            compared += 1
        return compared, cached._cache

    def test_overlapping_stream_bit_identical(self):
        rng = np.random.default_rng(11)
        times, amps = _beat_stream(rng, 700)
        params = WindowingParams(window_s=40.0, step_s=10.0, min_beats=8)
        windows = _stream_windows(params, times, amps, rng)
        compared, cache = self._assert_parity(windows)
        assert compared >= 10
        # The whole point of the cache: overlapping windows actually hit it.
        assert cache.hits >= compared - 2

    def test_reset_after_gap_invalidates_cleanly(self):
        """A windower reset (stream gap) must not alias pre-gap partials onto
        post-gap windows: absolute beat indices keep growing across resets."""
        rng = np.random.default_rng(12)
        times, amps = _beat_stream(rng, 600)
        params = WindowingParams(window_s=30.0, step_s=7.5, min_beats=8)
        windows = _stream_windows(params, times, amps, rng, resets={2, 4})
        firsts = [w.first_beat_index for w in windows]
        assert firsts == sorted(firsts)
        compared, _ = self._assert_parity(windows)
        assert compared >= 5

    def test_seizure_enriched_stride_parity(self):
        """The offline seizure-context grid (``seizure_step_s < step_s``)
        produces irregular, non-monotone overlaps; the cache must reseed or
        hit correctly and stay bit-identical throughout."""
        cohort = generate_cohort(
            CohortParams(
                n_patients=1,
                n_sessions=1,
                session_duration_s=1800.0,
                total_seizures=2,
                seed=5,
            )
        )
        recording = cohort.recordings[0]
        params = WindowingParams(
            window_s=180.0, step_s=90.0, seizure_step_s=30.0, min_beats=40
        )
        offline = extract_windows(recording, params)
        assert any(
            0 < (b.start_s - a.start_s) < params.step_s
            for a, b in zip(offline, offline[1:])
        ), "expected the seizure-context grid to densify the stride"
        beat_windows = [
            BeatWindow(
                start_s=w.start_s,
                end_s=w.end_s,
                beat_times_s=w.beats_of(recording),
                rr_s=w.rr_of(recording),
                r_amplitudes_mv=w.r_amplitudes_of(recording),
                first_beat_index=w.beat_slice.start,
            )
            for w in offline
        ]
        compared, cache = self._assert_parity(beat_windows)
        assert compared >= 10
        assert cache.hits > 0

    def test_unknown_provenance_skips_cache(self):
        rng = np.random.default_rng(13)
        times, amps = _beat_stream(rng, 60)
        window = BeatWindow(
            start_s=0.0,
            end_s=float(times[-1]),
            beat_times_s=times,
            rr_s=np.diff(times),
            r_amplitudes_mv=amps,
        )
        assert window.first_beat_index == -1
        cached = FeatureExtractor(feature_cache=True)
        uncached = FeatureExtractor(feature_cache=False)
        assert np.array_equal(
            cached.extract_beat_window(window), uncached.extract_beat_window(window)
        )
        assert cached._cache.hits == 0 and cached._cache.reseeds == 0

    def test_cache_reseeds_on_mismatched_overlap(self):
        cache = BeatPartialCache()
        rng = np.random.default_rng(14)
        rr = rng.uniform(0.5, 1.0, size=40)
        cache.partials_for(0, rr[:30])
        # Same index range, different values: the overlap check must reject
        # the stale run and reseed rather than stitch wrong partials.
        altered = rr[:30].copy()
        altered[10] += 0.25
        partials = cache.partials_for(0, altered)
        assert partials is not None
        assert np.array_equal(partials.hr, 60.0 / altered)
        assert cache.reseeds == 2

    def test_cache_counts_hits_only_on_reused_beats(self):
        """A window starting exactly where the cache ends extends it but
        reuses nothing, so it is not a hit; an overlapping one is."""
        rng = np.random.default_rng(15)
        rr = rng.uniform(0.5, 1.0, size=70)
        cache = BeatPartialCache()
        for first, stop, hits in ((0, 30, 0), (30, 60, 0), (40, 70, 1)):
            partials = cache.partials_for(first, rr[first:stop])
            fresh = BeatPartialCache().partials_for(first, rr[first:stop])
            assert cache.hits == hits
            for name in ("succ", "succ_sq", "nn50", "hr", "lor_diff", "lor_sum"):
                assert np.array_equal(getattr(partials, name), getattr(fresh, name))

    def test_flag_plumbs_through_serving_layers(self):
        monitor = StreamingMonitor(patient_id=1, fs=128.0, feature_cache=False)
        assert monitor._extractor._cache is None
        restored = StreamingMonitor.from_snapshot(
            monitor.snapshot(), feature_cache=False
        )
        assert restored.feature_cache is False
        assert restored._extractor._cache is None

        model, _ = _random_model(np.random.default_rng(15))
        detector = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        fleet = MonitorFleet(detector, fs=128.0, feature_cache=False)
        fleet.add_patient(7)
        assert fleet.monitor(7)._extractor._cache is None


def _random_model(rng, n_samples=40, n_features=6):
    X = rng.normal(size=(n_samples, n_features)) * rng.uniform(
        0.1, 10.0, size=n_features
    )
    y = np.where(rng.random(n_samples) > 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return train_svm(X, y), X


class TestFusedKernelParity:
    def _assert_parity(self, det, X):
        ref = QuantizedSVM(det.model, det.config)
        ref._use_fused = False
        assert np.array_equal(det.decision_function(X), ref.decision_function(X))
        assert np.array_equal(det.predict(X), ref.predict(X))
        s, l = det.scores_and_labels(X)
        rs, rl = ref.scores_and_labels(X)
        assert np.array_equal(s, rs)
        assert np.array_equal(l, rl)

    def test_random_configs_bit_identical(self):
        rng = np.random.default_rng(21)
        model, X = _random_model(rng)
        for _ in range(12):
            config = QuantizationConfig(
                feature_bits=int(rng.integers(4, 16)),
                coeff_bits=int(rng.integers(4, 20)),
                truncate_after_dot=int(rng.integers(0, 10)),
                truncate_after_square=int(rng.integers(0, 10)),
            )
            det = QuantizedSVM(model, config)
            assert det._use_fused
            batch = X[rng.integers(0, X.shape[0], size=int(rng.integers(1, 25)))]
            self._assert_parity(det, batch)

    def test_edge_shapes(self):
        rng = np.random.default_rng(22)
        model, X = _random_model(rng)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        # Empty batch.
        empty = det.predict(np.empty((0, X.shape[1])))
        assert empty.shape == (0,)
        # 1-D input (single window).
        self._assert_parity(det, X[0])
        # Single-row 2-D input.
        self._assert_parity(det, X[:1])
        # A batch larger than the initial workspace capacity (forces growth).
        big = np.tile(X, (4, 1))
        assert big.shape[0] > 64
        self._assert_parity(det, big)

    def test_narrow_mac1_gating_and_parity(self):
        # The narrow (int32 MAC1) stage engages only when the exact
        # worst-case bound proves every MAC1 intermediate fits 32 bits;
        # wider configs stay fused but run the int64 einsum.  Both branches
        # must be bit-identical to the unfused reference.
        rng = np.random.default_rng(26)
        model, X = _random_model(rng)
        narrow = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        assert narrow._use_fused and narrow._use_narrow_mac1
        assert narrow._sv_shifted_t32 is not None
        self._assert_parity(narrow, X)

        wide = QuantizedSVM(model, QuantizationConfig(feature_bits=18, coeff_bits=8))
        assert wide._use_fused and not wide._use_narrow_mac1
        assert wide._sv_shifted_t32 is None
        self._assert_parity(wide, X)

    def test_wide_words_fall_back_to_reference(self):
        rng = np.random.default_rng(23)
        model, X = _random_model(rng)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=63, coeff_bits=15))
        assert not det._use_fused
        a = det.predict(X)
        b = np.concatenate([det.predict(X[i : i + 1]) for i in range(X.shape[0])])
        assert np.array_equal(a, b)

    def test_pickle_round_trip(self):
        rng = np.random.default_rng(24)
        model, X = _random_model(rng)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        det.predict(X)  # populate the thread-local workspace before pickling
        clone = pickle.loads(pickle.dumps(det))
        assert np.array_equal(det.predict(X), clone.predict(X))
        assert np.array_equal(
            det.decision_function(X), clone.decision_function(X)
        )

    def test_thread_safety_of_workspaces(self):
        rng = np.random.default_rng(25)
        model, X = _random_model(rng, n_samples=60)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        expected = det.predict(X)
        errors = []

        def worker(seed):
            r = np.random.default_rng(seed)
            for _ in range(30):
                idx = r.integers(0, X.shape[0], size=int(r.integers(1, 40)))
                if not np.array_equal(det.predict(X[idx]), expected[idx]):
                    errors.append(seed)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestBatchExtraction:
    def test_extract_batch_matches_per_window(self):
        rng = np.random.default_rng(31)
        items = []
        for _ in range(12):
            n = int(rng.integers(3, 80))  # some below the 8-beat usability bar
            times, amps = _beat_stream(rng, n)
            items.append((times, np.diff(times), amps))
        extractor = FeatureExtractor(feature_cache=False)
        X, kept = extractor.extract_batch(items)
        assert X.shape[0] == len(kept)
        for row, idx in zip(X, kept):
            beats, rr, amps = items[idx]
            assert np.array_equal(row, extractor.extract_beats(beats, rr, amps))
        dropped = set(range(len(items))) - set(kept)
        for idx in dropped:
            with pytest.raises(ValueError):
                beats, rr, amps = items[idx]
                extractor.extract_beats(beats, rr, amps)
