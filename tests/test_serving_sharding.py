"""Cross-layer parity and property tests for the sharded serving stack.

The contract under test: **sharding is invisible**.  For random multi-patient
ECG workloads (varying sampling frequency, chunk partitioning and seizure
placement), a :class:`~repro.serving.sharding.ShardedFleet` — any shard
count, any drain policy, float or fixed-point classifier — must produce
decision-for-decision identical output to a single
:class:`~repro.serving.fleet.MonitorFleet`, which in turn must agree with the
offline per-window ``FeatureExtractor`` + ``predict`` loop.

Scores are compared bit-exactly on the fixed-point model (an integer
pipeline has no excuse for even one ULP of drift).  Float scores are compared
to 1e-9 relative tolerance: BLAS dispatches single-row batches to ``gemv``
and larger ones to ``gemm``, so a drain that happens to hold exactly one
usable window may differ from the big-batch result in the last ULP — the
labels must still be identical.
"""

import math

import numpy as np
import pytest

from repro.quant import QuantizationConfig, QuantizedSVM
from repro.serving import (
    AnyOf,
    ChunkCountPolicy,
    HashRing,
    LatencyPolicy,
    MonitorFleet,
    PendingWindowPolicy,
    ShardedFleet,
    StreamingMonitor,
    decision_sort_key,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg

#: Fuzz corpus: each case varies the cohort seed, fleet size, session length,
#: sampling frequency and the chunk-size distribution of the node uplinks.
FUZZ_CASES = [
    dict(seed=21, n_patients=4, duration_s=1000.0, fs=128.0, seizures=4, max_chunk=6000),
    dict(seed=22, n_patients=5, duration_s=1100.0, fs=100.0, seizures=3, max_chunk=2500),
    dict(seed=23, n_patients=6, duration_s=900.0, fs=160.0, seizures=5, max_chunk=9000),
]

#: Shard count → drain policy, so every policy type participates in the
#: parity sweep.  LatencyPolicy(0.0) drains whenever anything is pending —
#: deterministic without clock injection.
POLICY_OF_SHARDS = {
    1: ChunkCountPolicy(5),
    2: AnyOf([ChunkCountPolicy(7), PendingWindowPolicy(4)]),
    4: LatencyPolicy(0.0),
}


def _make_streams(case):
    """Per-patient chunked raw-ECG streams for one fuzz case."""
    params = CohortParams(
        n_patients=case["n_patients"],
        n_sessions=case["n_patients"],
        session_duration_s=case["duration_s"],
        total_seizures=case["seizures"],
        seed=case["seed"],
        ecg_params=ECGWaveformParams(fs=case["fs"]),
    )
    cohort = generate_cohort(params)
    rng = np.random.default_rng(case["seed"] + 1)
    streams = {}
    for recording in cohort.recordings:
        ecg = synthesize_ecg(
            recording.beat_times_s, recording.duration_s, recording.respiration, rng
        )
        chunks = []
        lo = 0
        while lo < ecg.ecg_mv.size:
            size = int(rng.integers(200, case["max_chunk"]))
            chunks.append(ecg.ecg_mv[lo : lo + size])
            lo += size
        streams[recording.patient_id] = chunks
    return streams, case["fs"]


@pytest.fixture(scope="module", params=[case["seed"] for case in FUZZ_CASES])
def fuzz_case(request):
    case = next(c for c in FUZZ_CASES if c["seed"] == request.param)
    streams, fs = _make_streams(case)
    return dict(case=case, streams=streams, fs=fs)


@pytest.fixture(scope="module")
def quantized_detector(quadratic_model):
    return QuantizedSVM(quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15))


def _assert_decisions_identical(reference, candidate, *, exact_scores: bool):
    __tracebackhint__ = True
    assert len(candidate) == len(reference)
    for expected, got in zip(reference, candidate):
        assert got.patient_id == expected.patient_id
        assert got.start_s == expected.start_s
        assert got.end_s == expected.end_s
        assert got.n_beats == expected.n_beats
        assert got.usable == expected.usable
        assert got.alarm == expected.alarm
        if expected.score is None:
            assert got.score is None
        elif exact_scores:
            assert got.score == expected.score
        else:
            assert math.isclose(got.score, expected.score, rel_tol=1e-9, abs_tol=1e-12)


class TestShardedParityFuzz:
    """ShardedFleet ≡ MonitorFleet ≡ offline loop, for every fuzz case."""

    def _single_fleet_reference(self, classifier, fuzz_case):
        fleet = MonitorFleet(classifier, fuzz_case["fs"])
        return fleet.run(fuzz_case["streams"])

    @pytest.mark.parametrize("n_shards", sorted(POLICY_OF_SHARDS))
    def test_quantized_parity_is_bit_exact(self, fuzz_case, quantized_detector, n_shards):
        reference = self._single_fleet_reference(quantized_detector, fuzz_case)
        assert any(d.usable for d in reference)
        sharded = ShardedFleet(quantized_detector, fuzz_case["fs"], n_shards=n_shards)
        decisions = sharded.run(fuzz_case["streams"], policy=POLICY_OF_SHARDS[n_shards])
        _assert_decisions_identical(reference, decisions, exact_scores=True)

    @pytest.mark.parametrize("n_shards", sorted(POLICY_OF_SHARDS))
    def test_float_parity(self, fuzz_case, quadratic_model, n_shards):
        reference = self._single_fleet_reference(quadratic_model, fuzz_case)
        sharded = ShardedFleet(quadratic_model, fuzz_case["fs"], n_shards=n_shards)
        decisions = sharded.run(fuzz_case["streams"], policy=POLICY_OF_SHARDS[n_shards])
        _assert_decisions_identical(reference, decisions, exact_scores=False)

    def test_agreement_with_offline_feature_loop(
        self, fuzz_case, quadratic_model, quantized_detector
    ):
        """Fleet labels == offline per-window FeatureExtractor + predict loop."""
        pending = []
        for patient_id, chunks in fuzz_case["streams"].items():
            monitor = StreamingMonitor(patient_id, fuzz_case["fs"])
            for chunk in chunks:
                pending.extend(monitor.push(chunk))
            pending.extend(monitor.finish())
        for classifier, exact in ((quantized_detector, True), (quadratic_model, False)):
            offline = {
                (w.patient_id, w.start_s): int(classifier.predict(w.features.reshape(1, -1))[0])
                for w in pending
                if w.usable
            }
            sharded = ShardedFleet(classifier, fuzz_case["fs"], n_shards=4)
            decisions = sharded.run(fuzz_case["streams"])
            usable = [d for d in decisions if d.usable]
            assert len(usable) == len(offline) > 0
            for decision in usable:
                expected = offline[(decision.patient_id, decision.start_s)]
                assert (1 if decision.alarm else -1) == expected


class TestShardedWireIngestion:
    def test_wire_fed_sharded_fleet_matches_direct_push(self, fuzz_case, quantized_detector):
        if fuzz_case["case"]["seed"] != FUZZ_CASES[0]["seed"]:
            pytest.skip("wire ingestion parity runs on the first fuzz case only")
        from repro.serving import encode_chunk

        reference = ShardedFleet(quantized_detector, fuzz_case["fs"], n_shards=4).run(
            fuzz_case["streams"]
        )
        sharded = ShardedFleet(quantized_detector, fuzz_case["fs"], n_shards=4)
        # Interleave frames round-robin, the arrival order run() uses.
        iterators = {pid: iter(chunks) for pid, chunks in fuzz_case["streams"].items()}
        sequence = {pid: 0 for pid in iterators}
        while iterators:
            for pid in list(iterators):
                try:
                    chunk = next(iterators[pid])
                except StopIteration:
                    del iterators[pid]
                    continue
                sharded.push_wire(encode_chunk(pid, sequence[pid], fuzz_case["fs"], chunk))
                sequence[pid] += 1
        sharded.finish()
        decisions = sharded.drain()
        _assert_decisions_identical(reference, decisions, exact_scores=True)

    def test_sequence_errors_reach_the_caller(self, quantized_detector):
        from repro.serving import DuplicateChunkError

        sharded = ShardedFleet(quantized_detector, 128.0, n_shards=2)
        sharded.push(1, np.zeros(64), seq=0)
        with pytest.raises(DuplicateChunkError):
            sharded.push(1, np.zeros(64), seq=0)
        assert sharded.local_stats().chunks_since_drain == 1


def _feature_window(patient_id, start_s, features):
    from repro.serving import PendingWindow

    return PendingWindow(
        patient_id=patient_id,
        start_s=start_s,
        end_s=start_s + 180.0,
        n_beats=200,
        features=features,
    )


class TestShardedFleetApi:
    """Cheap (no-DSP) coverage of the sharded fleet's queue-facing surface."""

    def test_enqueue_routes_and_drain_merges_canonically(self, quantized_detector, feature_matrix):
        fleet = ShardedFleet(quantized_detector, 128.0, n_shards=3)
        windows = [
            _feature_window(pid, 180.0 * k, feature_matrix.X[(pid + k) % feature_matrix.X.shape[0]])
            for pid in range(9)
            for k in range(3)
        ]
        assert fleet.enqueue(windows) == len(windows)
        assert fleet.pending_count == len(windows)
        single = MonitorFleet(quantized_detector, 128.0)
        single.enqueue(windows)
        expected = sorted(single.drain(), key=decision_sort_key)
        assert fleet.drain() == expected
        assert fleet.pending_count == 0

    def test_policy_driven_maybe_drain_over_merged_stats(self, quantized_detector, feature_matrix):
        fleet = ShardedFleet(
            quantized_detector, 128.0, n_shards=3, drain_policy=PendingWindowPolicy(4)
        )
        # Three windows spread over the shards: below the threshold fleet-wide.
        fleet.enqueue([_feature_window(pid, 0.0, feature_matrix.X[pid]) for pid in range(3)])
        assert fleet.stats().pending_windows == 3
        assert fleet.maybe_drain() == []
        fleet.enqueue([_feature_window(3, 0.0, feature_matrix.X[3])])
        drained = fleet.maybe_drain()
        assert len(drained) == 4
        assert fleet.stats().pending_windows == 0

    def test_local_stats_track_the_authoritative_sweep(self, quantized_detector, feature_matrix):
        """Scheduling runs off sweep-free local counters; they must agree
        with the authoritative per-shard sweep at every step."""
        fleet = ShardedFleet(quantized_detector, 128.0, n_shards=3)
        for step in range(6):
            fleet.enqueue([_feature_window(step, 0.0, feature_matrix.X[step])])
            swept, local = fleet.stats(), fleet.local_stats()
            assert local.pending_windows == swept.pending_windows == step + 1
        fleet.push(40, np.zeros(64))
        assert fleet.local_stats().chunks_since_drain == 1
        fleet.drain()
        local = fleet.local_stats()
        assert local.pending_windows == 0 and local.chunks_since_drain == 0
        assert local.oldest_pending_age_s == 0.0

    def test_finish_single_patient_routes_to_its_shard(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, 128.0, n_shards=2)
        fleet.push(5, np.zeros(256))
        assert fleet.finish(5) == 0
        with pytest.raises(KeyError):
            fleet.finish(6)


class _PoisonableClassifier:
    """Raises on any batch containing the poison marker in feature 0."""

    POISON = 1e9

    def __init__(self, inner):
        self._inner = inner

    def scores_and_labels(self, X):
        if np.any(X[:, 0] == self.POISON):
            raise RuntimeError("poisoned batch")
        return self._inner.scores_and_labels(X)


class TestDrainExceptionSafety:
    """A failed drain must never lose windows or already-computed decisions."""

    def test_monitor_fleet_keeps_windows_when_classify_raises(
        self, quantized_detector, feature_matrix
    ):
        fleet = MonitorFleet(_PoisonableClassifier(quantized_detector), 128.0)
        poison = np.array(feature_matrix.X[0])
        poison[0] = _PoisonableClassifier.POISON
        fleet.enqueue(
            [_feature_window(0, 0.0, feature_matrix.X[0]), _feature_window(1, 0.0, poison)]
        )
        with pytest.raises(RuntimeError, match="poisoned"):
            fleet.drain()
        # Nothing was popped: the drain is retryable.
        assert fleet.pending_count == 2

    def test_sharded_drain_salvages_healthy_shards(self, quantized_detector, feature_matrix):
        from repro.serving import ShardDrainError

        fleet = ShardedFleet(_PoisonableClassifier(quantized_detector), 128.0, n_shards=4)
        good = [_feature_window(pid, 0.0, feature_matrix.X[pid]) for pid in range(8)]
        poison_features = np.array(feature_matrix.X[8])
        poison_features[0] = _PoisonableClassifier.POISON
        poisoned = _feature_window(8, 0.0, poison_features)
        fleet.enqueue(good + [poisoned])
        bad_shard = fleet.shard_of(8)
        with pytest.raises(ShardDrainError) as excinfo:
            fleet.drain()
        # The healthy shards' decisions were salvaged, canonically sorted...
        salvaged = excinfo.value.decisions
        healthy = [w for w in good if fleet.shard_of(w.patient_id) != bad_shard]
        assert sorted(d.patient_id for d in salvaged) == sorted(w.patient_id for w in healthy)
        assert set(excinfo.value.errors) == {bad_shard}
        # ...and the failed shard kept its windows queued for a retry.
        poisoned_shard_windows = 1 + sum(
            1 for w in good if fleet.shard_of(w.patient_id) == bad_shard
        )
        assert fleet.stats().pending_windows == poisoned_shard_windows
        assert fleet.local_stats().pending_windows == poisoned_shard_windows

    def test_failed_sharded_drain_keeps_policy_triggers_armed(
        self, quantized_detector, feature_matrix
    ):
        """A failed drain must not disarm the drain policy: the chunk counter
        and oldest-window clock survive, so the retry fires on the next poll."""
        from repro.serving import ShardDrainError

        fleet = ShardedFleet(
            _PoisonableClassifier(quantized_detector),
            128.0,
            n_shards=2,
            drain_policy=ChunkCountPolicy(1),
        )
        fleet.push(0, np.zeros(64))
        poison = np.array(feature_matrix.X[0])
        poison[0] = _PoisonableClassifier.POISON
        fleet.enqueue([_feature_window(0, 0.0, poison)])
        with pytest.raises(ShardDrainError):
            fleet.maybe_drain()
        assert fleet.local_stats().chunks_since_drain == 1
        assert fleet.should_drain()  # the retry is armed immediately


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(8), HashRing(8)
        ids = range(500)
        assert [a.shard_of(i) for i in ids] == [b.shard_of(i) for i in ids]

    def test_reasonable_balance(self):
        ring = HashRing(4, replicas=128)
        counts = np.bincount([ring.shard_of(i) for i in range(2000)], minlength=4)
        assert counts.min() > 0.12 * 2000
        assert counts.max() < 0.40 * 2000

    def test_resharding_moves_a_minority_of_patients(self):
        before, after = HashRing(4), HashRing(5)
        ids = range(2000)
        moved = sum(before.shard_of(i) != after.shard_of(i) for i in ids)
        # The consistent-hashing promise: ~1/5 of keys move, never a reshuffle
        # of everything (plain modulo hashing would move ~4/5).
        assert 0 < moved < 0.45 * 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)

    def test_sharded_fleet_routing_matches_ring(self, quantized_detector):
        fleet = ShardedFleet(quantized_detector, 128.0, n_shards=4)
        for pid in range(32):
            assert fleet.shard_of(pid) == fleet.ring.shard_of(pid)
