"""Tests for the ECG chunk wire format (:mod:`repro.serving.wire`).

Round-trip property tests (every header field and every payload sample must
survive encode → decode, for every supported dtype, including empty and
large payloads), strict rejection of corrupt frames (bad magic / version /
reserved bits / dtype code, truncated header or payload, trailing bytes,
CRC mismatch) and the sequence-number policing that protects the streaming
monitors' carry-over DSP state from duplicated or reordered chunks.
"""

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import MonitorFleet, StreamingMonitor
from repro.serving.wire import (
    ACK_OK,
    DTYPE_CODES,
    FRAME_KINDS,
    HEADER,
    WIRE_VERSION,
    AckFrame,
    DuplicateChunkError,
    EcgChunk,
    HandoffFrame,
    OutOfOrderChunkError,
    SequenceTracker,
    StateFrame,
    StreamDecoder,
    WireFormatError,
    decode_chunk,
    decode_frame,
    encode_ack,
    encode_chunk,
    encode_frame,
    encode_handoff,
    encode_state,
    iter_chunks,
    iter_frames,
)

FS = 128.0


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

_wire_dtypes = st.sampled_from(sorted(DTYPE_CODES.values(), key=str))


@given(
    patient_id=st.integers(0, 2**32 - 1),
    seq=st.integers(0, 2**32 - 1),
    fs=st.floats(1.0, 4096.0, allow_nan=False),
    dtype=_wire_dtypes,
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_round_trip_preserves_everything(patient_id, seq, fs, dtype, data):
    n = data.draw(st.integers(0, 256))
    if dtype.kind == "f":
        samples = np.asarray(
            data.draw(st.lists(st.floats(-10.0, 10.0, width=32), min_size=n, max_size=n)),
            dtype=dtype,
        )
    else:
        info = np.iinfo(dtype)
        samples = np.asarray(
            data.draw(st.lists(st.integers(info.min, info.max), min_size=n, max_size=n)),
            dtype=dtype,
        )
    chunk = decode_chunk(encode_chunk(patient_id, seq, fs, samples))
    assert chunk.patient_id == patient_id
    assert chunk.seq == seq
    assert chunk.fs == fs
    assert chunk.samples.dtype == dtype
    assert np.array_equal(chunk.samples, samples)
    assert chunk.n_samples == n


def test_empty_chunk_round_trip():
    chunk = decode_chunk(encode_chunk(7, 0, FS, np.empty(0)))
    assert chunk.n_samples == 0 and chunk.duration_s == 0.0
    assert chunk.samples.dtype == np.dtype("<f8")


def test_large_payload_round_trip():
    samples = np.random.default_rng(0).standard_normal(1 << 20)
    chunk = decode_chunk(encode_chunk(1, 2, FS, samples))
    assert np.array_equal(chunk.samples, samples)


def test_unsupported_sample_dtype_falls_back_to_float64():
    # bool samples are not a wire dtype; they are shipped as float64.
    chunk = decode_chunk(encode_chunk(1, 0, FS, np.array([True, False])))
    assert chunk.samples.dtype == np.dtype("<f8")
    assert np.array_equal(chunk.samples, [1.0, 0.0])


def test_explicit_dtype_casts_payload():
    chunk = decode_chunk(encode_chunk(1, 0, FS, np.array([1.0, 2.0]), dtype=np.int16))
    assert chunk.samples.dtype == np.dtype("<i2")
    assert np.array_equal(chunk.samples, [1, 2])


@given(frames=st.lists(st.integers(0, 40), min_size=0, max_size=6))
@settings(max_examples=30, deadline=None)
def test_iter_chunks_splits_concatenated_frames(frames):
    rng = np.random.default_rng(1)
    encoded = b"".join(
        encode_chunk(pid, seq, FS, rng.standard_normal(n))
        for seq, (pid, n) in enumerate((i % 3, n) for i, n in enumerate(frames))
    )
    decoded = list(iter_chunks(encoded))
    assert [c.n_samples for c in decoded] == frames
    assert [c.seq for c in decoded] == list(range(len(frames)))


# ---------------------------------------------------------------------------
# Encode validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(patient_id=-1),
        dict(patient_id=2**32),
        dict(seq=-1),
        dict(seq=2**32),
        dict(fs=0.0),
        dict(fs=-128.0),
        dict(fs=float("inf")),
        dict(fs=float("nan")),
        dict(dtype=np.complex128),
    ],
)
def test_encode_rejects_bad_fields(kwargs):
    good = dict(patient_id=0, seq=0, fs=FS, samples=np.zeros(4))
    good.update(kwargs)
    with pytest.raises(ValueError):
        encode_chunk(**good)


# ---------------------------------------------------------------------------
# Corruption rejection
# ---------------------------------------------------------------------------

def _frame(n=16, dtype=np.float64):
    return encode_chunk(3, 5, FS, np.arange(n, dtype=dtype))


def _patched(frame: bytes, offset: int, value: bytes) -> bytes:
    return frame[:offset] + value + frame[offset + len(value) :]


def test_decode_rejects_short_header():
    with pytest.raises(WireFormatError, match="truncated header"):
        decode_chunk(_frame()[: HEADER.size - 1])


def test_decode_rejects_bad_magic():
    with pytest.raises(WireFormatError, match="bad magic"):
        decode_chunk(_patched(_frame(), 0, b"NOPE"))


def test_decode_rejects_unknown_version():
    with pytest.raises(WireFormatError, match="version"):
        decode_chunk(_patched(_frame(), 4, bytes([WIRE_VERSION + 1])))


def test_decode_rejects_unknown_dtype_code():
    with pytest.raises(WireFormatError, match="dtype"):
        decode_chunk(_patched(_frame(), 5, bytes([255])))


def test_decode_rejects_reserved_bits():
    # v2 header: the reserved byte sits at offset 7 (offset 6 is the frame
    # kind).  Any non-zero value is from the future and must be refused.
    with pytest.raises(WireFormatError, match="reserved"):
        decode_chunk(_patched(_frame(), 7, b"\x01"))


def test_decode_rejects_unknown_frame_kind():
    with pytest.raises(WireFormatError, match="frame kind"):
        decode_chunk(_patched(_frame(), 6, bytes([17])))


def test_decode_rejects_invalid_fs():
    bad_fs = struct.pack("<d", float("nan"))
    with pytest.raises(WireFormatError, match="sampling frequency"):
        decode_chunk(_patched(_frame(), 20, bad_fs))


def test_decode_rejects_truncated_payload():
    with pytest.raises(WireFormatError, match="truncated payload"):
        decode_chunk(_frame()[:-3])


def test_decode_rejects_declared_count_beyond_payload():
    # Header claims more samples than the payload carries.
    frame = _frame(16)
    inflated = _patched(frame, 16, struct.pack("<I", 17))
    with pytest.raises(WireFormatError, match="truncated payload"):
        decode_chunk(inflated)


def test_decode_rejects_trailing_garbage():
    with pytest.raises(WireFormatError, match="trailing"):
        decode_chunk(_frame() + b"\x00")


def test_decode_rejects_payload_corruption_via_crc():
    frame = bytearray(_frame())
    frame[HEADER.size + 2] ^= 0xFF
    with pytest.raises(WireFormatError, match="CRC"):
        decode_chunk(bytes(frame))


@pytest.mark.parametrize("offset", [8, 12, 16, 20])
def test_decode_rejects_header_field_corruption_via_crc(offset):
    # A bit flip in patient_id / seq / sample-count / fs passes every
    # structural check; the frame CRC (which covers the header) catches it —
    # otherwise the samples would be routed to a phantom patient's DSP state.
    frame = bytearray(_frame())
    frame[offset] ^= 0x01
    with pytest.raises(WireFormatError, match="CRC|truncated"):
        decode_chunk(bytes(frame))


def test_iter_chunks_raises_on_truncated_tail():
    a, b = _frame(8), _frame(8)
    with pytest.raises(WireFormatError):
        list(iter_chunks(a + b[:-1]))


# ---------------------------------------------------------------------------
# Sequence policing
# ---------------------------------------------------------------------------

class TestSequenceTracker:
    def test_accepts_contiguous_sequence(self):
        tracker = SequenceTracker()
        assert tracker.last_seq is None
        for seq in range(5):
            assert tracker.validate(seq) == seq
        assert tracker.last_seq == 4 and tracker.expected == 5

    def test_duplicate_rejected_with_context(self):
        tracker = SequenceTracker()
        tracker.validate(0)
        tracker.validate(1)
        with pytest.raises(DuplicateChunkError) as excinfo:
            tracker.validate(1)
        assert excinfo.value.seq == 1 and excinfo.value.expected == 2

    def test_sequence_errors_survive_pickling(self):
        for error in (
            DuplicateChunkError("dup", seq=1, expected=2),
            OutOfOrderChunkError("gap", seq=5, expected=2),
        ):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert clone.args == error.args
            assert (clone.seq, clone.expected) == (error.seq, error.expected)

    def test_gap_rejected_with_context(self):
        tracker = SequenceTracker()
        tracker.validate(0)
        with pytest.raises(OutOfOrderChunkError) as excinfo:
            tracker.validate(3)
        assert excinfo.value.seq == 3 and excinfo.value.expected == 1
        # A rejected chunk does not advance the tracker.
        assert tracker.validate(1) == 1

    def test_custom_first_seq(self):
        tracker = SequenceTracker(first_seq=10)
        assert tracker.last_seq is None
        with pytest.raises(DuplicateChunkError):
            tracker.validate(9)
        assert tracker.validate(10) == 10
        assert tracker.last_seq == 10

    @given(seqs=st.lists(st.integers(0, 30), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_only_the_contiguous_prefix_is_ever_accepted(self, seqs):
        tracker = SequenceTracker()
        accepted = []
        for seq in seqs:
            try:
                accepted.append(tracker.validate(seq))
            except (DuplicateChunkError, OutOfOrderChunkError):
                pass
        assert accepted == list(range(len(accepted)))


class TestSequenceRecovery:
    """The documented recovery contract: a rejection never moves the tracker,
    so the stream re-synchronises the moment the expected chunk arrives."""

    def test_next_in_order_chunk_is_accepted_after_a_gap_rejection(self):
        tracker = SequenceTracker()
        tracker.validate(0)
        with pytest.raises(OutOfOrderChunkError):
            tracker.validate(5)
        # The rejection left the tracker exactly where chunk 0 put it...
        assert tracker.expected == 1 and tracker.last_seq == 0
        # ...so the retransmitted in-order chunk is accepted immediately.
        assert tracker.validate(1) == 1
        assert tracker.expected == 2

    def test_next_in_order_chunk_is_accepted_after_a_duplicate_rejection(self):
        tracker = SequenceTracker()
        tracker.validate(0)
        tracker.validate(1)
        with pytest.raises(DuplicateChunkError):
            tracker.validate(0)
        assert tracker.expected == 2 and tracker.last_seq == 1
        assert tracker.validate(2) == 2

    def test_a_storm_of_bad_chunks_never_poisons_recovery(self):
        tracker = SequenceTracker()
        tracker.validate(0)
        for bad in (7, 3, 0, 29, 0, 2):
            with pytest.raises((DuplicateChunkError, OutOfOrderChunkError)):
                tracker.validate(bad)
            assert tracker.expected == 1  # unmoved through the whole storm
        assert tracker.validate(1) == 1

    @given(
        prefix=st.integers(0, 10),
        bad=st.lists(st.integers(0, 40), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejections_never_move_the_tracker(self, prefix, bad):
        tracker = SequenceTracker()
        for seq in range(prefix):
            tracker.validate(seq)
        for seq in bad:
            if seq == prefix:
                continue  # only non-expected sequence numbers are rejections
            with pytest.raises((DuplicateChunkError, OutOfOrderChunkError)):
                tracker.validate(seq)
            assert tracker.expected == prefix
        assert tracker.validate(prefix) == prefix

    def test_monitor_stream_resynchronises_after_rejected_frames(self):
        monitor = StreamingMonitor(0, FS)
        chunk = np.zeros(128)
        monitor.push(chunk, seq=0)
        with pytest.raises(OutOfOrderChunkError):
            monitor.push(chunk, seq=3)
        with pytest.raises(OutOfOrderChunkError):
            monitor.push(chunk, seq=2)
        # The transport retransmits from the gap: the stream picks up exactly
        # where it left off and every sample lands once.
        monitor.push(chunk, seq=1)
        monitor.push(chunk, seq=2)
        monitor.push(chunk, seq=3)
        assert monitor.last_seq == 3
        assert monitor.time_seen_s == pytest.approx(4 * chunk.size / FS)


class TestMonitorSequenceIntegration:
    def test_monitor_rejects_duplicate_and_gap_without_state_damage(self):
        monitor = StreamingMonitor(0, FS)
        chunk = np.zeros(256)
        monitor.push(chunk, seq=0)
        seen = monitor.time_seen_s
        with pytest.raises(DuplicateChunkError):
            monitor.push(chunk, seq=0)
        with pytest.raises(OutOfOrderChunkError):
            monitor.push(chunk, seq=2)
        # The rejected chunks never reached the DSP state.
        assert monitor.time_seen_s == seen
        monitor.push(chunk, seq=1)
        assert monitor.time_seen_s == pytest.approx(seen + chunk.size / FS)
        assert monitor.last_seq == 1

    def test_unsequenced_pushes_skip_policing(self):
        monitor = StreamingMonitor(0, FS)
        monitor.push(np.zeros(64))
        monitor.push(np.zeros(64))
        assert monitor.last_seq is None


class _NoCallClassifier:
    """Placeholder classifier for fleets that never reach classification."""

    def scores_and_labels(self, X):  # pragma: no cover - never called
        raise AssertionError("classification not expected in this test")


class TestFleetWireIngestion:
    def test_push_wire_round_trip_and_sequencing(self):
        fleet = MonitorFleet(_NoCallClassifier(), FS)
        samples = np.random.default_rng(2).standard_normal(512)
        fleet.push_wire(encode_chunk(4, 0, FS, samples))
        with pytest.raises(DuplicateChunkError):
            fleet.push_wire(encode_chunk(4, 0, FS, samples))
        with pytest.raises(OutOfOrderChunkError):
            fleet.push_wire(encode_chunk(4, 2, FS, samples))
        fleet.push_wire(encode_chunk(4, 1, FS, samples))
        assert fleet.monitor(4).time_seen_s == pytest.approx(1024 / FS)

    def test_push_wire_rejects_fs_mismatch(self):
        fleet = MonitorFleet(_NoCallClassifier(), FS)
        with pytest.raises(WireFormatError, match="does not match"):
            fleet.push_wire(encode_chunk(1, 0, 2 * FS, np.zeros(8)))


# ---------------------------------------------------------------------------
# Typed frame protocol (v2): control frames and mixed streams
# ---------------------------------------------------------------------------

_control_frames = st.one_of(
    st.builds(
        HandoffFrame,
        patient_id=st.integers(0, 2**32 - 1),
        token=st.integers(0, 2**32 - 1),
        state_version=st.integers(0, 2**32 - 1),
        fs=st.just(FS),
    ),
    st.builds(
        StateFrame,
        patient_id=st.integers(0, 2**32 - 1),
        token=st.integers(0, 2**32 - 1),
        fs=st.just(FS),
        payload=st.binary(max_size=200),
    ),
    st.builds(
        AckFrame,
        patient_id=st.integers(0, 2**32 - 1),
        token=st.integers(0, 2**32 - 1),
        status=st.integers(0, 2),
        fs=st.just(FS),
    ),
)


def _data_frames():
    return st.builds(
        lambda pid, seq, n: EcgChunk(
            patient_id=pid, seq=seq, fs=FS, samples=np.arange(n, dtype=np.float64)
        ),
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(0, 32),
    )


class TestControlFrames:
    def test_handoff_round_trip(self):
        frame = decode_frame(encode_handoff(9, 77, 1, FS))
        assert frame == HandoffFrame(patient_id=9, token=77, state_version=1, fs=FS)

    def test_state_round_trip(self):
        payload = b"\x80\x04N."  # pickled None — any bytes are legal
        frame = decode_frame(encode_state(9, 77, FS, payload))
        assert frame == StateFrame(patient_id=9, token=77, fs=FS, payload=payload)

    def test_ack_round_trip(self):
        frame = decode_frame(encode_ack(9, 77, ACK_OK, FS))
        assert frame == AckFrame(patient_id=9, token=77, status=ACK_OK, fs=FS)

    @given(frame=_control_frames)
    @settings(max_examples=60, deadline=None)
    def test_encode_frame_dispatch_round_trips(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_frame_rejects_non_frames(self):
        with pytest.raises(TypeError):
            encode_frame(b"not a frame")

    def test_frame_kind_registry_is_complete(self):
        assert FRAME_KINDS == {0: EcgChunk, 1: HandoffFrame, 2: StateFrame, 3: AckFrame}

    def test_decode_chunk_refuses_control_frames(self):
        with pytest.raises(WireFormatError, match="not a data frame"):
            decode_chunk(encode_handoff(1, 2, 1, FS))

    def test_iter_chunks_refuses_mixed_streams(self):
        mixed = encode_chunk(1, 0, FS, np.zeros(4)) + encode_ack(1, 0, ACK_OK, FS)
        with pytest.raises(WireFormatError, match="not a data frame"):
            list(iter_chunks(mixed))

    def test_iter_frames_handles_mixed_streams(self):
        mixed = (
            encode_handoff(1, 5, 1, FS)
            + encode_state(1, 5, FS, b"abc")
            + encode_chunk(2, 0, FS, np.zeros(4))
            + encode_ack(1, 5, ACK_OK, FS)
        )
        kinds = [type(f).__name__ for f in iter_frames(mixed)]
        assert kinds == ["HandoffFrame", "StateFrame", "EcgChunk", "AckFrame"]

    def test_control_frame_with_nonzero_dtype_code_is_rejected(self):
        frame = encode_ack(1, 2, ACK_OK, FS)
        with pytest.raises(WireFormatError, match="must be 0"):
            decode_frame(_patched(frame, 5, bytes([1])))

    def test_state_payload_corruption_caught_by_crc(self):
        frame = bytearray(encode_state(1, 2, FS, b"state-bytes"))
        frame[HEADER.size + 3] ^= 0xFF
        with pytest.raises(WireFormatError, match="CRC"):
            decode_frame(bytes(frame))

    def test_truncated_state_payload_is_rejected(self):
        frame = encode_state(1, 2, FS, b"x" * 64)
        with pytest.raises(WireFormatError, match="truncated payload"):
            decode_frame(frame[:-7])


class TestStreamDecoderMixedFrames:
    @given(
        frames=st.lists(st.one_of(_control_frames, _data_frames()), max_size=8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_reassembly_invariant_under_read_chunking(self, frames, data):
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = StreamDecoder()
        decoded = []
        pos = 0
        while pos < len(stream):
            step = data.draw(st.integers(1, max(1, len(stream) - pos)))
            decoded.extend(decoder.feed(stream[pos : pos + step]))
            pos += step
        decoder.finish()
        assert len(decoded) == len(frames)
        for got, want in zip(decoded, frames):
            if isinstance(want, EcgChunk):
                assert isinstance(got, EcgChunk)
                assert got.patient_id == want.patient_id and got.seq == want.seq
                assert np.array_equal(got.samples, want.samples)
            else:
                assert got == want

    def test_truncated_state_frame_fails_finish(self):
        decoder = StreamDecoder()
        frame = encode_state(1, 2, FS, b"y" * 128)
        assert decoder.feed(frame[:-1]) == []
        with pytest.raises(WireFormatError, match="mid-frame"):
            decoder.finish()

    def test_oversized_state_declaration_is_rejected_at_the_header(self):
        # A state payload above max_frame_bytes is corruption-by-bound: the
        # decoder must reject on the header alone, never buffer gigabytes.
        decoder = StreamDecoder(max_frame_bytes=1024)
        frame = encode_state(1, 2, FS, b"z" * 2048)
        with pytest.raises(WireFormatError, match="frame bound"):
            decoder.feed(frame[: HEADER.size])
        with pytest.raises(WireFormatError, match="drop the connection"):
            decoder.feed(frame[HEADER.size :])

    def test_control_frames_between_data_frames_one_byte_at_a_time(self):
        stream = (
            encode_chunk(1, 0, FS, np.arange(8.0))
            + encode_handoff(1, 3, 1, FS)
            + encode_state(1, 3, FS, b"pickled")
            + encode_ack(1, 3, ACK_OK, FS)
            + encode_chunk(1, 1, FS, np.arange(4.0))
        )
        decoder = StreamDecoder()
        decoded = []
        for i in range(len(stream)):
            decoded.extend(decoder.feed(stream[i : i + 1]))
        decoder.finish()
        assert [type(f).__name__ for f in decoded] == [
            "EcgChunk",
            "HandoffFrame",
            "StateFrame",
            "AckFrame",
            "EcgChunk",
        ]
        assert decoder.frames_decoded == 5 and decoder.at_frame_boundary
