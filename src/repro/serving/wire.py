"""Versioned binary wire protocol: typed frames for data *and* control.

A body sensor node ships its raw ECG to the serving backend in framed,
self-describing chunks; gateways in a federated cluster additionally
exchange *control* frames (patient handoffs, monitor-state payloads,
acknowledgements) over the same transport.  Every frame is a fixed 32-byte
little-endian header followed by a payload:

======  ====  ==========  ====================================================
offset  size  type        field
======  ====  ==========  ====================================================
0       4     ``4s``      magic ``b"ECGC"``
4       1     ``u8``      format version (currently :data:`WIRE_VERSION` = 2)
5       1     ``u8``      payload dtype code (see :data:`DTYPE_CODES`; must be
                          0 for control frames, which carry no samples)
6       1     ``u8``      frame kind (see :data:`FRAME_KINDS`)
7       1     ``u8``      reserved, must be zero
8       4     ``u32``     patient id
12      4     ``u32``     chunk sequence number (data frames, per patient,
                          starts at 0) / handoff token (control frames)
16      4     ``u32``     count — sample count (``DATA``), state version
                          (``HANDOFF``), payload byte length (``STATE``),
                          status code (``ACK``)
20      8     ``f64``     sampling frequency (Hz)
28      4     ``u32``     CRC-32 of the whole frame (header with this field
                          zeroed, then payload)
32      --    payload     ``DATA``: ``count`` samples of the declared dtype,
                          little endian; ``STATE``: ``count`` opaque bytes (a
                          pickled :class:`~repro.serving.streaming.MonitorState`);
                          empty for ``HANDOFF`` / ``ACK``
======  ====  ==========  ====================================================

Frame kinds (:data:`FRAME_KINDS` maps the kind byte to the frame dataclass):

====  ===========================  =============================================
kind  frame                        meaning
====  ===========================  =============================================
0     :class:`EcgChunk`            raw ECG samples (the PR 2 data frame)
1     :class:`HandoffFrame`        "patient X is migrating to you" — announces
                                   a :class:`StateFrame` and pins the sender's
                                   ``MONITOR_STATE_VERSION``
2     :class:`StateFrame`          the pickled monitor state itself, CRC'd like
                                   any other payload
3     :class:`AckFrame`            destination's verdict on the import; only an
                                   ``ACK_OK`` lets the source forget the patient
====  ===========================  =============================================

The CRC covers the *header as well as* the payload: a flipped bit in
``patient_id`` would otherwise route perfectly valid samples (or a whole
monitor state) to the wrong patient, which is corruption just as surely as a
damaged sample.

:func:`encode_frame` / :func:`decode_frame` convert between frames and their
typed dataclasses, dispatching on the kind byte; :func:`encode_chunk` /
:func:`decode_chunk` are the data-frame specialisations existing callers
use, and :func:`iter_chunks` / :func:`iter_frames` split a concatenated byte
stream back into frames.  Decoding is strict: bad magic, unknown version,
kind or dtype, non-zero reserved bits, a truncated payload, trailing garbage
or a CRC mismatch all raise :class:`WireFormatError` — a corrupted frame is
never silently turned into samples (or into somebody's monitor state).

A *live* byte stream (a TCP socket) delivers frames in arbitrary pieces:
``read()`` may return half a header, three frames and a bit, or one byte.
:class:`StreamDecoder` is the incremental counterpart of :func:`iter_frames`
for that case — feed it whatever bytes arrived and it yields every frame
that has become complete (data and control frames alike, typed), buffering
the partial tail for the next feed.  It applies the same strict validation,
and fails as *early* as the arrived bytes allow (a bad magic needs four
bytes, not a whole frame).

Delivery-order policing is separate from framing: a :class:`SequenceTracker`
validates per-patient sequence numbers and raises
:class:`DuplicateChunkError` for already-seen chunks and
:class:`OutOfOrderChunkError` for gaps or reordering, so a monitor's
carry-over DSP state can never be corrupted by a misdelivered chunk
(:meth:`repro.serving.streaming.StreamingMonitor.push` applies one tracker
per stream when sequence numbers are provided).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Union

import numpy as np

__all__ = [
    "WIRE_VERSION",
    "WIRE_MAGIC",
    "HEADER",
    "DTYPE_CODES",
    "FRAME_KINDS",
    "FRAME_KIND_DATA",
    "FRAME_KIND_HANDOFF",
    "FRAME_KIND_STATE",
    "FRAME_KIND_ACK",
    "ACK_OK",
    "ACK_VERSION_MISMATCH",
    "ACK_IMPORT_FAILED",
    "WireFormatError",
    "SequenceError",
    "DuplicateChunkError",
    "OutOfOrderChunkError",
    "EcgChunk",
    "DataFrame",
    "HandoffFrame",
    "StateFrame",
    "AckFrame",
    "Frame",
    "encode_frame",
    "decode_frame",
    "encode_chunk",
    "decode_chunk",
    "decode_chunk_checked",
    "encode_handoff",
    "encode_state",
    "encode_ack",
    "iter_chunks",
    "iter_frames",
    "StreamDecoder",
    "SequenceTracker",
]

#: Current wire-format version; bumped on any incompatible layout change.
#: Version 2 split the v1 u16 reserved field into the frame-kind byte plus a
#: u8 reserved byte, turning the chunk format into a typed frame protocol.
WIRE_VERSION = 2

#: Frame magic, first four bytes of every frame.
WIRE_MAGIC = b"ECGC"

#: Little-endian header layout (see the module docstring for the field table).
HEADER = struct.Struct("<4sBBBBIIIdI")

#: Supported payload dtypes.  Frames always carry little-endian samples; the
#: integer formats are for nodes that transmit raw ADC codes.
DTYPE_CODES: Dict[int, np.dtype] = {
    0: np.dtype("<f8"),
    1: np.dtype("<f4"),
    2: np.dtype("<i2"),
    3: np.dtype("<i4"),
}
_CODE_OF_DTYPE = {dtype: code for code, dtype in DTYPE_CODES.items()}

#: Frame-kind codes.
FRAME_KIND_DATA = 0
FRAME_KIND_HANDOFF = 1
FRAME_KIND_STATE = 2
FRAME_KIND_ACK = 3

#: :class:`AckFrame` status codes.
ACK_OK = 0
ACK_VERSION_MISMATCH = 1
ACK_IMPORT_FAILED = 2


class WireFormatError(ValueError):
    """A frame could not be decoded (corruption, truncation, bad version)."""


class SequenceError(ValueError):
    """A chunk arrived with an unacceptable sequence number."""

    def __init__(self, message: str, *, seq: int, expected: int) -> None:
        super().__init__(message)
        self.seq = int(seq)
        self.expected = int(expected)

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # Keyword-only constructor args defeat the default exception pickling,
        # so rebuild from the stored fields.
        return (
            _rebuild_sequence_error,
            (type(self), self.args[0], self.seq, self.expected),
        )


def _rebuild_sequence_error(
    cls: type[SequenceError], message: str, seq: int, expected: int
) -> SequenceError:
    return cls(message, seq=seq, expected=expected)


class DuplicateChunkError(SequenceError):
    """The chunk's sequence number was already consumed."""


class OutOfOrderChunkError(SequenceError):
    """The chunk skips ahead of the next expected sequence number."""


@dataclass(frozen=True)
class EcgChunk:
    """One decoded ECG data frame: routing metadata plus the raw samples."""

    patient_id: int
    seq: int
    fs: float
    samples: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs


#: The data frame under its protocol-role name: kind 0 of :data:`FRAME_KINDS`.
DataFrame = EcgChunk


@dataclass(frozen=True)
class HandoffFrame:
    """Control frame opening a patient migration (kind 1).

    The source gateway has quiesced ``patient_id`` and is about to ship its
    monitor state; ``state_version`` pins the sender's
    ``MONITOR_STATE_VERSION`` so an incompatible destination can refuse
    *before* unpickling anything.  ``token`` correlates the HANDOFF, its
    STATE and the eventual ACK on a multiplexed connection.
    """

    patient_id: int
    token: int
    state_version: int
    fs: float


@dataclass(frozen=True)
class StateFrame:
    """Control frame carrying one pickled monitor state (kind 2).

    ``payload`` is the pickled
    :class:`~repro.serving.streaming.MonitorState`, protected by the frame
    CRC exactly like sample payloads — a corrupted state must be rejected at
    the framing layer, never handed to ``pickle``.
    """

    patient_id: int
    token: int
    fs: float
    payload: bytes


@dataclass(frozen=True)
class AckFrame:
    """Control frame closing a handoff (kind 3).

    ``status`` is :data:`ACK_OK` when the destination imported the state and
    now owns the patient — only then may the source forget them (the
    ACK-before-forget rule that makes a mid-handoff crash leave exactly one
    owner).  Non-zero statuses (:data:`ACK_VERSION_MISMATCH`,
    :data:`ACK_IMPORT_FAILED`) tell the source to roll back.
    """

    patient_id: int
    token: int
    status: int
    fs: float


#: Anything :func:`decode_frame` / :meth:`StreamDecoder.feed` may return.
Frame = Union[EcgChunk, HandoffFrame, StateFrame, AckFrame]

#: Frame-kind registry: kind byte -> frame dataclass.  A dict literal with
#: integer keys, fingerprinted (like :data:`DTYPE_CODES`) by the
#: ``wire-version`` rule of :mod:`repro.analysis` — adding a control frame
#: without bumping :data:`WIRE_VERSION` is a lint finding.
FRAME_KINDS: Dict[int, type] = {
    0: EcgChunk,
    1: HandoffFrame,
    2: StateFrame,
    3: AckFrame,
}
_KIND_OF_FRAME = {cls: kind for kind, cls in FRAME_KINDS.items()}


def _pack_frame(
    kind: int,
    dtype_code: int,
    patient_id: int,
    seq: int,
    count: int,
    fs: float,
    payload: bytes,
) -> bytes:
    """Assemble one CRC'd frame from validated fields."""
    patient_id = int(patient_id)
    seq = int(seq)
    count = int(count)
    if not 0 <= patient_id < 2**32:
        raise ValueError("patient_id %d does not fit the u32 header field" % patient_id)
    if not 0 <= seq < 2**32:
        raise ValueError("seq %d does not fit the u32 header field" % seq)
    if not 0 <= count < 2**32:
        raise ValueError("count %d does not fit the u32 header field" % count)
    fs = float(fs)
    if not (fs > 0.0 and np.isfinite(fs)):
        raise ValueError("fs must be positive and finite")
    bare_header = HEADER.pack(
        WIRE_MAGIC,
        WIRE_VERSION,
        dtype_code,
        kind,
        0,
        patient_id,
        seq,
        count,
        fs,
        0,
    )
    crc = zlib.crc32(payload, zlib.crc32(bare_header))
    return bare_header[:-4] + struct.pack("<I", crc) + payload


def encode_chunk(
    patient_id: int,
    seq: int,
    fs: float,
    samples: np.ndarray,
    dtype: np.dtype | str | None = None,
) -> bytes:
    """Frame one ECG chunk (a kind-0 data frame) for the wire.

    Parameters
    ----------
    patient_id, seq:
        Routing metadata; both must fit an unsigned 32-bit field.  Sequence
        numbers are per patient and start at 0.
    fs:
        Sampling frequency of the payload (Hz).
    samples:
        1-D array of raw ECG samples.  Empty chunks are legal (a node may
        frame a pure keep-alive).
    dtype:
        Payload dtype; defaults to the dtype of ``samples`` when that is one
        of :data:`DTYPE_CODES`, else ``float64``.  Casting to an integer
        payload dtype is the caller's responsibility to scale sensibly.
    """
    samples = np.asarray(samples).ravel()
    if dtype is None:
        wire_dtype = samples.dtype.newbyteorder("<")
        if wire_dtype not in _CODE_OF_DTYPE:
            wire_dtype = np.dtype("<f8")
    else:
        wire_dtype = np.dtype(dtype).newbyteorder("<")
        if wire_dtype not in _CODE_OF_DTYPE:
            raise ValueError("unsupported wire dtype %r" % (dtype,))
    payload = np.ascontiguousarray(samples, dtype=wire_dtype).tobytes()
    return _pack_frame(
        FRAME_KIND_DATA,
        _CODE_OF_DTYPE[wire_dtype],
        patient_id,
        seq,
        samples.size,
        fs,
        payload,
    )


def encode_handoff(patient_id: int, token: int, state_version: int, fs: float) -> bytes:
    """Frame a :class:`HandoffFrame` (kind 1, empty payload)."""
    return _pack_frame(
        FRAME_KIND_HANDOFF, 0, patient_id, token, int(state_version), fs, b""
    )


def encode_state(patient_id: int, token: int, fs: float, payload: bytes) -> bytes:
    """Frame a :class:`StateFrame` (kind 2) around a pickled monitor state."""
    payload = bytes(payload)
    return _pack_frame(FRAME_KIND_STATE, 0, patient_id, token, len(payload), fs, payload)


def encode_ack(patient_id: int, token: int, status: int, fs: float) -> bytes:
    """Frame an :class:`AckFrame` (kind 3, empty payload)."""
    return _pack_frame(FRAME_KIND_ACK, 0, patient_id, token, int(status), fs, b"")


def encode_frame(frame: Frame) -> bytes:
    """Frame any typed frame object, dispatching on its dataclass.

    The inverse of :func:`decode_frame`:
    ``decode_frame(encode_frame(f)) == f`` for every frame kind.
    """
    if isinstance(frame, EcgChunk):
        return encode_chunk(frame.patient_id, frame.seq, frame.fs, frame.samples)
    if isinstance(frame, HandoffFrame):
        return encode_handoff(frame.patient_id, frame.token, frame.state_version, frame.fs)
    if isinstance(frame, StateFrame):
        return encode_state(frame.patient_id, frame.token, frame.fs, frame.payload)
    if isinstance(frame, AckFrame):
        return encode_ack(frame.patient_id, frame.token, frame.status, frame.fs)
    raise TypeError("not a wire frame: %r" % (frame,))


#: Parsed header fields: (kind, patient_id, seq, count, fs, dtype, crc).
_Header = Tuple[int, int, int, int, float, np.dtype, int]


def _parse_header(buf: bytes, offset: int) -> _Header:
    """Validate the header at ``offset``; return its decoded fields.

    Requires ``HEADER.size`` bytes to be available.  Every check that does
    not need the payload happens here, so an incremental decoder can reject
    a corrupt frame as soon as its header has arrived.
    """
    magic, version, dtype_code, kind, reserved, patient_id, seq, count, fs, crc = (
        HEADER.unpack_from(buf, offset)
    )
    if magic != WIRE_MAGIC:
        raise WireFormatError("bad magic %r (expected %r)" % (magic, WIRE_MAGIC))
    if version != WIRE_VERSION:
        raise WireFormatError("unsupported wire version %d" % version)
    if kind not in FRAME_KINDS:
        raise WireFormatError("unknown frame kind %d" % kind)
    if reserved != 0:
        raise WireFormatError("reserved header bits set (%#04x)" % reserved)
    if dtype_code not in DTYPE_CODES:
        raise WireFormatError("unknown payload dtype code %d" % dtype_code)
    if kind != FRAME_KIND_DATA and dtype_code != 0:
        raise WireFormatError(
            "control frame kind %d declares payload dtype code %d (must be 0)"
            % (kind, dtype_code)
        )
    if not fs > 0.0 or not np.isfinite(fs):
        raise WireFormatError("invalid sampling frequency %r" % fs)
    return kind, patient_id, seq, count, fs, DTYPE_CODES[dtype_code], crc


def _payload_nbytes(header: _Header) -> int:
    """Payload byte length the header declares (0 for HANDOFF / ACK)."""
    kind, _, _, count, _, dtype, _ = header
    if kind == FRAME_KIND_DATA:
        return count * dtype.itemsize
    if kind == FRAME_KIND_STATE:
        return count
    return 0


def _decode_at(buf: bytes, offset: int, header: _Header | None = None) -> tuple[Frame, int]:
    """Decode the frame starting at ``offset``; return (frame, next offset).

    ``header`` accepts the fields a caller already obtained from
    :func:`_parse_header` for this offset, so an incremental decoder does
    not validate every header twice.
    """
    if len(buf) - offset < HEADER.size:
        raise WireFormatError(
            "truncated header: %d bytes, need %d" % (len(buf) - offset, HEADER.size)
        )
    if header is None:
        header = _parse_header(buf, offset)
    kind, patient_id, seq, count, fs, dtype, crc = header
    start = offset + HEADER.size
    nbytes = _payload_nbytes(header)
    end = start + nbytes
    if len(buf) < end:
        raise WireFormatError(
            "truncated payload: %d bytes, header declares %d"
            % (len(buf) - start, nbytes)
        )
    payload = bytes(buf[start:end])
    bare_header = bytes(buf[offset : start - 4]) + b"\x00\x00\x00\x00"
    if zlib.crc32(payload, zlib.crc32(bare_header)) != crc:
        raise WireFormatError("frame CRC mismatch")
    frame: Frame
    if kind == FRAME_KIND_DATA:
        samples = np.frombuffer(payload, dtype=dtype)
        frame = EcgChunk(patient_id=patient_id, seq=seq, fs=float(fs), samples=samples)
    elif kind == FRAME_KIND_HANDOFF:
        frame = HandoffFrame(
            patient_id=patient_id, token=seq, state_version=count, fs=float(fs)
        )
    elif kind == FRAME_KIND_STATE:
        frame = StateFrame(patient_id=patient_id, token=seq, fs=float(fs), payload=payload)
    else:
        frame = AckFrame(patient_id=patient_id, token=seq, status=count, fs=float(fs))
    return frame, end


def decode_frame(buf: bytes) -> Frame:
    """Decode exactly one frame of any kind; trailing bytes are an error.

    Raises :class:`WireFormatError` on any corruption (see the module
    docstring for the full rejection list).
    """
    frame, end = _decode_at(buf, 0)
    if end != len(buf):
        raise WireFormatError("%d trailing bytes after the payload" % (len(buf) - end))
    return frame


def decode_chunk(buf: bytes) -> EcgChunk:
    """Decode exactly one *data* frame; a control frame is an error here.

    The data-plane specialisation of :func:`decode_frame`: callers that
    expect raw ECG (the fleets' ``push_wire``, the gateway's data path) must
    never have a control frame smuggled into their sample stream.
    """
    frame = decode_frame(buf)
    if not isinstance(frame, EcgChunk):
        raise WireFormatError(
            "frame kind %d (%s) is not a data frame"
            % (_KIND_OF_FRAME[type(frame)], type(frame).__name__)
        )
    return frame


def decode_chunk_checked(buf: bytes, fs: float) -> EcgChunk:
    """Decode one data frame and require its sampling frequency to be ``fs``.

    The shared ingestion path of the fleet classes: a frame whose payload was
    sampled at a different rate than the fleet's monitors would silently
    corrupt every DSP stage, so an fs mismatch is a :class:`WireFormatError`.
    """
    chunk = decode_chunk(buf)
    if chunk.fs != float(fs):
        raise WireFormatError(
            "chunk fs %g Hz does not match the fleet's %g Hz" % (chunk.fs, fs)
        )
    return chunk


def iter_frames(buf: bytes) -> Iterator[Frame]:
    """Split a concatenation of frames back into typed frame objects."""
    offset = 0
    while offset < len(buf):
        frame, offset = _decode_at(buf, offset)
        yield frame


def iter_chunks(buf: bytes) -> Iterator[EcgChunk]:
    """Split a concatenation of *data* frames back into :class:`EcgChunk`.

    A control frame in the stream is a :class:`WireFormatError` — this is
    the data-plane iterator; mixed streams use :func:`iter_frames`.
    """
    for frame in iter_frames(buf):
        if not isinstance(frame, EcgChunk):
            raise WireFormatError(
                "frame kind %d (%s) is not a data frame"
                % (_KIND_OF_FRAME[type(frame)], type(frame).__name__)
            )
        yield frame


class StreamDecoder:
    """Incremental frame reassembly for live byte streams.

    :meth:`feed` accepts bytes exactly as they came off a socket — any
    split, down to one byte at a time — and returns the typed frames
    completed by that feed (data and control frames alike), buffering the
    partial tail internally.  The frame sequence is invariant under the read
    chunking: for any partition of a byte stream, the concatenation of the
    ``feed`` results equals :func:`iter_frames` over the whole stream
    (property-tested in ``tests/test_serving_wire.py``).

    Validation is as strict as :func:`decode_frame` and as *early* as
    possible: a bad magic is rejected once four bytes arrived, any other
    header corruption once the 32-byte header arrived, and a CRC mismatch
    once the payload completed.  After a :class:`WireFormatError` the stream
    has lost framing and the decoder refuses further input — a transport
    should drop the connection, not resynchronise on guesswork.

    Corruption never costs the frames decoded *before* it: when a read
    completes valid frames and then hits garbage, :meth:`feed` returns the
    valid frames and defers the :class:`WireFormatError` to the next
    :meth:`feed` / :meth:`finish` call.  Delivered-frame counts therefore do
    not depend on where the socket happened to split the bytes — the same
    invariance the happy path guarantees.

    :meth:`finish` asserts clean end-of-stream: EOF in the middle of a
    buffered frame is a truncation, not a quiet success.

    ``max_frame_bytes`` bounds the payload a single header may declare
    (default 64 MiB — hours of ECG, or a monitor state orders of magnitude
    above any real one).  Without a bound, one flipped bit in the u32 count
    field of an otherwise-valid header would make the decoder buffer
    gigabytes waiting for a payload that never completes; with it, the
    oversized declaration is itself corruption, rejected the moment the
    header arrives.
    """

    def __init__(self, max_frame_bytes: int = 1 << 26) -> None:
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = int(max_frame_bytes)
        self._buf = bytearray()
        self._frames_decoded = 0
        self._corrupt = False
        self._deferred: WireFormatError | None = None

    def _raise_if_poisoned(self) -> None:
        if self._deferred is not None:
            exc, self._deferred = self._deferred, None
            raise exc
        if self._corrupt:
            raise WireFormatError("stream already failed to decode; drop the connection")

    @property
    def buffered_bytes(self) -> int:
        """Bytes of the partial frame waiting for more input."""
        return len(self._buf)

    @property
    def frames_decoded(self) -> int:
        """Total frames returned by :meth:`feed` so far."""
        return self._frames_decoded

    @property
    def at_frame_boundary(self) -> bool:
        """``True`` when no partial frame is buffered (EOF would be clean)."""
        return not self._buf and not self._corrupt

    def feed(self, data: bytes) -> list[Frame]:
        """Consume one read's worth of bytes; return the frames it completed."""
        self._raise_if_poisoned()
        self._buf += data
        frames: list[Frame] = []
        offset = 0
        try:
            while True:
                available = len(self._buf) - offset
                if available == 0:
                    break
                if available < HEADER.size:
                    # Fail fast: a prefix that cannot open a valid header will
                    # never become one, however many bytes follow.
                    prefix = bytes(self._buf[offset : offset + min(available, 4)])
                    if prefix != WIRE_MAGIC[: len(prefix)]:
                        raise WireFormatError(
                            "bad magic %r (expected %r)" % (prefix, WIRE_MAGIC)
                        )
                    break
                header = _parse_header(self._buf, offset)
                payload_bytes = _payload_nbytes(header)
                if payload_bytes > self.max_frame_bytes:
                    raise WireFormatError(
                        "header declares a %d-byte payload, above the stream's"
                        " %d-byte frame bound" % (payload_bytes, self.max_frame_bytes)
                    )
                if available < HEADER.size + payload_bytes:
                    break
                frame, offset = _decode_at(self._buf, offset, header=header)
                frames.append(frame)
        except WireFormatError as exc:
            self._corrupt = True
            if not frames:
                raise
            # This read completed valid frames before the corruption: hand
            # them over and re-raise the error on the next feed()/finish(),
            # so what got delivered never depends on the read chunking.
            self._deferred = exc
        if offset:
            del self._buf[:offset]
        self._frames_decoded += len(frames)
        return frames

    def finish(self) -> None:
        """Declare end-of-stream; raise if a partial frame was left behind."""
        self._raise_if_poisoned()
        if self._buf:
            raise WireFormatError(
                "stream ended mid-frame (%d buffered bytes)" % len(self._buf)
            )


class SequenceTracker:
    """Per-stream sequence-number policing: exactly-once, in-order delivery.

    The tracker accepts only the next expected sequence number (starting at
    ``first_seq``).  Anything below it is a duplicate / stale retransmission
    (:class:`DuplicateChunkError`); anything above it is a gap or reordering
    (:class:`OutOfOrderChunkError`).  Chunks carry DSP state across their
    boundaries, so a skipped or repeated chunk would silently corrupt every
    later window — rejecting at ingestion is the only safe behaviour.

    **Recovery contract**: a rejection never moves the tracker.  However many
    duplicates or out-of-order chunks were refused, :attr:`expected` is
    exactly where the last *accepted* chunk left it, so the moment the
    transport retransmits the expected chunk the stream re-synchronises as
    if the rejected chunks had never arrived (``tests/test_serving_wire.py``
    pins this).

    **Datagram mode**: lossy transports cannot retransmit, so the tracker
    also offers an explicit, forward-only recovery API.  :meth:`skip_to`
    declares everything before ``seq`` lost and moves the tracker there (the
    caller resets whatever state spanned the gap first);
    :meth:`accept_datagram` bundles the common case — stale datagrams still
    raise :class:`DuplicateChunkError`, a datagram ahead of the stream skips
    the tracker forward and reports how many units were lost.  In datagram
    mode ``seq`` carries the stream *offset* of the payload's first unit
    (e.g. the absolute sample index), and acceptance advances by the
    payload's ``span``, so a gap's size is known exactly from the jump.
    """

    def __init__(self, first_seq: int = 0) -> None:
        self._first = int(first_seq)
        self._expected = int(first_seq)

    @property
    def expected(self) -> int:
        """The only sequence number :meth:`validate` will currently accept."""
        return self._expected

    @property
    def last_seq(self) -> int | None:
        """The last accepted sequence number (``None`` before the first)."""
        return self._expected - 1 if self._expected > self._first else None

    def snapshot(self) -> tuple[int, int]:
        """The tracker's position as a picklable ``(first_seq, expected)`` pair.

        Part of a patient's migratable monitor state: a tracker revived with
        :meth:`from_snapshot` enforces exactly the same next-expected chunk,
        so a live reshard can never open a duplicate/gap window in a stream.
        """
        return (self._first, self._expected)

    @classmethod
    def from_snapshot(cls, state: tuple[int, int]) -> "SequenceTracker":
        """Revive a tracker at a snapshotted position."""
        first, expected = state
        tracker = cls(first)
        if expected < first:
            raise ValueError(
                "expected seq %d precedes first seq %d" % (expected, first)
            )
        tracker._expected = int(expected)
        return tracker

    def check(self, seq: int) -> int:
        """Classify ``seq`` like :meth:`validate` but never move the tracker.

        Lets a caller reject a chunk *before* absorbing its payload and
        commit the advancement only once absorption succeeded, so a failed
        absorb can be retried without being misread as a duplicate.
        """
        seq = int(seq)
        if seq < self._expected:
            raise DuplicateChunkError(
                "duplicate chunk seq %d (next expected %d)" % (seq, self._expected),
                seq=seq,
                expected=self._expected,
            )
        if seq > self._expected:
            raise OutOfOrderChunkError(
                "out-of-order chunk seq %d (next expected %d)" % (seq, self._expected),
                seq=seq,
                expected=self._expected,
            )
        return seq

    def validate(self, seq: int, span: int = 1) -> int:
        """Accept ``seq`` or raise; returns the accepted sequence number.

        ``span`` is how far acceptance advances the tracker: 1 for counted
        chunks (the default, and the strict-transport behaviour), or the
        payload's unit count in datagram mode, where ``seq`` is a stream
        offset rather than a chunk counter.
        """
        seq = self.check(seq)
        if span < 0:
            raise ValueError("span must be >= 0, got %d" % span)
        self._expected += int(span)
        return seq

    def skip_to(self, seq: int) -> int:
        """Declare everything before ``seq`` lost; returns the units skipped.

        Forward-only: moving the tracker backwards would re-open a window
        for duplicates, so a ``seq`` behind :attr:`expected` raises
        ``ValueError``.  The caller is responsible for resetting any state
        that spanned the gap *before* pushing post-gap data.
        """
        seq = int(seq)
        if seq < self._expected:
            raise ValueError(
                "cannot skip backwards to seq %d (next expected %d)"
                % (seq, self._expected)
            )
        skipped = seq - self._expected
        self._expected = seq
        return skipped

    def check_datagram(self, seq: int) -> int:
        """Datagram-tolerant :meth:`check`: stale raises, ahead is a gap.

        Returns the gap size in units (0 when ``seq`` is exactly the next
        expected offset) without moving the tracker; a ``seq`` behind the
        stream raises :class:`DuplicateChunkError` exactly like the strict
        mode, because late datagrams must not rewind absorbed state.
        """
        seq = int(seq)
        if seq < self._expected:
            raise DuplicateChunkError(
                "stale datagram seq %d (stream is at %d)" % (seq, self._expected),
                seq=seq,
                expected=self._expected,
            )
        return seq - self._expected

    def accept_datagram(self, seq: int, span: int) -> int:
        """Accept a datagram at stream offset ``seq`` covering ``span`` units.

        The DATAGRAM-tolerant accept mode: a stale datagram raises
        :class:`DuplicateChunkError`; one ahead of the stream skips the
        tracker to ``seq`` first.  Returns how many units were skipped (0
        for in-order delivery).  Never raises ``OutOfOrderChunkError`` —
        on a lossy transport a jump ahead *is* the loss signal.
        """
        skipped = self.check_datagram(seq)
        if skipped:
            self.skip_to(seq)
        self.validate(seq, span=span)
        return skipped
