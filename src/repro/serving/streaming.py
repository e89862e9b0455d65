"""Single-patient streaming monitor: ECG chunks in, window decisions out.

:class:`StreamingMonitor` chains the incremental R-peak detector, the
incremental windower and the per-window feature extractor.  It deliberately
*separates* feature extraction from classification: :meth:`StreamingMonitor.push`
returns :class:`PendingWindow` objects (feature vectors awaiting a verdict) so
that a :class:`~repro.serving.fleet.MonitorFleet` can pool pending windows from
many patients into one batched SVM call.  For standalone use,
:meth:`StreamingMonitor.process` classifies each batch of pending windows
immediately with the monitor's own classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.peaks import PanTompkinsParams, PeakDetectorState, StreamingPeakDetector
from repro.features.extractor import FeatureExtractor
from repro.serving.wire import SequenceTracker
from repro.signals.windows import StreamingWindower, WindowerState, WindowingParams

__all__ = [
    "MONITOR_STATE_VERSION",
    "GapStats",
    "MonitorState",
    "PendingWindow",
    "WindowDecision",
    "StreamingMonitor",
    "classify_windows",
]

#: Version stamp of :class:`MonitorState`; bumped on any incompatible change
#: to the snapshot layout, so a restore can never silently misread a state
#: produced by a different serving build.  Version 2: the ring-buffer
#: windower added ``WindowerState.base_beat_index``.  Version 3: the lossy
#: transport mode added ``MonitorState.n_gaps`` / ``windows_lost`` and
#: ``PeakDetectorState.seed_from``.
MONITOR_STATE_VERSION = 3


@dataclass(frozen=True)
class GapStats:
    """Aggregated gap accounting of one or more lossy monitors.

    Returned by ``MonitorFleet.gap_stats()`` / ``ShardedFleet.gap_stats()``
    and folded into :class:`~repro.serving.ingest.GatewayStats` when the
    gateway runs in lossy mode.
    """

    #: Sequence gaps detected (each one a ``StreamingMonitor.note_gap``).
    gaps: int = 0
    #: Grid windows abandoned because they would have spanned a gap.
    windows_reset: int = 0

    def __add__(self, other: "GapStats") -> "GapStats":
        return GapStats(
            gaps=self.gaps + other.gaps,
            windows_reset=self.windows_reset + other.windows_reset,
        )


@dataclass(frozen=True)
class PendingWindow:
    """A completed analysis window waiting for a classifier verdict."""

    patient_id: int
    start_s: float
    end_s: float
    n_beats: int
    #: The 53-entry feature vector, or ``None`` when the window was unusable
    #: (too few beats, degenerate EDR segment, non-finite feature).
    features: Optional[np.ndarray]

    @property
    def usable(self) -> bool:
        return self.features is not None


@dataclass(frozen=True)
class WindowDecision:
    """Alarm decision for one analysis window of one patient."""

    patient_id: int
    start_s: float
    end_s: float
    n_beats: int
    usable: bool
    #: Decision-function score (``None`` for unusable windows).
    score: Optional[float]
    #: ``True`` when the window was classified as seizure (+1).
    alarm: bool


def _pending_equal(a: Sequence[PendingWindow], b: Sequence[PendingWindow]) -> bool:
    if len(a) != len(b):
        return False
    for wa, wb in zip(a, b):
        if (
            wa.patient_id != wb.patient_id
            or wa.start_s != wb.start_s
            or wa.end_s != wb.end_s
            or wa.n_beats != wb.n_beats
            or wa.usable != wb.usable
        ):
            return False
        if wa.usable and not np.array_equal(wa.features, wb.features):
            return False
    return True


@dataclass(frozen=True, eq=False)
class MonitorState:
    """Versioned, picklable snapshot of one patient's full serving state.

    This is the unit of live migration: everything that must follow a
    patient when their monitor moves between fleet shards (or hosts) —

    * the :class:`~repro.dsp.peaks.StreamingPeakDetector` carry-over
      (:class:`~repro.dsp.peaks.PeakDetectorState`),
    * the :class:`~repro.signals.windows.StreamingWindower` partial buffers
      (:class:`~repro.signals.windows.WindowerState`),
    * the :class:`~repro.serving.wire.SequenceTracker` position, and
    * the already-featurised :class:`PendingWindow` queue entries awaiting a
      classifier verdict (filled in by
      :meth:`~repro.serving.fleet.MonitorFleet.export_patient`; empty on a
      bare :meth:`StreamingMonitor.snapshot`).

    ``detector`` / ``windower`` / ``sequence`` are ``None`` for a patient
    known only through enqueued windows (no live monitor).  The state is a
    plain pickle-friendly value object, so a cluster handoff ships it
    between gateways inside a ``STATE`` frame unchanged
    (:mod:`repro.serving.cluster`).
    """

    version: int
    patient_id: int
    fs: float
    detector: Optional[PeakDetectorState]
    windower: Optional[WindowerState]
    sequence: Optional[Tuple[int, int]]
    n_windows: int
    n_usable: int
    pending: Tuple[PendingWindow, ...] = ()
    #: Lossy-mode gap accounting (both stay 0 on strict transports): gaps the
    #: monitor absorbed via ``note_gap`` and grid windows those resets
    #: abandoned.  Part of the snapshot so a migrated patient's gap history
    #: follows them.
    n_gaps: int = 0
    windows_lost: int = 0

    @property
    def has_monitor(self) -> bool:
        """Whether the state carries live DSP state (vs pending-only)."""
        return self.detector is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonitorState):
            return NotImplemented
        return (
            self.version == other.version
            and self.patient_id == other.patient_id
            and self.fs == other.fs
            and self.detector == other.detector
            and self.windower == other.windower
            and self.sequence == other.sequence
            and self.n_windows == other.n_windows
            and self.n_usable == other.n_usable
            and _pending_equal(self.pending, other.pending)
            and self.n_gaps == other.n_gaps
            and self.windows_lost == other.windows_lost
        )


def classify_windows(classifier, pending: Sequence[PendingWindow]) -> List[WindowDecision]:
    """Classify a batch of pending windows with one vectorised SVM call.

    ``classifier`` is anything with the ``decision_function`` / ``predict``
    pair of :class:`~repro.svm.model.SVMModel` and
    :class:`~repro.quant.quantized_model.QuantizedSVM`.  All usable windows
    are stacked into a single feature matrix; labels come from one batched
    ``predict`` call, so on the fixed-point model they are bit-identical to a
    per-window loop.  Unusable windows yield ``alarm=False`` decisions.
    """
    usable = [i for i, window in enumerate(pending) if window.usable]
    decisions: List[Optional[WindowDecision]] = [None] * len(pending)
    if usable:
        # One preallocated batch matrix filled row by row (the feature
        # vectors are scattered across PendingWindow objects, so a copy is
        # unavoidable — but np.vstack would build the same copy *plus* a
        # temporary tuple of row views).
        first = np.asarray(pending[usable[0]].features)
        X = np.empty((len(usable), first.shape[0]), dtype=first.dtype)
        for row, i in enumerate(usable):
            X[row] = pending[i].features
        if hasattr(classifier, "scores_and_labels"):
            scores, labels = classifier.scores_and_labels(X)
        else:
            scores = np.asarray(classifier.decision_function(X), dtype=float)
            labels = np.asarray(classifier.predict(X), dtype=int)
        scores = np.asarray(scores, dtype=float)
        labels = np.asarray(labels, dtype=int)
        for row, i in enumerate(usable):
            window = pending[i]
            decisions[i] = WindowDecision(
                patient_id=window.patient_id,
                start_s=window.start_s,
                end_s=window.end_s,
                n_beats=window.n_beats,
                usable=True,
                score=float(scores[row]),
                alarm=bool(labels[row] == 1),
            )
    for i, window in enumerate(pending):
        if decisions[i] is None:
            decisions[i] = WindowDecision(
                patient_id=window.patient_id,
                start_s=window.start_s,
                end_s=window.end_s,
                n_beats=window.n_beats,
                usable=False,
                score=None,
                alarm=False,
            )
    return [d for d in decisions if d is not None]


class StreamingMonitor:
    """Online monitor for one patient's raw ECG stream.

    Parameters
    ----------
    patient_id:
        Identifier attached to every emitted window.
    fs:
        Sampling frequency of the incoming ECG chunks (Hz).
    classifier:
        Optional :class:`~repro.svm.model.SVMModel` or
        :class:`~repro.quant.quantized_model.QuantizedSVM`; only needed for
        the standalone :meth:`process` path (a fleet supplies its own).
    windowing:
        Window grid configuration (three-minute non-overlapping by default).
    detector_params:
        Pan–Tompkins tuning of the streaming R-peak detector.
    feature_cache:
        Enable the overlap-aware per-beat partial cache of the feature
        extractor (bit-identical either way; the flag exists so parity can
        be asserted and the cache disabled in A/B comparisons).
    lossy:
        Datagram-transport mode.  ``seq`` becomes the *absolute sample
        offset* of the chunk's first sample (not a chunk counter): a jump
        ahead of the stream position is read as frame loss and absorbed via
        :meth:`note_gap` instead of raising
        :class:`~repro.serving.wire.OutOfOrderChunkError`; a stale chunk
        still raises :class:`~repro.serving.wire.DuplicateChunkError`.
    """

    #: Not captured by :meth:`snapshot`, and pinned so by the
    #: ``snapshot-completeness`` rule of :mod:`repro.analysis`: the classifier
    #: is fleet-owned (a migrated patient is classified by the *destination*
    #: fleet's registry), the feature extractor (with the ``feature_cache``
    #: flag that configures it) carries pure cache state — a revived monitor
    #: rebuilds an empty cache and reseeds it from the first window it emits,
    #: bit-identically — and ``lossy`` is transport configuration owned by
    #: the fleet (a whole fleet is lossy or strict, never patient by
    #: patient), reapplied by ``from_snapshot``.
    _SNAPSHOT_EXCLUDE = ("classifier", "_extractor", "feature_cache", "lossy")

    def __init__(
        self,
        patient_id: int,
        fs: float,
        classifier=None,
        windowing: WindowingParams | None = None,
        detector_params: PanTompkinsParams | None = None,
        feature_cache: bool = True,
        lossy: bool = False,
    ) -> None:
        self.patient_id = int(patient_id)
        self.fs = float(fs)
        self.classifier = classifier
        self.feature_cache = bool(feature_cache)
        self.lossy = bool(lossy)
        self._detector = StreamingPeakDetector(self.fs, detector_params)
        self._windower = StreamingWindower(windowing)
        self._extractor = FeatureExtractor(feature_cache=self.feature_cache)
        self._sequence = SequenceTracker()
        self._n_windows = 0
        self._n_usable = 0
        self._n_gaps = 0
        self._windows_lost = 0

    @property
    def time_seen_s(self) -> float:
        """Stream time corresponding to the last pushed sample."""
        return self._detector.time_seen_s

    @property
    def n_windows(self) -> int:
        """Number of windows emitted so far (usable or not)."""
        return self._n_windows

    @property
    def n_usable_windows(self) -> int:
        return self._n_usable

    @property
    def last_seq(self) -> Optional[int]:
        """Sequence number of the last chunk accepted with an explicit ``seq``."""
        return self._sequence.last_seq

    @property
    def n_gaps(self) -> int:
        """Sequence gaps absorbed so far (always 0 on a strict transport)."""
        return self._n_gaps

    @property
    def windows_reset_by_gap(self) -> int:
        """Grid windows abandoned because they would have spanned a gap."""
        return self._windows_lost

    def snapshot(self) -> MonitorState:
        """Capture the monitor's complete per-patient state.

        The snapshot is a self-contained, picklable :class:`MonitorState`
        (DSP carry-over, partial windows, sequence position, window
        counters) that owns copies of every mutable buffer — the monitor
        keeps streaming without invalidating it.  ``pending`` is empty here:
        completed windows live on the owning fleet's queue and are attached
        by :meth:`MonitorFleet.export_patient
        <repro.serving.fleet.MonitorFleet.export_patient>`.
        """
        return MonitorState(
            version=MONITOR_STATE_VERSION,
            patient_id=self.patient_id,
            fs=self.fs,
            detector=self._detector.snapshot(),
            windower=self._windower.snapshot(),
            sequence=self._sequence.snapshot(),
            n_windows=self._n_windows,
            n_usable=self._n_usable,
            n_gaps=self._n_gaps,
            windows_lost=self._windows_lost,
        )

    @classmethod
    def from_snapshot(
        cls,
        state: MonitorState,
        classifier=None,
        feature_cache: bool = True,
        lossy: bool = False,
    ) -> "StreamingMonitor":
        """Revive a monitor from a :class:`MonitorState`, mid-stream.

        The revived monitor is behaviourally indistinguishable from the one
        that was snapshotted: for any continuation of the chunk stream it
        emits bit-identical windows and enforces the same next-expected
        sequence number.  Raises :class:`ValueError` on a version mismatch
        or a pending-only state (no DSP state to revive).
        """
        if state.version != MONITOR_STATE_VERSION:
            raise ValueError(
                "monitor state version %d is not the supported version %d"
                % (state.version, MONITOR_STATE_VERSION)
            )
        if state.detector is None or state.windower is None or state.sequence is None:
            raise ValueError(
                "state of patient %d carries no monitor DSP state" % state.patient_id
            )
        monitor = cls(
            state.patient_id,
            state.fs,
            classifier=classifier,
            windowing=state.windower.params,
            detector_params=state.detector.params,
            feature_cache=feature_cache,
            lossy=lossy,
        )
        monitor._detector = StreamingPeakDetector.from_snapshot(state.detector)
        monitor._windower = StreamingWindower.from_snapshot(state.windower)
        monitor._sequence = SequenceTracker.from_snapshot(state.sequence)
        monitor._n_windows = int(state.n_windows)
        monitor._n_usable = int(state.n_usable)
        monitor._n_gaps = int(state.n_gaps)
        monitor._windows_lost = int(state.windows_lost)
        return monitor

    def push(self, chunk: np.ndarray, seq: int | None = None) -> List[PendingWindow]:
        """Consume one chunk of raw ECG; return newly completed windows.

        When ``seq`` is given, delivery order is policed *before* any sample
        touches the DSP state, but the tracker advances only once the chunk's
        samples are absorbed (commit-on-success): a push that failed before
        absorbing anything can simply be retried with the same ``seq``
        without being misread as a duplicate.

        On a strict transport ``seq`` is a per-patient chunk counter starting
        at 0 (see :mod:`repro.serving.wire`): a repeated sequence number
        raises :class:`~repro.serving.wire.DuplicateChunkError` and a skipped
        or reordered one raises
        :class:`~repro.serving.wire.OutOfOrderChunkError`, leaving the
        monitor's carry-over state untouched.

        In ``lossy`` mode ``seq`` is the absolute sample offset of
        ``chunk[0]``: a stale chunk still raises
        :class:`~repro.serving.wire.DuplicateChunkError`, but a jump ahead is
        frame loss — the gap is absorbed via :meth:`note_gap` (DSP reset, no
        emitted window ever spans the missing samples) and the chunk is then
        processed normally.  Every lossy push must carry a ``seq``; the gap
        arithmetic is what keeps the monitor's clock aligned with the true
        stream.
        """
        span = 0
        if seq is not None:
            seq = int(seq)
            if self.lossy:
                span = int(np.asarray(chunk).size)
                if self._sequence.check_datagram(seq):
                    self.note_gap(seq)
            else:
                self._sequence.check(seq)
        indices, times, amplitudes = self._detector.process(chunk)
        # The absorption point: only now may the tracker move (by the
        # chunk's sample span in datagram mode, by one chunk otherwise).
        if seq is not None:
            self._sequence.validate(seq, span=span if self.lossy else 1)
        completed = self._windower.push(times, amplitudes)
        completed += self._windower.advance(self._detector.finalized_time_s)
        return self._featurize(completed)

    def note_gap(self, resume_sample: int) -> int:
        """Absorb a sequence gap: samples up to ``resume_sample`` are lost.

        Declares everything between the stream position and the absolute
        sample index ``resume_sample`` missing, then resets every piece of
        state that could otherwise leak across the gap:

        * the sequence tracker skips forward (:meth:`SequenceTracker.skip_to
          <repro.serving.wire.SequenceTracker.skip_to>`),
        * the peak detector drops its carry-over buffer, unfinalised tail and
          adaptive level and resumes segment-fresh at ``resume_sample``
          (absolute beat indices stay monotone),
        * the windower abandons its partial windows and restarts the window
          grid at the first *original-grid* start past the resume point plus
          the detector's warm-up guard — so the first post-gap window only
          covers samples whose detection no longer depends on the gap, and
          its start lands exactly where a lossless run would have put a
          window.  The absolute beat index keeps counting past the dropped
          beats, so the downstream ``BeatPartialCache`` reseeds instead of
          aliasing pre-gap beats with post-gap ones.

        Returns the number of grid windows abandoned (also accumulated in
        :attr:`windows_reset_by_gap`).  Raises ``ValueError`` when
        ``resume_sample`` is behind the stream, and ``RuntimeError`` on a
        strict-transport monitor, where seqs do not measure samples.
        """
        if not self.lossy:
            raise RuntimeError(
                "note_gap is only meaningful in lossy mode, where seq numbers"
                " are sample offsets"
            )
        resume = int(resume_sample)
        self._sequence.skip_to(resume)
        self._detector.resume_at(resume)
        target = resume / self.fs + self._detector.warmup_s
        step = self._windower.params.step_s
        # Walk the grid forward by repeated addition — the same accumulation
        # the windower performs on emission — so post-gap window starts are
        # bit-identical to the lossless run's grid.
        new_start = self._windower.window_start_s
        while new_start < target:
            new_start += step
        lost = self._windower.reset(new_start)
        self._n_gaps += 1
        self._windows_lost += lost
        return lost

    def finish(self) -> List[PendingWindow]:
        """Flush the detector and windower at end of stream."""
        indices, times, amplitudes = self._detector.flush()
        completed = self._windower.push(times, amplitudes, now_s=self._detector.time_seen_s)
        completed += self._windower.flush()
        return self._featurize(completed)

    def process(self, chunk: np.ndarray) -> List[WindowDecision]:
        """Push a chunk and classify the completed windows immediately."""
        if self.classifier is None:
            raise ValueError("this monitor has no classifier; use push() with a fleet")
        return classify_windows(self.classifier, self.push(chunk))

    def finish_and_classify(self) -> List[WindowDecision]:
        """Flush the stream and classify the remaining windows."""
        if self.classifier is None:
            raise ValueError("this monitor has no classifier; use finish() with a fleet")
        return classify_windows(self.classifier, self.finish())

    # ------------------------------------------------------------- internals
    def _featurize(self, windows) -> List[PendingWindow]:
        min_beats = self._windower.params.min_beats
        pending: List[PendingWindow] = []
        for window in windows:
            features: Optional[np.ndarray] = None
            if window.n_beats >= min_beats:
                try:
                    features = self._extractor.extract_beat_window(window)
                except ValueError:
                    features = None
            self._n_windows += 1
            if features is not None:
                self._n_usable += 1
            pending.append(
                PendingWindow(
                    patient_id=self.patient_id,
                    start_s=window.start_s,
                    end_s=window.end_s,
                    n_beats=window.n_beats,
                    features=features,
                )
            )
        return pending
