"""Seeded benchmark inputs: rendered ECG as wire frames, and a trained model.

Everything here is the benchmark's own cost and is never timed: ECG
rendering, frame encoding, model training and the offline reference run the
correctness gate compares against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.features.extractor import extract_cohort_features
from repro.serving import MonitorFleet, WindowDecision, decision_sort_key, encode_chunk
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.windows import WindowingParams
from repro.svm.model import SVMModel, train_svm

__all__ = [
    "FS",
    "FRAME_SAMPLES",
    "Frames",
    "Reference",
    "make_frames",
    "train_model",
    "reference_run",
    "decision_key",
    "digest",
]

#: Sampling rate of the rendered ECG (Hz) and samples per wire frame (4 s).
FS = 128.0
FRAME_SAMPLES = 512
#: Offset between a workload seed and the seed of its training cohort.
TRAIN_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Frames:
    """Encoded frames in round-robin arrival order, with their routing keys."""

    frames: List[bytes]
    patient: np.ndarray
    seq: np.ndarray
    n_patients: int
    signal_s: float

    def __len__(self) -> int:
        return len(self.frames)


def make_frames(seed: int, n_patients: int, record_s: float, use_s: float) -> Frames:
    """Render one ECG session per patient and frame its first ``use_s`` s.

    Frames carry float32 payloads (what a wearable node sends) and are
    interleaved round-robin across patients, the order a server sees when
    every node transmits at the same pace.
    """
    cohort = generate_cohort(
        CohortParams(
            n_patients=n_patients,
            n_sessions=n_patients,
            session_duration_s=record_s,
            total_seizures=max(1, n_patients // 2),
            seed=seed,
            render_ecg=True,
        )
    )
    n_use = int(use_s * FS)
    streams = []
    for recording in cohort.recordings:
        samples = recording.ecg.ecg_mv[:n_use]
        pid = recording.patient_id
        streams.append(
            [
                (pid, seq, encode_chunk(pid, seq, FS, samples[lo : lo + FRAME_SAMPLES], "float32"))
                for seq, lo in enumerate(range(0, samples.size, FRAME_SAMPLES))
            ]
        )
    ordered = [item for rnd in zip(*streams) for item in rnd]
    return Frames(
        frames=[frame for _, _, frame in ordered],
        patient=np.array([pid for pid, _, _ in ordered]),
        seq=np.array([seq for _, seq, _ in ordered]),
        n_patients=n_patients,
        signal_s=n_patients * n_use / FS,
    )


def train_model(seed: int) -> SVMModel:
    """The float SVM the stack quantises: trained on a separate beat-level
    cohort, so the monitored patients are unseen."""
    cohort = generate_cohort(
        CohortParams(
            n_patients=4,
            n_sessions=4,
            session_duration_s=1800.0,
            total_seizures=8,
            seed=seed + TRAIN_SEED_OFFSET,
        )
    )
    matrix = extract_cohort_features(cohort)
    return train_svm(matrix.X, matrix.y)


def decision_key(decision: WindowDecision) -> Tuple[int, float]:
    return (decision.patient_id, decision.start_s)


def digest(decisions: Sequence[WindowDecision]) -> str:
    """SHA-256 over every decision field, scores by their exact bits."""
    h = hashlib.sha256()
    for d in sorted(decisions, key=decision_sort_key):
        score = "-" if d.score is None else float(d.score).hex()
        h.update(
            (
                "%d,%s,%s,%d,%d,%s,%d\n"
                % (
                    d.patient_id,
                    float(d.start_s).hex(),
                    float(d.end_s).hex(),
                    d.n_beats,
                    d.usable,
                    score,
                    d.alarm,
                )
            ).encode()
        )
    return h.hexdigest()


@dataclass(frozen=True)
class Reference:
    """Offline single-fleet run over the frames: the decisions, and for each
    window the index of the frame whose push completed it (-1: completed by
    the end-of-stream flush)."""

    decisions: List[WindowDecision]
    completed_by: Dict[Tuple[int, float], int]


def reference_run(classifier, windowing: WindowingParams, frames: Frames) -> Reference:
    """Push every frame into one :class:`MonitorFleet`, draining after each."""
    fleet = MonitorFleet(classifier, FS, windowing=windowing)
    decisions: List[WindowDecision] = []
    completed_by: Dict[Tuple[int, float], int] = {}
    for index, frame in enumerate(frames.frames):
        fleet.push_wire(frame)
        for decision in fleet.drain():
            completed_by[decision_key(decision)] = index
            decisions.append(decision)
    fleet.finish()
    for decision in fleet.drain():
        completed_by[decision_key(decision)] = -1
        decisions.append(decision)
    decisions.sort(key=decision_sort_key)
    return Reference(decisions=decisions, completed_by=completed_by)
