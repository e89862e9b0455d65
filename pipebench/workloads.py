"""The four workloads, the stacks they drive and the layer boundaries traced.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``pipebench/README.md``; the short version is that each one puts a different
layer of the monitor on the blocking path, so a change to one layer shows
on one workload and, predictably, not on another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dsp.peaks import StreamingPeakDetector
from repro.features import extractor as extractor_module
from repro.features.cache import BeatPartialCache
from repro.features.extractor import FeatureExtractor
from repro.quant.quantized_model import QuantizationConfig, QuantizedSVM
from repro.serving import AnyOf, ChunkCountPolicy, MonitorFleet, PendingWindowPolicy, ShardedFleet
from repro.serving import fleet as fleet_module
from repro.serving import sharding as sharding_module
from repro.serving.wire import StreamDecoder
from repro.signals.windows import StreamingWindower, WindowingParams
from repro.svm.model import SVMModel

from pipebench.inputs import FS, make_frames, reference_run, train_model
from pipebench.spans import Target

__all__ = ["Spec", "WORKLOADS", "PAPER_CONFIG", "build_fleet", "layer_targets", "prepare_inputs"]

#: The paper's fixed-point design point: 9-bit features, 15-bit coefficients.
PAPER_CONFIG = QuantizationConfig(feature_bits=9, coeff_bits=15)


@dataclass(frozen=True)
class Spec:
    """One workload: its inputs, its window grid and how it is driven."""

    name: str
    patients: int
    #: Length of the rendered session and of the leading part sent as frames.
    record_s: float
    use_s: float
    window_s: float
    step_s: float
    min_beats: int
    #: ``"closed"``: the benchmark pushes the next frame when the last returns.
    #: ``"open"``: a generator process sends frames on a fixed schedule.
    loop: str
    #: Shard count of the ``ShardedFleet`` whose passes a traced run
    #: interleaves with the workload's own for the ``sharding.*`` rows
    #: (0: none).
    ab_shards: int = 0

    @property
    def windowing(self) -> WindowingParams:
        return WindowingParams(
            window_s=self.window_s, step_s=self.step_s, min_beats=self.min_beats
        )


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("detect-heavy", 8, 1000.0, 1000.0, 180.0, 180.0, 60, "closed"),
        Spec("feature-heavy", 8, 1000.0, 1000.0, 60.0, 5.0, 40, "closed", ab_shards=2),
        Spec("gateway-open", 32, 1000.0, 560.0, 60.0, 15.0, 40, "open"),
    )
}


def closed_policy() -> AnyOf:
    """Batched drains of the closed-loop workloads."""
    return AnyOf([PendingWindowPolicy(64), ChunkCountPolicy(256)])


def build_fleet(model: SVMModel, spec: Spec, drain_policy=None, shards: int = 0):
    """Trained model -> fleet ready for its first frame (timed as set-up).

    ``shards`` > 0 builds a ``ShardedFleet`` of that many shards at its
    *default* executor backend instead of one ``MonitorFleet``.
    """
    classifier = QuantizedSVM(model, PAPER_CONFIG)
    if shards:
        return ShardedFleet(
            classifier, FS, n_shards=shards, windowing=spec.windowing, drain_policy=drain_policy
        )
    return MonitorFleet(classifier, FS, windowing=spec.windowing, drain_policy=drain_policy)


def prepare_inputs(seed: int, workload: str):
    """A workload's frames, trained model and offline reference run."""
    spec = WORKLOADS[workload]
    frames = make_frames(seed, spec.patients, spec.record_s, spec.use_s)
    model = train_model(seed)
    ref = reference_run(QuantizedSVM(model, PAPER_CONFIG), spec.windowing, frames)
    return frames, model, ref


def _count(_args, _kwargs, result) -> int:
    return len(result)


def _beats(_args, _kwargs, result) -> int:
    return len(result[0])


def _frame_key(args, kwargs, _result) -> tuple:
    # MonitorFleet.push(self, patient_id, chunk, seq=None)
    seq = args[3] if len(args) > 3 else kwargs.get("seq")
    return (int(args[1]), None if seq is None else int(seq))


def _receiver(args, _kwargs, _result):
    return args[0]


def layer_targets() -> List[Target]:
    """Every traced layer boundary; span names are the stage vocabulary."""
    targets = [
        Target(fleet_module, "decode_chunk_checked", "wire.decode"),
        Target(sharding_module, "decode_chunk_checked", "wire.decode"),
        Target(StreamDecoder, "feed", "wire.decode", _count),
        Target(StreamingPeakDetector, "process", "peaks", _beats),
        Target(StreamingPeakDetector, "flush", "peaks", _beats),
        Target(StreamingWindower, "push", "windows", _count),
        Target(StreamingWindower, "advance", "windows", _count),
        Target(StreamingWindower, "flush", "windows", _count),
        Target(FeatureExtractor, "extract_beat_window", "features"),
        Target(BeatPartialCache, "partials_for", "features.cache", _receiver),
        Target(fleet_module, "classify_grouped", "classify", _count),
        Target(MonitorFleet, "push_wire", "fleet.push_wire"),
        Target(MonitorFleet, "push", "fleet.push", _frame_key),
        Target(MonitorFleet, "finish", "fleet.finish"),
        Target(MonitorFleet, "drain", "fleet.drain", _count),
        Target(MonitorFleet, "maybe_drain", "fleet.maybe_drain", _count),
        Target(ShardedFleet, "push_wire", "sharding.push_wire"),
        Target(ShardedFleet, "push", "sharding.push"),
        Target(ShardedFleet, "finish", "sharding.finish"),
        Target(ShardedFleet, "drain", "sharding.drain", _count),
        Target(ShardedFleet, "maybe_drain", "sharding.maybe_drain", _count),
    ]
    for family, function in (
        ("hrv", "hrv_features"),
        ("lorenz", "lorenz_features"),
        ("edr", "edr_series_from_amplitudes"),
        ("ar", "ar_features"),
        ("psd", "psd_features"),
    ):
        targets.append(Target(extractor_module, function, "features." + family))
    return targets
