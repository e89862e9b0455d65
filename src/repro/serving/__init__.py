"""Streaming / batched inference engine for fleets of wearable monitors.

This package turns the one-shot reproduction pipeline into the *online*
monitor of Figure 1 of the paper.  The per-patient signal path mirrors the
figure stage by stage:

    raw ECG chunks
        │  :class:`repro.dsp.peaks.StreamingPeakDetector`
        │  (band-pass → derivative → square → integrate → adaptive threshold,
        │   with carry-over state across chunk boundaries)
        ▼
    R-peak / R-amplitude stream
        │  :class:`repro.signals.windows.StreamingWindower`
        │  (incremental three-minute window assembly)
        ▼
    per-window beat data
        │  :meth:`repro.features.extractor.FeatureExtractor.extract_beats`
        │  (HRV + Lorenz + AR-of-EDR + PSD-of-EDR — the 53 features)
        ▼
    feature vectors
        │  :class:`~repro.svm.model.SVMModel` /
        │  :class:`~repro.quant.quantized_model.QuantizedSVM`
        │  (quadratic-kernel decision, float or bit-accurate fixed point)
        ▼
    per-window alarm decisions

Entry points, smallest to largest deployment:

* :class:`~repro.serving.streaming.StreamingMonitor` — one patient, one
  ECG stream, chunk in / decisions out;
* :class:`~repro.serving.fleet.MonitorFleet` — many concurrent patients;
  pending windows from all monitors are classified in a *single* vectorised
  SVM call per drain, which is what lets one server keep up with a fleet of
  body sensor nodes (see ``benchmarks/test_bench_serving.py``);
* :class:`~repro.serving.sharding.ShardedFleet` — N consistent-hash-routed
  in-process fleet shards behind the same interface, decision-for-decision
  identical to a single fleet (``tests/test_serving_sharding.py``);
  resharding, autoscaling and cluster handoff move patients between them.

On top of the fleets sits the push-based front door:
:class:`~repro.serving.ingest.IngestGateway` accepts wire-format frames over
TCP (and in-process async queues), reassembles them across arbitrary socket
read boundaries with :class:`~repro.serving.wire.StreamDecoder`, absorbs
bursts in per-patient bounded queues (block / shed-oldest / reject
backpressure) and feeds the fleet through a drain task — decisions stay
identical to the synchronous loop (``tests/test_serving_ingest.py``).

*Which model* classifies each patient is a
:class:`~repro.serving.registry.ModelRegistry` decision: both fleet classes
accept either one shared classifier or a registry of per-patient tailored
design points (feature subset, SV budget, bit widths — buildable straight
from :mod:`repro.core` combined-flow :class:`~repro.core.design_point.DesignPoint`
outputs) with hot-swap epochs, and the drain stays batched by grouping
pending windows per model (``tests/test_serving_registry.py``).

Cross-cutting pieces: :mod:`repro.serving.wire` frames ECG chunks *and*
federation control messages for transport (versioned binary format with a
typed frame-kind registry, CRC, per-patient sequence numbers) and
:mod:`repro.serving.scheduler` decides *when* fleets classify their queued
windows (chunk-count, queue-size or latency-triggered
:class:`~repro.serving.scheduler.DrainPolicy` objects).

Above the single host, :class:`~repro.serving.cluster.GatewayCluster`
federates many gateways behind one consistent-hash ring: patients migrate
between nodes over the HANDOFF/STATE/ACK control frames (ACK-before-forget:
a mid-handoff crash leaves exactly one owner), dead nodes' patients revive
from checkpoints plus a write-ahead log, and the
:class:`~repro.serving.cluster.ClusterStats` ledger proves every received
frame is accounted on exactly one host (``tests/test_serving_cluster.py``).
"""

from repro.serving.streaming import (
    MONITOR_STATE_VERSION,
    GapStats,
    MonitorState,
    PendingWindow,
    StreamingMonitor,
    WindowDecision,
    classify_windows,
)
from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleController,
    AutoscaleDecision,
    Cusum,
    Ewma,
)
from repro.serving.cluster import ClusterStats, GatewayCluster, HandoffError
from repro.serving.fleet import MonitorFleet, decision_sort_key
from repro.serving.ingest import (
    BACKPRESSURE_POLICIES,
    BackpressureError,
    GatewayStats,
    IngestGateway,
)
from repro.serving.scheduler import (
    AnyOf,
    ChunkCountPolicy,
    DrainPolicy,
    DrainStats,
    LatencyPolicy,
    PendingWindowPolicy,
)
from repro.serving.registry import (
    InferenceBackend,
    ModelRegistry,
    backend_from_design_point,
    backend_label,
    classify_grouped,
)
from repro.serving.sharding import HashRing, ShardDrainError, ShardedFleet, TopologyPlan
from repro.serving.wire import (
    ACK_IMPORT_FAILED,
    ACK_OK,
    ACK_VERSION_MISMATCH,
    FRAME_KINDS,
    AckFrame,
    DuplicateChunkError,
    EcgChunk,
    Frame,
    HandoffFrame,
    OutOfOrderChunkError,
    SequenceError,
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

__all__ = [
    "MONITOR_STATE_VERSION",
    "GapStats",
    "MonitorState",
    "PendingWindow",
    "WindowDecision",
    "StreamingMonitor",
    "MonitorFleet",
    "ShardedFleet",
    "ShardDrainError",
    "HashRing",
    "TopologyPlan",
    "GatewayCluster",
    "ClusterStats",
    "HandoffError",
    "classify_windows",
    "classify_grouped",
    "decision_sort_key",
    "InferenceBackend",
    "ModelRegistry",
    "backend_from_design_point",
    "backend_label",
    "DrainPolicy",
    "DrainStats",
    "ChunkCountPolicy",
    "PendingWindowPolicy",
    "LatencyPolicy",
    "AnyOf",
    "AutoscaleController",
    "AutoscaleConfig",
    "AutoscaleDecision",
    "Ewma",
    "Cusum",
    "IngestGateway",
    "GatewayStats",
    "BackpressureError",
    "BACKPRESSURE_POLICIES",
    "EcgChunk",
    "Frame",
    "HandoffFrame",
    "StateFrame",
    "AckFrame",
    "FRAME_KINDS",
    "ACK_OK",
    "ACK_VERSION_MISMATCH",
    "ACK_IMPORT_FAILED",
    "encode_chunk",
    "decode_chunk",
    "encode_frame",
    "decode_frame",
    "encode_handoff",
    "encode_state",
    "encode_ack",
    "iter_chunks",
    "iter_frames",
    "StreamDecoder",
    "SequenceTracker",
    "SequenceError",
    "DuplicateChunkError",
    "OutOfOrderChunkError",
    "WireFormatError",
]
