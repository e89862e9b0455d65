"""Per-layer metrics from traced passes.

A pass is traced by wrapping the layer boundaries listed in
:func:`pipebench.workloads.layer_targets`; this module turns the recorded
spans (plus the benchmark loop's own per-frame and per-drain timestamps) into the
per-layer rows printed with ``--trace 1``.  Times are totals over every
traced pass divided by the matching total work, so several short passes
read like one long one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from pipebench.spans import Tracer, self_times
from pipebench.stats import percentile

__all__ = ["PER_LAYER", "TracedPass", "layer_metrics"]

FAMILIES = ("hrv", "lorenz", "edr", "ar", "psd")

#: Every per-layer metric, with its unit, in print order.
PER_LAYER = {
    "wire.decode_us_per_frame": "us",
    "peaks.ms_per_signal_hour": "ms",
    "peaks.share": "frac",
    "peaks.beats": "count",
    "windows.ms_per_signal_hour": "ms",
    "windows.share": "frac",
    "windows.emitted": "count",
    "features.ms_per_window": "ms",
    "features.share": "frac",
    **{"features.%s.ms_per_window" % family: "ms" for family in FAMILIES},
    "features.unusable_frac": "frac",
    "features.cache.hit_frac": "frac",
    "features.cache.ms_per_window": "ms",
    "classify.us_per_window": "us",
    "classify.windows_per_drain": "count",
    "classify.share": "frac",
    "fleet.self_ms_per_signal_hour": "ms",
    "fleet.pending_age_ms.p99": "ms",
    "fleet.drains": "count",
    "ingest.queue_wait_ms.p50": "ms",
    "ingest.queue_wait_ms.p99": "ms",
    "ingest.max_queue_depth": "count",
    "ingest.busy_frac": "frac",
    "sharding.dispatch_us_per_frame": "us",
    "sharding.merge_ms_per_drain": "ms",
    "sharding.skew": "ratio",
    "sharding.scaleout_ratio": "ratio",
    "loadgen.lag_ms.p99": "ms",
    "failed_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}


@dataclass
class TracedPass:
    """The spans of one traced pass and the work it did."""

    tracer: Tracer
    wall_s: float
    n_frames: int
    signal_s: float
    n_windows: int
    n_unusable: int
    #: Milliseconds each emitted window waited in the fleet queue.
    pending_age_ms: List[float] = field(default_factory=list)


def _sum_by_name(names: Sequence[str], values: Sequence[float]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name, value in zip(names, values):
        out[name] += value
    return out


def layer_metrics(passes: Sequence[TracedPass]) -> Dict[str, float]:
    """Cost, count and share rows of every layer, over all ``passes``.

    Rows of layers a workload does not exercise read 0 (for instance every
    ``sharding.*`` row outside the sharded workload); wait, queue and
    cross-workload rows (``ingest.*``, ``loadgen.*``, ``sharding.skew`` /
    ``scaleout_ratio``, ``trace.overhead_frac``, ``failed_frac``) are
    filled in by ``run.py``, which owns those measurements.
    """
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    notes: Dict[str, int] = defaultdict(int)
    caches = {}
    classify_batches = 0
    merge_drains = 0
    merge_self = 0.0
    top_level = 0.0
    wall = frames = signal_s = windows = unusable = 0.0
    pending: List[float] = []
    for p in passes:
        tr = p.tracer
        durations = [end - start for start, end in zip(tr.starts, tr.ends)]
        self_t = self_times(tr)
        for name, value in _sum_by_name(tr.names, durations).items():
            total[name] += value
        for name, value in _sum_by_name(tr.names, self_t).items():
            own[name] += value
        kids = tr.children()
        for index, name in enumerate(tr.names):
            calls[name] += 1
            note = tr.notes[index]
            if name == "features.cache":
                caches[id(note)] = note
            elif isinstance(note, int):
                notes[name] += note
            if name == "classify" and note:
                classify_batches += 1
            if name in ("sharding.drain", "sharding.maybe_drain") and any(
                tr.names[k] == "fleet.drain" for k in kids[index]
            ):
                merge_drains += 1
                merge_self += self_t[index]
            if tr.parents[index] < 0:
                top_level += durations[index]
        wall += p.wall_s
        frames += p.n_frames
        signal_s += p.signal_s
        windows += p.n_windows
        unusable += p.n_unusable
        pending.extend(p.pending_age_ms)
    n_passes = max(len(passes), 1)
    hours = signal_s / 3600.0
    per_window = 1.0 / windows if windows else 0.0
    hits = sum(cache.hits for cache in caches.values())
    fleet_self = own["fleet.push_wire"] + own["fleet.push"] + own["fleet.finish"]
    out = {
        "wire.decode_us_per_frame": 1e6 * total["wire.decode"] / frames,
        "peaks.ms_per_signal_hour": 1e3 * total["peaks"] / hours,
        "peaks.share": total["peaks"] / wall,
        "peaks.beats": notes["peaks"] / n_passes,
        "windows.ms_per_signal_hour": 1e3 * total["windows"] / hours,
        "windows.share": total["windows"] / wall,
        "windows.emitted": notes["windows"] / n_passes,
        "features.ms_per_window": 1e3 * total["features"] * per_window,
        "features.share": total["features"] / wall,
        "features.unusable_frac": unusable * per_window,
        "features.cache.hit_frac": (
            hits / calls["features.cache"] if calls["features.cache"] else 0.0
        ),
        "features.cache.ms_per_window": 1e3 * total["features.cache"] * per_window,
        "classify.us_per_window": 1e6 * total["classify"] * per_window,
        "classify.windows_per_drain": (
            notes["classify"] / classify_batches if classify_batches else 0.0
        ),
        "classify.share": total["classify"] / wall,
        "fleet.self_ms_per_signal_hour": 1e3 * fleet_self / hours,
        "fleet.pending_age_ms.p99": percentile(pending, 99) if pending else 0.0,
        "fleet.drains": classify_batches / n_passes,
        "sharding.dispatch_us_per_frame": 1e6
        * (own["sharding.push_wire"] + own["sharding.push"])
        / frames,
        "sharding.merge_ms_per_drain": 1e3 * merge_self / merge_drains if merge_drains else 0.0,
        "trace.accounted_frac": top_level / wall,
    }
    for family in FAMILIES:
        out["features.%s.ms_per_window" % family] = (
            1e3 * total["features." + family] * per_window
        )
    return out
