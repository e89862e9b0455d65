#!/usr/bin/env python3
"""Whole-pipe benchmark: seeded ECG frames in, window decisions out.

Usage (from the repository root)::

    python3 pipebench/run.py --workload feature-heavy --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` interleaves untraced passes with traced ones and prints the
per-layer breakdown.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  A failed
correctness check exits non-zero.  See ``pipebench/README.md``.
"""

import os

# One thread per BLAS/OpenMP pool, set before NumPy loads: the stack's
# small-matrix work gains nothing from the pools, and a pool sized to a big
# host's cores would make the numbers depend on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD = Path(__file__).resolve().parent / "record.json"
SPANS_DIR = ROOT / ".pipebench"

#: End-to-end metrics and their units, in print order.
END_TO_END = {
    "realtime_factor": "x",
    "windows_per_s": "1/s",
    "decision_latency_p50_ms": "ms",
    "decision_latency_p99_ms": "ms",
    "sustainable_rate_fps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Stack set-ups timed after each closed-loop pass and after each open-loop
#: rung.  Spread over the run like the passes, they see the same host.
#: ``setup_s`` is the fastest: whole groups of set-ups ran at 3 ms or at
#: 6 ms as the host sped up and slowed down, so their median flipped
#: between the two from run to run.
SETUPS_PER_PASS = 5
SETUPS_PER_RUNG = 15
#: Frames of the discarded warm-up flood of the open-loop workload.
WARMUP_FRAMES = 1200
#: Open-loop frame-rate ladder (frames/s): 10% steps from about 250 to
#: 8700 frames/s.  Steps this fine keep the sustainable rate, interpolated
#: between two neighbouring rungs, from amplifying the host's speed changes.
LADDER_FPS = tuple(round(500 * 1.1**k) for k in range(-7, 31))
#: Rung the ladder search starts from, about 0.7 of the seed state's
#: capacity, so that the search takes about five rungs.
LADDER_START_FPS = 1072
#: Rate of the reference rungs that give the latency figures, about a sixth
#: of the seed state's capacity.  In the host's slow spells the stack at
#: twice this rate fell behind, and the p99 of a rung read either about
#: 105 ms or 140-280 ms; at this rate it stayed within 105-140 ms.
REFERENCE_FPS = 250
#: Reference rungs of an untraced run: one before the ladder, one after it.
#: The latency figures are those of the rung with the lower p99: a stall of
#: the shared host sets the p99 of the rung it falls in.
REFERENCE_RUNS = 2
#: A rung that misses the latency limit by less than this factor gets a
#: second try: a stall of the shared host can fail a rung the stack
#: sustains, but it does not multiply the latency.
RETRY_WITHIN = 2.0


class Gate:
    """Collects correctness failures; any failure fails the run."""

    def __init__(self) -> None:
        self.failures = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print("CORRECTNESS FAILURE: %s" % message, file=sys.stderr)

    @property
    def ok(self) -> bool:
        return not self.failures


def _import_program():
    """Put the checkout's ``src`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("pipebench: no program at %s (run from a full checkout)" % SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit("pipebench: imported repro from %s, not %s" % (repro.__file__, SRC))


def _median(values):
    return float(statistics.median(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_setups(timed_set_up, n: int, into: list) -> None:
    """Append ``n`` set-up times, each returned by a call of ``timed_set_up``.
    A collection first keeps the garbage a pass left from being charged to
    the set-ups."""
    gc.collect()
    into.extend(timed_set_up() for _ in range(n))


def _prepare_in_child(seed: int, workload: str):
    """Frames, trained model and reference run, made in a child process.

    Training, ECG rendering and the reference fleet run never touch the
    serving process, so its peak RSS is set by the stack and the frames.
    The child is forked: a spawned one would start multiprocessing's
    resource-tracker process, which outlives the benchmark.
    """
    from pipebench.workloads import prepare_inputs

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(prepare_inputs, seed, workload).result()


def _load_record() -> dict:
    with open(RECORD) as handle:
        return json.load(handle)


# ---------------------------------------------------------------- closed loop
def run_closed(spec, model, frames, ref, seconds, trace, gate):
    from repro.serving import ShardedFleet

    from pipebench.closed_loop import closed_pass, latencies_ms
    from pipebench.layers import TracedPass, layer_metrics
    from pipebench.spans import Tracer, installed
    from pipebench.stats import supported
    from pipebench.workloads import build_fleet, closed_policy, layer_targets

    clock = time.monotonic

    def one_pass(label, shards=0, tracer=None):
        fleet = build_fleet(model, spec, closed_policy(), shards)
        try:
            if tracer is None:
                result = closed_pass(fleet, frames, clock)
            else:
                with installed(tracer, layer_targets()):
                    result = closed_pass(fleet, frames, clock)
            per_shard = None
            if isinstance(fleet, ShardedFleet):
                per_shard = [0] * fleet.n_shards
                for decision in result.decisions:
                    per_shard[fleet.shard_of(decision.patient_id)] += 1
        finally:
            if isinstance(fleet, ShardedFleet):
                fleet.close()
        gate.check(
            result.decisions == ref.decisions, "%s decisions differ from the reference" % label
        )
        return result, per_shard

    def timed_build():
        t_setup = clock()
        build_fleet(model, spec, closed_policy())
        return clock() - t_setup

    one_pass("warm-up")
    untraced, traced, latency, setups = [], [], [], []
    sharded, sharded_traced = [], []
    t_end = clock() + seconds
    # At least three passes (two rounds when traced), and for the untraced
    # figures enough windows for a supported p99.
    while (
        clock() < t_end
        or len(untraced) < (2 if trace else 3)
        or not (trace or supported(len(latency), 99))
    ):
        result = one_pass("untraced pass")[0]
        untraced.append(result)
        _time_setups(timed_build, SETUPS_PER_PASS, setups)
        latency += latencies_ms(result.drains, ref.completed_by, result.sent)
        if trace:
            tracer = Tracer(clock)
            traced.append((one_pass("traced pass", tracer=tracer)[0], tracer))
            if spec.ab_shards:
                # The sharded stack over the same frames, interleaved in this
                # process: its decisions must equal the single fleet's.
                sharded.append(one_pass("sharded pass", shards=spec.ab_shards))
                tracer = Tracer(clock)
                result = one_pass("traced sharded pass", spec.ab_shards, tracer)[0]
                sharded_traced.append((result, tracer))

    walls = [result.wall_s for result in untraced]
    n_frames = len(frames)
    n_windows = len(ref.decisions)
    e2e = {
        "realtime_factor": _median([frames.signal_s / w for w in walls]),
        "windows_per_s": _median([n_windows / w for w in walls]),
        "decision_latency_p50_ms": None,
        "decision_latency_p99_ms": None,
        "sustainable_rate_fps": _median([n_frames / w for w in walls]),
        "setup_s": min(setups),
    }
    _latency_rows(e2e, [latency], None if trace else gate, "closed-loop passes")
    print(
        "closed loop: %d passes of %d frames (%.0f signal-s, %d windows); "
        "latency from each completing frame's push, %d samples"
        % (len(walls), n_frames, frames.signal_s, n_windows, len(latency))
    )
    attempted = n_frames * (len(untraced) + len(traced) + len(sharded) + len(sharded_traced))
    if not trace:
        return e2e, None, attempted, 0

    def traced_passes(pairs):
        return [
            TracedPass(
                tracer=tracer,
                wall_s=result.wall_s,
                n_frames=n_frames,
                signal_s=frames.signal_s,
                n_windows=len(result.decisions),
                n_unusable=sum(not d.usable for d in result.decisions),
                pending_age_ms=latencies_ms(result.drains, ref.completed_by, result.pushed),
            )
            for result, tracer in pairs
        ]

    layers = layer_metrics(traced_passes(traced))
    layers["trace.overhead_frac"] = (
        _median([result.wall_s for result, _ in traced]) / _median(walls) - 1.0
    )
    layers["sharding.skew"] = layers["sharding.scaleout_ratio"] = 0.0
    if sharded:
        rows = layer_metrics(traced_passes(sharded_traced))
        for name in ("sharding.dispatch_us_per_frame", "sharding.merge_ms_per_drain"):
            layers[name] = rows[name]
        per_shard = sharded[0][1]
        layers["sharding.skew"] = max(per_shard) / (sum(per_shard) / len(per_shard))
        # Sharded realtime factor / single-fleet realtime factor.
        layers["sharding.scaleout_ratio"] = _median(walls) / _median(
            [result.wall_s for result, _ in sharded]
        )
    for name in ("ingest.queue_wait_ms.p50", "ingest.queue_wait_ms.p99", "ingest.max_queue_depth"):
        layers[name] = 0.0
    layers["ingest.busy_frac"] = 0.0
    layers["loadgen.lag_ms.p99"] = 0.0
    layers["failed_frac"] = 0.0
    _dump_spans(traced[-1][1], spec.name)
    return e2e, layers, attempted, 0


def _latency_rows(e2e, runs, gate, where):
    """Fill the latency rows with the p50 and p99 of the one of ``runs``
    (lists of samples) with the lowest p99.  Host stalls only add latency,
    so that run is the one they disturbed least.  Without support for every
    p99 the rows stay empty, which fails an untraced run (``gate``) and is
    only noted in a traced one."""
    from pipebench.stats import percentile, supported

    short = [len(latency) for latency in runs if not supported(len(latency), 99)]
    if short:
        message = "%d latency samples from %s leave fewer than 10 beyond p99" % (
            min(short),
            where,
        )
        if gate is None:
            print("note: " + message)
        else:
            gate.check(False, message)
        return
    best = min(runs, key=lambda latency: percentile(latency, 99))
    e2e["decision_latency_p50_ms"] = percentile(best, 50)
    e2e["decision_latency_p99_ms"] = percentile(best, 99)


def _dump_spans(tracer, workload):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / ("spans-%s.json" % workload)
    tracer.dump(str(path))
    print("spans of the last traced pass: %s (%d spans)" % (path.relative_to(ROOT), len(tracer)))


# ------------------------------------------------------------------ open loop
def run_open(spec, model, frames, ref, trace, limit_ms, gate):
    """The open-loop workload; its schedule, not ``--seconds``, sets its
    length (about 30 s either way)."""
    from pipebench.closed_loop import latencies_ms
    from pipebench.inputs import FRAME_SAMPLES, FS, decision_key
    from pipebench.layers import TracedPass, layer_metrics
    from pipebench.open_loop import (
        CONNECTIONS,
        LoadGenerator,
        gateway_pass,
        ladder_search,
        setup_time,
        sustainable_rate,
    )
    from pipebench.spans import Tracer, installed
    from pipebench.stats import percentile, supported
    from pipebench.workloads import build_fleet, layer_targets

    clock = time.monotonic
    n_all = len(frames)
    ref_by_key = {decision_key(d): d for d in ref.decisions}
    counts = {"attempted": 0, "failed": 0}
    setups = []

    def build():
        return build_fleet(model, spec)

    def one_pass(label, rate, n, tracer=None):
        cpu = time.process_time()
        if tracer is None:
            p = gateway_pass(build, generator, rate, n, clock)
        else:
            with installed(tracer, layer_targets()):
                p = gateway_pass(build, generator, rate, n, clock)
        p.cpu_s = time.process_time() - cpu
        stats = p.stats
        counts["attempted"] += n
        counts["failed"] += n - stats.frames_delivered
        gate.check(stats.fully_accounted, "%s: gateway ledger does not balance" % label)
        gate.check(
            stats.frames_delivered == n,
            "%s: %d of %d frames delivered" % (label, stats.frames_delivered, n),
        )
        if n == n_all:
            gate.check(
                p.decisions == ref.decisions, "%s decisions differ from the offline fleet" % label
            )
        else:
            got = {decision_key(d): d for d in p.decisions}
            want = [k for k, f in ref.completed_by.items() if 0 <= f < n]
            gate.check(
                all(got.get(k) == ref_by_key[k] for k in want),
                "%s decisions differ from the offline fleet" % label,
            )
        if rate is not None:  # not the warm-up
            _time_setups(lambda: setup_time(build, clock), SETUPS_PER_RUNG, setups)
        return p

    def latency_of(p):
        return latencies_ms(p.drains, ref.completed_by, p.scheduled)

    generator = LoadGenerator(frames)
    try:
        one_pass("warm-up", None, min(WARMUP_FRAMES, n_all))
        rungs, untraced, traced = {}, [], []
        if not trace:
            # Every rung sends every frame, so that each rung's p99 has the
            # support the rule asks for.
            untraced.append(one_pass("reference rung", REFERENCE_FPS, n_all))
            _report_rung(untraced[0], latency_of, rungs, gate)

            def passes(index):
                rate = LADDER_FPS[index]
                p = one_pass("rung %d fps" % rate, rate, n_all)
                worst = _report_rung(p, latency_of, rungs, gate)
                if limit_ms < worst <= RETRY_WITHIN * limit_ms:
                    p = one_pass("rung %d fps, second try" % rate, rate, n_all)
                    worst = min(worst, _report_rung(p, latency_of, rungs, gate))
                return worst <= limit_ms

            ladder_search(len(LADDER_FPS), LADDER_FPS.index(LADDER_START_FPS), passes)
            for run in range(2, REFERENCE_RUNS + 1):
                p = one_pass("reference rung, run %d" % run, REFERENCE_FPS, n_all)
                _report_rung(p, latency_of, rungs, gate)
                untraced.append(p)
        else:
            # One untraced and one traced reference rung.
            untraced.append(one_pass("reference rung", REFERENCE_FPS, n_all))
            tracer = Tracer(clock)
            traced.append((one_pass("traced reference rung", REFERENCE_FPS, n_all, tracer), tracer))
    finally:
        generator.close()

    ref_latency = [latency_of(p) for p in untraced]
    e2e = {
        "realtime_factor": None,
        "windows_per_s": None,
        "decision_latency_p50_ms": None,
        "decision_latency_p99_ms": None,
        "sustainable_rate_fps": None,
        "setup_s": min(setups),
    }
    if rungs:
        # Throughput of a latency-bound deployment: what the gateway turns
        # into decisions while it holds the limit.
        rate = sustainable_rate(rungs, limit_ms)
        e2e["sustainable_rate_fps"] = rate
        e2e["realtime_factor"] = rate * FRAME_SAMPLES / FS
        e2e["windows_per_s"] = rate * len(ref.decisions) / n_all
    _latency_rows(e2e, ref_latency, None if trace else gate, "a reference rung")
    print(
        "open loop: %d TCP connections, %d reference rungs of %d frames/s over %d frames "
        "(%d latency samples each); p99 limit %g ms"
        % (CONNECTIONS, len(untraced), REFERENCE_FPS, n_all, len(ref_latency[0]), limit_ms)
    )
    if not trace:
        return e2e, None, counts["attempted"], counts["failed"]

    # Per-layer rows from the traced reference rungs.  Waits, per frame:
    # scheduled send -> start of its fleet.push, and end of that push -> the
    # drain that returned the window it completed.
    frame_of = {
        (int(pid), int(seq)): i for i, (pid, seq) in enumerate(zip(frames.patient, frames.seq))
    }
    passes, waits, pending, lags = [], [], [], []
    busy = wall = 0.0
    for p, tr in traced:
        scheduled = p.scheduled
        pushed_end = [0.0] * n_all
        for index, name in enumerate(tr.names):
            if tr.parents[index] >= 0 or not name.startswith("fleet."):
                continue
            busy += tr.ends[index] - tr.starts[index]
            if name == "fleet.push":
                frame = frame_of[tr.notes[index]]
                pushed_end[frame] = tr.ends[index]
                waits.append(1e3 * (tr.starts[index] - scheduled[frame]))
        wall += p.wall_s
        age = latencies_ms(p.drains, ref.completed_by, pushed_end)
        pending += age
        lags += [1e3 * lag for lag in p.lags]
        passes.append(
            TracedPass(
                tracer=tr,
                wall_s=p.wall_s,
                n_frames=p.n_frames,
                signal_s=frames.signal_s,
                n_windows=len(p.decisions),
                n_unusable=sum(not d.usable for d in p.decisions),
                pending_age_ms=age,
            )
        )
    layers = layer_metrics(passes)
    # The schedule fixes an open-loop pass's wall time, so tracing overhead
    # shows as CPU time of the serving process instead.
    layers["trace.overhead_frac"] = (
        _median([p.cpu_s for p, _ in traced]) / _median([p.cpu_s for p in untraced]) - 1.0
    )
    gate.check(supported(len(waits), 99), "too few queue-wait samples for p99")
    layers["ingest.queue_wait_ms.p50"] = percentile(waits, 50)
    layers["ingest.queue_wait_ms.p99"] = percentile(waits, 99)
    layers["ingest.max_queue_depth"] = float(max(p.stats.max_queue_depth for p, _ in traced))
    layers["ingest.busy_frac"] = busy / wall
    layers["loadgen.lag_ms.p99"] = percentile(lags, 99)
    layers["sharding.skew"] = 0.0
    layers["sharding.scaleout_ratio"] = 0.0
    layers["failed_frac"] = counts["failed"] / counts["attempted"]
    _dump_spans(traced[-1][1], spec.name)
    return e2e, layers, counts["attempted"], counts["failed"]


def _report_rung(p, latency_of, rungs, gate):
    """Print one rung, keep its best (p99, max generator lag) try in
    ``rungs`` and return the worse of the two, in ms.  A rung whose p99
    lacks support fails the gate, since the sustainable rate would rest on
    it."""
    from pipebench.stats import percentile, supported

    latency = latency_of(p)
    gate.check(
        supported(len(latency), 99),
        "rung %d fps: %d latency samples leave fewer than 10 beyond p99" % (p.rate, len(latency)),
    )
    p99 = percentile(latency, 99)
    lag = 1e3 * max(p.lags)
    if p.rate not in rungs or max(p99, lag) < max(rungs[p.rate]):
        rungs[p.rate] = (p99, lag)
    print(
        "rung %5d frames/s: %5d frames, latency p50 %8.1f ms  p99 %8.1f ms "
        "(%d samples, p99 %s), generator max lag %7.1f ms"
        % (
            p.rate,
            p.n_frames,
            percentile(latency, 50),
            p99,
            len(latency),
            "supported" if supported(len(latency), 99) else "unsupported",
            lag,
        )
    )
    return max(p99, lag)


# ----------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--p99-limit-ms",
        type=float,
        required=True,
        help="latency limit of the sustainable-rate ladder (fixed in BENCHMARK.json)",
    )
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np

    from pipebench.inputs import digest
    from pipebench.layers import PER_LAYER
    from pipebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    spec = WORKLOADS[args.workload]
    record = _load_record()
    print(
        "pipebench %s seed %d: nproc %d, python %s, numpy %s, BLAS/OpenMP threads 1"
        % (
            spec.name,
            args.seed,
            len(os.sched_getaffinity(0)),
            platform.python_version(),
            np.__version__,
        )
    )
    gate = Gate()
    frames, model, ref = _prepare_in_child(args.seed, spec.name)
    ref_digest = digest(ref.decisions)
    expected = record["digests"].get(spec.name, {}).get(str(args.seed))
    print("decision digest %s (%s)" % (ref_digest, "recorded" if expected else "seed not recorded"))
    if expected is not None:
        gate.check(ref_digest == expected, "decision digest differs from the recorded one")

    if spec.loop == "closed":
        e2e, layers, attempted, failed = run_closed(
            spec, model, frames, ref, args.seconds, args.trace, gate
        )
    else:
        e2e, layers, attempted, failed = run_open(
            spec, model, frames, ref, args.trace, args.p99_limit_ms, gate
        )
    e2e["peak_rss_mb"] = _peak_rss_mb()

    for name, unit in END_TO_END.items():
        if e2e[name] is not None:
            print("%-34s %14.6g %s" % (name, e2e[name], unit))
    if layers is not None:
        for name, unit in PER_LAYER.items():
            print("%-34s %14.6g %s" % (name, layers[name], unit))
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        json.dumps(
            {"correct": gate.ok, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
