"""Horizontally sharded monitor fleets with consistent patient routing.

One :class:`~repro.serving.fleet.MonitorFleet` serves a set of patients.
:class:`ShardedFleet` partitions the same interface across N such
shards: every chunk is routed by a :class:`HashRing` (consistent hashing of
the patient id, stable across runs and processes, minimal reassignment when
the shard count changes), each shard streams and featurises its own patients
independently, and drains merge the per-shard batched classifications into
one canonically ordered decision list.

The headline guarantee — enforced by the parity fuzz suite in
``tests/test_serving_sharding.py`` — is that sharding is *invisible* in the
output: for any shard count and drain policy, a sharded fleet
produces decision-for-decision identical output to a single unsharded
:class:`~repro.serving.fleet.MonitorFleet` over the same streams.  This
holds because each patient's DSP state lives on exactly one shard and the
batched classifiers are batch-composition invariant (bit-exactly so on the
integer fixed-point path).

Shards are in-process partitions: plain :class:`~repro.serving.fleet.MonitorFleet`
objects in one list, called directly, all sharing the parent's
:class:`~repro.serving.registry.ModelRegistry`.  Partitioning is what
resharding, autoscaling and cluster handoff move patients between; it is
not a parallel executor.  Scale-out across processes and hosts is one
:class:`~repro.serving.ingest.IngestGateway` per node, federated by
:class:`~repro.serving.cluster.GatewayCluster`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.peaks import PanTompkinsParams
from repro.serving.fleet import MonitorFleet, decision_sort_key, run_streams
from repro.serving.registry import InferenceBackend, ModelRegistry
from repro.serving.scheduler import DrainPolicy, DrainStats, merge_stats
from repro.serving.streaming import GapStats, PendingWindow, WindowDecision
from repro.serving.wire import decode_chunk_checked
from repro.signals.windows import WindowingParams

__all__ = ["HashRing", "ShardedFleet", "ShardDrainError", "TopologyPlan"]


class ShardDrainError(RuntimeError):
    """One or more shards failed while draining.

    The windows of every *failed* shard remain queued there (a fleet drain is
    retryable), and the decisions the healthy shards already produced are not
    thrown away — they are carried on :attr:`decisions`, canonically sorted.
    :attr:`errors` maps shard index to the exception it raised.
    """

    def __init__(
        self, errors: Mapping[int, Exception], decisions: Iterable[WindowDecision]
    ) -> None:
        super().__init__(
            "drain failed on shard(s) %s: %s"
            % (sorted(errors), "; ".join(repr(errors[s]) for s in sorted(errors)))
        )
        self.errors = dict(errors)
        self.decisions = list(decisions)


@dataclass(frozen=True)
class TopologyPlan:
    """One planned topology change: the target ring plus its migration set.

    The single plan/apply currency of every topology-changing surface —
    :meth:`ShardedFleet.plan_topology` / :meth:`ShardedFleet.apply_topology`,
    the gateway's quiescing wrappers
    (:meth:`~repro.serving.ingest.IngestGateway.plan_topology`), and the
    federated cluster's node rebalancing
    (:meth:`~repro.serving.cluster.GatewayCluster.plan_topology`).  A plan
    is pure data: inspect :attr:`movers` for the migration cost, then hand
    the plan to ``apply_topology`` — or drop it, which touches nothing.

    ``movers`` maps each patient the target ring reassigns to their
    ``(old_shard, new_shard)`` pair, computed against the membership at
    planning time; ``apply_topology`` recomputes the exact set against the
    membership at apply time (patients may have appeared in between), so the
    plan's set is the *preview* and the apply's return value is the truth.
    """

    #: Target shard / node count.
    n_shards: int
    #: Target per-shard ring weights.
    weights: Tuple[float, ...]
    #: Preview migration set: ``{patient_id: (old, new)}`` at planning time.
    movers: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: The target :class:`HashRing` itself.
    ring: Optional["HashRing"] = None

    @property
    def is_noop(self) -> bool:
        """Whether applying this plan would change nothing."""
        return self.ring is None

    @property
    def n_movers(self) -> int:
        return len(self.movers)


class HashRing:
    """Consistent hashing of patient ids onto shard indices.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring
    (BLAKE2b of ``"shard:<index>:<replica>"`` — deterministic, unlike
    Python's salted ``hash``); a patient id maps to the shard owning the
    first ring point at or after the hash of the id.  With R replicas per
    shard the load spread is ~``1/sqrt(R)`` and growing the fleet from N to
    N+1 shards reassigns only ~``1/(N+1)`` of the patients — the property
    that makes live resharding of long-running monitors tractable.

    ``weights`` makes the ring *heterogeneous*: shard ``i`` claims
    ``max(1, round(replicas * weights[i]))`` ring points, so a host with
    weight 2.0 owns ~twice the key range (and therefore ~twice the
    patients) of a weight-1.0 host.  Weights are absolute multipliers, not
    normalised shares: a shard's points depend only on its *own* weight, so
    resizing the fleet (or re-weighting one shard) never moves patients
    between shards whose weights are unchanged — the minimal-movement
    property survives heterogeneity.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = 64,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        if weights is None:
            resolved = (1.0,) * self.n_shards
        else:
            resolved = tuple(float(w) for w in weights)
            if len(resolved) != self.n_shards:
                raise ValueError(
                    "weights has %d entries for %d shards" % (len(resolved), self.n_shards)
                )
            if any(w <= 0.0 for w in resolved):
                raise ValueError("shard weights must be positive")
        self.weights = resolved
        #: Shard indices tombstoned by :meth:`without_shards` (empty on a
        #: freshly built ring).  Excluded shards keep their index — survivors
        #: never renumber — but own no ring points, so nothing routes to them.
        self.excluded: frozenset = frozenset()
        point_list: List[int] = []
        owner_list: List[int] = []
        for shard in range(self.n_shards):
            for replica in range(self._points_for(shard)):
                point_list.append(self._point("shard:%d:%d" % (shard, replica)))
                owner_list.append(shard)
        points = np.asarray(point_list, dtype=np.uint64)
        owners = np.asarray(owner_list, dtype=np.int64)
        order = np.argsort(points, kind="stable")
        self._points = points[order]
        self._owners = owners[order]

    def _points_for(self, shard: int) -> int:
        """Ring points shard ``shard`` claims (its weight times ``replicas``)."""
        return max(1, int(round(self.replicas * self.weights[shard])))

    @staticmethod
    def _point(key: str) -> int:
        return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")

    def shard_of(self, patient_id: int) -> int:
        """Shard index owning ``patient_id`` (stable across runs/processes)."""
        point = self._point("patient:%d" % int(patient_id))
        idx = int(np.searchsorted(self._points, np.uint64(point), side="left"))
        return int(self._owners[idx % self._owners.shape[0]])

    def resized_weights(
        self, n_shards: int, weights: Optional[Sequence[float]] = None
    ) -> tuple:
        """The weight vector a resize to ``n_shards`` would use.

        With explicit ``weights`` they are validated and returned verbatim;
        otherwise the current weights are truncated (shrink) or extended
        with 1.0 entries (grow) — new shards default to homogeneous hosts.
        """
        n_shards = int(n_shards)
        if weights is not None:
            resolved = tuple(float(w) for w in weights)
            if len(resolved) != n_shards:
                raise ValueError(
                    "weights has %d entries for %d shards" % (len(resolved), n_shards)
                )
            return resolved
        if n_shards <= len(self.weights):
            return self.weights[:n_shards]
        return self.weights + (1.0,) * (n_shards - len(self.weights))

    def with_n_shards(
        self,
        n_shards: int,
        patient_ids: Iterable[int] = (),
        weights: Optional[Sequence[float]] = None,
    ) -> tuple:
        """The ring resized to ``n_shards``, plus the patients that move.

        Returns ``(ring, moved)`` where ``moved`` maps each reassigned
        patient id to its ``(old_shard, new_shard)`` pair.  This is the
        consistent-hashing payoff made explicit: a surviving shard's ring
        points are identical in both rings, so growing N→N+1 reassigns only
        the ~``1/(N+1)`` of patients claimed by the new shard's points, and
        shrinking reassigns exactly the removed shard's patients — never a
        reshuffle between survivors.  ``moved`` is therefore the *complete*
        migration workload of a live reshard
        (:meth:`ShardedFleet.reshard`), pinned by
        ``tests/test_serving_reshard.py``.

        ``weights`` follows :meth:`resized_weights`: omitted, the surviving
        shards keep their current weights (their ring points are then
        identical in both rings and minimal movement holds); passing a
        changed weight for a surviving shard is legal but that shard's key
        range is re-cut, so more patients move — ``moved`` is exact either
        way.
        """
        ring = HashRing(
            n_shards, replicas=self.replicas, weights=self.resized_weights(n_shards, weights)
        )
        moved = {}
        for patient_id in patient_ids:
            patient_id = int(patient_id)
            old, new = self.shard_of(patient_id), ring.shard_of(patient_id)
            if old != new:
                moved[patient_id] = (old, new)
        return ring, moved

    def without_shards(
        self, shards: Iterable[int], patient_ids: Iterable[int] = ()
    ) -> tuple:
        """The ring with ``shards`` tombstoned, plus the patients that move.

        Returns ``(ring, moved)`` like :meth:`with_n_shards`.  Unlike a
        resize, excluding a shard does not renumber the survivors: the dead
        shard keeps its index but loses its ring points, so exactly the
        patients it owned are reassigned (to the survivors owning the next
        points clockwise) and *no* surviving shard's patients move.  This is
        the failover primitive of the federated cluster: a dead gateway's
        slot is tombstoned, its patients re-home, and every live gateway
        keeps its slice untouched (:mod:`repro.serving.cluster`).

        Exclusions accumulate: calling this on an already-tombstoned ring
        adds to :attr:`excluded`.  Excluding every shard is an error.
        """
        dead = {int(s) for s in shards}
        for shard in dead:
            if not 0 <= shard < self.n_shards:
                raise ValueError(
                    "shard %d is not a shard of this %d-shard ring"
                    % (shard, self.n_shards)
                )
        if not dead - self.excluded:
            return self, {}
        excluded = frozenset(self.excluded | dead)
        if len(excluded) >= self.n_shards:
            raise ValueError("cannot exclude every shard of the ring")
        ring = object.__new__(HashRing)
        ring.n_shards = self.n_shards
        ring.replicas = self.replicas
        ring.weights = self.weights
        ring.excluded = excluded
        mask = ~np.isin(self._owners, np.asarray(sorted(excluded), dtype=np.int64))
        ring._points = self._points[mask]
        ring._owners = self._owners[mask]
        moved = {}
        for patient_id in patient_ids:
            patient_id = int(patient_id)
            old, new = self.shard_of(patient_id), ring.shard_of(patient_id)
            if old != new:
                moved[patient_id] = (old, new)
        return ring, moved


class ShardedFleet:
    """N consistent-hash-routed :class:`~repro.serving.fleet.MonitorFleet` shards.

    The interface deliberately mirrors :class:`~repro.serving.fleet.MonitorFleet`
    (``push`` / ``push_wire`` / ``finish`` / ``drain`` / ``maybe_drain`` /
    ``run``), so a single-fleet deployment partitions its patients by
    swapping the class.  The shards are in-process fleets held in one list
    and called directly (see the module docstring).

    Parameters
    ----------
    classifier, fs, windowing, detector_params:
        As for :class:`~repro.serving.fleet.MonitorFleet`; shared by every
        shard.
    n_shards:
        Number of shards.  One shard is a valid (if pointless) fleet and is
        used by the parity tests as the degenerate case.
    drain_policy:
        Fleet-level :class:`~repro.serving.scheduler.DrainPolicy`, evaluated
        against the merged shard stats; a trigger drains *all* shards.
        Scheduling is driven by *local* queue counters the fleet maintains
        from the shards' return values (exact, and free of a sweep over the
        shards on every chunk); only the authoritative :meth:`stats` /
        :attr:`pending_count` sweep the shards.
    auto_register:
        Unknown-patient contract, forwarded to every shard (see
        :class:`~repro.serving.fleet.MonitorFleet`).
    clock:
        Monotonic time source for the shards' latency stats and the fleet's
        local queue age.
    replicas:
        Ring points per shard for the :class:`HashRing`.
    shard_weights:
        Optional per-shard :class:`HashRing` weights for heterogeneous
        hosts: a shard with weight 2.0 is routed ~twice the patients of a
        weight-1.0 shard.  ``None`` (default) is a homogeneous fleet.
    """

    def __init__(
        self,
        classifier,
        fs: float,
        n_shards: int = 4,
        windowing: WindowingParams | None = None,
        detector_params: PanTompkinsParams | None = None,
        drain_policy: DrainPolicy | None = None,
        auto_register: bool = True,
        clock: Callable[[], float] = time.monotonic,
        replicas: int = 64,
        shard_weights: Optional[Sequence[float]] = None,
        feature_cache: bool = True,
        lossy: bool = False,
    ) -> None:
        if isinstance(classifier, ModelRegistry):
            self.registry = classifier
        else:
            self.registry = ModelRegistry(default=classifier)
        self.fs = float(fs)
        self.n_shards = int(n_shards)
        self.drain_policy = drain_policy
        self.auto_register = bool(auto_register)
        self.windowing = windowing
        self.detector_params = detector_params
        self.feature_cache = bool(feature_cache)
        self.lossy = bool(lossy)
        self.ring = HashRing(self.n_shards, replicas=replicas, weights=shard_weights)
        self._clock = clock
        # The registry is routing-invariant: every shard classifies with this
        # very object, so a patient's tailored model follows them wherever
        # the ring places them (including across reshards).
        self._shards: List[MonitorFleet] = [self._make_shard() for _ in range(self.n_shards)]
        self._shard_of: Dict[int, int] = {}
        # Local queue bookkeeping, kept exact from the shards' return values:
        # windows only enter or leave a shard's queue through calls routed
        # here, so drain-policy decisions never need a cross-shard sweep.
        self._pending_by_shard: Dict[int, int] = {}
        self._chunks_since_drain = 0
        self._oldest_pending_t: Optional[float] = None
        self._known_patients: set = set()

    def _make_shard(self) -> MonitorFleet:
        """One empty shard fleet with this fleet's configuration."""
        return MonitorFleet(
            self.registry,
            self.fs,
            windowing=self.windowing,
            detector_params=self.detector_params,
            auto_register=self.auto_register,
            clock=self._clock,
            feature_cache=self.feature_cache,
            lossy=self.lossy,
        )

    # --------------------------------------------------------------- models
    @property
    def classifier(self) -> Optional[InferenceBackend]:
        """The registry's default backend (the shared model of a homogeneous
        fleet); ``None`` when the registry is strict per-patient only."""
        return self.registry.default

    def register_model(self, patient_id: int, backend: InferenceBackend) -> int:
        """Install (or hot-swap) one patient's tailored backend, fleet-wide.

        Every shard shares the fleet's
        :class:`~repro.serving.registry.ModelRegistry`, so one registry
        mutation is visible to all of them.  Returns the registry's new
        epoch.  The swap takes effect at the next drain, wherever the ring
        routes the patient.
        """
        return self.registry.register(patient_id, backend)

    def model_label_for(self, patient_id: int) -> str:
        """Stats label of the backend serving ``patient_id``."""
        return self.registry.label_for(patient_id)

    # ------------------------------------------------------------ membership
    def shard_of(self, patient_id: int) -> int:
        """Shard index the ring assigns to ``patient_id`` (cached)."""
        patient_id = int(patient_id)
        shard = self._shard_of.get(patient_id)
        if shard is None:
            shard = self.ring.shard_of(patient_id)
            self._shard_of[patient_id] = shard
        return shard

    def add_patient(self, patient_id: int) -> int:
        """Register a patient on their shard; returns the shard index."""
        shard = self.shard_of(patient_id)
        self._shards[shard].add_patient(int(patient_id))
        self._known_patients.add(int(patient_id))
        return shard

    def has_patient(self, patient_id: int) -> bool:
        return self._shards[self.shard_of(patient_id)].has_patient(int(patient_id))

    @property
    def patient_ids(self) -> List[int]:
        return sorted(pid for shard in self._shards for pid in shard.patient_ids)

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def pending_count(self) -> int:
        return self.stats().pending_windows

    # -------------------------------------------------------------- streaming
    def push(self, patient_id: int, chunk: np.ndarray, seq: int | None = None) -> int:
        """Route one chunk to its patient's shard.

        Returns the pending-window count *of that shard* (the fleet-wide
        count is :attr:`pending_count`).  Unknown patients follow the
        ``auto_register`` contract; ``seq`` is enforced by the patient's
        monitor exactly as on a single fleet.
        """
        patient_id = int(patient_id)
        shard = self.shard_of(patient_id)
        pending = self._shards[shard].push(patient_id, chunk, seq)
        self._known_patients.add(patient_id)
        self._chunks_since_drain += 1
        self._note_pending(shard, pending)
        return pending

    def push_wire(self, frame: bytes) -> int:
        """Decode one wire frame and route it (fs-checked, sequence-enforced)."""
        chunk = decode_chunk_checked(frame, self.fs)
        return self.push(chunk.patient_id, chunk.samples, seq=chunk.seq)

    def enqueue(self, windows: Iterable[PendingWindow]) -> int:
        """Queue externally featurised windows on their patients' shards.

        Follows the ``auto_register`` contract of :meth:`push`: with
        ``auto_register=False``, a window for an unregistered patient raises
        :class:`KeyError` *before any shard queues anything* — a replayed
        window with a stray id is the same routing bug as a stray chunk.
        """
        by_shard: Dict[int, List[PendingWindow]] = {}
        for window in windows:
            if not self.auto_register and not self.has_patient(window.patient_id):
                raise KeyError(
                    "unknown patient %d (auto_register=False; call "
                    "add_patient first)" % window.patient_id
                )
            by_shard.setdefault(self.shard_of(window.patient_id), []).append(window)
        for shard, group in by_shard.items():
            self._note_pending(shard, self._shards[shard].enqueue(group))
            # Queued windows make a patient migratable state: a reshard must
            # know to carry them along even if no chunk ever arrived.
            self._known_patients.update(int(w.patient_id) for w in group)
        return sum(self._pending_by_shard.values())

    def finish(self, patient_id: int | None = None) -> int:
        """Flush one patient's stream (or every shard's streams)."""
        if patient_id is not None:
            shard = self.shard_of(patient_id)
            pending = self._shards[shard].finish(int(patient_id))
            self._note_pending(shard, pending)
            return pending
        for shard, fleet in enumerate(self._shards):
            self._note_pending(shard, fleet.finish())
        return sum(self._pending_by_shard.values())

    def _note_pending(self, shard: int, pending: int) -> None:
        """Record a shard's reported queue depth; keep the oldest-window clock."""
        self._pending_by_shard[shard] = int(pending)
        if sum(self._pending_by_shard.values()) > 0:
            if self._oldest_pending_t is None:
                self._oldest_pending_t = self._clock()
        else:
            self._oldest_pending_t = None

    # ------------------------------------------------------------ resharding
    def plan_topology(
        self,
        n_shards: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> TopologyPlan:
        """Plan a topology change without touching anything.

        Returns a :class:`TopologyPlan` for resizing to ``n_shards``
        (default: the current count — with ``weights``, a pure rebalance)
        carrying the target ring and the preview migration set.  The plan is
        inert data: the quiesce set an
        :class:`~repro.serving.ingest.IngestGateway` freezes before starting
        the real migration, and the cost model an autoscale controller
        weighs against expected latency relief before committing.  Execute
        it with :meth:`apply_topology`; dropping it costs nothing.
        """
        n_shards = self.n_shards if n_shards is None else int(n_shards)
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if n_shards == self.n_shards and (
            weights is None or tuple(float(w) for w in weights) == self.ring.weights
        ):
            return TopologyPlan(
                n_shards=self.n_shards, weights=self.ring.weights, movers={}, ring=None
            )
        ring, moved = self.ring.with_n_shards(
            n_shards, sorted(self._known_patients), weights=weights
        )
        return TopologyPlan(
            n_shards=n_shards, weights=ring.weights, movers=moved, ring=ring
        )

    def preview_reshard(
        self, n_shards: int, weights: Optional[Sequence[float]] = None
    ) -> Dict[int, tuple]:
        """The migration :meth:`reshard` to ``n_shards`` would perform.

        A thin wrapper over :meth:`plan_topology`: returns the plan's
        preview ``{patient_id: (old_shard, new_shard)}`` set.
        """
        return dict(self.plan_topology(n_shards, weights=weights).movers)

    def reshard(
        self, n_shards: int, weights: Optional[Sequence[float]] = None
    ) -> Dict[int, tuple]:
        """Change the shard count live, with zero-loss state migration.

        A thin wrapper: ``apply_topology(plan_topology(n_shards, weights))``.

        Only the minimally reassigned patients move (the
        :meth:`HashRing.with_n_shards` set): each is atomically detached from
        its old shard — DSP carry-over, partial windows, sequence position
        *and* queued pending windows, as one
        :class:`~repro.serving.streaming.MonitorState` — and attached to its
        new one.  Every shard, old or new, shares the fleet's
        :class:`~repro.serving.registry.ModelRegistry`, so every patient's
        tailored model follows them unchanged.  ``weights`` re-cuts the ring per
        :meth:`HashRing.resized_weights` (same-count reshards with changed
        weights are legal — that is a pure rebalance).

        The headline guarantee (pinned by ``tests/test_serving_reshard.py``):
        for any schedule of reshards interleaved with traffic, the fleet's
        decisions are bit-identical to a never-resharded fleet over the same
        pushes and drains.

        Failure atomicity: every moving patient is exported *before* any
        counter or topology mutation.  If an export raises, the states
        already collected are restored to their old shards and the original
        exception propagates — the fleet is left exactly as it was, and the
        call is retryable.  (A failure while *importing* into the new
        topology cannot be rolled back the same way — the old topology is
        gone — and raises a :class:`RuntimeError` naming the orphaned
        patients; in practice this is unreachable, as ``import_patient``
        validates nothing that ``export_patient`` has not already produced.)

        Returns the migrated mapping ``{patient_id: (old_shard, new_shard)}``.
        Not safe to call concurrently with pushes or drains from other
        threads — quiesce the callers first (the ingest gateway does exactly
        that for the moving patients).
        """
        return self.apply_topology(self.plan_topology(n_shards, weights=weights))

    def apply_topology(self, plan: TopologyPlan) -> Dict[int, tuple]:
        """Execute a :class:`TopologyPlan` from :meth:`plan_topology`.

        The movers are recomputed here against the plan's target ring over
        the *current* patient population, so traffic that arrived between
        planning and applying is migrated too (the plan's ``movers`` are a
        preview — the quiesce set, not the contract).  A no-op plan returns
        ``{}`` without touching anything.  All the atomicity and parity
        guarantees documented on :meth:`reshard` apply.
        """
        if plan.is_noop:
            return {}
        new_ring = plan.ring
        assert new_ring is not None  # is_noop is False
        n_shards = plan.n_shards
        moved: Dict[int, tuple] = {}
        for patient_id in sorted(self._known_patients):
            old_shard = self.ring.shard_of(patient_id)
            new_shard = new_ring.shard_of(patient_id)
            if old_shard != new_shard:
                moved[patient_id] = (old_shard, new_shard)
        # 1. Detach every moving patient while all old shards are still up,
        #    touching *no* fleet state until every export has succeeded — an
        #    export that raises mid-migration must leave the fleet exactly as
        #    found.  Each source shard's oldest-pending age is captured first
        #    so the migrated windows don't look freshly-arrived on their new
        #    shard (the shard-level maximum is a conservative upper bound per
        #    patient, which only ever makes LatencyPolicy fire sooner).
        source_age: Dict[int, float] = {}
        states: List[tuple] = []
        try:
            for patient_id in sorted(moved):
                old_shard, new_shard = moved[patient_id]
                if old_shard not in source_age:
                    source_age[old_shard] = self._shards[old_shard].stats().oldest_pending_age_s
                try:
                    state = self._shards[old_shard].export_patient(patient_id)
                except KeyError:
                    # Known only through since-drained enqueued windows: the
                    # ring reassigns their *routing*, but there is no state
                    # to move.
                    continue
                states.append((old_shard, new_shard, state))
        except Exception:
            # Roll back: restore every state already detached to its old
            # shard (still present — the topology was never touched).
            for old_shard, _, state in states:
                self._shards[old_shard].import_patient(
                    state, pending_age_s=source_age.get(old_shard, 0.0)
                )
            raise
        # 2. All exports in hand: account the detached windows.  A negative
        #    count here means the local ledger and the shards disagree —
        #    fail loudly rather than schedule drains off corrupt counters.
        for old_shard, _, state in states:
            if state.pending:
                remaining = self._pending_by_shard.get(old_shard, 0) - len(state.pending)
                if remaining < 0:
                    raise RuntimeError(
                        "pending count of shard %d went negative (%d) during reshard"
                        % (old_shard, remaining)
                    )
                self._pending_by_shard[old_shard] = remaining
        # 3. Resize the shard list.  Surviving shard indices keep their fleet
        #    objects (their ring points are unchanged, so their patients never
        #    noticed anything).
        del self._shards[n_shards:]
        self._shards.extend(self._make_shard() for _ in range(n_shards - len(self._shards)))
        self.ring = new_ring
        self.n_shards = n_shards
        self._shard_of = {pid: shard for pid, (_, shard) in moved.items()}
        for shard in [s for s in self._pending_by_shard if s >= n_shards]:
            leftover = self._pending_by_shard.pop(shard)
            if leftover:
                raise RuntimeError(
                    "removed shard %d still held %d pending windows" % (shard, leftover)
                )
        # 4. Attach the migrated states to their new owners, carrying each
        #    source shard's queue age along.
        orphaned: List[int] = []
        import_error: Optional[Exception] = None
        for old_shard, new_shard, state in states:
            if import_error is not None:
                orphaned.append(int(state.patient_id))
                continue
            try:
                pending = self._shards[new_shard].import_patient(
                    state, pending_age_s=source_age.get(old_shard, 0.0)
                )
            except Exception as exc:
                import_error = exc
                orphaned.append(int(state.patient_id))
            else:
                self._note_pending(new_shard, pending)
        if import_error is not None:
            raise RuntimeError(
                "reshard to %d shards failed importing migrated state; "
                "orphaned patients: %s" % (n_shards, sorted(orphaned))
            ) from import_error
        if sum(self._pending_by_shard.values()) == 0:
            self._oldest_pending_t = None
        return moved

    def add_shard(self, weight: float = 1.0) -> Dict[int, tuple]:
        """Grow the fleet by one shard (of ring weight ``weight``); returns
        the migrated patients."""
        return self.reshard(
            self.n_shards + 1, weights=self.ring.weights + (float(weight),)
        )

    def remove_shard(self) -> Dict[int, tuple]:
        """Shrink the fleet by one shard (the highest index); returns the
        migrated patients.  A fleet cannot shrink below one shard."""
        if self.n_shards <= 1:
            raise ValueError("cannot remove the last shard")
        return self.reshard(self.n_shards - 1)

    # -------------------------------------------------------------- draining
    def stats(self) -> DrainStats:
        """Authoritative merged stats, swept from every shard.

        Scheduling decisions use :meth:`local_stats` instead (exact and
        sweep-free); this sweep is for observability and tests.

        Contract: ``chunks_since_drain`` counts chunks since the last
        *fully-successful fleet-wide* drain, on both snapshots.  The wrapper
        counter is the authority and overrides the per-shard sum here:
        after a partial drain failure (:class:`ShardDrainError`) the healthy
        shards have reset their own counters, but fleet-level the drain has
        not happened — a ``ChunkCountPolicy`` must keep re-triggering until
        the failed shard's windows are retried.  Without the override the
        two snapshots would disagree until the next full drain, and a
        controller sampling the sweep would misread the backlog as cleared.
        The per-shard counters remain what a *standalone* fleet reports;
        they are an implementation detail behind this wrapper.
        """
        return merge_stats(
            [shard.stats() for shard in self._shards],
            chunks_since_drain=self._chunks_since_drain,
        )

    def gap_stats(self) -> GapStats:
        """Lossy-mode gap accounting summed over every shard's monitors."""
        total = GapStats()
        for shard in self._shards:
            total = total + shard.gap_stats()
        return total

    def local_stats(self) -> DrainStats:
        """Queue snapshot from the fleet's own counters — no shard calls.

        Exact by construction: windows only enter or leave shard queues
        through this object, which records every reported queue depth.
        """
        if self._oldest_pending_t is not None:
            oldest_age = max(0.0, self._clock() - self._oldest_pending_t)
        else:
            oldest_age = 0.0
        return DrainStats(
            pending_windows=sum(self._pending_by_shard.values()),
            chunks_since_drain=self._chunks_since_drain,
            oldest_pending_age_s=oldest_age,
            n_patients=len(self._known_patients),
        )

    def should_drain(self) -> bool:
        return self.drain_policy is not None and self.drain_policy.should_drain(
            self.local_stats()
        )

    def maybe_drain(self) -> List[WindowDecision]:
        """Drain if the policy triggers on the local counters; else ``[]``."""
        if self.drain_policy is None:
            return []
        stats = self.local_stats()
        if not self.drain_policy.should_drain(stats):
            return []
        return self._drain(stats)

    def drain(self) -> List[WindowDecision]:
        """Drain every shard (one batched SVM call each); merge canonically.

        Decisions are returned in :func:`~repro.serving.fleet.decision_sort_key`
        order, independent of the shard layout.  If a shard fails, its
        windows stay queued there (each shard's drain is atomic — see
        :meth:`MonitorFleet.drain <repro.serving.fleet.MonitorFleet.drain>`)
        and a :class:`ShardDrainError` carrying the healthy shards' decisions
        is raised, so nothing is ever silently lost.
        """
        return self._drain(self.local_stats())

    def _drain(self, stats: DrainStats) -> List[WindowDecision]:
        decisions: List[WindowDecision] = []
        errors: Dict[int, Exception] = {}
        for shard, fleet in enumerate(self._shards):
            try:
                decisions.extend(fleet.drain())
            except Exception as exc:
                errors[shard] = exc
                continue
            self._pending_by_shard[shard] = 0
        if sum(self._pending_by_shard.values()) == 0:
            self._oldest_pending_t = None
        decisions.sort(key=decision_sort_key)
        if errors:
            # Keep the chunk counter: a chunk-count policy must re-trigger on
            # the very next poll so the failed shard's windows are retried,
            # exactly as a single fleet retries after a failed drain.
            raise ShardDrainError(errors, decisions)
        self._chunks_since_drain = 0
        if self.drain_policy is not None:
            self.drain_policy.notify_drain(stats)
        return decisions

    def run(
        self,
        streams: Mapping[int, Iterable[np.ndarray]],
        drain_every: int = 0,
        policy: DrainPolicy | None = None,
    ) -> List[WindowDecision]:
        """Round-robin driver — :func:`~repro.serving.fleet.run_streams`.

        Sharing the driver with :meth:`MonitorFleet.run` guarantees the same
        arrival order, drain scheduling and canonical output order, which is
        exactly what makes the output comparable decision-for-decision with
        a single fleet's.
        """
        return run_streams(self, streams, drain_every=drain_every, policy=policy)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """No-op: in-process shards hold no threads, processes or sockets.

        Kept so a ``ShardedFleet`` is a drop-in context manager wherever
        deployments and tests release a fleet.
        """

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
