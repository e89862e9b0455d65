"""Per-patient model registry: heterogeneous fleets without losing batching.

The paper's whole premise is that every patient gets a *tailored* SVM design
point — their own selected features, pruned support-vector budget and chosen
bit widths.  Up to PR 3 the serving stack still classified every patient with
one shared model; this module closes that gap:

* :class:`InferenceBackend` — the structural protocol the fleets classify
  with.  :class:`~repro.svm.model.SVMModel` and
  :class:`~repro.quant.quantized_model.QuantizedSVM` satisfy it directly;
  the thin adapters :class:`~repro.svm.backend.FloatSVMBackend` and
  :class:`~repro.quant.backend.QuantizedSVMBackend` add the feature-column
  projection a reduced design point needs plus a stable :meth:`describe`
  label for per-model serving stats.
* :class:`ModelRegistry` — ``patient_id -> backend`` with a default
  fallback, buildable straight from :mod:`repro.core` combined-flow outputs
  (:func:`backend_from_design_point` turns a
  :class:`~repro.core.design_point.DesignPoint` into a trained, optionally
  quantised backend).  Hot-swap is first class: :meth:`ModelRegistry.register`
  replaces a patient's model atomically and bumps the registry *epoch*; a
  drain resolves backends at classification time, so the next drain uses the
  new model and :meth:`ModelRegistry.version_of` tells an operator which
  epoch installed the model a patient is currently served by.
* :func:`classify_grouped` — the heterogeneous drain kernel: pending windows
  are grouped by backend, each group is classified with **one** vectorised
  call, and the decisions are scattered back into the arrival order of the
  queue.  With a single shared backend this degenerates to exactly the old
  single-call drain — decision-for-decision, score-for-score — which is how
  the refactor preserves the serving layer's parity guarantee, now extended:
  a heterogeneous fleet's decisions are bit-identical to classifying each
  patient offline with their own model (``tests/test_serving_registry.py``).

The registry is deliberately *routing-invariant*: it maps patients, not
shards, so a patient's model follows them wherever the
:class:`~repro.serving.sharding.HashRing` places them, including across
reshards.  A :class:`~repro.serving.sharding.ShardedFleet` therefore shares
one registry object across all of its in-process shards.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.serving.streaming import PendingWindow, WindowDecision, classify_windows

__all__ = [
    "InferenceBackend",
    "ModelRegistry",
    "backend_from_design_point",
    "backend_label",
    "classify_grouped",
]


@runtime_checkable
class InferenceBackend(Protocol):
    """What a fleet needs from a model: one vectorised scores+labels call.

    Satisfied structurally by :class:`~repro.svm.model.SVMModel`,
    :class:`~repro.quant.quantized_model.QuantizedSVM` and the serving
    adapters.  Backends may additionally expose ``describe() -> str`` for the
    per-model drain stats; :func:`backend_label` falls back to the class name.
    """

    @property
    def n_features(self) -> int:  # pragma: no cover - protocol
        ...

    def scores_and_labels(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover - protocol
        ...


def backend_label(backend) -> str:
    """Stable human-readable label of a backend (for per-model stats)."""
    describe = getattr(backend, "describe", None)
    if callable(describe):
        return str(describe())
    return type(backend).__name__


def classify_grouped(
    resolve: Callable[[int], InferenceBackend], pending: Sequence[PendingWindow]
) -> List[WindowDecision]:
    """Classify a mixed-model batch: one vectorised call per model group.

    ``resolve`` maps a patient id to their backend (typically
    :meth:`ModelRegistry.backend_for`).  Windows sharing a backend are stacked
    and classified together through :func:`~repro.serving.streaming.classify_windows`
    — never a per-window loop — and the resulting decisions are scattered
    back into the arrival order of ``pending``, so the output is *exactly*
    what a single-model drain over the same queue would emit (same order,
    and bit-identical scores when every patient shares one backend).

    Backends are resolved for every window **before** anything is classified;
    an unknown patient therefore raises before any work is done, keeping the
    fleets' failed-drain-is-retryable contract intact.
    """
    groups: Dict[int, Tuple[InferenceBackend, List[int]]] = {}
    for index, window in enumerate(pending):
        backend = resolve(window.patient_id)
        entry = groups.get(id(backend))
        if entry is None:
            groups[id(backend)] = (backend, [index])
        else:
            entry[1].append(index)
    decisions: List[Optional[WindowDecision]] = [None] * len(pending)
    for backend, indices in groups.values():
        for index, decision in zip(
            indices, classify_windows(backend, [pending[i] for i in indices])
        ):
            decisions[index] = decision
    # Every slot must be filled: a hole would mean a window silently vanished
    # from the drain output — a lost seizure alarm, never acceptable.
    assert all(d is not None for d in decisions), "classify_grouped dropped a window"
    return decisions


class ModelRegistry:
    """``patient_id -> InferenceBackend`` with a default fallback and epochs.

    Parameters
    ----------
    default:
        Backend serving every patient without a tailored model.  ``None``
        makes the registry strict: :meth:`backend_for` raises
        :class:`KeyError` for unmodelled patients.
    models:
        Optional initial ``patient_id -> backend`` mapping.

    Hot-swap semantics
    ------------------
    Every mutation (:meth:`register`, :meth:`unregister`,
    :meth:`set_default`) bumps the monotonically increasing :attr:`epoch`
    and stamps the affected entry with it.  Fleets resolve backends at
    *classification* time, so a swap takes effect at the very next drain —
    no fleet restart, no queued-window loss — and
    :meth:`version_of` reports the epoch that installed the model a patient
    is currently served by (the default's stamp when they have no tailored
    entry).
    """

    def __init__(
        self,
        default: Optional[InferenceBackend] = None,
        models: Optional[Mapping[int, InferenceBackend]] = None,
    ) -> None:
        self._epoch = 0
        self._default: Optional[InferenceBackend] = None
        self._default_version = 0
        self._models: Dict[int, InferenceBackend] = {}
        self._versions: Dict[int, int] = {}
        if default is not None:
            self.set_default(default)
        for patient_id, backend in dict(models or {}).items():
            self.register(patient_id, backend)

    # ------------------------------------------------------------- mutation
    @property
    def epoch(self) -> int:
        """Monotonic counter bumped by every registry mutation."""
        return self._epoch

    @property
    def default(self) -> Optional[InferenceBackend]:
        return self._default

    def set_default(self, backend: InferenceBackend) -> int:
        """Install (or hot-swap) the fallback backend; returns the new epoch."""
        self._epoch += 1
        self._default = backend
        self._default_version = self._epoch
        return self._epoch

    def register(self, patient_id: int, backend: InferenceBackend) -> int:
        """Install (or hot-swap) one patient's tailored backend.

        Replaces any existing entry atomically and returns the new epoch —
        the version stamp :meth:`version_of` will report for this patient.
        """
        self._epoch += 1
        patient_id = int(patient_id)
        self._models[patient_id] = backend
        self._versions[patient_id] = self._epoch
        return self._epoch

    def unregister(self, patient_id: int) -> None:
        """Drop a patient's tailored backend (they fall back to the default)."""
        patient_id = int(patient_id)
        if patient_id not in self._models:
            raise KeyError("patient %d has no registered model" % patient_id)
        self._epoch += 1
        del self._models[patient_id]
        del self._versions[patient_id]

    # -------------------------------------------------------------- lookup
    def backend_for(self, patient_id: int) -> InferenceBackend:
        """The backend serving ``patient_id`` (their own, else the default)."""
        backend = self._models.get(int(patient_id), self._default)
        if backend is None:
            raise KeyError(
                "patient %d has no registered model and the registry has no default"
                % int(patient_id)
            )
        return backend

    def has_model(self, patient_id: int) -> bool:
        """Whether ``patient_id`` has a *tailored* (non-default) backend."""
        return int(patient_id) in self._models

    def version_of(self, patient_id: int) -> int:
        """Epoch that installed the backend currently serving ``patient_id``."""
        patient_id = int(patient_id)
        if patient_id in self._versions:
            return self._versions[patient_id]
        if self._default is None:
            raise KeyError(
                "patient %d has no registered model and the registry has no default"
                % patient_id
            )
        return self._default_version

    def label_for(self, patient_id: int) -> str:
        """Per-model stats label of the backend serving ``patient_id``."""
        return backend_label(self.backend_for(patient_id))

    @property
    def patient_ids(self) -> List[int]:
        """Patients with a tailored backend (default-served ones excluded)."""
        return sorted(self._models)

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, patient_id: int) -> bool:
        return self.has_model(patient_id)

    def backends(self) -> List[InferenceBackend]:
        """The distinct backends currently registered (default included)."""
        seen: Dict[int, InferenceBackend] = {}
        if self._default is not None:
            seen[id(self._default)] = self._default
        for backend in self._models.values():
            seen.setdefault(id(backend), backend)
        return list(seen.values())

    def __repr__(self) -> str:
        return "ModelRegistry(%d tailored, default=%s, epoch=%d)" % (
            len(self._models),
            backend_label(self._default) if self._default is not None else None,
            self._epoch,
        )

    # ------------------------------------------------------------- builders
    @classmethod
    def from_models(
        cls,
        models: Mapping[int, InferenceBackend],
        default: Optional[InferenceBackend] = None,
    ) -> "ModelRegistry":
        """Registry over an existing ``patient_id -> backend`` mapping."""
        return cls(default=default, models=models)

    @classmethod
    def from_design_points(
        cls,
        assignments: Mapping[int, "DesignPoint"],  # noqa: F821 - forward ref
        features,
        default: Optional["DesignPoint"] = None,  # noqa: F821 - forward ref
        *,
        quantization=None,
        kernel=None,
        train_params=None,
        chunk_fraction: float = 0.25,
    ) -> "ModelRegistry":
        """Build a registry straight from combined-flow design points.

        ``assignments`` maps each patient to the
        :class:`~repro.core.design_point.DesignPoint` they should run
        (e.g. the stages of a
        :class:`~repro.core.combined.CombinedFlowResult`, or points loaded
        back through :meth:`DesignPoint.from_json
        <repro.core.design_point.DesignPoint.from_json>`); ``features`` is
        the full-width training :class:`~repro.features.extractor.FeatureMatrix`.
        One backend is trained per *distinct* design configuration
        (feature count, SV budget, bit widths) and shared by every patient
        assigned to it — see :func:`backend_from_design_point` for how a
        point becomes a model and which
        :class:`~repro.quant.quantized_model.QuantizationConfig` knobs the
        ``quantization`` template contributes.
        """
        from repro.core.feature_selection import correlation_removal_order

        removal_order = correlation_removal_order(features.X)
        cache: Dict[tuple, InferenceBackend] = {}

        def build(point) -> InferenceBackend:
            # The name is part of the key: the backend's describe() label (and
            # hence the per-model drain ledger) carries it, so two same-config
            # points with different names must not share a mislabelled model.
            key = (
                str(point.name),
                int(point.n_features),
                int(round(point.n_support_vectors)),
                int(point.feature_bits),
                int(point.coeff_bits),
            )
            backend = cache.get(key)
            if backend is None:
                backend = cache[key] = backend_from_design_point(
                    point,
                    features,
                    quantization=quantization,
                    kernel=kernel,
                    train_params=train_params,
                    chunk_fraction=chunk_fraction,
                    removal_order=removal_order,
                )
            return backend

        registry = cls(default=build(default) if default is not None else None)
        for patient_id, point in assignments.items():
            registry.register(patient_id, build(point))
        return registry


def backend_from_design_point(
    point,
    features,
    *,
    quantization=None,
    kernel=None,
    train_params=None,
    chunk_fraction: float = 0.25,
    removal_order: Optional[Sequence[int]] = None,
) -> InferenceBackend:
    """Train the backend realising one combined-flow design point.

    Replays the stages of :func:`repro.core.combined.combined_optimisation_flow`
    for a single configuration, on the full training matrix:

    1. *feature reduction* — when ``point.n_features`` is below the matrix
       width, the correlation-driven removal order picks the kept columns
       (recorded on the backend as its projection indices, so it can consume
       the fleet's full-width window vectors);
    2. *SV budgeting* — the training set is budgeted to
       ``round(point.n_support_vectors)`` support vectors (a no-op when the
       unbudgeted model already fits);
    3. *bit-width reduction* — unless both widths are >= 64 (the float
       reference), the model is wrapped in the bit-accurate
       :class:`~repro.quant.quantized_model.QuantizedSVM`.

    ``quantization`` is an optional :class:`~repro.quant.quantized_model.QuantizationConfig`
    *template*: its truncation knobs (``truncate_after_dot``,
    ``truncate_after_square``), scaling scheme (``per_feature_scaling``,
    ``range_margin_sigma``) and ``datapath_cap_bits`` are kept while the
    design point's ``feature_bits`` / ``coeff_bits`` replace the widths.
    """
    import dataclasses

    from repro.core.feature_selection import correlation_removal_order, select_features
    from repro.quant.backend import QuantizedSVMBackend
    from repro.quant.quantized_model import QuantizationConfig, QuantizedSVM
    from repro.svm.backend import FloatSVMBackend
    from repro.svm.budget import BudgetParams, budget_training_set
    from repro.svm.kernels import PolynomialKernel
    from repro.svm.model import train_svm

    n_keep = int(point.n_features)
    if not 1 <= n_keep <= features.n_features:
        raise ValueError(
            "design point %r wants %d features but the matrix has %d"
            % (point.name, n_keep, features.n_features)
        )
    feature_indices: Optional[List[int]] = None
    X = features.X
    if n_keep < features.n_features:
        if removal_order is None:
            removal_order = correlation_removal_order(features.X)
        feature_indices = select_features(features.X, n_keep, removal_order)
        X = features.X[:, feature_indices]

    quad = kernel or PolynomialKernel(degree=2)
    budget = int(round(point.n_support_vectors))
    if budget >= 2:
        model, _ = budget_training_set(
            X,
            features.y,
            kernel=quad,
            train_params=train_params,
            budget_params=BudgetParams(budget=budget, chunk_fraction=chunk_fraction),
        )
    else:
        model = train_svm(X, features.y, kernel=quad, params=train_params)

    if point.feature_bits >= 64 and point.coeff_bits >= 64:
        return FloatSVMBackend(model, feature_indices=feature_indices, name=point.name)
    template = quantization if quantization is not None else QuantizationConfig()
    config = dataclasses.replace(
        template,
        feature_bits=int(point.feature_bits),
        coeff_bits=int(point.coeff_bits),
    )
    return QuantizedSVMBackend(
        QuantizedSVM(model, config), feature_indices=feature_indices, name=point.name
    )
