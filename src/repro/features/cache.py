"""Overlap-aware cache of per-beat feature partials.

Overlapping analysis windows (``step_s < window_s``, and the seizure-enriched
stride of the offline grid) recompute the same per-beat-pair quantities many
times: the successive RR differences, their squares, the NN50 indicator, the
instantaneous heart rate and the rotated Lorenz-plot coordinates.  All of
these are *elementwise* functions of one or two adjacent RR intervals, so
their values do not depend on which window they are computed in — they can be
cached per absolute beat index and sliced per window.

Window-global quantities (means, standard deviations, the Welch/Burg spectra
of the EDR series, the tachogram resampling grid) are **not** cacheable: they
aggregate over — or are parameterised by — the whole window, so a different
window produces different intermediates even over shared beats.  The cache
therefore holds exactly the elementwise layer and nothing else, which is what
keeps the cached path bit-identical to the full recompute (pinned by the
hot-path property suite and the ``feature_cache=False`` parity flag).

Keying uses :attr:`repro.signals.windows.BeatWindow.first_beat_index` — the
absolute index of the window's first beat in the emitting windower's lifetime
stream.  The index is monotone across ring retirement and across
:meth:`~repro.signals.windows.StreamingWindower.reset` (sequence-gap
recovery), so a pre-gap beat can never alias a post-gap one; as a second
line of defence the cached RR values themselves are compared on the overlap
and any mismatch reseeds the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["BeatPartials", "BeatPartialCache"]

#: Rotation constant of the Lorenz-plot coordinates (the same literal
#: ``np.sqrt(2.0)`` the reference implementation divides by).
_SQRT2 = np.sqrt(2.0)

#: NN50 threshold in seconds (50 ms), as in the reference HRV path.
_NN50_THRESHOLD_S = 0.050


@dataclass(frozen=True)
class BeatPartials:
    """Elementwise feature partials of one window, sliced from the cache.

    Every array is aligned with the window's own RR vector: ``hr`` has one
    entry per RR interval; the pairwise arrays (``succ*``, ``nn50``,
    ``lor_*``) have one entry per *adjacent* RR pair, i.e. one fewer.
    """

    succ: np.ndarray
    succ_sq: np.ndarray
    nn50: np.ndarray
    hr: np.ndarray
    lor_diff: np.ndarray
    lor_sum: np.ndarray


def _pairwise(rr: np.ndarray) -> tuple:
    """All cached elementwise quantities of an RR block.

    The expressions are exactly the reference ones in
    :func:`repro.features.hrv.hrv_features` and
    :func:`repro.features.lorenz.poincare_sd`; being elementwise, computing
    them over any block that contains a pair yields the same bits for it.
    """
    succ = np.diff(rr)
    succ_sq = succ**2
    nn50 = np.abs(succ) > _NN50_THRESHOLD_S
    hr = 60.0 / rr
    x = rr[:-1]
    y = rr[1:]
    lor_diff = (y - x) / _SQRT2
    lor_sum = (y + x) / _SQRT2
    return succ, succ_sq, nn50, hr, lor_diff, lor_sum


class BeatPartialCache:
    """Per-patient sliding cache of elementwise beat partials.

    One instance serves one windower's emission stream.  Each request either
    *extends* the cache by the window's new tail (the overlap case: only the
    beats past the previous window's end are computed) or *reseeds* it from
    scratch (first window, backward jump, gap, or an RR mismatch on the
    overlap).  Entries behind the requested window are trimmed, so the cache
    never holds more than roughly one window of state.
    """

    def __init__(self) -> None:
        self._start = 0  # absolute RR index of self._rr[0]
        self._rr: np.ndarray = np.empty(0)
        self._succ: np.ndarray = np.empty(0)
        self._succ_sq: np.ndarray = np.empty(0)
        self._nn50: np.ndarray = np.empty(0, dtype=bool)
        self._hr: np.ndarray = np.empty(0)
        self._lor_diff: np.ndarray = np.empty(0)
        self._lor_sum: np.ndarray = np.empty(0)
        self.hits = 0
        self.reseeds = 0

    def _reseed(self, first: int, rr: np.ndarray) -> None:
        self._start = first
        self._rr = rr.copy()
        (
            self._succ,
            self._succ_sq,
            self._nn50,
            self._hr,
            self._lor_diff,
            self._lor_sum,
        ) = _pairwise(self._rr)
        self.reseeds += 1

    def partials_for(self, first_beat_index: int, rr: np.ndarray) -> Optional[BeatPartials]:
        """Partials of a window whose RR vector starts at an absolute index.

        Returns ``None`` when the window cannot be cached (unknown
        provenance or too few intervals); callers then run the full
        recompute.
        """
        rr = np.asarray(rr, dtype=float)
        m = int(rr.shape[0])
        if first_beat_index < 0 or m < 2:
            return None
        first = int(first_beat_index)
        end = self._start + self._rr.shape[0]
        if self._rr.shape[0] == 0 or first < self._start or first > end:
            # Empty cache, backward jump, or a gap with no shared beats.
            self._reseed(first, rr)
        else:
            j0 = first - self._start
            overlap = min(self._rr.shape[0] - j0, m)
            if not np.array_equal(self._rr[j0 : j0 + overlap], rr[:overlap]):
                # The stream disagrees with the cache (e.g. a revived monitor
                # with a fresh cache counter): trust the window, start over.
                self._reseed(first, rr)
            elif overlap < m:
                # Extend by the new tail.  Pairwise entries spanning the seam
                # need the last cached RR, so recompute from one before it —
                # elementwise, hence bit-identical to a full-window pass.
                grown = np.concatenate((self._rr[j0:], rr[overlap:]))
                seam = max(overlap - 1, 0)
                succ, succ_sq, nn50, hr, lor_diff, lor_sum = _pairwise(grown[seam:])
                self._start = first
                self._rr = grown
                self._succ = np.concatenate((self._succ[j0 : j0 + seam], succ))
                self._succ_sq = np.concatenate((self._succ_sq[j0 : j0 + seam], succ_sq))
                self._nn50 = np.concatenate((self._nn50[j0 : j0 + seam], nn50))
                self._hr = np.concatenate((self._hr[j0 : j0 + seam], hr))
                self._lor_diff = np.concatenate((self._lor_diff[j0 : j0 + seam], lor_diff))
                self._lor_sum = np.concatenate((self._lor_sum[j0 : j0 + seam], lor_sum))
                if overlap > 0:  # a window starting at the cache's end reuses nothing
                    self.hits += 1
            else:
                # Fully contained in the cache: trim the prefix lazily below.
                if j0 > 0:
                    self._start = first
                    self._rr = self._rr[j0:].copy()
                    self._succ = self._succ[j0:].copy()
                    self._succ_sq = self._succ_sq[j0:].copy()
                    self._nn50 = self._nn50[j0:].copy()
                    self._hr = self._hr[j0:].copy()
                    self._lor_diff = self._lor_diff[j0:].copy()
                    self._lor_sum = self._lor_sum[j0:].copy()
                self.hits += 1
        return BeatPartials(
            succ=self._succ[: m - 1],
            succ_sq=self._succ_sq[: m - 1],
            nn50=self._nn50[: m - 1],
            hr=self._hr[:m],
            lor_diff=self._lor_diff[: m - 1],
            lor_sum=self._lor_sum[: m - 1],
        )
