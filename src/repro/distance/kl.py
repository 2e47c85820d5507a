"""Kullback-Leibler and Jensen-Shannon divergences on a shared binning.

Definition 1 lists KL as an alternative distortion measure. Empirical KL on
histograms requires smoothing (a cleaned bin with zero dirty mass would blow
up the divergence); we use additive (Laplace) smoothing with a configurable
per-bin pseudo-count.

Both divergences are pure functions of bin masses on a shared grid: a panel
is binned once on the union support (:meth:`HistogramBinner.histogram_group
<repro.distance.histogram.HistogramBinner.histogram_group>`), and each
candidate's masses are aligned with the reference's by grid key
(:func:`aligned_probs`) before the divergence is taken.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distance.base import Distance, clean_panel
from repro.distance.histogram import HistogramBinner, SparseHistogram
from repro.errors import DistanceError

__all__ = ["KLDivergence", "JensenShannonDistance", "aligned_probs"]


def aligned_probs(
    hp: SparseHistogram, hq: SparseHistogram
) -> tuple[np.ndarray, np.ndarray]:
    """Align two same-grid histograms' masses on their union of occupied bins.

    Alignment is by the histograms' shared-grid ``keys`` (flat bin indices
    from one binner call), never by bin-centre coordinates: coordinate keys
    break whenever distinct byte patterns compare equal as floats (``-0.0``
    vs ``0.0``), silently splitting one bin into two and inflating any
    divergence computed on the result.
    """
    if hp.keys is None or hq.keys is None:
        raise DistanceError(
            "aligned_probs needs histograms carrying shared-grid keys "
            "(produced by the same binner call / HistogramGrid)"
        )
    keys = np.union1d(hp.keys, hq.keys)
    ap = np.zeros(keys.size)
    aq = np.zeros(keys.size)
    ap[np.searchsorted(keys, hp.keys)] = hp.probs
    aq[np.searchsorted(keys, hq.keys)] = hq.probs
    return ap, aq


class KLDivergence(Distance):
    """Smoothed histogram KL divergence ``KL(P || Q)``.

    Parameters
    ----------
    n_bins, binning, standardize:
        Forwarded to :class:`HistogramBinner` (shared support, like EMD).
    pseudo_count:
        Additive smoothing mass added to **each** occupied-union bin: with
        ``k`` bins in the union, a bin mass ``m`` becomes
        ``(m + pseudo_count) / (1 + k * pseudo_count)``. The default 1e-4
        is a Jeffreys-style half-count at the framework's typical pooled
        sample sizes (0.5 / ~5000 rows) — small enough that the smoothing
        mass stays well below the data mass at any realistic bin count,
        large enough to keep a zero-mass candidate bin finite.
    symmetrized:
        When True, returns ``(KL(P||Q) + KL(Q||P)) / 2``.
    """

    name = "kl"

    def __init__(
        self,
        n_bins: int = 8,
        binning: str = "quantile",
        standardize: bool = True,
        pseudo_count: float = 1e-4,
        symmetrized: bool = False,
    ):
        if pseudo_count <= 0:
            raise DistanceError("pseudo_count must be positive (KL needs smoothing)")
        self.binner = HistogramBinner(n_bins=n_bins, binning=binning, standardize=standardize)
        self.pseudo_count = float(pseudo_count)
        self.symmetrized = symmetrized

    def _kl(self, a: np.ndarray, b: np.ndarray) -> float:
        # Per-bin additive smoothing: add pseudo_count to every one of the
        # k union bins, then renormalise by the total added mass.
        k = a.size
        norm = 1.0 + k * self.pseudo_count
        a = (a + self.pseudo_count) / norm
        b = (b + self.pseudo_count) / norm
        return float(np.sum(a * np.log(a / b)))

    def _from_pair(self, hp: SparseHistogram, hq: SparseHistogram) -> float:
        ap, aq = aligned_probs(hp, hq)
        if self.symmetrized:
            return 0.5 * (self._kl(ap, aq) + self._kl(aq, ap))
        return self._kl(ap, aq)

    def compute(self, p: np.ndarray, q: np.ndarray) -> float:
        hp, hq = self.binner.histogram_pair(p, q)
        return self._from_pair(hp, hq)

    def pairwise(self, p: np.ndarray, qs: Sequence[np.ndarray]) -> list[float]:
        """KL from one reference to each candidate on ONE shared grid.

        Panel semantics match :meth:`EarthMoverDistance.pairwise
        <repro.distance.emd.EarthMoverDistance.pairwise>`: the grid spans
        the pooled union support of the whole group and the reference is
        binned once — with a single candidate this equals :meth:`compute`
        bit for bit.
        """
        if not qs:
            return []
        hp, hqs = _panel_histograms(self.binner, p, qs)
        return self.between_histograms_batch(hp, hqs)

    def between_histograms_batch(
        self, hp: SparseHistogram, hqs: Sequence[SparseHistogram]
    ) -> list[float]:
        """Divergence of each candidate histogram from the reference.

        *hp* and *hqs* must come from one binner call, so their grid keys
        align.
        """
        return [self._from_pair(hp, hq) for hq in hqs]


class JensenShannonDistance(Distance):
    """Jensen-Shannon *distance* (square root of JS divergence, natural log).

    Bounded by ``sqrt(log 2)`` and symmetric — a better-behaved cousin of KL
    for reporting, included as an extension.
    """

    name = "js"

    def __init__(
        self, n_bins: int = 8, binning: str = "quantile", standardize: bool = True
    ):
        self.binner = HistogramBinner(n_bins=n_bins, binning=binning, standardize=standardize)

    def _from_pair(self, hp: SparseHistogram, hq: SparseHistogram) -> float:
        ap, aq = aligned_probs(hp, hq)
        mix = 0.5 * (ap + aq)

        def kl_to_mix(a: np.ndarray) -> float:
            mask = a > 0
            return float(np.sum(a[mask] * np.log(a[mask] / mix[mask])))

        js = 0.5 * kl_to_mix(ap) + 0.5 * kl_to_mix(aq)
        return float(np.sqrt(max(js, 0.0)))

    def compute(self, p: np.ndarray, q: np.ndarray) -> float:
        hp, hq = self.binner.histogram_pair(p, q)
        return self._from_pair(hp, hq)

    def pairwise(self, p: np.ndarray, qs: Sequence[np.ndarray]) -> list[float]:
        """Shared-grid panel form; see :meth:`KLDivergence.pairwise`."""
        if not qs:
            return []
        hp, hqs = _panel_histograms(self.binner, p, qs)
        return self.between_histograms_batch(hp, hqs)

    def between_histograms_batch(
        self, hp: SparseHistogram, hqs: Sequence[SparseHistogram]
    ) -> list[float]:
        """JS distance of each candidate histogram from the reference."""
        return [self._from_pair(hp, hq) for hq in hqs]


def _panel_histograms(
    binner: HistogramBinner, p: np.ndarray, qs: Sequence[np.ndarray]
) -> tuple[SparseHistogram, list[SparseHistogram]]:
    """Validated shared-grid histograms of a reference and its panel."""
    p, cleaned = clean_panel(p, qs)
    return binner.histogram_group(p, cleaned)
