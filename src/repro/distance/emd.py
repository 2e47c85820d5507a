"""Earth Mover's Distance — the paper's statistical-distortion metric.

Section 3.5: EMD is the minimum-cost flow between two binned distributions on
a shared support, normalised by total flow. For probability distributions the
total flow is 1, so EMD equals the optimal transportation cost; we keep the
explicit normalisation anyway to match the paper's formula.

Three computation paths:

* **1-D exact, sample-level** (:func:`emd_1d`): no binning at all — the L1
  distance between empirical CDFs, which is the exact 1-Wasserstein distance.
* **1-D exact, histogram-level**: univariate histogram pairs bypass the dense
  transport solve entirely through the vectorised closed form
  :func:`~repro.distance.transport.transport_cost_1d` (the optimum is the
  CDF-difference integral, so no LP is needed and no accuracy is lost).
* **Multivariate** (:class:`EarthMoverDistance`): samples are binned on a
  shared grid (:class:`~repro.distance.histogram.HistogramBinner`), the
  ground distance is the Euclidean distance between occupied bin centres in
  the binner's standardised coordinates, and the flow is solved by
  :func:`~repro.distance.transport.solve_transport`.

For scoring many candidate distributions against one reference (the
experiment framework's per-strategy distortions), use
:meth:`EarthMoverDistance.pairwise` / :func:`pairwise_emd`: the reference is
standardised, sorted and binned once, and all candidates share one grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distance.base import Distance, clean_panel, clean_sample
from repro.distance.histogram import HistogramBinner, SparseHistogram
from repro.distance.transport import (
    solve_transport_batch,
    transport_cost_1d,
)
from repro.errors import DistanceError
from repro.stats.ecdf import Ecdf

__all__ = [
    "emd_1d",
    "EarthMoverDistance",
    "emd_between_histograms",
    "emd_between_histograms_batch",
    "pairwise_emd",
]


def emd_1d(x: np.ndarray, y: np.ndarray) -> float:
    """Exact 1-D Earth Mover's (1-Wasserstein) distance between samples.

    Computed as the integral of ``|F - G|``; NaNs are dropped.
    """
    x = clean_sample(x, "x").ravel()
    y = clean_sample(y, "y").ravel()
    return Ecdf(x).l1_distance(Ecdf(y))


def emd_between_histograms(
    p: SparseHistogram, q: SparseHistogram, backend: str = "auto"
) -> float:
    """EMD between two pre-binned distributions on a common coordinate frame.

    The ground distance is the Euclidean distance between bin centres —
    ``|b_i - b_j|`` in the paper's notation. Univariate histograms skip the
    dense solver: on the line the optimum has the closed form computed by
    :func:`~repro.distance.transport.transport_cost_1d`, which every dense
    backend would only reproduce at greater cost.

    When both histograms carry grid ``keys`` (same binner call), the mass the
    two sides share bin-for-bin is settled in place first: the ground
    distance is a metric (``c(i, i) = 0`` + triangle inequality), so an
    optimal plan never pays to move mass a bin could keep, and only the
    **residual** marginals enter the transportation solve. A treated sample
    typically coincides with its dirty reference on most records, so the LP
    shrinks from hundreds of occupied bins per side to the few that actually
    changed — the dominant term of the experiment loop's distortion cost.
    """
    return emd_between_histograms_batch(p, [q], backend=backend)[0]


def emd_between_histograms_batch(
    p: SparseHistogram, qs: Sequence[SparseHistogram], backend: str = "auto"
) -> list[float]:
    """EMD from one reference histogram to each candidate.

    The experiment framework's panel form: every candidate's shared mass is
    cancelled against the reference, and the surviving residual problems are
    solved in **one** block-diagonal call
    (:func:`~repro.distance.transport.solve_transport_batch`), amortising
    the LP-solver call overhead over the whole strategy panel. With a single
    candidate this is exactly :func:`emd_between_histograms`.
    """
    results: list[float] = [0.0] * len(qs)
    instances = []
    slots: list[tuple[int, float]] = []
    for k, q in enumerate(qs):
        if p.dim != q.dim:
            raise DistanceError(
                f"dimension mismatch: p has d={p.dim}, q has d={q.dim}"
            )
        if p.dim == 1:
            # probs sum to 1 on both sides, so total flow is 1 and the
            # normalised EMD equals the raw transport cost.
            results[k] = transport_cost_1d(
                p.centers.ravel(), p.probs, q.centers.ravel(), q.probs
            )
            continue
        total = float(p.probs.sum())
        supply, demand = p.probs, q.probs
        p_centers, q_centers = p.centers, q.centers
        if p.keys is not None and q.keys is not None:
            _, ip, iq = np.intersect1d(
                p.keys, q.keys, assume_unique=True, return_indices=True
            )
            shared = np.minimum(supply[ip], demand[iq])
            supply = supply.copy()
            demand = demand.copy()
            supply[ip] -= shared
            demand[iq] -= shared
            # Guard against negative round-off residue before re-solving.
            keep_p = supply > 0
            keep_q = demand > 0
            residual = float(supply[keep_p].sum())
            if residual <= 1e-15 * max(total, 1.0):
                results[k] = 0.0
                continue
            supply, demand = supply[keep_p], demand[keep_q]
            p_centers, q_centers = p_centers[keep_p], q_centers[keep_q]
        diff = p_centers[:, None, :] - q_centers[None, :, :]
        cost = np.sqrt(np.sum(diff * diff, axis=2))
        instances.append((supply, demand, cost))
        slots.append((k, total))
    if instances:
        solved = solve_transport_batch(instances, backend=backend)
        for (k, total), result in zip(slots, solved):
            # Normalise by the *full* mass: the shared part moved zero
            # distance but still counts as flow, exactly as in the
            # unreduced problem.
            results[k] = result.cost / total if total > 0 else 0.0
    return results


class EarthMoverDistance(Distance):
    """EMD between two empirical samples, as used throughout the paper.

    Parameters
    ----------
    n_bins:
        Bins per dimension for the shared grid (the paper stresses EMD "is
        not affected by binning differences"; the bin-sensitivity ablation
        bench verifies this empirically).
    binning, standardize:
        Forwarded to :class:`HistogramBinner`. The default is **uniform**
        binning: equal-mass (quantile) bins place a single huge bin over a
        heavy tail, hiding movements *within* that tail — e.g. Winsorization
        pulling a far outlier to the 3-sigma limit can land start and end in
        the same quantile bin and register zero distance. Uniform bins keep
        cross-bin distances faithful everywhere, which is what the paper's
        "not affected by binning differences" argument assumes.
    backend:
        Transportation solver backend (``"auto"``/``"simplex"``/``"highs"``/
        ``"networkx"``) for the multivariate path.
    exact_1d:
        Use the exact CDF path for univariate inputs (default True).
    """

    name = "emd"

    def __init__(
        self,
        n_bins: int = 16,
        binning: str = "uniform",
        standardize: bool = True,
        backend: str = "auto",
        exact_1d: bool = True,
    ):
        self.binner = HistogramBinner(
            n_bins=n_bins, binning=binning, standardize=standardize
        )
        self.backend = backend
        self.exact_1d = exact_1d

    def compute(self, p: np.ndarray, q: np.ndarray) -> float:
        if p.shape[1] == 1 and self.exact_1d and not self.binner.standardize:
            return emd_1d(p.ravel(), q.ravel())
        if p.shape[1] == 1 and self.exact_1d:
            # Standardise with the reference frame, then use the exact path;
            # this keeps 1-D results comparable with multivariate ones.
            shift, scale = self.binner.reference_frame(p)
            return emd_1d((p.ravel() - shift[0]) / scale[0], (q.ravel() - shift[0]) / scale[0])
        hp, hq = self.binner.histogram_pair(p, q)
        return emd_between_histograms(hp, hq, backend=self.backend)

    # -- batch path -----------------------------------------------------------

    def pairwise(self, p: np.ndarray, qs: Sequence[np.ndarray]) -> list[float]:
        """EMD from one reference to each of many candidates.

        The batched fast path of the experiment framework: the reference is
        validated, standardised and (for the exact univariate path) sorted
        into an ECDF exactly once, and the multivariate path bins every
        distribution on one shared grid covering the pooled support —
        instead of re-binning the reference per candidate. With a single
        candidate the result matches :meth:`compute` exactly.
        """
        p, cleaned = clean_panel(p, qs)
        if not cleaned:
            return []
        if p.shape[1] == 1 and self.exact_1d:
            shift, scale = self.binner.reference_frame(p)
            ref = Ecdf((p.ravel() - shift[0]) / scale[0])
            return [
                ref.l1_distance(Ecdf((q.ravel() - shift[0]) / scale[0]))
                for q in cleaned
            ]
        hp, hqs = self.binner.histogram_group(p, cleaned)
        return emd_between_histograms_batch(hp, hqs, backend=self.backend)


def pairwise_emd(
    reference: np.ndarray,
    candidates: Sequence[np.ndarray],
    n_bins: int = 16,
    binning: str = "uniform",
    standardize: bool = True,
    backend: str = "auto",
    exact_1d: bool = True,
) -> list[float]:
    """EMD from *reference* to each candidate, with shared-grid caching.

    Convenience wrapper around :meth:`EarthMoverDistance.pairwise` for call
    sites that do not hold a distance instance.
    """
    distance = EarthMoverDistance(
        n_bins=n_bins,
        binning=binning,
        standardize=standardize,
        backend=backend,
        exact_1d=exact_1d,
    )
    return distance.pairwise(reference, candidates)
