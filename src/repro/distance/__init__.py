"""Statistical distances between empirical distributions.

Definition 1 of the paper: statistical distortion is ``d(D, DC)`` for a
distributional distance ``d``; "possible distances are the Earth Mover's,
Kullback-Liebler or Mahalanobis distances" — all three are implemented here,
with EMD (Section 3.5) as the primary metric, plus approximate EMD variants
and a Kolmogorov-Smirnov extension.
"""

from repro.distance.base import Distance
from repro.distance.emd import EarthMoverDistance, emd_1d, pairwise_emd
from repro.distance.emd_approx import MarginalEmd, SlicedEmd
from repro.distance.histogram import (
    HistogramBinner,
    HistogramGrid,
    SparseHistogram,
)
from repro.distance.kl import JensenShannonDistance, KLDivergence
from repro.distance.ks import KolmogorovSmirnovDistance
from repro.distance.mahalanobis import MahalanobisDistance
from repro.distance.transport import (
    TransportResult,
    solve_transport,
    solve_transport_batch,
    transport_cost_1d,
)
from repro.errors import DistanceError

#: Registered distances by their short ``name`` identifier — the vocabulary
#: of every ``distance=`` selector string (``ExperimentConfig(distance=...)``,
#: the benches' ablation cells).
DISTANCES: dict[str, type] = {
    cls.name: cls
    for cls in (
        EarthMoverDistance,
        KLDivergence,
        JensenShannonDistance,
        KolmogorovSmirnovDistance,
        MahalanobisDistance,
        SlicedEmd,
        MarginalEmd,
    )
}


def parse_distance_spec(spec: str) -> str:
    """Validate and normalise a distance-selector name.

    Returns the lowercased, stripped name; raises
    :class:`~repro.errors.DistanceError` for unknown names so a typo in an
    :class:`~repro.core.framework.ExperimentConfig` fails at construction,
    not deep inside a run.
    """
    name = str(spec).strip().lower()
    if name not in DISTANCES:
        raise DistanceError(
            f"unknown distance {spec!r}; registered: {sorted(DISTANCES)}"
        )
    return name


def distance_by_name(spec: str, **kwargs) -> Distance:
    """Instantiate a registered distance from its ``name`` identifier.

    Keyword arguments are forwarded to the distance constructor
    (``distance_by_name("kl", binning="uniform")``).
    """
    return DISTANCES[parse_distance_spec(spec)](**kwargs)


__all__ = [
    "Distance",
    "DISTANCES",
    "distance_by_name",
    "parse_distance_spec",
    "EarthMoverDistance",
    "emd_1d",
    "pairwise_emd",
    "SlicedEmd",
    "MarginalEmd",
    "HistogramBinner",
    "HistogramGrid",
    "SparseHistogram",
    "KLDivergence",
    "JensenShannonDistance",
    "KolmogorovSmirnovDistance",
    "MahalanobisDistance",
    "TransportResult",
    "solve_transport",
    "solve_transport_batch",
    "transport_cost_1d",
]
