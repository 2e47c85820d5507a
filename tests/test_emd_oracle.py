"""Multivariate EMD against an independent dense transportation LP.

The oracle below rebuilds the panel's shared grid from the paper's recipe
(reference mean/std frame, uniform edges over the union of every sample),
bins each sample with ``np.searchsorted`` and ``np.unique``, and solves the
*whole* transportation problem between the reference histogram and each
candidate's with ``scipy.optimize.linprog``: every occupied bin on both
sides, no mass cancelled in place. It shares neither the library's key
kernel, nor its bincount histogram, nor its residual cancellation, so a
fault in any of them shows as a different distance.
"""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.cleaning.base import CleaningContext
from repro.cleaning.registry import strategy_by_name
from repro.distance.emd import EarthMoverDistance
from repro.sampling.replication import generate_test_pairs


def _oracle_histograms(p, qs, n_bins):
    shift = p.mean(axis=0)
    scale = p.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    samples = [(x - shift) / scale for x in (p, *qs)]
    pooled = np.vstack(samples)
    edges = []
    for j in range(pooled.shape[1]):
        lo, hi = pooled[:, j].min(), pooled[:, j].max()
        if lo == hi:
            edges.append(np.array([lo - 0.5, hi + 0.5]))
        else:
            edges.append(np.linspace(lo, hi, n_bins + 1))
    dims = tuple(e.size - 1 for e in edges)
    hists = []
    for x in samples:
        idx = [
            np.clip(np.searchsorted(e, x[:, j], side="right") - 1, 0, e.size - 2)
            for j, e in enumerate(edges)
        ]
        keys, counts = np.unique(np.ravel_multi_index(idx, dims), return_counts=True)
        bins = np.unravel_index(keys, dims)
        centers = np.column_stack(
            [0.5 * (e[b] + e[b + 1]) for e, b in zip(edges, bins)]
        )
        hists.append((centers, counts / counts.sum()))
    return hists[0], hists[1:]


def _dense_emd(a_centers, a, b_centers, b):
    """Optimal transport cost between two histograms, every pair of bins a
    variable (the constraint matrix is stored sparse, the problem is not
    reduced)."""
    n, m = a.size, b.size
    cost = np.sqrt(((a_centers[:, None, :] - b_centers[None, :, :]) ** 2).sum(axis=2))
    var = np.arange(n * m)
    rows = np.concatenate([var // m, n + var % m])
    a_eq = coo_matrix(
        (np.ones(2 * n * m), (rows, np.concatenate([var, var]))), shape=(n + m, n * m)
    )
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert res.success, res.message
    return res.fun / a.sum()


def _complete(values):
    flat = values.reshape(-1, values.shape[-1])
    return flat[~np.isnan(flat).any(axis=1)]


def _replication_panels(bundle, n_series, n_pairs):
    """Pooled complete rows of each pair's dirty sample and its panel of
    treated samples (every paper strategy), on the raw scale and under
    the log of attribute 1."""
    strategies = [strategy_by_name(f"strategy{i}") for i in range(1, 6)]
    for seed, pair in enumerate(
        generate_test_pairs(bundle.dirty, bundle.ideal, n_pairs, n_series, seed=11)
    ):
        context = CleaningContext(
            ideal=pair.ideal, seed=seed, ideal_block=pair.ideal_block
        )
        treated = [s.clean_block(pair.dirty_block, context).values for s in strategies]
        yield _complete(pair.dirty_block.values), [_complete(t) for t in treated]
        logged = []
        for values in (pair.dirty_block.values, *treated):
            out = values.copy()
            with np.errstate(invalid="ignore", divide="ignore"):
                out[..., 0] = np.log(out[..., 0])
            out[~np.isfinite(out)] = np.nan
            logged.append(_complete(out))
        yield logged[0], logged[1:]


@pytest.mark.parametrize(
    "scale_fixture, n_series", [("tiny_bundle", 12), ("small_bundle", 40)],
    ids=["tiny", "small"],
)
def test_pairwise_matches_dense_lp(request, scale_fixture, n_series):
    bundle = request.getfixturevalue(scale_fixture)
    distance = EarthMoverDistance()  # the paper's: 16 uniform bins per dimension
    n_pairs = 2
    checked = 0
    for p, qs in _replication_panels(bundle, n_series, n_pairs):
        got = distance.pairwise(p, qs)
        (pc, pa), hqs = _oracle_histograms(p, qs, distance.binner.n_bins)
        for value, (qc, qb) in zip(got, hqs):
            want = _dense_emd(pc, pa, qc, qb)
            assert value == pytest.approx(want, rel=1e-9, abs=1e-12)
            checked += want > 0
    assert checked >= 4 * n_pairs  # the panels really move mass
