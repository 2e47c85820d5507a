"""Multivariate-normal model imputation — the SAS ``PROC MI`` analogue.

Section 5.1's Strategies 1 and 2 impute missing and inconsistent values with
SAS ``PROC MI``, whose default model is a multivariate Gaussian. We implement
the same model from scratch:

1. **EM** (:func:`fit_mvn_em`) estimates the MVN mean and covariance from the
   incomplete pooled sample. Rows are reduced once to per-missing-pattern
   moment matrices, so each E-step is one stacked conditional-normal solve
   over the patterns and a few small matrix products, whatever the number of
   rows.
2. **Conditional draws** (:func:`draw_conditional`) impute each incomplete
   row from the conditional normal ``x_miss | x_obs`` under the fitted
   parameters — the stochastic-imputation flavour that reproduces the spread
   of the grey points in the paper's Figure 4.

The paper's central cautionary finding depends on this model being *wrong*
for the data: a Gaussian fitted to a right-skewed positive attribute happily
imputes negative values (new constraint-1 violations, Figure 4a), and a
Gaussian fitted to a ratio hugging 1 imputes values above 1 (new constraint-2
violations, Figure 5). Nothing here tries to prevent that — it is the
phenomenon under study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cleaning.base import CleaningContext, MissingInconsistentTreatment
from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import CleaningError, ValidationError
from repro.utils.rows import rows_all
from repro.utils.validation import check_finite, check_positive_int

__all__ = ["MvnEmEstimate", "fit_mvn_em", "draw_conditional", "MvnImputation"]


@dataclass(frozen=True)
class MvnEmEstimate:
    """Fitted MVN parameters plus EM diagnostics."""

    mean: np.ndarray
    cov: np.ndarray
    n_iter: int
    converged: bool

    @property
    def dim(self) -> int:
        """Dimensionality of the fitted normal."""
        return int(self.mean.size)


def _pattern_groups(mask: np.ndarray) -> dict[bytes, np.ndarray]:
    """Group row indices by missing pattern (key = packed boolean bytes).

    Groups appear in first-occurrence order with ascending row indices —
    the iteration order both EM accumulation and the conditional draws rely
    on — but the grouping itself is a vectorised sort instead of a Python
    row loop (the old implementation's hottest line at block scale).
    """
    mask = np.asarray(mask, dtype=bool)
    n, d = mask.shape
    if n == 0:
        return {}
    if d > 62:  # pragma: no cover - bit-packing would overflow; row-loop fallback
        groups: dict[bytes, list[int]] = {}
        for i, row in enumerate(mask):
            groups.setdefault(row.tobytes(), []).append(i)
        return {k: np.asarray(v) for k, v in groups.items()}
    bit_weights = np.int64(1) << np.arange(d, dtype=np.int64)
    codes = mask.astype(np.int64) @ bit_weights
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    stops = np.r_[starts[1:], n]
    # Stable sort keeps each group's indices ascending; reorder the groups
    # themselves by their first (smallest) index to match insertion order.
    chunks = sorted(
        (int(order[start]), int(sorted_codes[start]), order[start:stop])
        for start, stop in zip(starts, stops)
    )
    out: dict[bytes, np.ndarray] = {}
    for _, code, idx in chunks:
        pattern = ((code >> np.arange(d, dtype=np.int64)) & 1).astype(bool)
        out[pattern.tobytes()] = idx
    return out


def _em_settings(max_iter, tol, ridge) -> tuple[int, float, float]:
    """Validate EM settings, raising :class:`CleaningError` for bad ones."""
    try:
        max_iter = check_positive_int(max_iter, "max_iter")
        tol = check_finite(tol, "tol")
        ridge = check_finite(ridge, "ridge")
    except ValidationError as exc:
        raise CleaningError(str(exc)) from None
    if tol <= 0:
        raise CleaningError(f"tol must be > 0, got {tol}")
    if ridge < 0:
        raise CleaningError(f"ridge must be >= 0, got {ridge}")
    return max_iter, tol, ridge


def _start_moments(
    filled: np.ndarray, miss: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-attribute observed mean and (biased) variance of an ``(N, d)``
    matrix, from its zero-filled form *filled* and missing mask *miss*.

    The same sums and divisions ``np.nanmean`` / ``np.nanvar`` perform on
    their own zero-filled copy, so bitwise their values, with no NaN scan
    of the data.
    """
    count = len(filled) - miss.sum(axis=0)
    mean = filled.sum(axis=0) / count
    dev = np.where(miss, 0.0, filled - mean)
    return mean, (dev * dev).sum(axis=0) / count


def fit_mvn_em(
    data: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-6,
    ridge: float = 1e-9,
) -> MvnEmEstimate:
    """EM estimate of an MVN mean/covariance from data with NaNs.

    The E-step runs on per-pattern sufficient statistics. Once per fit, each
    missing-pattern group ``g`` is reduced to ``W_g = sum [1; x_o][1; x_o]'``
    over its rows (zeros at the missing cells). Each iteration then takes one
    stacked solve over all patterns for their regressions of the missing
    block on the observed one (the observed block padded with identity on
    the missing diagonal), and the expected moments of ``[1; x]`` are
    ``sum_g A_g W_g A_g' + n_g C_g``: ``A_g`` is the affine map filling the
    missing cells with their conditional means, and ``C_g`` is the
    conditional covariance of the missing block, zero-padded. The cost of
    an iteration depends on the number of patterns, not on ``N``.

    Parameters
    ----------
    data:
        ``(N, d)`` array; NaN marks missing entries, and no other cell may be
        non-finite. Rows that are entirely missing carry no information and
        are dropped up front.
    max_iter, tol:
        EM stops when the max absolute parameter change falls below *tol*
        (``tol > 0``), or after *max_iter* (``>= 1``) iterations.
    ridge:
        Relative diagonal regulariser (``>= 0``) keeping the covariance
        invertible.
    """
    max_iter, tol, ridge = _em_settings(max_iter, tol, ridge)
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise CleaningError(f"data must be (N, d), got shape {x.shape}")
    if np.isinf(x).any():
        raise CleaningError("data has an infinite cell; only NaN marks a missing value")
    x = np.ascontiguousarray(x)  # row-major sums, whatever the caller's layout
    miss = np.isnan(x)
    empty = rows_all(miss)
    if empty.any():
        x, miss = x[~empty], miss[~empty]
    n, d = x.shape
    if n < 2:
        raise CleaningError("EM needs at least 2 partially observed rows")
    groups = _pattern_groups(miss)
    patterns = np.array([np.frombuffer(key, dtype=bool) for key in groups])
    if patterns.all(axis=0).any():
        raise CleaningError("some attribute is missing in every row; cannot fit")

    filled = np.where(miss, 0.0, x)
    mean, var = _start_moments(filled, miss)
    var = np.where(var > 0, var, 1.0)
    cov = np.diag(var)

    mis = patterns.astype(float)
    obs = 1.0 - mis
    z = np.column_stack([np.ones(n), filled])
    moments = np.stack([z[idx].T @ z[idx] for idx in groups.values()])
    counts = np.array([idx.size for idx in groups.values()], dtype=float)
    eye = np.eye(d)
    pad = eye * mis[:, None, :]
    keep_oo = obs[:, :, None] * obs[:, None, :]
    keep_om = obs[:, :, None] * mis[:, None, :]
    count_m = counts[:, None, None] * mis[:, None, :]
    identity_map = np.zeros_like(moments)
    identity_map[:, 0, 0] = 1.0
    identity_map[:, 1:, 1:] = eye * obs[:, None, :]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        reg = cov + ridge * max(np.trace(cov) / d, 1e-12) * eye
        # Row block M, column block O of gain[g] is Sigma_MO Sigma_OO^-1;
        # every other entry is zero.
        gain = np.linalg.solve(reg * keep_oo + pad, reg * keep_om).transpose(0, 2, 1)
        fill = identity_map.copy()
        fill[:, 1:, 1:] += gain
        fill[:, 1:, 0] = mis * mean - gain @ mean
        total = (fill @ moments @ fill.transpose(0, 2, 1)).sum(axis=0)
        cond = ((pad - gain) @ (reg * count_m)).sum(axis=0)
        new_mean = total[0, 1:] / n
        new_cov = (total[1:, 1:] + cond) / n - new_mean[:, None] * new_mean
        new_cov = 0.5 * (new_cov + new_cov.T)
        delta = max(abs(new_mean - mean).max(), abs(new_cov - cov).max())
        mean, cov = new_mean, new_cov
        if delta < tol:
            converged = True
            break
    cov = cov + ridge * max(np.trace(cov) / d, 1e-12) * eye
    return MvnEmEstimate(mean=mean, cov=cov, n_iter=it, converged=converged)


def draw_conditional(
    data: np.ndarray,
    estimate: MvnEmEstimate,
    rng: np.random.Generator,
) -> np.ndarray:
    """Impute NaNs in *data* by draws from ``x_miss | x_obs`` under *estimate*.

    Fully missing rows are drawn from the marginal normal. Returns a new
    array; observed entries are untouched. Callers pass the pooled sample
    (all series stacked), so each missing pattern costs exactly one
    conditional-normal solve and one batched noise draw.
    """
    x = np.asarray(data, dtype=float).copy()
    if x.ndim != 2 or x.shape[1] != estimate.dim:
        raise CleaningError(
            f"data must be (N, {estimate.dim}), got shape {x.shape}"
        )
    miss = np.isnan(x)
    mean, cov = estimate.mean, estimate.cov
    d = estimate.dim
    jitter = 1e-12 * max(float(np.trace(cov)) / d, 1e-12)
    for key, idx in _pattern_groups(miss).items():
        pattern = np.frombuffer(key, dtype=bool)
        if not pattern.any():
            continue
        obs = ~pattern
        k = int(pattern.sum())
        miss_ix = np.flatnonzero(pattern)
        obs_ix = np.flatnonzero(obs)
        if obs.any():
            s_oo = cov[np.ix_(obs, obs)]
            s_mo = cov[np.ix_(pattern, obs)]
            gain = np.linalg.solve(s_oo, s_mo.T).T
            cond_mean = mean[miss_ix] + (x[np.ix_(idx, obs_ix)] - mean[obs_ix]) @ gain.T
            cond_cov = cov[np.ix_(pattern, pattern)] - gain @ s_mo.T
        else:
            cond_mean = np.tile(mean[miss_ix], (idx.size, 1))
            cond_cov = cov[np.ix_(pattern, pattern)]
        cond_cov = 0.5 * (cond_cov + cond_cov.T) + jitter * np.eye(k)
        try:
            chol = np.linalg.cholesky(cond_cov)
        except np.linalg.LinAlgError:
            # Clip negative eigenvalues — conditional covariances of a valid
            # MVN are PSD up to round-off.
            w, v = np.linalg.eigh(cond_cov)
            chol = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        noise = rng.standard_normal((idx.size, k)) @ chol.T
        draws = cond_mean + noise
        x[np.ix_(idx, miss_ix)] = draws
    return x


class MvnImputation(MissingInconsistentTreatment):
    """Strategy-1/2 treatment: pooled MVN fit + conditional-draw imputation.

    Workflow per replication sample:

    1. mark missing *and* inconsistent cells as to-treat, blank them to NaN
       (an out-of-range value is not usable as evidence);
    2. move to the analysis scale (log-attr1 when the transform is active —
       this is the difference between Figure 4a and 4b);
    3. pool every row of every series, fit the MVN by EM;
    4. impute the pooled matrix's NaNs with **pattern-grouped batched
       conditional draws** — one conditional-normal solve and one batched
       noise draw per missing pattern over the whole pooled sample (exactly
       how ``PROC MI`` treats the stacked input) — and map each series'
       imputed cells back to the raw scale.

    Because the draws run on the pooled matrix, the per-series and
    block layouts consume the random stream identically by construction:
    both hand :func:`draw_conditional` the same pooled rows in the same
    order.
    """

    name = "mvn_imputation"
    supports_block = True

    #: Default EM convergence criterion: stop once no mean or covariance
    #: entry moves by 1e-4 or more in one iteration. The value is SAS
    #: ``PROC MI``'s ``CONVERGE=`` default, but the rule differs: SAS bounds
    #: the *relative* change of each parameter with ``|theta| > 0.01``
    #: (absolute below), so this absolute rule is stricter than SAS for
    #: parameters above 1 in magnitude and looser between 0.01 and 1.
    DEFAULT_TOL = 1e-4

    def __init__(self, max_iter: int = 100, tol: float = DEFAULT_TOL):
        self.max_iter, self.tol, _ = _em_settings(max_iter, tol, 0.0)

    def _fitted(self, pooled: np.ndarray, context: CleaningContext) -> MvnEmEstimate:
        """EM fit of *pooled*, memoised on the replication context.

        Strategies 1 and 2 blank and pool the identical sample, so within
        one replication the fit is computed once; the memo key includes the
        pooled bytes, making a hit provably bitwise-equal to a refit.
        """
        key = ("mvn_em_fit", self.max_iter, self.tol, pooled.tobytes())
        return context.memo(
            key, lambda: fit_mvn_em(pooled, max_iter=self.max_iter, tol=self.tol)
        )

    def apply(self, sample: StreamDataset, context: CleaningContext) -> StreamDataset:
        attributes = sample.attributes
        blanked: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        for series in sample:
            mask = context.treatable_mask(series)
            values = series.values.copy()
            values[mask] = np.nan
            blanked.append(context.to_analysis(values, attributes))
            masks.append(mask)
        pooled = np.concatenate(blanked, axis=0)
        estimate = self._fitted(pooled, context)
        imputed_pooled = draw_conditional(pooled, estimate, context.rng)

        treated: list[TimeSeries] = []
        offset = 0
        for series, mask in zip(sample, masks):
            imputed = imputed_pooled[offset : offset + series.length]
            offset += series.length
            raw_imputed = context.from_analysis(imputed, attributes)
            values = series.values.copy()
            values[mask] = raw_imputed[mask]
            treated.append(series.with_values(values))
        return StreamDataset(treated)

    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Block path: one vectorised blank/transform/pool pass, then the
        same pooled pattern-grouped draws as :meth:`apply` — both layouts
        hand :func:`draw_conditional` the identical pooled matrix, so the
        treated values are bitwise-identical by construction."""
        attributes = block.attributes
        mask = context.treatable_mask_values(block.values, attributes)
        blanked = block.values.copy()
        blanked[mask] = np.nan
        analysis = context.to_analysis(blanked, attributes)
        pooled = analysis.reshape(-1, analysis.shape[-1])
        estimate = self._fitted(pooled, context)
        imputed = draw_conditional(pooled, estimate, context.rng).reshape(
            analysis.shape
        )
        raw_imputed = context.from_analysis(imputed, attributes)
        values = block.values.copy()
        values[mask] = raw_imputed[mask]
        return block.with_values(values)
