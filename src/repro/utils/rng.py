"""Random-number-generator plumbing.

Every stochastic component in the library accepts either a seed (``int``),
``None`` (fresh OS entropy) or an existing :class:`numpy.random.Generator`.
These helpers normalise that flexibility in one place so call sites stay
simple and deterministic experiments stay deterministic.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

Seed = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = [
    "Seed",
    "as_generator",
    "snapshot_seed",
    "spawn_sequences",
    "spawn_generators",
    "draw_rows",
    "draw_sized",
]


def as_generator(seed: Seed = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``Generator`` instances are passed through unchanged, so components can
    share a stream when the caller wants correlated draws, while plain ints
    give reproducible independent streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def snapshot_seed(seed: Seed) -> Seed:
    """A replay-safe snapshot of *seed* for components that re-derive streams.

    ``SeedSequence.spawn`` advances a counter on the parent, so a sequence
    that was already spawned from (say, by a prior ``build_population``
    call) would hand out *different* children on the next derivation. The
    snapshot is a fresh sequence with the same entropy/spawn-key and a
    zeroed child counter: every derivation from it replays children
    ``0..n`` — the unspawned-sequence behaviour the determinism contracts
    assume. Ints and ``None`` are immutable and pass through; a live
    ``Generator`` cannot be snapshotted and is returned as-is for the
    caller to reject if it needs replay.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
        )
    return seed


def spawn_sequences(seed: Seed, n: int) -> list[np.random.SeedSequence]:
    """Spawn *n* statistically independent child seed sequences from *seed*.

    Child ``i`` is a deterministic function of *seed* and ``i`` alone, never
    of ``n`` or of how the children are later grouped — which is what lets
    the sharded pipeline hand out per-item streams whose draws are identical
    under any shard layout or execution backend. ``SeedSequence`` objects
    pickle cheaply, so work units carry these rather than generators.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        return list(seed.bit_generator.seed_seq.spawn(n))  # type: ignore[union-attr]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return list(seq.spawn(n))


def spawn_generators(seed: Seed, n: int) -> list[np.random.Generator]:
    """Spawn *n* statistically independent child generators from *seed*.

    Used by the replication framework: replication ``i`` always sees the same
    stream regardless of how many replications run or in what order.
    """
    return [np.random.default_rng(child) for child in spawn_sequences(seed, n)]


# -- lockstep draws ----------------------------------------------------------------
#
# A chunk of series, each with its own generator, is drawn one *draw site*
# at a time: one pass over the chunk's generators per site, in the order the
# one-series-at-a-time code made its calls. Interleaving calls to different
# generators never changes any one generator's sequence, so each series
# consumes exactly the stream it would alone, while the arithmetic between
# sites runs once on the chunk's padded ``(n, T, ...)`` block.


def draw_rows(
    rngs: Sequence[np.random.Generator],
    lengths: Sequence[int],
    out: np.ndarray,
    draw: Optional[Callable[[np.random.Generator, np.ndarray], object]] = None,
) -> np.ndarray:
    """A fixed-size draw site: ``draw(rngs[i], out[i, :lengths[i]])`` for
    every series, in order, writing straight into its row; returns *out*.
    The default *draw* is ``rng.random(out=row)``, i.e. uniform ``[0, 1)``.

    Padding past each length keeps *out*'s initial fill, so a buffer filled
    with ``1.0`` never passes a ``u < p`` test for a probability ``p``.
    """
    draw = draw or (lambda rng, row: rng.random(out=row))
    for rng, row, length in zip(rngs, out, lengths):
        draw(rng, row[:length])
    return out


def draw_sized(
    rngs: Sequence[np.random.Generator],
    counts: np.ndarray,
    draw: Callable[[np.random.Generator, int], np.ndarray],
) -> np.ndarray:
    """A sized draw site: ``draw(rngs[i], counts[i])`` for every series with
    a non-zero count, concatenated in series order.

    With *counts* the per-row counts of an ``(n, T)`` mask, the result lines
    up with the mask's flagged cells in row-major order (series, then
    time) — the order one-series-at-a-time code consumed them in. A
    zero-size draw consumes nothing, so skipping it changes no stream.
    """
    parts = [draw(rng, c) for rng, c in zip(rngs, counts.tolist()) if c]
    return np.concatenate(parts) if parts else np.empty(0)
