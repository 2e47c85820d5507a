"""RNG plumbing: determinism, pass-through, and independent spawning."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, draw_rows, draw_sized, spawn_generators


def test_as_generator_from_int_is_deterministic():
    a = as_generator(42).random(5)
    b = as_generator(42).random(5)
    assert np.array_equal(a, b)


def test_as_generator_passes_generator_through():
    gen = np.random.default_rng(0)
    assert as_generator(gen) is gen


def test_as_generator_none_gives_fresh_stream():
    a = as_generator(None).random(5)
    b = as_generator(None).random(5)
    assert not np.array_equal(a, b)


def test_as_generator_accepts_seed_sequence():
    seq = np.random.SeedSequence(7)
    gen = as_generator(seq)
    assert isinstance(gen, np.random.Generator)


def test_spawn_generators_count():
    assert len(spawn_generators(0, 5)) == 5


def test_spawn_generators_zero():
    assert spawn_generators(0, 0) == []


def test_spawn_generators_negative_raises():
    with pytest.raises(ValueError):
        spawn_generators(0, -1)


def test_spawned_streams_are_deterministic_and_distinct():
    first = [g.random(3) for g in spawn_generators(9, 3)]
    second = [g.random(3) for g in spawn_generators(9, 3)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])


def test_spawn_prefix_stability():
    """Child i is the same stream no matter how many children are spawned."""
    few = spawn_generators(5, 2)
    many = spawn_generators(5, 10)
    assert np.array_equal(few[0].random(4), many[0].random(4))
    assert np.array_equal(few[1].random(4), many[1].random(4))


def test_spawn_from_generator():
    gen = np.random.default_rng(3)
    children = spawn_generators(gen, 2)
    assert len(children) == 2
    assert not np.array_equal(children[0].random(3), children[1].random(3))


def test_draw_rows_matches_per_series_draws_and_keeps_padding():
    lengths = [3, 0, 5]
    out = draw_rows(spawn_generators(8, 3), lengths, np.ones((3, 5)))
    for row, rng, length in zip(out, spawn_generators(8, 3), lengths):
        assert row[:length].tobytes() == rng.random(length).tobytes()
        assert (row[length:] == 1.0).all()


def test_draw_sized_lines_up_with_row_major_mask_order():
    mask = np.array([[True, False, True], [False, False, False], [False, True, False]])
    rngs = spawn_generators(9, 3)
    got = draw_sized(rngs, np.count_nonzero(mask, axis=1), lambda r, k: r.random(k))
    want = [rng.random(k) for rng, k in zip(spawn_generators(9, 3), (2, 0, 1))]
    assert got.tobytes() == np.concatenate(want).tobytes()
    # The skipped zero-size draw consumed nothing from series 1's stream.
    assert rngs[1].random() == spawn_generators(9, 3)[1].random()


def test_draw_sized_all_zero_counts_is_empty():
    assert draw_sized(spawn_generators(1, 2), np.zeros(2, int), None).size == 0
