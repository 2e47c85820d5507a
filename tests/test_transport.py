"""Transportation solvers: correctness and cross-backend agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.transport import solve_transport
from repro.errors import TransportError


def random_instance(rng, n, m):
    supply = rng.random(n) + 0.05
    demand = rng.random(m) + 0.05
    demand *= supply.sum() / demand.sum()
    cost = rng.random((n, m)) * 10
    return supply, demand, cost


class TestValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [1.0], np.zeros((2, 1)))

    def test_rejects_negative_supply(self):
        with pytest.raises(TransportError):
            solve_transport([-1.0, 2.0], [1.0], np.zeros((2, 1)))

    def test_rejects_unbalanced(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [2.0], np.zeros((1, 1)))

    def test_rejects_nonfinite_cost(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [1.0], np.array([[np.inf]]))

    def test_rejects_unknown_backend(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [1.0], np.zeros((1, 1)), backend="magic")

    def test_rejects_zero_total(self):
        with pytest.raises(TransportError):
            solve_transport([0.0], [0.0], np.zeros((1, 1)))


class TestKnownSolutions:
    @pytest.mark.parametrize("backend", ["simplex", "highs", "networkx"])
    def test_identity_is_free(self, backend):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = solve_transport([0.5, 0.5], [0.5, 0.5], cost, backend=backend)
        assert res.cost == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("backend", ["simplex", "highs", "networkx"])
    def test_full_shift(self, backend):
        # All mass must move from bin 0 to bin 1 at distance 3.
        cost = np.array([[0.0, 3.0], [3.0, 0.0]])
        res = solve_transport([1.0, 0.0], [0.0, 1.0], cost, backend=backend)
        assert res.cost == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("backend", ["simplex", "highs"])
    def test_textbook_instance(self, backend):
        # Classic 3x3 transportation instance with optimum 39.
        supply = np.array([20.0, 30.0, 25.0])
        demand = np.array([10.0, 35.0, 30.0])
        cost = np.array([[2.0, 3.0, 1.0], [5.0, 4.0, 8.0], [5.0, 6.0, 8.0]])
        res = solve_transport(supply, demand, cost, backend=backend)
        expected = solve_transport(supply, demand, cost, backend="highs").cost
        assert res.cost == pytest.approx(expected, rel=1e-9)

    def test_flow_marginals(self):
        rng = np.random.default_rng(1)
        supply, demand, cost = random_instance(rng, 5, 7)
        res = solve_transport(supply, demand, cost, backend="simplex")
        assert np.allclose(res.flow.sum(axis=1), supply, atol=1e-9)
        assert np.allclose(res.flow.sum(axis=0), demand, atol=1e-9)
        assert (res.flow >= -1e-12).all()

    def test_degenerate_instance(self):
        # Degenerate: several partial sums coincide, forcing zero-flow pivots.
        supply = np.array([1.0, 1.0, 1.0])
        demand = np.array([1.0, 1.0, 1.0])
        cost = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
        res = solve_transport(supply, demand, cost, backend="simplex")
        assert res.cost == pytest.approx(3.0)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_simplex_matches_highs(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 14, size=2)
        supply, demand, cost = random_instance(rng, int(n), int(m))
        a = solve_transport(supply, demand, cost, backend="simplex")
        b = solve_transport(supply, demand, cost, backend="highs")
        assert a.cost == pytest.approx(b.cost, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_networkx_close_to_highs(self, seed):
        rng = np.random.default_rng(100 + seed)
        supply, demand, cost = random_instance(rng, 5, 6)
        a = solve_transport(supply, demand, cost, backend="networkx")
        b = solve_transport(supply, demand, cost, backend="highs")
        # Integer-scaled backend: agreement to the scaling resolution.
        assert a.cost == pytest.approx(b.cost, rel=1e-4, abs=1e-4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_simplex_never_beats_lp_optimum(self, seed):
        """The simplex solution is feasible, so cost >= LP optimum; and it
        should be equal since both are exact."""
        rng = np.random.default_rng(seed)
        supply, demand, cost = random_instance(rng, 4, 4)
        a = solve_transport(supply, demand, cost, backend="simplex")
        b = solve_transport(supply, demand, cost, backend="highs")
        assert a.cost >= b.cost - 1e-9
        assert a.cost == pytest.approx(b.cost, rel=1e-7, abs=1e-9)


class TestAutoBackend:
    def test_auto_small_uses_simplex_result(self):
        supply = np.array([1.0])
        demand = np.array([1.0])
        cost = np.array([[2.0]])
        assert solve_transport(supply, demand, cost).cost == pytest.approx(2.0)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (20, 20)])
    def test_auto_is_highs_at_every_size(self, shape):
        rng = np.random.default_rng(3)
        supply, demand, cost = random_instance(rng, *shape)
        auto = solve_transport(supply, demand, cost)
        highs = solve_transport(supply, demand, cost, backend="highs")
        assert auto.cost == highs.cost
        assert np.array_equal(auto.flow, highs.flow)

    def test_auto_large_instance_works(self):
        rng = np.random.default_rng(0)
        supply, demand, cost = random_instance(rng, 30, 30)
        res = solve_transport(supply, demand, cost, backend="auto")
        ref = solve_transport(supply, demand, cost, backend="highs")
        assert res.cost == pytest.approx(ref.cost, rel=1e-7)
