"""Transportation-problem solvers underlying the Earth Mover's Distance.

Section 3.5 defines EMD through the optimal flow
``F* = argmin_F sum_ij f_ij |b_i - b_j|`` subject to marginal constraints.
This module solves exactly that problem with three interchangeable backends:

* ``"simplex"`` — our own transportation simplex (northwest-corner start +
  MODI pivoting), dependency-free and exact; the reference implementation.
* ``"highs"`` — the LP formulation handed to scipy's HiGHS solver; the
  ``"auto"`` default of both entry points.
* ``"networkx"`` — min-cost flow on a scaled integer instance; approximate to
  the scaling resolution, used as an independent cross-check.

Tests assert that all three agree on random instances.

On the line the dense formulation is overkill: with ground distance
``|x - y|`` the optimal cost is the integral of ``|F - G|`` between the
marginals' CDFs, computed in closed form by :func:`transport_cost_1d`
without materialising a cost matrix or pivoting at all. The experiment
framework's distances route univariate histogram problems through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError

__all__ = [
    "TransportResult",
    "solve_transport",
    "solve_transport_batch",
    "transport_cost_1d",
]

_TOL = 1e-10


@dataclass(frozen=True)
class TransportResult:
    """Optimal flow plan and its cost.

    ``flow[i, j]`` is the mass moved from supply bin ``i`` to demand bin
    ``j``; ``cost`` is ``sum_ij flow[i, j] * cost_matrix[i, j]``.
    """

    flow: np.ndarray
    cost: float


def _validate(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    supply = np.asarray(supply, dtype=float).ravel()
    demand = np.asarray(demand, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (supply.size, demand.size):
        raise TransportError(
            f"cost must be ({supply.size}, {demand.size}), got {cost.shape}"
        )
    if supply.size == 0 or demand.size == 0:
        raise TransportError("supply and demand must be non-empty")
    if np.any(supply < -_TOL) or np.any(demand < -_TOL):
        raise TransportError("supply and demand must be non-negative")
    if np.any(~np.isfinite(cost)):
        raise TransportError("cost matrix must be finite")
    ts, td = float(supply.sum()), float(demand.sum())
    if ts <= 0 or td <= 0:
        raise TransportError("total supply and demand must be positive")
    if not np.isclose(ts, td, rtol=1e-6, atol=1e-9):
        raise TransportError(f"unbalanced problem: supply={ts}, demand={td}")
    # Rescale exactly so both sides match to machine precision.
    return np.clip(supply, 0, None), np.clip(demand, 0, None) * (ts / td), cost


def solve_transport(
    supply: np.ndarray,
    demand: np.ndarray,
    cost: np.ndarray,
    backend: str = "auto",
) -> TransportResult:
    """Solve the balanced transportation problem.

    Parameters
    ----------
    supply, demand:
        Non-negative marginals with (approximately) equal totals.
    cost:
        ``(n, m)`` ground-distance matrix.
    backend:
        ``"simplex"``, ``"highs"``, ``"networkx"`` or ``"auto"`` (HiGHS, as
        in :func:`solve_transport_batch`). The simplex and networkx solvers
        are the cross-checks the tests hold HiGHS to.
    """
    supply, demand, cost = _validate(supply, demand, cost)
    if backend == "simplex":
        return _solve_simplex(supply, demand, cost)
    if backend in ("auto", "highs"):
        return _solve_highs(supply, demand, cost)
    if backend == "networkx":
        return _solve_networkx(supply, demand, cost)
    raise TransportError(f"unknown backend {backend!r}")


def solve_transport_batch(
    instances: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]",
    backend: str = "auto",
) -> "list[TransportResult]":
    """Solve many independent transportation problems in one call.

    ``instances`` is a list of ``(supply, demand, cost)`` triples. For the
    HiGHS backend (and ``"auto"``), all instances are assembled into a
    single **block-diagonal** LP and handed to the solver at once: the
    problems share no variables or constraints, so the LP is separable and
    its optimum is exactly the per-instance optima — but the per-call
    solver overhead, which dominates on the small residual problems the
    EMD mass cancellation produces, is paid once per batch instead of once
    per instance. Other backends fall back to a plain loop.
    """
    if not instances:
        return []
    if backend == "auto":
        backend = "highs"
    if backend != "highs":
        return [solve_transport(s, d, c, backend=backend) for s, d, c in instances]
    validated = [_validate(s, d, c) for s, d, c in instances]
    return _solve_highs_batch(validated)


def transport_cost_1d(
    supply_pos: np.ndarray,
    supply: np.ndarray,
    demand_pos: np.ndarray,
    demand: np.ndarray,
) -> float:
    """Exact optimal-transport cost between two weighted point sets on a line.

    With ground distance ``|x - y|`` the optimum equals
    ``total_mass * integral |F - G|`` where ``F``/``G`` are the normalised
    CDFs of the marginals — the same value ``solve_transport`` finds, at
    O((n+m) log(n+m)) instead of a dense LP solve. Fully vectorised.
    """
    sp = np.asarray(supply_pos, dtype=float).ravel()
    s = np.asarray(supply, dtype=float).ravel()
    dp = np.asarray(demand_pos, dtype=float).ravel()
    d = np.asarray(demand, dtype=float).ravel()
    if sp.size != s.size or dp.size != d.size:
        raise TransportError("positions and masses must have matching lengths")
    if sp.size == 0 or dp.size == 0:
        raise TransportError("supply and demand must be non-empty")
    if np.any(s < -_TOL) or np.any(d < -_TOL):
        raise TransportError("supply and demand must be non-negative")
    if np.any(~np.isfinite(sp)) or np.any(~np.isfinite(dp)):
        raise TransportError("positions must be finite")
    ts, td = float(s.sum()), float(d.sum())
    if ts <= 0 or td <= 0:
        raise TransportError("total supply and demand must be positive")
    if not np.isclose(ts, td, rtol=1e-6, atol=1e-9):
        raise TransportError(f"unbalanced problem: supply={ts}, demand={td}")
    s_order = np.argsort(sp, kind="stable")
    sp, s = sp[s_order], np.clip(s[s_order], 0.0, None)
    d_order = np.argsort(dp, kind="stable")
    dp, d = dp[d_order], np.clip(d[d_order], 0.0, None)
    grid = np.union1d(sp, dp)
    if grid.size == 1:
        return 0.0
    cum_s = np.concatenate([[0.0], np.cumsum(s)])
    cum_d = np.concatenate([[0.0], np.cumsum(d)])
    f = cum_s[np.searchsorted(sp, grid[:-1], side="right")] / ts
    g = cum_d[np.searchsorted(dp, grid[:-1], side="right")] / td
    return float(ts * np.sum(np.abs(f - g) * np.diff(grid)))


# ---------------------------------------------------------------------------
# HiGHS (scipy linprog) backend
# ---------------------------------------------------------------------------


def _solve_highs(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> TransportResult:
    return _solve_highs_batch([(supply, demand, cost)])[0]


def _solve_highs_batch(
    validated: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]",
) -> "list[TransportResult]":
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    # Per instance: variables x_ij laid out row-major. Row sums = supply,
    # column sums = demand; one redundant constraint is dropped for
    # numerical stability. Instances occupy disjoint variable/constraint
    # ranges, making the stacked LP block-diagonal (hence separable). The
    # constraint matrix is assembled as one vectorised COO triplet list
    # (two entries per variable, minus the dropped columns) — no Python-
    # level setitem loops.
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    obj_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    spans: list[tuple[int, int, int]] = []
    var_off = 0
    row_off = 0
    for supply, demand, cost in validated:
        n, m = cost.shape
        var_rows, var_cols = np.divmod(np.arange(n * m), m)
        col_keep = var_cols < m - 1
        row_parts.append(row_off + var_rows)
        col_parts.append(var_off + np.arange(n * m))
        row_parts.append(row_off + n + var_cols[col_keep])
        col_parts.append(var_off + np.flatnonzero(col_keep))
        obj_parts.append(cost.ravel())
        b_parts.append(supply)
        b_parts.append(demand[:-1])
        spans.append((var_off, n, m))
        var_off += n * m
        row_off += n + m - 1
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    a_eq = coo_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(row_off, var_off)
    ).tocsr()
    # Presolve costs more than it saves on the small residual instances the
    # EMD cancellation produces; leave it on for genuinely large problems.
    options = {"presolve": False} if var_off <= 50_000 else None
    res = linprog(
        np.concatenate(obj_parts),
        A_eq=a_eq,
        b_eq=np.concatenate(b_parts),
        bounds=(0, None),
        method="highs",
        options=options,
    )
    if not res.success:  # pragma: no cover - HiGHS is reliable on feasible LPs
        raise TransportError(f"HiGHS failed: {res.message}")
    out = []
    for (off, n, m), (_, _, cost) in zip(spans, validated):
        flow = res.x[off : off + n * m].reshape(n, m)
        out.append(TransportResult(flow=flow, cost=float(np.sum(flow * cost))))
    return out


# ---------------------------------------------------------------------------
# networkx min-cost-flow backend (integer-scaled cross-check)
# ---------------------------------------------------------------------------

_NX_MASS_SCALE = 10**9
_NX_COST_SCALE = 10**6


def _integerize(weights: np.ndarray, scale: int) -> np.ndarray:
    """Round to integers at *scale* while preserving the exact total."""
    scaled = weights * scale
    floors = np.floor(scaled).astype(np.int64)
    residual = int(round(float(scaled.sum()))) - int(floors.sum())
    if residual > 0:
        # Distribute leftover units to the largest fractional parts.
        order = np.argsort(-(scaled - floors))
        floors[order[:residual]] += 1
    return floors


def _solve_networkx(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> TransportResult:
    import networkx as nx

    n, m = cost.shape
    total = float(supply.sum())
    s_int = _integerize(supply / total, _NX_MASS_SCALE)
    d_int = _integerize(demand / total, _NX_MASS_SCALE)
    graph = nx.DiGraph()
    for i in range(n):
        graph.add_node(("s", i), demand=-int(s_int[i]))
    for j in range(m):
        graph.add_node(("d", j), demand=int(d_int[j]))
    int_cost = np.rint(cost * _NX_COST_SCALE).astype(np.int64)
    for i in range(n):
        for j in range(m):
            graph.add_edge(("s", i), ("d", j), weight=int(int_cost[i, j]))
    flow_dict = nx.min_cost_flow(graph)
    flow = np.zeros((n, m))
    for i in range(n):
        for (kind, j), f in flow_dict.get(("s", i), {}).items():
            if kind == "d":
                flow[i, j] = f * total / _NX_MASS_SCALE
    return TransportResult(flow=flow, cost=float(np.sum(flow * cost)))


# ---------------------------------------------------------------------------
# Transportation simplex (reference implementation)
# ---------------------------------------------------------------------------


def _northwest_corner(
    supply: np.ndarray, demand: np.ndarray
) -> tuple[dict[tuple[int, int], float], list[tuple[int, int]]]:
    """Initial basic feasible solution with exactly n+m-1 basic cells."""
    n, m = supply.size, demand.size
    a = supply.copy()
    b = demand.copy()
    flow: dict[tuple[int, int], float] = {}
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        q = min(a[i], b[j])
        flow[(i, j)] = q
        basis.append((i, j))
        a[i] -= q
        b[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if a[i] <= _TOL and i < n - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _compute_duals(
    basis: list[tuple[int, int]], cost: np.ndarray, n: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``u_i + v_j = c_ij`` over the basis tree (u_0 = 0)."""
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for cell in basis:
        rows[cell[0]].append(cell)
        cols[cell[1]].append(cell)
    u[0] = 0.0
    stack: list[tuple[str, int]] = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for (i, j) in rows[k]:
                if np.isnan(v[j]):
                    v[j] = cost[i, j] - u[i]
                    stack.append(("c", j))
        else:
            for (i, j) in cols[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, j] - v[j]
                    stack.append(("r", i))
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):  # pragma: no cover
        raise TransportError("basis graph is not connected; degenerate pivot bug")
    return u, v


def _find_cycle(
    basis: list[tuple[int, int]], entering: tuple[int, int], n: int, m: int
) -> list[tuple[int, int]]:
    """Unique alternating cycle created by adding *entering* to the basis.

    Returns the cycle as a cell list starting with *entering*; signs
    alternate +, -, +, ... along the list.
    """
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for cell in basis:
        rows[cell[0]].append(cell)
        cols[cell[1]].append(cell)
    # Path in the bipartite basis tree from row-node entering[0] to col-node
    # entering[1]; BFS with parent tracking.
    start = ("r", entering[0])
    goal = ("c", entering[1])
    parents: dict[tuple[str, int], tuple[tuple[str, int], tuple[int, int]]] = {}
    seen = {start}
    frontier = [start]
    while frontier and goal not in parents:
        nxt = []
        for node in frontier:
            kind, k = node
            cells = rows[k] if kind == "r" else cols[k]
            for cell in cells:
                neighbor = ("c", cell[1]) if kind == "r" else ("r", cell[0])
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = (node, cell)
                nxt.append(neighbor)
        frontier = nxt
    if goal not in parents:  # pragma: no cover - tree always connects them
        raise TransportError("no cycle found; basis is not a spanning tree")
    path_cells: list[tuple[int, int]] = []
    node = goal
    while node != start:
        node, cell = parents[node]
        path_cells.append(cell)
    # path_cells runs goal -> start; cycle order: entering, then the path from
    # the col side back to the row side, which alternates signs correctly.
    return [entering] + path_cells


def _solve_simplex(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> TransportResult:
    n, m = cost.shape
    flow, basis = _northwest_corner(supply, demand)
    max_iter = 200 * (n + m)
    for _ in range(max_iter):
        u, v = _compute_duals(basis, cost, n, m)
        reduced = cost - u[:, None] - v[None, :]
        for (i, j) in basis:
            reduced[i, j] = 0.0
        entering_flat = int(np.argmin(reduced))
        entering = (entering_flat // m, entering_flat % m)
        if reduced[entering] >= -1e-9:
            break
        cycle = _find_cycle(basis, entering, n, m)
        minus_cells = cycle[1::2]
        theta = min(flow[c] for c in minus_cells)
        leaving = next(c for c in minus_cells if flow[c] <= theta + _TOL)
        for idx, cell in enumerate(cycle):
            delta = theta if idx % 2 == 0 else -theta
            flow[cell] = flow.get(cell, 0.0) + delta
        flow[entering] = flow.get(entering, 0.0)
        del flow[leaving]
        basis.remove(leaving)
        basis.append(entering)
    else:  # pragma: no cover - pivot cap is far above practical need
        raise TransportError(f"simplex did not converge within {max_iter} pivots")
    dense = np.zeros((n, m))
    for (i, j), f in flow.items():
        dense[i, j] = max(f, 0.0)
    return TransportResult(flow=dense, cost=float(np.sum(dense * cost)))
