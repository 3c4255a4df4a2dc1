"""The sparse grounded-Laplacian kernel against dense Gauss-Jordan elimination,
for unit sources, zero-sum injections at several vertices, and Dirichlet data
carried by the edges to the ground; and its float twin against a dense
``numpy.linalg.solve`` and against the exact kernel."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from formulaflow.linalg import (
    _sub_mul,
    solve_consistent,
    solve_grounded_laplacian,
    solve_grounded_laplacian_float,
)


def dense_oracle(n, edges, rhs):
    """Potentials from the dense grounded Laplacian, solved by ``rref``."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for i, j, w in edges:
        for a, b in ((i, j), (j, i)):
            if a < n:
                lap[a][a] += w
                if b < n:
                    lap[a][b] -= w
    return solve_consistent(lap, rhs)


def unit(n, source):
    return [Fraction(int(k == source)) for k in range(n)]


def injections(n, values):
    """Currents ``values`` at vertices 0, 1, ... (cycled over the n free
    vertices and the ground) and, at the ground, what makes them sum to zero:
    the free vertices' part is the right-hand side."""
    rhs = [Fraction(0)] * (n + 1)
    for k, value in enumerate(values):
        rhs[k % (n + 1)] += value
    return rhs[:n]


def dirichlet(n, edges, values):
    """The right-hand side when the ground end of each edge to the ground is
    held at its own value: vertex k takes w * value for each such edge
    (k, ground, w), and every other vertex nothing."""
    rhs = [Fraction(0)] * n
    ground_edges = [(i if j == n else j, w) for i, j, w in edges if n in (i, j) and i != j]
    for (k, w), value in zip(ground_edges, itertools.cycle(values)):
        rhs[k] += w * value
    return rhs


def relabel(edges, ground):
    """Move vertex ``ground`` to the last index of a graph on 0..max."""
    top = max(max(i, j) for i, j, _w in edges)

    def move(v):
        return top if v == ground else v - (v > ground)

    return [(move(i), move(j), w) for i, j, w in edges]


def complete(k):
    return [(i, j, Fraction(1 + i + 2 * j, 1 + j)) for i, j in itertools.combinations(range(k), 2)]


def grid(rows, cols):
    edges = []
    for r, c in itertools.product(range(rows), range(cols)):
        v = r * cols + c
        if c + 1 < cols:
            edges.append((v, v + 1, Fraction(1 + r, 1 + c)))
        if r + 1 < rows:
            edges.append((v, v + cols, Fraction(2 + c, 1 + r)))
    return edges


# s = 0, t = 3 (the ground), bridge a-b between the two middle vertices
WHEATSTONE = [(0, 1, Fraction(1)), (0, 2, Fraction(2)), (1, 2, Fraction(3)),
              (1, 3, Fraction(1, 2)), (2, 3, Fraction(5))]

NON_SERIES_PARALLEL = {
    "wheatstone": (3, WHEATSTONE),
    "k4": (3, complete(4)),
    "k5": (4, complete(5)),
    "grid3x3": (8, relabel(grid(3, 3), 8)),
    "grid3x3-centre-ground": (8, relabel(grid(3, 3), 4)),
    "bridge-multigraph": (3, WHEATSTONE + [(1, 2, Fraction(7, 3)), (0, 3, Fraction(1, 9)),
                                           (0, 1, Fraction(4))]),
    "k5-doubled": (4, complete(5) + [(i, j, Fraction(3, 2)) for i, j, _w in complete(5)]),
}


VALUES = [Fraction(3, 2), Fraction(-5), Fraction(2, 7), Fraction(-1, 3), Fraction(4)]


@pytest.mark.parametrize("name", sorted(NON_SERIES_PARALLEL))
def test_kernel_matches_dense_oracle_on_non_series_parallel_graphs(name):
    n, edges = NON_SERIES_PARALLEL[name]
    for source in range(n):
        assert solve_grounded_laplacian(n, edges, unit(n, source)) == dense_oracle(
            n, edges, unit(n, source))
    for shift in range(len(VALUES)):
        values = VALUES[shift:] + VALUES[:shift]
        for rhs in (injections(n, values), dirichlet(n, edges, values)):
            assert any(rhs)
            assert solve_grounded_laplacian(n, edges, rhs) == dense_oracle(n, edges, rhs)


weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@st.composite
def connected_graphs(draw, weight=weights):
    """A random spanning tree on n + 1 vertices plus extra (possibly parallel)
    edges, every edge with a rational weight drawn from ``weight`` (by default
    p/q with p, q in 1..9)."""
    n = draw(st.integers(1, 9))
    edges = []
    for v in range(1, n + 1):
        edges.append((draw(st.integers(0, v - 1)), v, draw(weight)))
    pairs = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda p: p[0] != p[1])
    for i, j in draw(st.lists(pairs, max_size=3 * n)):
        edges.append((i, j, draw(weight)))
    ground = draw(st.integers(0, n))
    source = draw(st.integers(0, n - 1))
    return n, relabel(edges, ground), source


@given(connected_graphs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_dense_oracle_on_random_graphs(graph):
    n, edges, source = graph
    assert solve_grounded_laplacian(n, edges, unit(n, source)) == dense_oracle(
        n, edges, unit(n, source))


values = st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                  min_size=1, max_size=12)


@given(connected_graphs(), values)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_dense_oracle_on_injections_and_dirichlet_data(graph, values):
    n, edges, _source = graph
    for rhs in (injections(n, values), dirichlet(n, edges, values)):
        assert solve_grounded_laplacian(n, edges, rhs) == dense_oracle(n, edges, rhs)


big = st.integers(1, 10 ** 30)
signed = st.integers(-10 ** 30, 10 ** 30)


@given(connected_graphs(st.builds(Fraction, big, big)),
       st.lists(st.builds(Fraction, signed, big), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_kernel_matches_dense_oracle_with_large_denominators(graph, values):
    n, edges, _source = graph
    rhs = injections(n, values)
    assert solve_grounded_laplacian(n, edges, rhs) == dense_oracle(n, edges, rhs)


@given(st.tuples(signed, big), st.tuples(signed, big), st.tuples(signed, big))
@settings(max_examples=500, deadline=None)
def test_pair_sub_mul_matches_fraction(x, f, y):
    # the kernel's one pair operation, on signed numerators (zero included)
    # and large denominators, reduced or not
    num, den = _sub_mul(x, f, y)
    assert Fraction(num, den) == Fraction(*x) - Fraction(*f) * Fraction(*y)
    assert den > 0 and math.gcd(num, den) == 1


def test_kernel_leaves_its_right_hand_side_unchanged():
    n, edges = NON_SERIES_PARALLEL["grid3x3"]
    rhs = injections(n, VALUES)
    kept = list(rhs)
    solve_grounded_laplacian(n, edges, rhs)
    assert rhs == kept


# ---------------------------------------------------------------------------
# the float elimination
# ---------------------------------------------------------------------------

def dense_float_laplacian(n, edges):
    """The grounded Laplacian as a dense float matrix, each weight rounded
    once, with the ground's row and column dropped."""
    lap = np.zeros((n + 1, n + 1))
    for i, j, w in edges:
        w = float(w)
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap[:n, :n]


def float_unit(n, source):
    return [float(k == source) for k in range(n)]


def dense_gap(n, edges, source):
    """Largest gap between the float elimination's potentials and a dense
    ``numpy.linalg.solve`` of the same system, relative to the largest
    potential."""
    rhs = float_unit(n, source)
    dense = np.linalg.solve(dense_float_laplacian(n, edges), rhs)
    sparse = np.array(solve_grounded_laplacian_float(n, edges, rhs))
    return float(np.max(np.abs(sparse - dense)) / np.max(np.abs(dense)))


# the weighted Wheatstone bridge and K4 between s and t of
# tests/test_electrical.py: s = 0, a = 1, b = 2, c = 3, d = 4, t the ground
WEIGHTED_HOSTS = {
    "weighted-wheatstone": (3, [(0, 1, Fraction(1)), (0, 2, Fraction(2)),
                                (1, 2, Fraction(1, 3)), (1, 3, Fraction(3)),
                                (2, 3, Fraction(5, 2))]),
    "weighted-k4": (5, [(0, 1, Fraction(2, 3)), (1, 2, Fraction(1)), (1, 3, Fraction(2)),
                        (1, 4, Fraction(3)), (2, 3, Fraction(1, 4)), (2, 4, Fraction(5)),
                        (3, 4, Fraction(7)), (4, 5, Fraction(1))]),
}


@pytest.mark.parametrize("name", sorted(NON_SERIES_PARALLEL | WEIGHTED_HOSTS))
def test_float_kernel_matches_dense_solve_on_non_series_parallel_graphs(name):
    n, edges = (NON_SERIES_PARALLEL | WEIGHTED_HOSTS)[name]
    for source in range(n):
        assert dense_gap(n, edges, source) <= 1e-12


@given(connected_graphs())
@settings(max_examples=300, deadline=None)
def test_float_kernel_matches_dense_solve_on_random_graphs(graph):
    # parallel edges, and graphs that are not series-parallel and need fill-in
    n, edges, source = graph
    assert dense_gap(n, edges, source) <= 1e-12


@given(connected_graphs(st.builds(Fraction, big, big)))
@settings(max_examples=300, deadline=None)
@example((2, [(0, 2, Fraction(1)), (0, 1, Fraction(9007199187632128))], 0))
def test_float_kernel_matches_both_oracles_with_large_weights(graph):
    # Conductances up to 10^60 apart.  The elimination carries ground
    # conductances, so every potential stays within 1e-12 of the exact
    # kernel's.  The dense solve rounds a small conductance away where it
    # joins a large one on the diagonal (the example above: a dead end of
    # conductance ~2^53 beside a unit edge to the ground); it stays the
    # oracle where its own error bound, the condition number times the unit
    # roundoff, is below the tolerance.
    n, edges, source = graph
    exact = solve_grounded_laplacian(n, edges, unit(n, source))
    sparse = solve_grounded_laplacian_float(n, edges, float_unit(n, source))
    for x, y in zip(sparse, exact):
        assert abs(x - y) <= 1e-12 * y
    if np.linalg.cond(dense_float_laplacian(n, edges)) < 1e3:
        assert dense_gap(n, edges, source) <= 1e-12
