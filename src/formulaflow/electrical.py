"""Effective resistance, optimal unit flows, cuts, and path search.

Three mutually cross-checking resistance routes work on the network:

* ``exact-sp``   -- series/parallel reduction over exact rationals: one
  worklist eliminates every non-terminal vertex of degree <= 2 (parallel
  edges merge as they are inserted, so a degree counts neighbours),
* ``laplacian``  -- float solve of the grounded weighted Laplacian by the
  sparse elimination :func:`.linalg.solve_grounded_laplacian_float`: the
  exact kernel's minimum-degree order in floats, with ground conductances
  in place of diagonals, which also serves the approximate span-program
  witnesses (the tests keep a dense ``numpy.linalg.solve`` as its oracle),
* an exact rational solve of the same grounded Laplacian by the sparse
  minimum-degree kernel :func:`.linalg.solve_grounded_laplacian`, used by
  :func:`optimal_flow` and the span-program module (its exact witnesses and
  approximate-witness references); the dense ``linalg`` routines are only
  the tests' oracle.

The exact routes compute on reduced ``(numerator, denominator)`` int pairs,
one ``math.gcd`` per operation, and build a ``Fraction`` only for a value
they return: the reduction merges resistors with the fold's :func:`_series`
and :func:`_parallel`, and :func:`flow_energy` sums theta^2 / c.

Flows: :func:`_unit_flow` forms each current c * (p(u) - p(v)) of the unit
s-t flow from the kernel's potentials, once, for :func:`optimal_flow` and
the positive span-program witness.  :func:`_balances` sums every vertex's
net outflow in one pass for :func:`check_unit_flow` and
:func:`decompose_flow`, whose one greedy walk splits any unit flow into
paths and cycles with positive coefficients.

:func:`formula_resistance` never builds the network: it folds the formula
tree with :func:`.formula.fold` over reduced ``(numerator, denominator)``
pairs of ints, ``(1, 0)`` marking an open branch.  AND adds resistances in
series and OR adds conductances in parallel (swapped for the dual), with one
``math.gcd`` per gate; only the root builds a ``Fraction``, or ``INF``.  Cut
sizes come from a fold over (min, +) and from one max-flow routine that
:func:`cut_size` and :func:`witness_cut` share: unit augmentations on the
host's quotient by the components of the edges that
:func:`.graphs.selector_from_assignment` keeps, where one residual search
both finds each augmenting path and, once none is left, the s-side.

Disconnection is reported as the value ``INF`` from :mod:`.extended`.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    DisconnectedError,
    NotSeriesParallelError,
    SearchBudgetError,
)
from .extended import INF
from .formula import Formula, as_bits, fold
from .graphs import Network, _leaf_weight, selector_from_assignment

EXACT_SP = "exact-sp"
LAPLACIAN = "laplacian"


# ---------------------------------------------------------------------------
# connectivity helpers
# ---------------------------------------------------------------------------

def _label(edges, starts) -> dict:
    """Map every vertex that ``edges`` join to one of ``starts`` to the first
    start that reaches it: one adjacency map, one search per component."""
    adj = defaultdict(list)
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    rep = {}
    for start in starts:
        if start not in rep:
            rep[start] = start
            stack = [start]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in rep:
                        rep[v] = start
                        stack.append(v)
    return rep


def terminals_connected(net: Network) -> bool:
    return net.t in _label(net.edges, (net.s,))


# ---------------------------------------------------------------------------
# effective resistance
# ---------------------------------------------------------------------------

def _insert(resistance: dict, nbrs: dict, u, v, r) -> None:
    """Put resistance ``r`` (a pair) between ``u`` and ``v``, in parallel with
    any there."""
    key = frozenset((u, v))
    old = resistance.get(key)
    resistance[key] = r if old is None else _parallel((old, r))
    nbrs[u].add(v)
    nbrs[v].add(u)


def _reduce_series_parallel(net: Network):
    """Exact resistance by eliminating non-terminal vertices of degree <= 2.

    Parallel edges merge as they are inserted, so a degree counts distinct
    neighbours.  The worklist starts with every vertex; an eliminated vertex
    with one neighbour drops its dead-end edge, one with two joins its edges
    in series, and its neighbours go back on the list.
    """
    if not terminals_connected(net):
        return INF
    s, t = net.s, net.t
    resistance = {}  # frozenset of the two ends -> resistance as a reduced pair
    nbrs = {v: set() for v in net.vertices}
    for e in net.edges:
        _insert(resistance, nbrs, e.u, e.v, (e.weight.denominator, e.weight.numerator))
    work = list(net.vertices)
    while work:
        v = work.pop()
        if v == s or v == t or v not in nbrs or len(nbrs[v]) > 2:
            continue
        ends = nbrs.pop(v)
        rs = [resistance.pop(frozenset((v, w))) for w in ends]
        for w in ends:
            nbrs[w].discard(v)
        if len(ends) == 2:
            _insert(resistance, nbrs, *ends, _series(rs))
        work.extend(ends)
    if resistance.keys() == {frozenset((s, t))}:
        return Fraction(*resistance.popitem()[1])
    raise NotSeriesParallelError("reduction stalled; network is not series-parallel")


@dataclass(frozen=True)
class GroundedLaplacian:
    """Laplacian of the component of a source, grounded at a sink.

    ``triplets`` holds one ``(i, j, w)`` per edge of the component, in edge
    order, indexed by ``order`` (the component's other vertices, in vertex
    order) with the ground at ``len(order)``.  The solves need ``connected``.
    """

    component: set
    order: list
    triplets: list
    source: int
    connected: bool

    def solve_exact(self, currents: dict) -> dict:
        """Exact potentials for the injected ``currents`` (vertex -> current;
        the ground takes up their sum), keyed by ``order``."""
        rhs = [currents.get(v, Fraction(0)) for v in self.order]
        sol = linalg.solve_grounded_laplacian(len(self.order), self.triplets, rhs)
        return dict(zip(self.order, sol))

    def solve_float(self, currents: dict) -> dict:
        """Float potentials for the injected ``currents``, keyed by ``order``,
        by :func:`.linalg.solve_grounded_laplacian_float`."""
        rhs = [currents.get(v, 0.0) for v in self.order]
        sol = linalg.solve_grounded_laplacian_float(len(self.order), self.triplets, rhs)
        return dict(zip(self.order, sol))

    def resistance_float(self) -> float:
        """Float effective resistance: the source's potential under a unit
        current."""
        source = self.order[self.source]
        return self.solve_float({source: 1.0})[source]


def grounded_laplacian(vertices, edges, s, t) -> GroundedLaplacian:
    """The Laplacian of the component of ``s`` grounded at ``t``, over
    ``vertices`` and the ``edges`` among them.  With ``s == t`` it is the
    component of the ground, for the solves of :class:`GroundedLaplacian`."""
    comp = set(_label(edges, (s,)))
    order = [v for v in vertices if v in comp and v != t]
    index = {v: i for i, v in enumerate(order)}
    index[t] = len(order)
    triplets = [(index[e.u], index[e.v], e.weight) for e in edges if e.u in comp]
    return GroundedLaplacian(comp, order, triplets, index[s], t in comp)


def effective_resistance(net: Network, backend: str = EXACT_SP):
    """Effective resistance between the terminals of ``net``.

    ``exact-sp`` returns a Fraction (or INF) and requires a series-parallel
    network; ``laplacian`` returns a float (math.inf when disconnected).
    """
    if backend == EXACT_SP:
        return _reduce_series_parallel(net)
    if backend == LAPLACIAN:
        lap = grounded_laplacian(net.vertices, net.edges, net.s, net.t)
        return lap.resistance_float() if lap.connected else math.inf
    raise ValueError(f"unknown backend {backend!r}")


def _series(pairs) -> tuple:
    """Sum of resistances given as ``(p, q)`` pairs; ``(1, 0)`` is open."""
    p, q = 0, 1
    for a, b in pairs:
        if not b:
            return 1, 0
        p, q = p * b + a * q, q * b
    g = math.gcd(p, q)
    return p // g, q // g


def _parallel(pairs) -> tuple:
    """Parallel bank of ``(p, q)`` resistances: the conductances add."""
    q, p = _series([(b, a) for a, b in pairs])
    return p, q


def formula_resistance(f: Formula, x, weights=None, dual: bool = False):
    """Exact resistance of the input-selected formula network, by tree fold.

    With ``dual=True`` this is the resistance of the dual network on the
    complementary selection, i.e. the quantity paired with the primal one by
    the structural duality.  Weights map labels to positive rationals
    (default ones); the dual fold uses their reciprocals automatically.
    """
    bits = as_bits(x, f.n_vars)
    first = f.first_var
    absent = 1 if dual else 0

    def leaf(g: Formula):
        if bits[g.var - first] ^ g.negated == absent:
            return 1, 0
        p, q = _leaf_weight(weights, f"x{g.var}")
        return (p, q) if dual else (q, p)

    p, q = fold(f, leaf, _parallel, _series) if dual else fold(f, leaf, _series, _parallel)
    return Fraction(p, q) if q else INF


# ---------------------------------------------------------------------------
# unit flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowAssignment:
    """Antisymmetric valuation of directed edges; values are exact rationals."""

    values: dict

    def value(self, u: str, v: str, label: str) -> Fraction:
        return self.values.get((u, v, label), Fraction(0))


def flow_from_directed(values: dict) -> FlowAssignment:
    full = {}
    for (u, v, label), val in values.items():
        val = Fraction(val)
        if val == 0:
            continue
        full[(u, v, label)] = val
        full[(v, u, label)] = -val
    return FlowAssignment(full)


def _balances(flow: FlowAssignment) -> dict:
    """Each vertex's net outflow, summed in one pass over the arcs."""
    balance = defaultdict(Fraction)
    for (u, _v, _label), val in flow.values.items():
        balance[u] += val
    return balance


def check_unit_flow(net: Network, flow: FlowAssignment) -> None:
    """Raise ValueError unless ``flow`` is an exact unit s-t flow on ``net``."""
    known = {(e.u, e.v, e.label) for e in net.edges}
    known |= {(v, u, label) for (u, v, label) in known}
    for key, val in flow.values.items():
        if key not in known:
            raise ValueError(f"flow touches unknown directed edge {key}")
        u, v, label = key
        if flow.values.get((v, u, label), Fraction(0)) != -val:
            raise ValueError(f"antisymmetry violated on {key}")
    balance = _balances(flow)
    for vertex in net.vertices:
        out = balance[vertex]
        if vertex == net.s:
            if out != 1:
                raise ValueError(f"net outflow at s is {out}, expected 1")
        elif vertex == net.t:
            if out != -1:
                raise ValueError(f"net inflow at t is {-out}, expected 1")
        elif out != 0:
            raise ValueError(f"conservation violated at {vertex!r}")


def flow_energy(net: Network, flow: FlowAssignment) -> Fraction:
    """Sum of theta^2 / c over the edges, over reduced pairs: one ``math.gcd``
    per edge keeps the sum's denominator from growing as a product."""
    p, q = 0, 1
    for e in net.edges:
        theta, w = flow.values.get((e.u, e.v, e.label), 0), e.weight
        a, b = theta.numerator ** 2 * w.denominator, theta.denominator ** 2 * w.numerator
        p, q = p * b + a * q, q * b
        g = math.gcd(p, q)
        p, q = p // g, q // g
    return Fraction(p, q)


def _unit_flow(vertices, edges, s, t):
    """The unit s-t current over ``edges``: the grounded Laplacian, the
    resistance (the exact potential of ``s``, with ``t`` at 0) and each
    nonzero current c * (p(u) - p(v)) keyed ``(u, v, label)`` in edge order;
    None when ``s`` and ``t`` are not joined."""
    lap = grounded_laplacian(vertices, edges, s, t)
    if not lap.connected:
        return None
    exact = lap.solve_exact({s: 1})
    potentials = {v: (p.numerator, p.denominator) for v, p in exact.items()}
    potentials[t] = (0, 1)
    currents = {}
    for e in edges:
        if e.u in potentials:
            (nu, du), (nv, dv) = potentials[e.u], potentials[e.v]
            num = e.weight.numerator * (nu * dv - nv * du)
            if num:
                currents[(e.u, e.v, e.label)] = Fraction(num, e.weight.denominator * du * dv)
    return lap, exact[s], currents


def optimal_flow(net: Network):
    """Minimum-energy unit s-t flow and its energy, both exact.

    The flow is the potential flow theta(u,v) = c * (p(u) - p(v)); its energy
    equals the effective resistance.  Raises DisconnectedError when no unit
    flow exists.
    """
    unit = _unit_flow(net.vertices, net.edges, net.s, net.t)
    if unit is None:
        raise DisconnectedError("terminals are not connected")
    flow = flow_from_directed(unit[2])
    return flow, flow_energy(net, flow)


def decompose_flow(flow: FlowAssignment):
    """Split a unit flow into s-t paths and cycles with positive coefficients.

    Terminals are recovered from the flow itself (the unique vertices with
    net outflow +1 / -1).  One walk repeats over the positive arcs, always
    taking the largest remaining arc: from s while part of the unit is
    unrouted, else from the tail of the least remaining arc.  It stops at t
    for a self-avoiding path, or at the first vertex seen again for a simple
    cycle, whose coefficient is its least arc (for a path, at most the
    unrouted part).  Returns (coefficient, kind, edges) triples, kind "path"
    or "cycle"; they recompose exactly, and the path coefficients sum to
    one.  A potential flow runs downhill, so it gives paths only.
    """
    balance = _balances(flow)
    sources = [v for v, b in balance.items() if b == 1]
    sinks = [v for v, b in balance.items() if b == -1]
    others = [v for v, b in balance.items() if b != 0 and v not in sources + sinks]
    if len(sources) != 1 or len(sinks) != 1 or others:
        raise ValueError("not a unit flow: bad source/sink balance")
    s, t = sources[0], sinks[0]

    residual = {k: v for k, v in flow.values.items() if v > 0}
    arcs_out = defaultdict(list)
    for key in residual:
        arcs_out[key[0]].append(key)
    unrouted = Fraction(1)
    pieces = []
    while residual:
        v = s if unrouted else min(residual)[0]
        walk, first_arc_at = [], {}
        while not (unrouted and v == t) and v not in first_arc_at:
            first_arc_at[v] = len(walk)
            key = min((k for k in arcs_out[v] if k in residual),
                      key=lambda k: (-residual[k], k))
            walk.append(key)
            v = key[1]
        if v in first_arc_at:
            kind, walk = "cycle", walk[first_arc_at[v]:]
            coeff = min(residual[key] for key in walk)
        else:
            kind, coeff = "path", min(unrouted, *(residual[key] for key in walk))
            unrouted -= coeff
        for key in walk:
            residual[key] -= coeff
            if residual[key] == 0:
                del residual[key]
        pieces.append((coeff, kind, walk))
    return pieces


def recompose(pieces) -> FlowAssignment:
    values = defaultdict(Fraction)
    for coeff, _kind, edges in pieces:
        for (u, v, label) in edges:
            values[(u, v, label)] += coeff
            values[(v, u, label)] -= coeff
    return FlowAssignment({k: v for k, v in values.items() if v != 0})


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutAssignment:
    """0/1 vertex labeling with kappa(s) = 1 and kappa(t) = 0."""

    kappa: dict

    def crossing_edges(self, net: Network):
        return [e for e in net.edges if self.kappa[e.u] != self.kappa[e.v]]

    def s_side(self):
        return frozenset(v for v, bit in self.kappa.items() if bit == 1)


def _residual_search(capacity, adj, s: int, t: int) -> dict:
    """Breadth-first search of the residual graph from ``s``, stopping once
    it reaches ``t``: each reached vertex mapped to its parent."""
    parent = {s: None}
    queue = deque([s])
    while queue and t not in parent:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parent and capacity[(u, v)] > 0:
                parent[v] = u
                queue.append(v)
    return parent


def _max_flow_value(capacity, adj, s: int, t: int) -> int:
    """Edmonds-Karp on integer capacities, one unit per augmenting path: the
    count of edge-disjoint s-t paths.  Mutates ``capacity`` into the
    residual capacities."""
    flow = 0
    while t in (parent := _residual_search(capacity, adj, s, t)):
        v = t
        while v != s:
            u = parent[v]
            capacity[(u, v)] -= 1
            capacity[(v, u)] += 1
            v = u
        flow += 1
    return flow


MAXFLOW = "maxflow"
SP_RECURSION = "sp-recursion"


def _min_cut(host: Network, x):
    """Minimum count of host edges crossing an s-t cut that no selected edge
    crosses, and the s-side the max-flow residual reaches.

    Max-flow runs on the host's quotient by the components of the selected
    edges, numbered in vertex order: each host edge joining two components
    adds one unit of capacity between them.  A minimum cut that crosses no
    selected edge splits no component, so the quotient's minimum cut has the
    same value and the same inclusion-minimal s-side.  Returns None when the
    selected subgraph connects the terminals.
    """
    comp = _label(selector_from_assignment(host, x), host.vertices)
    if comp[host.s] == comp[host.t]:
        return None
    number = {}
    index = {v: number.setdefault(comp[v], len(number)) for v in host.vertices}
    capacity = defaultdict(int)
    adj = defaultdict(set)
    for e in host.edges:
        iu, iv = index[e.u], index[e.v]
        if iu != iv:
            capacity[(iu, iv)] += 1
            capacity[(iv, iu)] += 1
            adj[iu].add(iv)
            adj[iv].add(iu)
    s, t = index[host.s], index[host.t]
    value = _max_flow_value(capacity, adj, s, t)
    reach = _residual_search(capacity, adj, s, t)
    return value, {v for v in host.vertices if index[v] in reach}


def cut_size(host: Network, x, backend: str = MAXFLOW):
    """Minimum number of host edges crossing any s-t cut of the selected
    subgraph; INF when the terminals are connected.

    ``sp-recursion`` folds the formula over (min, +): series takes the min,
    parallel adds, and a present edge counts as ``math.inf``, which the root
    maps back to ``INF``; a finite cut stays an ``int``.
    """
    if backend == MAXFLOW:
        cut = _min_cut(host, x)
        return INF if cut is None else cut[0]
    if backend == SP_RECURSION:
        if host.formula is None:
            raise ValueError("sp-recursion backend needs a formula-derived network")
        f = host.formula
        bits = as_bits(x, f.n_vars)
        first = f.first_var
        cut = fold(f, lambda g: math.inf if bits[g.var - first] ^ g.negated else 1, min, sum)
        return INF if cut == math.inf else cut
    raise ValueError(f"unknown backend {backend!r}")


def witness_cut(host: Network, x) -> CutAssignment:
    """A minimizing s-t cut of the selected subgraph.

    The s-side is the set of vertices that the max-flow residual reaches from
    s.  Among all minimum cuts it is the inclusion-minimal s-side, so its
    characteristic vector over the sorted non-terminal vertices is also the
    lexicographically smallest; the tie-break is the same on every size.
    """
    cut = _min_cut(host, x)
    if cut is None:
        raise DisconnectedError("terminals are connected; no cut exists")
    s_side = cut[1]
    return CutAssignment({v: 1 if v in s_side else 0 for v in host.vertices})


# ---------------------------------------------------------------------------
# path search
# ---------------------------------------------------------------------------

def simple_st_paths(net: Network, budget: int = 24):
    """All self-avoiding s-t paths, as tuples of edges."""
    if len(net.edges) > budget:
        raise SearchBudgetError(f"edge count {len(net.edges)} exceeds budget {budget}")
    adj = net.adjacency()
    paths = []
    path = []

    def dfs(v, seen):
        if v == net.t:
            paths.append(tuple(path))
            return
        for w, e in adj[v]:
            if w not in seen:
                path.append(e)
                dfs(w, seen | {w})
                path.pop()

    dfs(net.s, {net.s})
    return paths


def longest_self_avoiding_path(net: Network, budget: int = 24) -> int:
    """Maximum edge count over simple s-t paths (0 when none exists)."""
    paths = simple_st_paths(net, budget)
    return max((len(p) for p in paths), default=0)


def shortest_st_path_length(net: Network):
    """Hop count of a shortest s-t path; INF when disconnected."""
    adj = net.adjacency()
    dist = {net.s: 0}
    queue = deque([net.s])
    while queue:
        u = queue.popleft()
        if u == net.t:
            return dist[u]
        for v, _e in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return INF
