"""Connectivity span programs: witness sizes, witness objects, and weights.

The program for a network spans one coordinate per *directed* edge; the map
sends (u, v, lambda) to sqrt(c) * (e_u - e_v) and the target is e_s - e_t.
Every solver works on the host edges that
:func:`.graphs.selector_from_assignment` keeps; exact witness sizes come from
the definitional quadratic programs, so they can be cross-checked against the
independent series-parallel reduction of the network and of its structural
dual.  Positive: the unit s-t current on the kept edges, the one that
:func:`.electrical.optimal_flow` reads, over 2 sqrt(c) in each edge's two
columns with opposite signs, of size R / 2.  Negative: a potential
minimization on the quotient by their components.  No solver needs a dense
matrix: the program keeps each directed column's two vertex rows and
sqrt(c), and a positive residual sums them with ``np.bincount``; the dense
|V| x 2|E| span matrix A is a cached property that only :func:`span_matrix`
builds.

Approximate witnesses minimize the error term first and the norm second, by
the closed form of Ito and Jeffery ("Approximate span programs", ICALP 2016,
arXiv:1507.00432): the least positive error on a 0-input is 1/w-(x) and the
least negative error on a 1-input is 1/w+(x).  So each is at most two
grounded Laplacian solves (a quotient or component unit current, then one
solve for the second stage over the components, each grounded), written
once per side and run in floats by :meth:`.GroundedLaplacian.solve_float`
for the solvers and in rationals by ``solve_exact`` for their exact
references.  The dense two-stage least squares over the same nested
objectives stays in the tests as their oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# perfbench/tracing.py patches eval_formula and formula_resistance here: keep them imported
from .electrical import (GroundedLaplacian, _label, _leaf_pairs, _unit_flow, formula_resistance,
                         grounded_laplacian, live_sides)
from .errors import DisconnectedError
from .extended import INF, as_float
from .formula import AND, Formula, _canonical, as_bits, eval_formula, side_maxima
from .graphs import Edge, Network, selector_from_assignment

POSITIVE = "positive"
NEGATIVE = "negative"
APPROX_POSITIVE = "approx-positive"
APPROX_NEGATIVE = "approx-negative"


@dataclass(frozen=True, eq=False)
class SpanProgram:
    """Immutable span program for s-t connectivity on a host network.

    Directed column ``k`` maps to ``roots[k] * (e_tails[k] - e_heads[k])``;
    the dense :attr:`matrix` is built from that incidence at its first use,
    which only :func:`span_matrix` makes.
    """

    network: Network
    directed: tuple  # both orientations of every edge, in edge order
    vertex_index: dict
    tails: np.ndarray  # vertex row of each directed column's +sqrt(c)
    heads: np.ndarray  # vertex row of its -sqrt(c)
    roots: np.ndarray  # sqrt(c) of each directed column
    tau: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense |V| x 2|E| map."""
        cols = np.arange(len(self.directed))
        a = np.zeros((len(self.vertex_index), len(self.directed)))
        a[self.tails, cols] = self.roots
        a[self.heads, cols] = -self.roots
        return a


def build_span_program(net: Network) -> SpanProgram:
    index = {v: i for i, v in enumerate(net.vertices)}
    directed, tails, heads, roots = [], [], [], []
    for e in net.edges:
        root = math.sqrt(float(e.weight))
        for u, v in ((e.u, e.v), (e.v, e.u)):
            directed.append((u, v, e.label))
            tails.append(index[u])
            heads.append(index[v])
            roots.append(root)
    tau = np.zeros(len(net.vertices))
    tau[index[net.s]] = 1.0
    tau[index[net.t]] = -1.0
    return SpanProgram(net, tuple(directed), index, np.array(tails, dtype=np.intp),
                       np.array(heads, dtype=np.intp), np.array(roots), tau)


def span_matrix(program: SpanProgram) -> np.ndarray:
    """The |V| x 2|E| map: column (u,v,label) is sqrt(c) * (e_u - e_v)."""
    return program.matrix


def target_vector(program: SpanProgram) -> np.ndarray:
    return program.tau


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness computation.

    ``size`` is exact (Fraction or INF) for the exact kinds and a float for
    the approximate kinds; ``size_float`` always carries the float value from
    the independent numeric route.  ``witness`` is an edge-space vector for
    positive kinds and a vertex functional for negative kinds.  ``residual``
    reports how well the witness object reproduces its defining equations.
    """

    kind: str
    size: object
    size_float: float
    error: object
    witness: object
    residual: float


def positive_witness(program: SpanProgram, x) -> WitnessReport:
    """Minimum squared norm of an edge-space vector reaching the target over
    the available edges; INF when the selected subgraph is disconnected."""
    net = program.network
    unit = _unit_flow(net.vertices, selector_from_assignment(net, x), net.s, net.t)
    if unit is None:
        return WitnessReport(POSITIVE, INF, math.inf, Fraction(0), None, 0.0)
    lap, resistance, currents = unit
    # float(Fraction) rounds correctly; 0.0 - half keeps +0.0 on an idle edge
    half = np.array([float(currents.get(key, 0)) for key in program.directed[::2]])
    half /= 2 * program.roots[::2]
    vec = np.empty(len(program.directed))
    vec[0::2] = half
    vec[1::2] = 0.0 - half
    size_float = lap.resistance_float() / 2.0  # independent float route
    return WitnessReport(POSITIVE, resistance / 2, size_float, Fraction(0), vec,
                         _residual(program, vec))


def _residual(program: SpanProgram, vec: np.ndarray) -> float:
    """||A vec - tau||, with A vec summed over each column's two vertex rows."""
    flow = program.roots * vec
    rows = len(program.vertex_index)
    image = np.bincount(program.tails, flow, rows) - np.bincount(program.heads, flow, rows)
    return float(np.linalg.norm(image - program.tau))


def _quotient(net: Network, comp: dict):
    """The host with each selected component contracted to its representative:
    the representatives, in vertex order, and the edges joining two of them."""
    reps = dict.fromkeys(comp[v] for v in net.vertices)
    qedges = [Edge(comp[e.u], comp[e.v], e.label, e.weight) for e in net.edges
              if comp[e.u] != comp[e.v]]
    return reps, qedges


def _separating(net: Network, comp: dict, solve):
    """The least-energy omega constant on each selected component, 1 on the
    component of s and 0 on that of t, by one quotient solve in the
    arithmetic of ``solve``.  Returns the quotient Laplacian, twice omega's
    energy (2 / R_q) and omega; when no host edge ever links the two sides,
    the 0/1 indicator of the side of s annihilates every column, size 0."""
    reps, qedges = _quotient(net, comp)
    cs = comp[net.s]
    lap = grounded_laplacian(reps, qedges, cs, comp[net.t])
    if not lap.connected:
        return lap, Fraction(0), {v: Fraction(comp[v] in lap.component) for v in net.vertices}
    potentials = solve(lap, {cs: 1})
    resistance = potentials[cs]
    scaled = {rep: potentials.get(rep, 0) / resistance for rep in reps}
    return lap, 2 / resistance, {v: scaled[comp[v]] for v in net.vertices}


def negative_witness(program: SpanProgram, x) -> WitnessReport:
    """Minimum squared row norm of a functional separating s from t.

    Solved as the definitional quadratic program: the functional must be
    constant on each selected component, take values 1 at s and 0 at t, and
    minimize twice the weighted Dirichlet energy over all host edges.
    """
    net = program.network
    comp = _label(selector_from_assignment(net, x), net.vertices)
    if comp[net.s] == comp[net.t]:
        return WitnessReport(NEGATIVE, INF, math.inf, Fraction(0), None, 0.0)
    lap, size, omega = _separating(net, comp, GroundedLaplacian.solve_exact)
    size_float = 2.0 / lap.resistance_float() if lap.connected else 0.0
    norm_sq = 2.0 * sum(float(e.weight) * (float(omega[e.u]) - float(omega[e.v])) ** 2
                        for e in net.edges)
    residual = abs(norm_sq - as_float(size))
    return WitnessReport(NEGATIVE, size, size_float, Fraction(0), omega, residual)


# ---------------------------------------------------------------------------
# approximate witnesses
# ---------------------------------------------------------------------------

def _positive_closed_form(program: SpanProgram, x, solve):
    """The approximate positive witness in the arithmetic of ``solve``
    (:meth:`.GroundedLaplacian.solve_exact` or ``solve_float``).

    With w = w' / sqrt(c) a witness is a unit s-t flow over the directed
    columns, and the least norm splits each edge's flow evenly over its two
    columns, so both stage values are half an energy.  Stage one routes the
    unit current of the quotient by the selected components over the absent
    edges, so the error is R_q / 2 = 1 / w-(x).  Stage two keeps those
    currents and adds :func:`_component_flows`; on a 1-input that is the
    unit current of :func:`positive_witness`.

    Returns the kept edges, the components, the quotient potentials by
    representative (empty on a 1-input), the component potentials by vertex
    and the total energy.
    """
    net = program.network
    kept = selector_from_assignment(net, x)
    comp = _label(kept, net.vertices)
    cs, ct = comp[net.s], comp[net.t]
    injected = {net.s: 1, net.t: -1}
    quotient = {}
    if cs != ct:
        lap = grounded_laplacian(*_quotient(net, comp), cs, ct)
        if not lap.connected:
            raise DisconnectedError("host network never connects its terminals")
        quotient = solve(lap, {cs: 1})
        for e in net.edges:
            cu, cv = comp[e.u], comp[e.v]
            if cu != cv:
                current = e.weight * (quotient.get(cu, 0) - quotient.get(cv, 0))
                injected[e.u] = injected.get(e.u, 0) - current
                injected[e.v] = injected.get(e.v, 0) + current
    phi, energy = _component_flows(net, kept, comp, injected, solve)
    return kept, comp, quotient, phi, quotient.get(cs, 0) + energy


def _component_flows(net: Network, kept: list, comp: dict, injected: dict, solve):
    """Stage two of :func:`_positive_closed_form`: the least-energy flow of
    the ``injected`` currents inside each component that holds one.  Tying
    those components' representatives to one ground makes their grounded
    Laplacians the blocks of one solve, by a Laplacian with no source.
    Returns the potentials by vertex (each representative at 0) and their
    total energy."""
    active = {comp[v] for v, b in injected.items() if b}
    order = [v for v in net.vertices if comp[v] in active and comp[v] != v]
    index = {v: i for i, v in enumerate(order)}
    triplets = [(index.get(e.u, len(order)), index.get(e.v, len(order)), e.weight)
                for e in kept if comp[e.u] in active]
    phi = solve(GroundedLaplacian(set(order), order, triplets, 0, True), injected)
    return phi, sum(injected[v] * y for v, y in phi.items() if v in injected)


def _negative_closed_form(program: SpanProgram, x, solve):
    """The approximate negative witness (error, size, omega), with omega(s) -
    omega(t) = 1, in the arithmetic of ``solve``; both stage values are twice
    a Dirichlet energy.  A 0-input is :func:`_separating`, with error 0.  On a
    1-input stage one fixes omega on the component C of s and t to its
    unit-current potentials over R_C, so the error is 2 / R_C = 1 / w+(x);
    every other component is one free constant, and stage two finds those
    constants by one Dirichlet solve on the quotient grounded at C."""
    net = program.network
    kept = selector_from_assignment(net, x)
    comp = _label(kept, net.vertices)
    cs, ct = comp[net.s], comp[net.t]
    if cs != ct:
        return (0, *_separating(net, comp, solve)[1:])
    phi = solve(grounded_laplacian(net.vertices, kept, net.s, net.t), {net.s: 1})
    resistance = phi[net.s]
    fixed = {v: y / resistance for v, y in phi.items()}  # omega on C, 0 at t
    boundary = {}  # the current each edge into C brings from its fixed end
    for e in net.edges:
        for here, there in ((e.u, e.v), (e.v, e.u)):
            if comp[here] == cs and comp[there] != cs:
                boundary[comp[there]] = (boundary.get(comp[there], 0)
                                         + e.weight * fixed.get(here, 0))
    free = solve(grounded_laplacian(*_quotient(net, comp), cs, cs), boundary)
    omega = {v: fixed.get(v, 0) if comp[v] == cs else free.get(comp[v], 0)
             for v in net.vertices}
    energy = sum(e.weight * (omega[e.u] - omega[e.v]) ** 2 for e in net.edges)
    return 2 / resistance, 2 * energy, omega


def approx_positive_witness(program: SpanProgram, x) -> WitnessReport:
    """Minimize the mass on unavailable edges, then the norm, by the closed
    form of :func:`_positive_closed_form` in floats.  The witness is the
    edge-space vector of :func:`positive_witness`: each edge's current split
    over its two columns and divided by sqrt(c).  Raises
    ``DisconnectedError`` when the host never joins its terminals."""
    net = program.network
    kept, comp, quotient, phi, energy = _positive_closed_form(
        program, x, GroundedLaplacian.solve_float)
    present = {e.label for e in kept}
    inside = np.array([phi.get(v, 0.0) for v in net.vertices])  # in vertex_index order
    across = np.array([quotient.get(comp[v], 0.0) for v in net.vertices])
    tails, heads = program.tails[::2], program.heads[::2]  # each edge's (u, v) column
    drop = np.where([e.label in present for e in net.edges],
                    inside[tails] - inside[heads], across[tails] - across[heads])
    half = program.roots[::2] * drop / 2  # theta / (2 sqrt c), theta = c * drop
    vec = np.empty(len(program.directed))
    vec[::2], vec[1::2] = half, -half
    error = float(quotient.get(comp[net.s], 0.0)) / 2
    size = float(energy) / 2
    return WitnessReport(APPROX_POSITIVE, size, size, error, vec, _residual(program, vec))


def approx_negative_witness(program: SpanProgram, x) -> WitnessReport:
    """Minimize the row norm on available edges, then over all edges, by the
    closed form of :func:`_negative_closed_form` in floats; the witness is
    the omega map."""
    error, size, omega = _negative_closed_form(program, x, GroundedLaplacian.solve_float)
    return WitnessReport(APPROX_NEGATIVE, float(size), float(size), float(error),
                         {v: float(w) for v, w in omega.items()}, 0.0)


def approx_positive_witness_reference(program: SpanProgram, x):
    """Exact (error, size) pair for the approximate positive witness: the
    closed form of :func:`_positive_closed_form` in rationals."""
    _kept, comp, quotient, _phi, energy = _positive_closed_form(
        program, x, GroundedLaplacian.solve_exact)
    return Fraction(quotient.get(comp[program.network.s], 0)) / 2, energy / 2


def approx_negative_witness_reference(program: SpanProgram, x):
    """Exact (error, size) pair for the approximate negative witness: the
    closed form of :func:`_negative_closed_form` in rationals."""
    error, size, _omega = _negative_closed_form(program, x, GroundedLaplacian.solve_exact)
    return Fraction(error), Fraction(size)


# ---------------------------------------------------------------------------
# extrema over domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessExtrema:
    w_plus: object
    w_minus: object
    approx_plus: float | None
    approx_minus: float | None
    bound: float | None
    attain_plus: tuple | None
    attain_minus: tuple | None


def witness_extrema(program: SpanProgram, domain, f: Formula,
                    include_approx: bool = True) -> WitnessExtrema:
    """Maxima of the witness sizes over a domain of assignments.

    Positive kinds are maximized over 1-inputs, negative kinds over
    0-inputs.  An empty side leaves its maxima as None.  Each input's value
    comes from one tabled sweep, :func:`.electrical.live_sides`.  On a
    formula-derived host the exact sizes are w+ = R / 2 and w- = 2 R' of the
    sweep's maxima, scaled once at the end; otherwise the definitional
    solvers give them input by input.
    """
    net = program.network
    formula_host = net.formula is not None and net.formula == f
    pairs = _leaf_pairs(_canonical(f), net.weight_map() if formula_host else None)
    tracked = {}
    if not formula_host:
        tracked = {"w_plus": (1, lambda bits: positive_witness(program, bits).size),
                   "w_minus": (0, lambda bits: negative_witness(program, bits).size)}
    if include_approx:
        tracked.update(a_plus=(1, lambda bits: approx_positive_witness(program, bits).size),
                       a_minus=(0, lambda bits: approx_negative_witness(program, bits).size))
    best = side_maxima(live_sides(f, pairs, (as_bits(x, f.n_vars) for x in domain)), **tracked)
    if formula_host:
        (r, attain_plus), (rd, attain_minus) = best["r"], best["r_dual"]
        w_plus = None if r is None else r / 2
        w_minus = None if rd is None else 2 * rd
    else:
        (w_plus, attain_plus), (w_minus, attain_minus) = best["w_plus"], best["w_minus"]
    a_plus, a_minus = (best.get(name, (None, None))[0] for name in ("a_plus", "a_minus"))
    bound = None
    if w_plus is not None and w_minus is not None:
        bound = math.sqrt(as_float(w_plus) * as_float(w_minus))
    return WitnessExtrema(w_plus, w_minus, a_plus, a_minus, bound,
                          attain_plus, attain_minus)


# ---------------------------------------------------------------------------
# recursive weight scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightCertificate:
    """Edge weights with an exactly certified witness-size product.

    ``bound`` equals W+ * W- under ``weights`` and never exceeds the
    variable count.  ``scalings`` records the per-subformula factor applied
    at each gate (child path, factor).
    """

    weights: dict
    bound: Fraction
    n_vars: int
    w_plus: Fraction
    w_minus: Fraction
    scalings: tuple

    def to_json(self) -> bytes:
        doc = {
            "weights": {label: str(w) for label, w in sorted(self.weights.items(),
                                                             key=_label_key)},
            "bound": str(self.bound),
        }
        return json.dumps(doc, separators=(",", ":")).encode()


def _label_key(item):
    label = item[0]
    return (0, int(label[1:])) if label[1:].isdigit() else (1, label)


def optimal_weights(f: Formula) -> WeightCertificate:
    """Recursive weight scheme certifying W+ * W- <= N.

    Leaves get weight one.  An AND gate rescales each child's weights by the
    reciprocal of that child's negative extremum (making its own negative
    extremum exactly one); an OR gate symmetrically rescales by the child's
    positive extremum.  The per-gate extrema compose exactly, so the product
    is certified without enumeration.  The extrema come bottom-up over the
    post-order, and each leaf's weight (the product of the factors on its
    root path) top-down, one product per node.
    """
    order = f._order
    extrema, factors, kids, stack = [], [None] * len(order), [], []
    for j, g in enumerate(order):
        first = len(stack) - len(g.children)
        kids.append(stack[first:])
        stack[first:] = [j]
        if g.is_leaf:
            extrema.append((Fraction(1, 2), Fraction(2)))
            continue
        total = Fraction(0)
        for c in kids[j]:
            cp, cm = extrema[c]
            factors[c] = 1 / cm if g.kind == AND else cp
            total += cp * cm
        extrema.append((total, Fraction(1)) if g.kind == AND else (Fraction(1), total))
    root = len(order) - 1
    paths, scale = {root: ""}, {root: Fraction(1)}
    for j in reversed(range(len(order))):
        for i, c in enumerate(kids[j]):
            paths[c] = f"{paths[j]}.{i}" if paths[j] else str(i)
            scale[c] = scale[j] * factors[c]
    weights = {f"x{g.var}": scale[j] for j, g in enumerate(order) if g.is_leaf}
    w_plus, w_minus = extrema[-1]
    return WeightCertificate(weights, w_plus * w_minus, f.n_vars, w_plus, w_minus,
                             tuple((paths[c], factors[c]) for c in range(root)))
