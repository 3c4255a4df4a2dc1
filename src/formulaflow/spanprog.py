"""Connectivity span programs: witness sizes, witness objects, and weights.

The program for a network spans one coordinate per *directed* edge; the map
sends (u, v, lambda) to sqrt(c) * (e_u - e_v) and the target is e_s - e_t.
Exact witness sizes are computed from the definitional quadratic programs
(positive: a grounded-Laplacian solve on the selected subgraph; negative: a
potential minimization on the quotient by the selected components), so they
can be cross-checked against the independent series-parallel reduction of the
network and of its structural dual.

Approximate witnesses minimize the error term first and the norm second; the
production solver is a two-stage float least-squares, and an exact rational
solver over the same nested program serves as the reference oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .electrical import (
    component_of,
    components,
    formula_resistance,
    grounded_laplacian,
)
from .errors import DisconnectedError
from .extended import INF, as_float
from .formula import AND, Formula, as_bits, eval_formula, side_maxima
from .graphs import Edge, Network, selector_from_assignment, subgraph

POSITIVE = "positive"
NEGATIVE = "negative"
APPROX_POSITIVE = "approx-positive"
APPROX_NEGATIVE = "approx-negative"


@dataclass(frozen=True, eq=False)
class SpanProgram:
    """Immutable span program for s-t connectivity on a host network."""

    network: Network
    directed: tuple  # both orientations of every edge, in edge order
    vertex_index: dict
    matrix: np.ndarray
    tau: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.network.edges)


def build_span_program(net: Network) -> SpanProgram:
    directed = []
    for e in net.edges:
        directed.append((e.u, e.v, e.label))
        directed.append((e.v, e.u, e.label))
    index = {v: i for i, v in enumerate(net.vertices)}
    weights = net.weight_map()
    a = np.zeros((len(net.vertices), len(directed)))
    for col, (u, v, label) in enumerate(directed):
        root = math.sqrt(float(weights[label]))
        a[index[u], col] = root
        a[index[v], col] = -root
    tau = np.zeros(len(net.vertices))
    tau[index[net.s]] = 1.0
    tau[index[net.t]] = -1.0
    return SpanProgram(net, tuple(directed), index, a, tau)


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
    sub = subgraph(net, selector_from_assignment(net, x))
    lap = grounded_laplacian(sub.vertices, sub.edges, sub.s, sub.t)
    if not lap.connected:
        return WitnessReport(POSITIVE, INF, math.inf, Fraction(0), None, 0.0)
    potentials = lap.potentials_exact()
    size = potentials[sub.s] / 2
    potentials[sub.t] = Fraction(0)
    weights = net.weight_map()
    present_labels = {e.label for e in sub.edges}
    vec = np.zeros(len(program.directed))
    for col, (u, v, label) in enumerate(program.directed):
        if label in present_labels and u in potentials and v in potentials:
            theta = weights[label] * (potentials[u] - potentials[v])
            vec[col] = float(theta) / (2.0 * math.sqrt(float(weights[label])))
    a = span_matrix(program)
    residual = float(np.linalg.norm(a @ vec - target_vector(program)))
    size_float = lap.resistance_float() / 2.0  # independent float route
    return WitnessReport(POSITIVE, size, size_float, Fraction(0), vec, residual)


def negative_witness(program: SpanProgram, x) -> WitnessReport:
    """Minimum squared row norm of a functional separating s from t.

    Solved as the definitional quadratic program: the functional must be
    constant on each selected component, take values 1 at s and 0 at t, and
    minimize twice the weighted Dirichlet energy over all host edges.
    """
    net = program.network
    comp = components(subgraph(net, selector_from_assignment(net, x)))
    cs, ct = comp[net.s], comp[net.t]
    if cs == ct:
        return WitnessReport(NEGATIVE, INF, math.inf, Fraction(0), None, 0.0)
    # the quotient: each selected component contracted to its representative
    reps = dict.fromkeys(comp[v] for v in net.vertices)
    qedges = [Edge(comp[e.u], comp[e.v], e.label, e.weight) for e in net.edges
              if comp[e.u] != comp[e.v]]
    lap = grounded_laplacian(reps, qedges, cs, ct)
    if not lap.connected:
        # no host edge ever links the two groups: a 0/1 indicator annihilates
        # every column, so the witness size collapses to zero
        omega = {v: Fraction(1) if comp[v] in lap.component else Fraction(0)
                 for v in net.vertices}
        return WitnessReport(NEGATIVE, Fraction(0), 0.0, Fraction(0), omega, 0.0)
    potentials = lap.potentials_exact()
    resistance = potentials[cs]
    size = 2 / resistance
    omega = {v: potentials.get(comp[v], Fraction(0)) / resistance for v in net.vertices}
    size_float = 2.0 / lap.resistance_float()
    norm_sq = 2.0 * sum(float(e.weight) * (float(omega[e.u]) - float(omega[e.v])) ** 2
                        for e in net.edges)
    residual = abs(norm_sq - as_float(size))
    return WitnessReport(NEGATIVE, size, size_float, Fraction(0), omega, residual)


# ---------------------------------------------------------------------------
# approximate witnesses
# ---------------------------------------------------------------------------

def _null_space_float(m: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    if m.size == 0:
        return np.eye(m.shape[1])
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    if s.size == 0 or s[0] == 0:
        rank = 0
    else:
        rank = int((s > rtol * s[0]).sum())
    return vt[rank:].T


def _nested_lstsq_float(stages, v0: np.ndarray, basis: np.ndarray,
                        tol: float = 1e-9) -> np.ndarray:
    """Sequentially minimize ||M v|| over v = v0 + basis @ z, stage by stage.

    ``basis`` must have orthonormal columns.  Rank decisions are anchored to
    each stage matrix's own spectral norm: directions whose image under the
    stage is below tol * ||M|| are treated as exactly null, which keeps a
    later stage from riding a numerically-null direction of an earlier one
    with an enormous coefficient.
    """
    for m in stages:
        if basis.shape[1] == 0 or m.size == 0:
            continue
        c = m @ basis
        d = -(m @ v0)
        u, s, vt = np.linalg.svd(c, full_matrices=True)
        anchor = max(float(np.linalg.norm(m, 2)), 1e-300)
        rank = int((s > tol * anchor).sum()) if s.size else 0
        if rank:
            z = vt[:rank].T @ ((u[:, :rank].T @ d) / s[:rank])
            v0 = v0 + basis @ z
        basis = basis @ vt[rank:].T
    return v0


def approx_positive_witness(program: SpanProgram, x) -> WitnessReport:
    """Two-stage solve: minimize the mass on unavailable edges, then the norm.

    Requires the host to connect its terminals (otherwise the target is
    unreachable and no approximate witness exists).
    """
    net = program.network
    if net.t not in component_of(net, net.s):
        raise DisconnectedError("host network never connects its terminals")
    a = span_matrix(program)
    tau = target_vector(program)
    present = {e.label for e in subgraph(net, selector_from_assignment(net, x)).edges}
    absent = [i for i, (u, v, label) in enumerate(program.directed)
              if label not in present]
    w0, *_ = np.linalg.lstsq(a, tau, rcond=None)
    basis = _null_space_float(a)
    mask = np.zeros((len(absent), len(program.directed)))
    for row, col in enumerate(absent):
        mask[row, col] = 1.0
    vec = _nested_lstsq_float([mask, np.eye(len(program.directed))], w0, basis)
    err = float(vec[absent] @ vec[absent])
    size = float(vec @ vec)
    residual = float(np.linalg.norm(a @ vec - tau))
    return WitnessReport(APPROX_POSITIVE, size, size, err, vec, residual)


def approx_negative_witness(program: SpanProgram, x) -> WitnessReport:
    """Two-stage solve over vertex functionals with omega(tau) = 1."""
    net = program.network
    a = span_matrix(program)
    present = {e.label for e in subgraph(net, selector_from_assignment(net, x)).edges}
    present_cols = [i for i, (u, v, label) in enumerate(program.directed)
                    if label in present]
    n = len(net.vertices)
    v0 = np.zeros(n)
    v0[program.vertex_index[net.s]] = 1.0
    cols = []
    for v in net.vertices:
        if v in (net.s, net.t):
            continue
        e = np.zeros(n)
        e[program.vertex_index[v]] = 1.0
        cols.append(e)
    both = np.zeros(n)
    both[program.vertex_index[net.s]] = 1.0 / math.sqrt(2.0)
    both[program.vertex_index[net.t]] = 1.0 / math.sqrt(2.0)
    cols.append(both)
    basis = np.stack(cols, axis=1)
    m1 = a[:, present_cols].T
    m2 = a.T
    vec = _nested_lstsq_float([m1, m2], v0, basis)
    err = float(np.linalg.norm(m1 @ vec) ** 2)
    size = float(np.linalg.norm(m2 @ vec) ** 2)
    omega = {v: float(vec[program.vertex_index[v]]) for v in net.vertices}
    return WitnessReport(APPROX_NEGATIVE, size, size, err, omega, 0.0)


def approx_positive_witness_reference(program: SpanProgram, x):
    """Exact (error, size) pair for the approximate positive witness.

    Substitute w = w' / sqrt(c) so the constraint matrix is the integer
    incidence map and both stage objectives are diagonal rational forms.
    """
    net = program.network
    present = {e.label for e in subgraph(net, selector_from_assignment(net, x)).edges}
    weights = net.weight_map()
    nvert = len(net.vertices)
    vidx = program.vertex_index
    ncols = len(program.directed)
    eq = [[Fraction(0)] * ncols for _ in range(nvert)]
    for col, (u, v, label) in enumerate(program.directed):
        eq[vidx[u]][col] += Fraction(1)
        eq[vidx[v]][col] -= Fraction(1)
    rhs = [Fraction(0)] * nvert
    rhs[vidx[net.s]] = Fraction(1)
    rhs[vidx[net.t]] = Fraction(-1)
    q1 = [[Fraction(0)] * ncols for _ in range(ncols)]
    q2 = [[Fraction(0)] * ncols for _ in range(ncols)]
    for col, (u, v, label) in enumerate(program.directed):
        inv = 1 / Fraction(weights[label])
        q2[col][col] = inv
        if label not in present:
            q1[col][col] = inv
    _vec, (err, size) = linalg.lex_min_quadratics(eq, rhs, [q1, q2])
    return err, size


def approx_negative_witness_reference(program: SpanProgram, x):
    """Exact (error, size) pair for the approximate negative witness.

    The variables are the vertex potentials, where the stage Gram matrices
    are (twice) the weighted Laplacians.
    """
    net = program.network
    present = {e.label for e in subgraph(net, selector_from_assignment(net, x)).edges}
    weights = net.weight_map()
    nvert = len(net.vertices)
    vidx = program.vertex_index
    eq = [[Fraction(0)] * nvert]
    eq[0][vidx[net.s]] = Fraction(1)
    eq[0][vidx[net.t]] = Fraction(-1)
    rhs = [Fraction(1)]

    def laplacian(edge_filter):
        lap = [[Fraction(0)] * nvert for _ in range(nvert)]
        for e in net.edges:
            if not edge_filter(e):
                continue
            w = Fraction(weights[e.label])
            iu, iv = vidx[e.u], vidx[e.v]
            lap[iu][iu] += w
            lap[iv][iv] += w
            lap[iu][iv] -= w
            lap[iv][iu] -= w
        return [[2 * val for val in row] for row in lap]

    q1 = laplacian(lambda e: e.label in present)
    q2 = laplacian(lambda e: True)
    _vec, (err, size) = linalg.lex_min_quadratics(eq, rhs, [q1, q2])
    return err, size


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
    0-inputs.  An empty side leaves its maxima as None.  Exact sizes come
    from the formula fold when the host is formula-derived, otherwise from
    the definitional solvers.
    """
    net = program.network
    weights = net.weight_map()
    if net.formula is not None and net.formula == f:
        exact = (lambda bits: formula_resistance(f, bits, weights) / 2,
                 lambda bits: 2 * formula_resistance(f, bits, weights, dual=True))
    else:
        exact = (lambda bits: positive_witness(program, bits).size,
                 lambda bits: negative_witness(program, bits).size)
    approx = {}
    if include_approx:
        approx = {"a_plus": (1, lambda bits: approx_positive_witness(program, bits).size),
                  "a_minus": (0, lambda bits: approx_negative_witness(program, bits).size)}
    # perfbench/tracing.py patches eval_formula and the lambdas' callees here: keep them imported
    best = side_maxima(f, (as_bits(x, f.n_vars) for x in domain), eval_formula,
                       w_plus=(1, exact[0]), w_minus=(0, exact[1]), **approx)
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
