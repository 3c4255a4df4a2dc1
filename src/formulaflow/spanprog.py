"""Connectivity span programs: witness sizes, witness objects, and weights.

The program for a network spans one coordinate per *directed* edge; the map
sends (u, v, lambda) to sqrt(c) * (e_u - e_v) and the target is e_s - e_t.
Every solver works on the host edges that
:func:`.graphs.selector_from_assignment` keeps; exact witness sizes come from
the definitional quadratic programs (positive: a grounded-Laplacian solve on
the kept edges; negative: a potential minimization on the quotient by their
components), so they can be cross-checked against the independent
series-parallel reduction of the network and of its structural dual.  They
need no dense matrix: the program keeps each directed column's two vertex
rows and sqrt(c), and the positive residual sums them with ``np.bincount``.
The dense |V| x 2|E| span matrix A is a cached property, built only by the
approximate solvers and :func:`span_matrix`.

Approximate witnesses minimize the error term first and the norm second; the
production solver is one two-stage float least-squares over the rows of one
matrix, the identity on the positive side and A^T on the negative.  Its
factors that do not depend on the input (the start vectors and bases, A^T
and its spectral norm, the host's connectivity) are cached properties of the
program, computed at its first approximate solve.  Its exact reference
uses the closed form of Ito and Jeffery ("Approximate span programs", ICALP
2016, arXiv:1507.00432): the least positive error on a 0-input is 1/w-(x) and
the least negative error on a 1-input is 1/w+(x).  Each reference is a few
sparse exact solves of :func:`.linalg.solve_grounded_laplacian` (a quotient
or component unit current, then grounded solves for the second stage), a
method independent of the float SVD route; the dense lexicographic program
over the same nested objectives stays in the tests as their oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .electrical import _label, formula_resistance, grounded_laplacian, terminals_connected
from .errors import DisconnectedError
from .extended import INF, as_float
from .formula import AND, Formula, as_bits, eval_formula, side_maxima
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
    and the approximate solvers' factors below at the first approximate solve.
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

    @cached_property
    def connected(self) -> bool:
        """Whether the host joins its terminals."""
        return terminals_connected(self.network)

    @cached_property
    def w0(self) -> np.ndarray:
        """The least-norm solution of A w = tau."""
        return np.linalg.lstsq(self.matrix, self.tau, rcond=None)[0]

    @cached_property
    def null_basis(self) -> np.ndarray:
        """An orthonormal basis of the null space of A, on a connected host."""
        _u, s, vt = np.linalg.svd(self.matrix, full_matrices=True)
        return vt[int((s > 1e-10 * s[0]).sum()):].T

    @cached_property
    def e_s(self) -> np.ndarray:
        """The functional 1 at s and 0 elsewhere, so omega(tau) = 1."""
        return (self.tau > 0).astype(float)

    @cached_property
    def level_basis(self) -> np.ndarray:
        """An orthonormal basis of the functionals with omega(s) = omega(t):
        e_v for each other vertex in vertex order, then (e_s + e_t) / sqrt 2."""
        return np.column_stack([np.eye(len(self.tau))[:, self.tau == 0],
                                np.abs(self.tau) / math.sqrt(2.0)])

    @cached_property
    def matrix_t(self) -> tuple:
        """A^T, the map from vertex functionals to columns, and its spectral norm."""
        return self.matrix.T, max(float(np.linalg.norm(self.matrix.T, 2)), 1e-300)


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
    kept = selector_from_assignment(net, x)
    lap = grounded_laplacian(net.vertices, kept, net.s, net.t)
    if not lap.connected:
        return WitnessReport(POSITIVE, INF, math.inf, Fraction(0), None, 0.0)
    exact = lap.solve_exact({net.s: 1})
    size = exact[net.s] / 2
    potentials = {v: (p.numerator, p.denominator) for v, p in exact.items()}
    potentials[net.t] = (0, 1)
    weights = {e.label: e.weight for e in kept}
    vec = np.zeros(len(program.directed))
    for col, (u, v, label) in enumerate(program.directed):
        if label in weights and u in potentials and v in potentials:
            (nu, du), (nv, dv), w = potentials[u], potentials[v], weights[label]
            # theta = w * (p(u) - p(v)); int true division rounds correctly
            theta = w.numerator * (nu * dv - nv * du) / (w.denominator * du * dv)
            vec[col] = theta / (2.0 * math.sqrt(float(w)))
    flow = program.roots * vec  # a @ vec, summed over each column's two vertex rows
    rows = len(program.vertex_index)
    image = np.bincount(program.tails, flow, rows) - np.bincount(program.heads, flow, rows)
    residual = float(np.linalg.norm(image - target_vector(program)))
    size_float = lap.resistance_float() / 2.0  # independent float route
    return WitnessReport(POSITIVE, size, size_float, Fraction(0), vec, residual)


def _quotient(net: Network, comp: dict):
    """The host with each selected component contracted to its representative:
    the representatives, in vertex order, and the edges joining two of them."""
    reps = dict.fromkeys(comp[v] for v in net.vertices)
    qedges = [Edge(comp[e.u], comp[e.v], e.label, e.weight) for e in net.edges
              if comp[e.u] != comp[e.v]]
    return reps, qedges


def negative_witness(program: SpanProgram, x) -> WitnessReport:
    """Minimum squared row norm of a functional separating s from t.

    Solved as the definitional quadratic program: the functional must be
    constant on each selected component, take values 1 at s and 0 at t, and
    minimize twice the weighted Dirichlet energy over all host edges.
    """
    net = program.network
    comp = _label(selector_from_assignment(net, x), net.vertices)
    cs, ct = comp[net.s], comp[net.t]
    if cs == ct:
        return WitnessReport(NEGATIVE, INF, math.inf, Fraction(0), None, 0.0)
    reps, qedges = _quotient(net, comp)
    lap = grounded_laplacian(reps, qedges, cs, ct)
    if not lap.connected:
        # no host edge ever links the two groups: a 0/1 indicator annihilates
        # every column, so the witness size collapses to zero
        omega = {v: Fraction(1) if comp[v] in lap.component else Fraction(0)
                 for v in net.vertices}
        return WitnessReport(NEGATIVE, Fraction(0), 0.0, Fraction(0), omega, 0.0)
    potentials = lap.solve_exact({cs: 1})
    resistance = potentials[cs]
    size = 2 / resistance
    scaled = {rep: potentials.get(rep, Fraction(0)) / resistance for rep in reps}
    omega = {v: scaled[comp[v]] for v in net.vertices}
    size_float = 2.0 / lap.resistance_float()
    norm_sq = 2.0 * sum(float(e.weight) * (float(omega[e.u]) - float(omega[e.v])) ** 2
                        for e in net.edges)
    residual = abs(norm_sq - as_float(size))
    return WitnessReport(NEGATIVE, size, size_float, Fraction(0), omega, residual)


# ---------------------------------------------------------------------------
# approximate witnesses
# ---------------------------------------------------------------------------

def _columns(program: SpanProgram, x, present: bool) -> list:
    """The directed columns of the edges that ``x`` keeps (present) or drops."""
    kept = {e.label for e in selector_from_assignment(program.network, x)}
    return [i for i, (_u, _v, label) in enumerate(program.directed)
            if (label in kept) == present]


def _two_stage(v0: np.ndarray, basis: np.ndarray, rows: list, m=None,
               m_norm: float = 1.0, tol: float = 1e-9) -> np.ndarray:
    """Minimize ||M[rows] v||, then ||M v||, over v = v0 + basis @ z.

    ``basis`` has orthonormal columns; ``m`` None is the identity, whose rows
    are read off ``v0`` and ``basis``.  Each stage's rank decision is
    anchored to its matrix's spectral norm (``m_norm`` for all of ``m``):
    directions whose image is below tol * ||M|| count as exactly null, so the
    second stage cannot ride a numerically-null direction of the first with
    an enormous coefficient.  The identity's anchor is the constant 1.0:
    distinct identity rows are orthonormal, so each non-empty set of them has
    spectral norm 1, which LAPACK's SVD returns as exactly 1.0.
    """
    for stage in (rows, slice(None)):
        sub = None if m is None else m[stage]
        c, image = (basis[stage], v0[stage]) if sub is None else (sub @ basis, sub @ v0)
        if c.size == 0:
            continue
        anchor = m_norm
        if sub is not None and stage is rows:
            anchor = max(float(np.linalg.norm(sub, 2)), 1e-300)
        u, s, vt = np.linalg.svd(c, full_matrices=True)
        rank = int((s > tol * anchor).sum())
        if rank:
            z = vt[:rank].T @ ((u[:, :rank].T @ -image) / s[:rank])
            v0 = v0 + basis @ z
        basis = basis @ vt[rank:].T
    return v0


def approx_positive_witness(program: SpanProgram, x) -> WitnessReport:
    """Two-stage solve: minimize the mass on unavailable edges, then the norm.

    Requires the host to connect its terminals (otherwise the target is
    unreachable and no approximate witness exists).
    """
    if not program.connected:
        raise DisconnectedError("host network never connects its terminals")
    absent = _columns(program, x, False)
    vec = _two_stage(program.w0, program.null_basis, absent)
    err = float(vec[absent] @ vec[absent])
    size = float(vec @ vec)
    residual = float(np.linalg.norm(program.matrix @ vec - program.tau))
    return WitnessReport(APPROX_POSITIVE, size, size, err, vec, residual)


def approx_negative_witness(program: SpanProgram, x) -> WitnessReport:
    """Two-stage solve over vertex functionals with omega(tau) = 1."""
    present = _columns(program, x, True)
    a_t, norm = program.matrix_t
    vec = _two_stage(program.e_s, program.level_basis, present, a_t, norm)
    err = float(np.linalg.norm(a_t[present] @ vec) ** 2)
    size = float(np.linalg.norm(a_t @ vec) ** 2)
    omega = {v: float(vec[i]) for v, i in program.vertex_index.items()}
    return WitnessReport(APPROX_NEGATIVE, size, size, err, omega, 0.0)


def approx_positive_witness_reference(program: SpanProgram, x):
    """Exact (error, size) pair for the approximate positive witness.

    With w = w' / sqrt(c) a witness is a unit s-t flow over the directed
    columns, and the least norm splits each edge's flow evenly over its two
    columns, so both stage values are half an energy.  Stage one routes the
    current over absent edges only: the unit current of the quotient by the
    selected components, so the error is R_q / 2 (Ito and Jeffery,
    "Approximate span programs", ICALP 2016, arXiv:1507.00432: the least
    error on a 0-input is 1/w-(x)).  Stage two keeps those currents and adds,
    inside each component, the least-energy flow of the injections they
    leave there, one grounded solve per component.  A 1-input has error 0
    and the size R / 2 of :func:`positive_witness`.
    """
    net = program.network
    kept = selector_from_assignment(net, x)
    comp = _label(kept, net.vertices)
    cs, ct = comp[net.s], comp[net.t]
    if cs == ct:
        lap = grounded_laplacian(net.vertices, kept, net.s, net.t)
        return Fraction(0), lap.solve_exact({net.s: 1})[net.s] / 2
    lap = grounded_laplacian(*_quotient(net, comp), cs, ct)
    if not lap.connected:
        raise DisconnectedError("host network never connects its terminals")
    potentials = lap.solve_exact({cs: 1})
    injected = {net.s: Fraction(1), net.t: Fraction(-1)}
    for e in net.edges:
        cu, cv = comp[e.u], comp[e.v]
        if cu != cv:
            current = e.weight * (potentials.get(cu, 0) - potentials.get(cv, 0))
            injected[e.u] = injected.get(e.u, 0) - current
            injected[e.v] = injected.get(e.v, 0) + current
    energy = potentials[cs]
    for rep in dict.fromkeys(comp[v] for v, b in injected.items() if b):
        phi = grounded_laplacian(net.vertices, kept, rep, rep).solve_exact(injected)
        energy += sum(injected[v] * y for v, y in phi.items() if v in injected)
    return potentials[cs] / 2, energy / 2


def approx_negative_witness_reference(program: SpanProgram, x):
    """Exact (error, size) pair for the approximate negative witness.

    The variables are the vertex potentials, with omega(s) - omega(t) = 1,
    and both stage values are twice a Dirichlet energy.  A 0-input has
    error 0 and the size 2 / R_q of :func:`negative_witness`.  On a 1-input
    stage one fixes omega on the component C of s and t to its unit-current
    potentials over R_C, so the error is 2 / R_C (the least error on a
    1-input is 1/w+(x), Ito and Jeffery, arXiv:1507.00432); every other
    component is one free constant, and stage two finds those constants by
    one Dirichlet solve on the quotient grounded at C.
    """
    net = program.network
    kept = selector_from_assignment(net, x)
    comp = _label(kept, net.vertices)
    cs, ct = comp[net.s], comp[net.t]
    if cs != ct:
        lap = grounded_laplacian(*_quotient(net, comp), cs, ct)
        if not lap.connected:
            return Fraction(0), Fraction(0)
        return Fraction(0), 2 / lap.solve_exact({cs: 1})[cs]
    phi = grounded_laplacian(net.vertices, kept, net.s, net.t).solve_exact({net.s: 1})
    resistance = phi[net.s]
    omega = {v: y / resistance for v, y in phi.items()}
    omega[net.t] = Fraction(0)
    boundary = {}  # the current each edge into C brings from its fixed end
    for e in net.edges:
        for here, there in ((e.u, e.v), (e.v, e.u)):
            if comp[here] == cs and comp[there] != cs:
                boundary[comp[there]] = boundary.get(comp[there], 0) + e.weight * omega[here]
    free = grounded_laplacian(*_quotient(net, comp), cs, cs).solve_exact(boundary)
    for v in net.vertices:
        if comp[v] != cs:
            omega[v] = free.get(comp[v], Fraction(0))
    energy = sum(e.weight * (omega[e.u] - omega[e.v]) ** 2 for e in net.edges)
    return 2 / resistance, 2 * energy


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
