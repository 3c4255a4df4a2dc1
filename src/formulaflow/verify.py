"""End-to-end verification suites.

Every suite pins its own sizes, seeds, and tolerances and checks a library
computation against an independent route (graph search against formula
evaluation, reduction against linear solves, recursion against brute-force
enumeration).

A suite is a function of no arguments that returns its pass detail, or
raises :class:`SuiteFailure` with the failure detail at its first mismatch.
:func:`run_criterion` owns the rest: it names the result after the suite's
``CRITERIA`` key and times it.  ``run_suite`` prints one pass/fail line per
suite and is what ``formulaflow verify`` drives.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .bounds import (
    compute_bounds,
    example_family,
    exponent_fit,
    verify_resistance_product,
)
from .electrical import (
    EXACT_SP,
    MAXFLOW,
    SP_RECURSION,
    _leaf_pairs,
    check_unit_flow,
    cut_size,
    decompose_flow,
    effective_resistance,
    flow_energy,
    formula_resistance,
    live_sides,
    longest_self_avoiding_path,
    optimal_flow,
    recompose,
    simple_st_paths,
)
from .extended import INF, as_float
from .formula import (
    AND,
    OR,
    Formula,
    all_inputs,
    build_nand_tree,
    composed_formula,
    enumerate_formulas,
    eval_formula,
    fold,
    gate,
    leaf,
    promise_domain,
    random_formula,
    side_maxima,
    uniform_formula,
)
from .graphs import (
    DUAL,
    PRIMAL,
    dual_network,
    formula_graph,
    selector_from_assignment,
    subgraph,
)
from .nand import (
    fault_complexity,
    fault_complexity_bruteforce,
    simulate_game,
    subtree_resistance,
)
from .spanprog import (
    approx_negative_witness,
    approx_negative_witness_reference,
    approx_positive_witness,
    approx_positive_witness_reference,
    build_span_program,
    negative_witness,
    optimal_weights,
    positive_witness,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


class SuiteFailure(Exception):
    """A suite's first mismatch; the message is the result's detail."""


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= tol * scale


def _bit_columns(n: int, lo: int, hi: int) -> list:
    """Boolean columns, x1 first, of the inputs numbered ``lo`` to ``hi - 1``."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    return [((idx >> np.uint64(n - 1 - j)) & np.uint64(1)).astype(bool)
            for j in range(n)]


def _random_weights(rng, f: Formula) -> dict:
    return {f"x{i + 1}": Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            for i in range(f.n_vars)}


# ---------------------------------------------------------------------------
# 1. witness sizes against resistances, exact and float
# ---------------------------------------------------------------------------

def check_witness_resistance() -> str:
    """Positive/negative witness sizes equal half/twice the primal/dual
    resistance on random weighted series-parallel networks: exact equality
    via the rational routes, relative 1e-9 agreement via the float routes."""
    rng = np.random.default_rng(11)
    networks = 0
    inputs = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        f = random_formula(rng, n)
        weights = _random_weights(rng, f)
        net = formula_graph(f, weights)
        dual_host = dual_network(f, weights)
        program = build_span_program(net)
        networks += 1
        for bits in all_inputs(n):
            inputs += 1
            pos = positive_witness(program, bits)
            neg = negative_witness(program, bits)
            r_sp = effective_resistance(
                subgraph(net, selector_from_assignment(net, bits, PRIMAL)), EXACT_SP)
            rd_sp = effective_resistance(
                subgraph(dual_host, selector_from_assignment(dual_host, bits, DUAL)),
                EXACT_SP)
            want_pos = INF if r_sp is INF else r_sp / 2
            want_neg = INF if rd_sp is INF else 2 * rd_sp
            if pos.size != want_pos or neg.size != want_neg:
                raise SuiteFailure(f"exact mismatch at n={n} x={bits}")
            if not _rel_close(pos.size_float, as_float(want_pos)):
                raise SuiteFailure(f"float positive mismatch at x={bits}")
            if not _rel_close(neg.size_float, as_float(want_neg)):
                raise SuiteFailure(f"float negative mismatch at x={bits}")
    return f"{networks} networks, {inputs} inputs, exact + 1e-9 float agreement"


# ---------------------------------------------------------------------------
# 2. connectivity matches evaluation, both sides
# ---------------------------------------------------------------------------

def _path_literals(net, dual: bool, budget=40):
    """Each simple s-t path as ``(bit index, flip)`` pairs.  A path edge is
    present on an input when its bit XOR ``flip`` is 1: negated leaves flip
    on the primal side, unnegated leaves on the dual side."""
    negated = net.negated_labels
    return [[(int(e.label[1:]) - 1, (e.label in negated) != dual) for e in path]
            for path in simple_st_paths(net, budget)]


_CHUNK_BITS = 20  # the connectivity check evaluates 2 ** 20 inputs at a time


def _check_formula_connectivity(f: Formula) -> bool:
    """Graph-search connectivity of the selected subgraph must equal the
    formula value on every input, and the dual must be its complement."""
    n = f.n_vars
    primal_paths = _path_literals(formula_graph(f), dual=False)
    dual_paths = _path_literals(dual_network(f), dual=True)

    def value_vector(cols):
        return fold(f, lambda g: ~cols[g.var - 1] if g.negated else cols[g.var - 1],
                    partial(reduce, operator.and_), partial(reduce, operator.or_))

    def connected(paths, cols):
        conn = np.zeros(len(cols[0]), dtype=bool)
        for path in paths:
            term = np.ones(len(cols[0]), dtype=bool)
            for var, flip in path:
                term &= ~cols[var] if flip else cols[var]
            conn |= term
        return conn

    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)
    for startx in range(0, total, step):
        cols = _bit_columns(n, startx, min(startx + step, total))
        value = value_vector(cols)
        if not np.array_equal(connected(primal_paths, cols), value):
            return False
        if not np.array_equal(connected(dual_paths, cols), ~value):
            return False
    return True


def check_connectivity() -> str:
    """For systematically generated formulas (all alternating shapes of depth
    <= 3 and fan-in <= 3 up to ten variables, each once as is and once with
    its even-numbered leaves negated, plus every uniform per-level profile up
    to 27 variables) the selected subgraph connects its terminals
    exactly on the 1-inputs and the dual subgraph exactly on the 0-inputs."""
    family = list(enumerate_formulas(3, (2, 3), max_vars=10))
    seen = {str(f) for f in family}
    more = [fold(f, lambda g: leaf(g.var, negated=g.var % 2 == 0),
                 partial(gate, AND), partial(gate, OR)) for f in family]
    for depth in range(4):
        for root_kind in ("and", "or"):
            for fanins in itertools.product((2, 3), repeat=depth):
                more.append(uniform_formula(root_kind, fanins))
    for f in more:
        if str(f) not in seen:
            seen.add(str(f))
            family.append(f)
    for f in family:
        if not _check_formula_connectivity(f):
            raise SuiteFailure(f"mismatch on {f}")
    return f"{len(family)} formulas exhaustively matched on both sides"


# ---------------------------------------------------------------------------
# 3. weight certificates
# ---------------------------------------------------------------------------

def _float_resistance_profile(f: Formula, weights, dual: bool) -> np.ndarray:
    """Vectorized per-input resistance over all 2^N inputs (float, inf ok)."""
    n = f.n_vars
    cols = _bit_columns(n, 0, 1 << n)

    def at_leaf(g):
        present = cols[g.var - 1]
        if g.negated:
            present = ~present
        if dual:
            present = ~present
        w = float(weights[f"x{g.var}"]) if weights else 1.0
        unit = w if dual else 1.0 / w
        return np.where(present, unit, np.inf)

    def parallel(parts):
        with np.errstate(divide="ignore"):
            cond = sum(1.0 / p for p in parts)
            return np.where(cond > 0, 1.0 / np.where(cond > 0, cond, 1.0), np.inf)

    return fold(f, at_leaf, parallel, sum) if dual else fold(f, at_leaf, sum, parallel)


def _exact_extrema(f: Formula, weights) -> tuple:
    """Exhaustive exact maxima of w+ (1-side) and w- (0-side).

    Every input is scanned with the vectorized float profile; the near-
    maximal candidates are then recomputed with exact rationals, which is
    sound because the fold's float error is far below the 1e-6 slack used
    to shortlist candidates.  A finite primal profile marks a 1-input and a
    finite dual one a 0-input, so the two shortlists are disjoint and one
    tabled sweep over their union, with the leaf table built once, gives
    both exact maxima.
    """
    primal = _float_resistance_profile(f, weights, dual=False)
    dual = _float_resistance_profile(f, weights, dual=True)
    finite_p = np.where(np.isfinite(primal), primal, -np.inf)
    finite_d = np.where(np.isfinite(dual), dual, -np.inf)
    cands = (finite_p >= finite_p.max() * (1 - 1e-6)) | (finite_d >= finite_d.max() * (1 - 1e-6))
    shortlist = itertools.compress(all_inputs(f.n_vars), cands.tolist())
    best = side_maxima(live_sides(f, _leaf_pairs(f, weights), shortlist))
    return best["r"][0] / 2, 2 * best["r_dual"][0]


def check_weight_certificates() -> str:
    """The recursive weight scheme's certified product W+ * W- is attained
    exactly by exhaustive sweep and never exceeds the variable count, on the
    alternating full trees up to depth 4 and on 100 random formulas."""
    cases = [build_nand_tree(d) for d in range(5)]
    rng = np.random.default_rng(13)
    cases += [random_formula(rng, int(rng.integers(2, 17))) for _ in range(100)]
    for f in cases:
        cert = optimal_weights(f)
        w_plus, w_minus = _exact_extrema(f, cert.weights)
        if w_plus != cert.w_plus or w_minus != cert.w_minus:
            raise SuiteFailure(f"sweep disagrees with certificate on {f}")
        if w_plus * w_minus > f.n_vars or cert.bound > f.n_vars:
            raise SuiteFailure(f"product exceeds N on {f}")
    return f"{len(cases)} formulas certified, product <= N exhaustively"


# ---------------------------------------------------------------------------
# 4. alternating-tree cut values
# ---------------------------------------------------------------------------

def check_nand_cut() -> str:
    """Every 0-instance of the depth-d alternating tree (d <= 4) has cut size
    exactly 2^floor(d/2), by max-flow and by structural recursion."""
    for d in range(5):
        f = build_nand_tree(d)
        net = formula_graph(f)
        expected = 2 ** (d // 2)
        n = 1 << d
        for bits in all_inputs(n):
            if eval_formula(f, bits) == 1:
                continue
            via_flow = cut_size(net, bits, MAXFLOW)
            via_rec = cut_size(net, bits, SP_RECURSION)
            if via_flow != expected or via_rec != expected:
                raise SuiteFailure(
                    f"d={d} x={bits}: {via_flow}/{via_rec} != {expected}")
    return "cut size 2^(d//2) on every 0-instance, depths 0-4, both backends"


# ---------------------------------------------------------------------------
# 5. the reference depth-4 instance
# ---------------------------------------------------------------------------

REFERENCE_LEAVES = (1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1)


def check_reference_instance() -> str:
    """The depth-4 reference instance evaluates to one and its winning-player
    fault complexity is exactly four."""
    f = build_nand_tree(4)
    value = eval_formula(f, REFERENCE_LEAVES)
    report = fault_complexity(4, REFERENCE_LEAVES)
    detail = f"value={value}, F_A={report.f_a}, F_B={report.f_b}"
    if not (value == 1 and report.f_a == 4 and report.f == 4 and report.f_b is INF):
        raise SuiteFailure(detail)
    return detail


# ---------------------------------------------------------------------------
# 6. resistance bounded by fault complexity
# ---------------------------------------------------------------------------

def check_fault_bound() -> str:
    """Exhaustively for depths <= 4: primal resistance <= F_A and dual
    resistance <= F_B, with an extra factor two at odd depth.  For depths
    <= 3 the fault-complexity recursion must also equal brute-force
    enumeration of the safe paths."""
    for d in range(5):
        factor = 1 if d % 2 == 0 else 2
        n = 1 << d
        tree = build_nand_tree(d)
        for bits in all_inputs(n):
            r = subtree_resistance(bits, d)
            rd = formula_resistance(tree, bits, dual=True)
            rep = fault_complexity(d, bits)
            if not ((rep.f_a is INF or r <= factor * rep.f_a)
                    and (rep.f_b is INF or rd <= factor * rep.f_b)):
                raise SuiteFailure(f"violated at d={d} x={bits}")
            if d <= 3 and rep != fault_complexity_bruteforce(d, bits):
                raise SuiteFailure(f"recursion != brute force at d={d} x={bits}")
    return ("R <= (2)F_A and R' <= (2)F_B exhaustively for depths 0-4; "
            "recursion = brute force for depths 0-3")


# ---------------------------------------------------------------------------
# 7. composed resistance product identity
# ---------------------------------------------------------------------------

PRODUCT_STRUCTURES = (
    [("and", 2, 1)], [("and", 2, 2)], [("and", 3, 1)], [("and", 3, 2)],
    [("and", 4, 2)], [("and", 5, 2)], [("and", 6, 3)], [("and", 8, 2)],
    [("and", 12, 3)], [("and", 16, 4)],
    [("or", 2, 1)], [("or", 2, 2)], [("or", 3, 2)], [("or", 4, 2)],
    [("or", 5, 3)], [("or", 6, 2)], [("or", 8, 4)], [("or", 12, 4)],
    [("or", 16, 4)],
    [("or", 2, 1), ("and", 2, 1)],
    [("and", 2, 1), ("or", 2, 1)],
    [("and", 2, 2), ("or", 3, 1)],
    [("or", 3, 2), ("and", 2, 1)],
    [("and", 4, 2), ("or", 4, 2)],
    [("or", 4, 4), ("and", 4, 1)],
    [("and", 2, 1), ("and", 2, 1)],
    [("or", 3, 1), ("or", 2, 2)],
    [("and", 2, 1), ("or", 2, 1), ("and", 2, 2)],
    [("or", 2, 2), ("and", 2, 1), ("or", 2, 1)],
    [("and", 2, 2), ("and", 2, 2), ("or", 2, 1)],
    # tight promises keep the domain tiny even at the prod(N) = 2^16 cap
    [("and", 16, 16)] * 4,
    [("or", 16, 16), ("or", 16, 16)],
    [("and", 8, 8), ("or", 8, 8)],
    [("and", 4, 2), ("and", 16, 16)],
)


def check_resistance_product() -> str:
    """max R (1-side) times max R' (0-side) equals prod N_i / prod h_i,
    exactly, for every tested promise composition."""
    for levels in PRODUCT_STRUCTURES:
        report = verify_resistance_product(levels)
        if not report.equal:
            raise SuiteFailure(f"{levels}: {report.product} != {report.expected}")
    return f"{len(PRODUCT_STRUCTURES)} level structures, exact equality"


# ---------------------------------------------------------------------------
# 8. example families
# ---------------------------------------------------------------------------

def check_example_families() -> str:
    """Line and balloon families reproduce their analytic figures, and the
    bound exponents fit 1/2 (cut figure) and 1/4 (dual figure) for the line."""
    sizes = [4, 9, 16, 25]
    cut_bounds = []
    new_bounds = []
    for n in sizes:
        h = int(math.isqrt(n))
        fam = example_family("line", n=n, h=h)
        rep = compute_bounds(fam.formula, fam.weights, fam.domain)
        if rep.r_max != n or rep.r_dual_max != Fraction(1, h) or rep.c_max != 1:
            raise SuiteFailure(f"line n={n}: unexpected maxima")
        cut_bounds.append(rep.bound_cut)
        new_bounds.append(rep.bound_new)
    slope_cut = exponent_fit(sizes, cut_bounds)
    slope_new = exponent_fit(sizes, new_bounds)
    if not (abs(slope_cut - 0.5) <= 0.1 and abs(slope_new - 0.25) <= 0.1):
        raise SuiteFailure(
            f"line exponents {slope_cut:.3f}/{slope_new:.3f} out of range")
    for n in (4, 8, 16):
        fam = example_family("balloon", n=n)
        rep = compute_bounds(fam.formula, fam.weights, fam.domain)
        unit = compute_bounds(fam.formula, fam.weights, fam.domain, unit_weights=True)
        ok = (rep.r_max == 2 * n and rep.r_dual_max <= 1 and rep.c_max == n
              and unit.r_max == n + 1)
        if not ok:
            raise SuiteFailure(f"balloon n={n}: unexpected maxima")
    return ("line maxima N, 1/h, 1 with exponents 1/2 and 1/4; balloon maxima "
            "2N, <=1, N, and N+1 unweighted")


# ---------------------------------------------------------------------------
# 9. bound dominance
# ---------------------------------------------------------------------------

def check_bound_dominance() -> str:
    """With unit weights, sqrt(R R') <= sqrt(R C) <= sqrt(R |E|) on every
    domain used by the cut, product, and family suites."""
    domains = []
    for d in range(5):
        domains.append((build_nand_tree(d), None))
    for levels in PRODUCT_STRUCTURES[:12]:
        domains.append((composed_formula(levels), promise_domain(levels)))
    for n in (4, 9, 16):
        fam = example_family("line", n=n, h=int(math.isqrt(n)))
        domains.append((fam.formula, fam.domain))
    for n in (4, 8):
        fam = example_family("balloon", n=n)
        domains.append((fam.formula, fam.domain))
    for f, dom in domains:
        rep = compute_bounds(f, None, dom, unit_weights=True)
        if rep.r_dual_max is None:
            continue
        if not (rep.r_dual_max <= rep.c_max <= rep.n_edges):
            raise SuiteFailure(f"ordering violated on {f}")
    return f"R' <= C <= |E| on {len(domains)} domains (unit weights)"


# ---------------------------------------------------------------------------
# 10. game strategy cost
# ---------------------------------------------------------------------------

def check_game_strategy() -> str:
    """Resistance-guided play wins every random-opponent game and the mean
    cost stays under 2^(d/4 + 11/2) sqrt(R) (even d) or 2^(d/4 + 5) sqrt(R)
    (odd d), for 50 sampled winnable instances per depth 2..10 and 1000
    games each; the selection rule's factor-two guarantee never fails."""
    rng = np.random.default_rng(17)
    games = 0
    for d in range(2, 11):
        n = 1 << d
        f = build_nand_tree(d)
        found = 0
        while found < 50:
            bits = tuple(rng.integers(0, 2, size=n).tolist())
            if eval_formula(f, bits) != 1:
                continue
            found += 1
            seed = int(rng.integers(0, 2**31))
            stats = simulate_game(d, bits, seed=seed, reps=1000,
                                  keep_transcripts=False)
            games += stats.reps
            if stats.wins != stats.reps:
                raise SuiteFailure(f"d={d}: lost {stats.reps - stats.wins} games")
            if not stats.bound_ok:
                raise SuiteFailure(f"d={d}: mean cost {stats.mean_cost:.3f} over "
                                   f"bound {stats.bound:.3f}")
            if stats.guarantee_violations:
                raise SuiteFailure(f"d={d}: selection guarantee violated")
    return f"{games} games, all won, mean cost within bound at every instance"


# ---------------------------------------------------------------------------
# 11. approximate witnesses and longest paths
# ---------------------------------------------------------------------------

def _duality_product(f, bits, err_p, err_n):
    """Span-program duality against the fold: the least error times the
    other kind's witness size, w+ = R / 2 on a 1-input and w- = 2 R_dual on
    a 0-input, is 1."""
    if eval_formula(f, bits):
        return err_n * formula_resistance(f, bits) / 2
    return err_p * 2 * formula_resistance(f, bits, dual=True)


def _definition_gaps(program, bits, pos, neg) -> list:
    """(quantity, got, want) triples that read each approximate witness
    object against its definition, whatever method found it: the positive
    vector reproduces the target and its mass on the absent columns is the
    error; the negative omega has omega(s) - omega(t) = 1, and twice its
    energy over the present edges is the error and over all edges the size."""
    net = program.network
    kept = {e.label for e in selector_from_assignment(net, bits)}
    absent = pos.witness[[label not in kept for _u, _v, label in program.directed]]
    omega = neg.witness
    energy = {True: 0.0, False: 0.0}
    for e in net.edges:
        energy[e.label in kept] += 2.0 * float(e.weight) * (omega[e.u] - omega[e.v]) ** 2
    return [("positive residual", pos.residual, 0.0),
            ("positive error", pos.error, float(absent @ absent)),
            ("negative omega(s) - omega(t)", omega[net.s] - omega[net.t], 1.0),
            ("negative error", neg.error, energy[True]),
            ("negative size", neg.size, sum(energy.values()))]


def check_approx_witness() -> str:
    """Approximate witness sizes respect the fan-in/depth bounds on 200
    random formulas, the longest self-avoiding path respects its bound, and
    every witness object meets its definition within 1e-9 (see
    :func:`_definition_gaps`).  The solver matches the exact reference
    within 1e-7 on all instances with at most six edges; the two share one
    closed-form body, so that comparison checks the float arithmetic and the
    definitions check the method.  There the exact reference's error times
    the other kind's witness size, read off the resistance fold rather than
    the grounded solve behind the reference, is exactly 1: the positive
    error on a 0-input against w- = 2 R_dual, the negative error on a
    1-input against w+ = R / 2."""
    rng = np.random.default_rng(19)
    slack = 1e-7
    for _ in range(200):
        n = int(rng.integers(1, 11))
        f = random_formula(rng, n) if n > 1 else build_nand_tree(0)
        net = formula_graph(f)
        program = build_span_program(net)
        fanin = max(f.max_fanin(), 1)
        cap_plus = 0.5 * fanin ** f.and_depth()
        cap_minus = 2.0 * fanin ** f.or_depth()
        if longest_self_avoiding_path(net, budget=24) > fanin ** f.and_depth():
            raise SuiteFailure(f"path bound violated on {f}")
        small = n <= 6
        for bits in all_inputs(n):
            pos = approx_positive_witness(program, bits)
            neg = approx_negative_witness(program, bits)
            if pos.size > cap_plus + slack or neg.size > cap_minus + slack:
                raise SuiteFailure(f"size bound violated on {f} x={bits}")
            if small:
                err_p, size_p = approx_positive_witness_reference(program, bits)
                err_n, size_n = approx_negative_witness_reference(program, bits)
                checks = (
                    (pos.error, float(err_p)), (pos.size, float(size_p)),
                    (neg.error, float(err_n)), (neg.size, float(size_n)),
                )
                for got, want in checks:
                    if not _rel_close(got, want, 1e-7):
                        raise SuiteFailure(f"solver/reference gap on {f} x={bits}: "
                                           f"{got} vs {want}")
                product = _duality_product(f, bits, err_p, err_n)
                if product != 1:
                    raise SuiteFailure(f"duality violated on {f} x={bits}: "
                                       f"error * witness size = {product}")
            for name, got, want in _definition_gaps(program, bits, pos, neg):
                if not _rel_close(got, want):
                    raise SuiteFailure(f"witness off its definition on {f} x={bits}: "
                                       f"{name} {got} vs {want}")
    return ("200 formulas: size bounds hold, witnesses meet their definitions, solver "
            "matches the exact reference, exact errors are the reciprocal witness sizes")


# ---------------------------------------------------------------------------
# 12. flow axioms and decomposition
# ---------------------------------------------------------------------------

def check_flow_decomposition() -> str:
    """Optimal flows satisfy the flow axioms exactly and their energy equals
    the effective resistance; decompositions recompose exactly into paths
    alone, with positive coefficients summing to one."""
    rng = np.random.default_rng(23)
    flows = 0
    for _ in range(40):
        n = int(rng.integers(2, 11))
        f = random_formula(rng, n)
        weights = _random_weights(rng, f)
        host = formula_graph(f, weights)
        for bits in all_inputs(n):
            if eval_formula(f, bits) != 1:
                continue
            sub = subgraph(host, selector_from_assignment(host, bits, PRIMAL))
            flow, energy = optimal_flow(sub)
            check_unit_flow(sub, flow)
            if energy != flow_energy(sub, flow):
                raise SuiteFailure("energy mismatch")
            # Thomson's principle: only the optimal unit flow has energy R
            if energy != effective_resistance(sub, EXACT_SP):
                raise SuiteFailure("energy above the effective resistance")
            pieces = decompose_flow(flow)
            if recompose(pieces).values != flow.values:
                raise SuiteFailure("recomposition mismatch")
            coeff = sum((c for c, kind, _ in pieces if kind == "path"), Fraction(0))
            if coeff != 1:
                raise SuiteFailure("path coefficients sum != 1")
            if any(kind == "cycle" for _c, kind, _e in pieces):
                raise SuiteFailure("optimal flow decomposed with a cycle")
            flows += 1
    return f"{flows} optimal flows: exact axioms, exact recomposition"


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

CRITERIA = {
    "witness-resistance": check_witness_resistance,
    "connectivity": check_connectivity,
    "weight-certificates": check_weight_certificates,
    "nand-cut": check_nand_cut,
    "reference-instance": check_reference_instance,
    "fault-bound": check_fault_bound,
    "resistance-product": check_resistance_product,
    "example-families": check_example_families,
    "bound-dominance": check_bound_dominance,
    "game-strategy": check_game_strategy,
    "approx-witness": check_approx_witness,
    "flow-decomposition": check_flow_decomposition,
}

_ALIASES = {str(i + 1): name for i, name in enumerate(CRITERIA)}


def resolve_suite(name: str) -> list:
    if name == "all":
        return list(CRITERIA)
    key = _ALIASES.get(name, name)
    if key not in CRITERIA:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(CRITERIA)} or 1..12 or all")
    return [key]


def run_criterion(name: str) -> CriterionResult:
    """Run one suite by its ``CRITERIA`` name, timed; a ``SuiteFailure`` is
    its FAIL result."""
    start = time.perf_counter()
    try:
        passed, detail = True, CRITERIA[name]()
    except SuiteFailure as failure:
        passed, detail = False, str(failure)
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_suite(names=None, stream=None, jobs: int = 1, as_json: bool = False) -> list:
    """Run the named suites (default: all) and print one line per result.

    With ``jobs`` > 1 the suites run in worker processes, at most one per
    suite.  Lines come in the given order either way, each as soon as it and
    every earlier suite are done.  With ``as_json`` each line is one JSON
    object with the keys ``suite``, ``passed``, ``seconds`` and ``detail``.
    """
    out = stream or sys.stdout
    names = list(names or CRITERIA)
    results = []
    jobs = min(jobs, len(names))
    pool_context = (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
                    else contextlib.nullcontext())
    with pool_context as pool:
        for result in (pool.map if pool else map)(run_criterion, names):
            if as_json:
                line = json.dumps({"suite": result.name, "passed": result.passed,
                                   "seconds": result.elapsed, "detail": result.detail})
            else:
                status = "PASS" if result.passed else "FAIL"
                line = f"[{status}] {result.name} ({result.elapsed:.1f}s): {result.detail}"
            print(line, file=out, flush=True)
            results.append(result)
    return results
