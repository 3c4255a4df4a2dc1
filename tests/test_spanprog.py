import hashlib
import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from formulaflow import (
    DUAL,
    INF,
    Edge,
    Network,
    approx_negative_witness,
    approx_negative_witness_reference,
    approx_positive_witness,
    approx_positive_witness_reference,
    build_nand_tree,
    build_span_program,
    dual_network,
    effective_resistance,
    eval_formula,
    export,
    formula_graph,
    formula_resistance,
    from_json,
    gate,
    leaf,
    negative_witness,
    optimal_weights,
    parse_formula,
    positive_witness,
    random_formula,
    selector_from_assignment,
    span_matrix,
    subgraph,
    target_vector,
    witness_extrema,
)
from formulaflow import linalg
from formulaflow.electrical import check_unit_flow, decompose_flow, flow_from_directed
from formulaflow.errors import DisconnectedError
from formulaflow.formula import AND, OR, fold


def all_inputs(n):
    return itertools.product((0, 1), repeat=n)


def random_weights(rng, n):
    return {f"x{i + 1}": Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            for i in range(n)}


# ---------------------------------------------------------------------------
# program structure
# ---------------------------------------------------------------------------

def test_single_edge_matrix():
    program = build_span_program(formula_graph(leaf(1)))
    a = span_matrix(program)
    assert a.shape == (2, 2)
    np.testing.assert_allclose(a[:, 0], [1.0, -1.0])
    np.testing.assert_allclose(a[:, 1], [-1.0, 1.0])
    np.testing.assert_allclose(target_vector(program), [1.0, -1.0])


def test_column_negation_pairs():
    rng = np.random.default_rng(41)
    f = random_formula(rng, 6)
    program = build_span_program(formula_graph(f, random_weights(rng, 6)))
    a = span_matrix(program)
    for i in range(0, a.shape[1], 2):
        np.testing.assert_allclose(a[:, i], -a[:, i + 1])


def test_gram_identity_twice_laplacian():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        f = random_formula(rng, n)
        weights = random_weights(rng, n)
        net = formula_graph(f, weights)
        program = build_span_program(net)
        a = span_matrix(program)
        lap = np.zeros((len(net.vertices), len(net.vertices)))
        idx = program.vertex_index
        for e in net.edges:
            w = float(e.weight)
            lap[idx[e.u], idx[e.u]] += w
            lap[idx[e.v], idx[e.v]] += w
            lap[idx[e.u], idx[e.v]] -= w
            lap[idx[e.v], idx[e.u]] -= w
        np.testing.assert_allclose(a @ a.T, 2 * lap, atol=1e-12)


def test_target_in_column_space_iff_connected():
    program = build_span_program(formula_graph(parse_formula("x1&x2")))
    a = span_matrix(program)
    tau = target_vector(program)
    sol, residual, *_ = np.linalg.lstsq(a, tau, rcond=None)
    assert np.linalg.norm(a @ sol - tau) < 1e-12


def eager_span_matrix(net):
    """The span matrix filled column by column from the weight map."""
    index = {v: i for i, v in enumerate(net.vertices)}
    weights = net.weight_map()
    directed = [d for e in net.edges for d in ((e.u, e.v, e.label), (e.v, e.u, e.label))]
    a = np.zeros((len(net.vertices), len(directed)))
    for col, (u, v, label) in enumerate(directed):
        root = math.sqrt(float(weights[label]))
        a[index[u], col] = root
        a[index[v], col] = -root
    return a


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_routes_build_no_span_matrix(seed):
    # no witness route builds the dense span matrix, the approximate solvers
    # included; the formula host and its exported copy, which has no formula,
    # so that witness_extrema solves every input by the exact witnesses
    rng = np.random.default_rng(seed)
    n = 1 + 3 * seed
    f = random_formula(rng, n) if n > 1 else leaf(1)
    host = formula_graph(f, random_weights(rng, n))
    for net in (host, from_json(export(host))):
        program = build_span_program(net)
        for x in all_inputs(n):
            positive_witness(program, x)
            negative_witness(program, x)
            approx_positive_witness(program, x)
            approx_negative_witness(program, x)
            approx_positive_witness_reference(program, x)
            approx_negative_witness_reference(program, x)
        witness_extrema(program, list(all_inputs(n)), f)
        assert "matrix" not in vars(program)
        assert span_matrix(program).tobytes() == eager_span_matrix(net).tobytes()
        assert vars(program)["matrix"] is span_matrix(program)


# ---------------------------------------------------------------------------
# exact witnesses
# ---------------------------------------------------------------------------

def test_single_present_edge_positive_witness():
    program = build_span_program(formula_graph(leaf(1)))
    report = positive_witness(program, "1")
    assert report.size == Fraction(1, 2)
    assert report.residual < 1e-12


def test_or2_positive_witness_quarter():
    program = build_span_program(formula_graph(parse_formula("x1|x2")))
    assert positive_witness(program, "11").size == Fraction(1, 4)


def test_zero_instance_positive_witness_infinite():
    program = build_span_program(formula_graph(parse_formula("x1&x2")))
    assert positive_witness(program, "01").size is INF
    assert math.isinf(positive_witness(program, "01").size_float)


def test_single_absent_edge_negative_witness():
    program = build_span_program(formula_graph(leaf(1)))
    report = negative_witness(program, "0")
    assert report.size == 2
    assert report.witness["s"] - report.witness["t"] == 1


def test_and2_all_absent_negative_witness():
    program = build_span_program(formula_graph(parse_formula("x1&x2")))
    assert negative_witness(program, "00").size == 1


def test_one_instance_negative_witness_infinite():
    program = build_span_program(formula_graph(leaf(1)))
    assert negative_witness(program, "1").size is INF


def test_witness_sizes_match_resistances_exactly():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        f = random_formula(rng, n)
        weights = random_weights(rng, n)
        net = formula_graph(f, weights)
        dnet = dual_network(f, weights)
        program = build_span_program(net)
        for x in all_inputs(n):
            r = effective_resistance(
                subgraph(net, selector_from_assignment(net, x)))
            rd = effective_resistance(
                subgraph(dnet, selector_from_assignment(dnet, x, DUAL)))
            pos = positive_witness(program, x)
            neg = negative_witness(program, x)
            assert pos.size == (INF if r is INF else r / 2)
            assert neg.size == (INF if rd is INF else 2 * rd)


def test_whole_nand_tree_witnesses_match_the_fold():
    # N = 1024: the exact Laplacian route on a large network, against the fold
    f = build_nand_tree(10)
    program = build_span_program(formula_graph(f))
    ones, zeros = (1,) * 1024, (0,) * 1024
    assert positive_witness(program, ones).size == formula_resistance(f, ones) / 2
    assert negative_witness(program, zeros).size == \
        2 * formula_resistance(f, zeros, dual=True)


def test_positive_witness_matches_generic_least_squares():
    # the minimum-norm solution over present columns has the same norm
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = random_formula(rng, n)
        weights = random_weights(rng, n)
        net = formula_graph(f, weights)
        program = build_span_program(net)
        a = span_matrix(program)
        tau = target_vector(program)
        for x in all_inputs(n):
            if eval_formula(f, x) != 1:
                continue
            presence = {f"x{i + 1}": x[i] for i in range(n)}
            cols = [i for i, (_u, _v, lbl) in enumerate(program.directed)
                    if presence[lbl]]
            sol, *_ = np.linalg.lstsq(a[:, cols], tau, rcond=None)
            assert np.linalg.norm(a[:, cols] @ sol - tau) < 1e-9
            report = positive_witness(program, x)
            assert abs(float(sol @ sol) - float(report.size)) < 1e-9


def test_witness_vector_is_unit_flow():
    # converting the returned edge-space vector back to a flow satisfies the
    # flow axioms (checked exactly via the underlying potentials' flow)
    rng = np.random.default_rng(45)
    f = random_formula(rng, 6)
    weights = random_weights(rng, 6)
    net = formula_graph(f, weights)
    program = build_span_program(net)
    for x in all_inputs(6):
        if eval_formula(f, x) != 1:
            continue
        report = positive_witness(program, x)
        values = {}
        for col, (u, v, label) in enumerate(program.directed):
            w = math.sqrt(float(net.weight_map()[label]))
            theta = w * (report.witness[col] - report.witness[col ^ 1])
            if col % 2 == 0 and abs(theta) > 1e-15:
                values[(u, v, label)] = Fraction(theta).limit_denominator(10**9)
        sub = subgraph(net, selector_from_assignment(net, x))
        check_unit_flow(sub, flow_from_directed(values))


def test_negative_witness_annihilates_present_columns():
    rng = np.random.default_rng(46)
    f = random_formula(rng, 7)
    net = formula_graph(f)
    program = build_span_program(net)
    for x in all_inputs(7):
        if eval_formula(f, x) != 0:
            continue
        omega = negative_witness(program, x).witness
        for e in net.edges:
            if x[int(e.label[1:]) - 1]:
                assert omega[e.u] == omega[e.v]


@pytest.mark.parametrize("x", ["0", "1"])
def test_negative_witness_with_isolated_t_is_an_indicator(x):
    # no host edge reaches t, so the quotient never links the groups of s and t
    net = Network(("s", "a", "t"), "s", "t", (Edge("s", "a", "e1", Fraction(1)),))
    report = negative_witness(build_span_program(net), x)
    assert report.size == 0 and report.size_float == 0.0
    assert report.witness == {"s": 1, "a": 1, "t": 0}
    assert all(type(value) is Fraction for value in report.witness.values())
    assert report.residual == 0.0


# ---------------------------------------------------------------------------
# approximate witnesses
# ---------------------------------------------------------------------------

def test_approx_positive_reduces_to_exact_on_one_instances():
    program = build_span_program(formula_graph(parse_formula("x1&x2")))
    report = approx_positive_witness(program, "11")
    assert report.error < 1e-12
    assert abs(report.size - 1.0) < 1e-9  # w+ = R/2 = 1


def test_approx_positive_single_absent_edge():
    program = build_span_program(formula_graph(leaf(1)))
    report = approx_positive_witness(program, "0")
    assert abs(report.error - 0.5) < 1e-9
    assert abs(report.size - 0.5) < 1e-9


def test_approx_negative_reduces_to_exact_on_zero_instances():
    program = build_span_program(formula_graph(parse_formula("x1|x2")))
    report = approx_negative_witness(program, "00")
    assert report.error < 1e-12
    assert abs(report.size - 4.0) < 1e-9  # w- = 2 R' = 2*2


def test_approx_negative_single_present_edge():
    program = build_span_program(formula_graph(leaf(1)))
    report = approx_negative_witness(program, "1")
    assert abs(report.error - 2.0) < 1e-9
    assert abs(report.size - 2.0) < 1e-9


def test_approx_bounds_or_gate():
    # w~- <= 2l for a fan-in-l or gate, any input; exact values for l = 3
    f = gate("or", [leaf(1), leaf(2), leaf(3)])
    program = build_span_program(formula_graph(f))
    for x in all_inputs(3):
        report = approx_negative_witness(program, x)
        assert report.size <= 6.0 + 1e-9


def test_approx_matches_exact_reference():
    rng = np.random.default_rng(47)
    for _ in range(12):
        n = int(rng.integers(1, 7))
        f = random_formula(rng, n) if n > 1 else leaf(1)
        weights = random_weights(rng, n)
        program = build_span_program(formula_graph(f, weights))
        for x in all_inputs(n):
            pos = approx_positive_witness(program, x)
            neg = approx_negative_witness(program, x)
            err_p, size_p = approx_positive_witness_reference(program, x)
            err_n, size_n = approx_negative_witness_reference(program, x)
            assert abs(pos.error - float(err_p)) < 1e-7
            assert abs(pos.size - float(size_p)) < 1e-7
            assert abs(neg.error - float(err_n)) < 1e-7
            assert abs(neg.size - float(size_n)) < 1e-7


def dense_null_space(m, rtol=1e-10):
    if m.size == 0:
        return np.eye(m.shape[1])
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int((s > rtol * s[0]).sum()) if s.size and s[0] != 0 else 0
    return vt[rank:].T


def dense_nested_lstsq(stages, v0, basis, tol=1e-9):
    """The generic stage routine: minimize ||M v|| over v = v0 + basis @ z for
    each dense stage matrix M in turn, anchoring its rank decision to the
    spectral norm of M taken afresh."""
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


def dense_approx_reports(program, x, w0, null):
    """Both approximate solves with every stage matrix rebuilt for the input:
    the 0/1 mask of the absent columns and np.eye on the positive side (from
    A's least-norm solution ``w0`` and null-space basis ``null``), the present
    columns of A^T and A^T on the negative side."""
    net = program.network
    a, tau = span_matrix(program), target_vector(program)
    present = {e.label for e in selector_from_assignment(net, x)}
    absent = [i for i, (_u, _v, label) in enumerate(program.directed) if label not in present]
    present_cols = [i for i, (_u, _v, label) in enumerate(program.directed) if label in present]
    mask = np.zeros((len(absent), len(program.directed)))
    mask[np.arange(len(absent)), absent] = 1.0
    vec = dense_nested_lstsq([mask, np.eye(len(program.directed))], w0, null)
    pos = (float(vec[absent] @ vec[absent]), float(vec @ vec), vec,
           float(np.linalg.norm(a @ vec - tau)))
    idx = program.vertex_index
    inner = [idx[v] for v in net.vertices if v not in (net.s, net.t)]
    basis = np.zeros((len(idx), len(inner) + 1))
    basis[inner, np.arange(len(inner))] = 1.0
    basis[[idx[net.s], idx[net.t]], -1] = 1.0 / math.sqrt(2.0)
    v0 = np.zeros(len(idx))
    v0[idx[net.s]] = 1.0
    m1 = a[:, present_cols].T
    omega = dense_nested_lstsq([m1, a.T], v0, basis)
    neg = (float(np.linalg.norm(m1 @ omega) ** 2), float(np.linalg.norm(a.T @ omega) ** 2),
           {v: float(omega[idx[v]]) for v in net.vertices}, 0.0)
    return pos, neg


def rel_close(got, want, rtol=1e-9):
    """Elementwise |got - want| <= rtol * |want|, with an absolute floor of
    rtol times the largest |want| for entries that cancel to about zero."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    floor = rtol * float(np.max(np.abs(want), initial=0.0))
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + floor))


def dense_stage_hosts():
    rng = np.random.default_rng(2020)
    for _ in range(15):
        f, weights = weighted_negated(rng, int(rng.integers(1, 9)))
        yield f, formula_graph(f, weights)
        yield f, dual_network(f, weights)
    tree = build_nand_tree(4)
    yield tree, formula_graph(tree)


def test_approx_solvers_match_dense_stage_oracle():
    # the closed-form solvers against the per-input dense stage matrices on
    # every input of 30 weighted hosts (N <= 8, a third of the leaves negated,
    # each formula's network and its dual) and of the NAND tree of depth 4,
    # at relative 1e-9; omega is fixed only up to a constant shift, so the
    # negative witnesses are compared by their images A^T omega
    for f, net in dense_stage_hosts():
        program = build_span_program(net)
        a = span_matrix(program)
        w0, null = np.linalg.lstsq(a, target_vector(program), rcond=None)[0], dense_null_space(a)
        for x in all_inputs(f.n_vars):
            pos, neg = approx_positive_witness(program, x), approx_negative_witness(program, x)
            want_pos, want_neg = dense_approx_reports(program, x, w0, null)
            assert pos.size == pos.size_float and neg.size == neg.size_float
            assert pos.residual <= 1e-9
            assert rel_close([pos.error, pos.size], want_pos[:2])
            assert rel_close(pos.witness, want_pos[2])
            assert rel_close([neg.error, neg.size], want_neg[:2])
            omega = [neg.witness[v] for v in net.vertices]  # in vertex_index order
            assert rel_close(a.T @ omega, a.T @ [want_neg[2][v] for v in net.vertices])


# ---------------------------------------------------------------------------
# the exact references against the dense lexicographic program
# ---------------------------------------------------------------------------

def lex_min_positive(program, x):
    """The positive reference as the nested program itself: with w = w'/sqrt(c)
    the constraint is the integer incidence map and both stage objectives are
    diagonal rational forms, minimized by ``linalg.lex_min_quadratics``."""
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


def lex_min_negative(program, x):
    """The negative reference as the nested program over vertex potentials,
    whose stage Gram matrices are twice the weighted Laplacians."""
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


def weighted_negated(rng, n):
    """A random formula on n variables, each leaf negated with chance 1/3,
    and weights p/q with p, q in 1..9."""
    f = random_formula(rng, n)
    f = fold(f, lambda g: leaf(g.var, negated=not rng.integers(3)),
             partial(gate, AND), partial(gate, OR))
    weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
               for i in range(n)}
    return f, weights


def assert_references_match_lex_min(net):
    program = build_span_program(net)
    n = net.formula.n_vars if net.formula is not None else len(net.edges)
    for x in all_inputs(n):
        assert approx_positive_witness_reference(program, x) == lex_min_positive(program, x)
        assert approx_negative_witness_reference(program, x) == lex_min_negative(program, x)


def test_references_match_lex_min_on_formula_hosts():
    rng = np.random.default_rng(1313)
    for _ in range(12):
        f, weights = weighted_negated(rng, int(rng.integers(1, 7)))
        assert_references_match_lex_min(formula_graph(f, weights))
        assert_references_match_lex_min(dual_network(f, weights))


@pytest.mark.parametrize("pairs", [
    [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")],
    [("s", "a"), ("s", "b"), ("s", "t"), ("a", "b"), ("a", "t"), ("b", "t")],
], ids=["wheatstone", "k4"])
def test_references_match_lex_min_on_non_series_parallel_hosts(pairs):
    # selected in edge order; the bridge a-b makes neither host series-parallel
    net = Network(("s", "a", "b", "t"), "s", "t",
                  tuple(Edge(u, v, f"e{i}", Fraction(i + 2, 3 + 2 * i))
                        for i, (u, v) in enumerate(pairs)))
    assert_references_match_lex_min(net)


@pytest.mark.parametrize("net", [
    Network(("s", "a", "t"), "s", "t", (Edge("s", "a", "e1", Fraction(2)),)),
    Network(("s", "t", "a", "b"), "s", "t",
            (Edge("a", "b", "e1", Fraction(1)), Edge("s", "a", "e2", Fraction(3)))),
], ids=["isolated-t", "t-apart"])
def test_references_on_a_host_that_never_connects(net):
    program = build_span_program(net)
    for x in all_inputs(len(net.edges)):
        with pytest.raises(DisconnectedError, match="host network never connects"):
            approx_positive_witness_reference(program, x)
        with pytest.raises(ValueError):
            lex_min_positive(program, x)
        assert approx_negative_witness_reference(program, x) == (0, 0)
        assert lex_min_negative(program, x) == (0, 0)


# recorded with the dense lexicographic references, before they became kernel solves
REFERENCE_DIGEST = "901b18e13f4ef57c50c67a4f19e6e482cc3af1f6a748c9cb3332b813375fa3d0"


def reference_digest():
    digest = hashlib.sha256()
    rng = np.random.default_rng(1313)
    for i in range(40):
        f, weights = weighted_negated(rng, int(rng.integers(1, 9)))
        for name, host in (("primal", formula_graph(f, weights)),
                           ("dual", dual_network(f, weights))):
            program = build_span_program(host)
            for x in all_inputs(f.n_vars):
                pos = approx_positive_witness_reference(program, x)
                neg = approx_negative_witness_reference(program, x)
                digest.update(f"{i} {name} {x}|{pos!r}|{neg!r}".encode())
    return digest.hexdigest()


def test_references_match_golden_digest():
    # both references, by repr, on every input of 40 random formulas
    # (N <= 8, weights p/q, a third of the leaves negated) over the primal
    # host and its dual: exact coverage past the N <= 6 the oracle above affords
    assert reference_digest() == REFERENCE_DIGEST


def test_approx_positive_requires_connectable_host():
    net = formula_graph(parse_formula("x1&x2"))
    disconnected_host = subgraph(net, selector_from_assignment(net, "01"))
    program = build_span_program(disconnected_host)
    with pytest.raises(DisconnectedError):
        approx_positive_witness(program, [0])


def test_optimal_positive_witness_decomposes_to_paths_only():
    rng = np.random.default_rng(48)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        f = random_formula(rng, n)
        net = formula_graph(f)
        for x in all_inputs(n):
            if eval_formula(f, x) != 1:
                continue
            sub = subgraph(net, selector_from_assignment(net, x))
            from formulaflow import optimal_flow
            flow, _ = optimal_flow(sub)
            pieces = decompose_flow(flow)
            assert all(kind == "path" for _c, kind, _e in pieces)


# ---------------------------------------------------------------------------
# extrema and the weight recursion
# ---------------------------------------------------------------------------

def test_single_edge_extrema():
    f = leaf(1)
    program = build_span_program(formula_graph(f))
    ext = witness_extrema(program, [(0,), (1,)], f)
    assert (ext.w_plus, ext.w_minus) == (Fraction(1, 2), Fraction(2))
    assert abs(ext.bound - 1.0) < 1e-12


def test_line_promise_extrema():
    # under the few-ones promise the line's extrema are N/2 and 2/h
    n, h = 9, 3
    f = gate("and", [leaf(i + 1) for i in range(n)])
    program = build_span_program(formula_graph(f))
    domain = [tuple([1] * n)]
    for weight in range(n - h + 1):
        domain.append(tuple([1] * weight + [0] * (n - weight)))
    ext = witness_extrema(program, domain, f, include_approx=False)
    assert ext.w_plus == Fraction(n, 2)
    assert ext.w_minus == Fraction(2, h)


def test_nand2_extrema_cross_checked_against_resistance():
    f = build_nand_tree(2)
    program = build_span_program(formula_graph(f))
    ext = witness_extrema(program, list(all_inputs(4)), f)
    best_r = max(formula_resistance(f, x) for x in all_inputs(4)
                 if eval_formula(f, x) == 1)
    best_rd = max(formula_resistance(f, x, dual=True) for x in all_inputs(4)
                  if eval_formula(f, x) == 0)
    assert ext.w_plus == best_r / 2
    assert ext.w_minus == 2 * best_rd
    assert ext.bound == math.sqrt(float(ext.w_plus * ext.w_minus))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_definitional_extrema_match_formula_fold(seed):
    # the exported host has no formula, so witness_extrema solves every input
    rng = np.random.default_rng(seed)
    f = random_formula(rng, 5) if seed else build_nand_tree(2)
    host = formula_graph(f, random_weights(rng, f.n_vars))
    plain = from_json(export(host))
    assert plain.formula is None
    domain = list(all_inputs(f.n_vars))
    assert witness_extrema(build_span_program(plain), domain, f) == \
        witness_extrema(build_span_program(host), domain, f)


def test_leaf_certificate():
    cert = optimal_weights(leaf(1))
    assert cert.weights == {"x1": Fraction(1)}
    assert cert.bound == 1
    assert (cert.w_plus, cert.w_minus) == (Fraction(1, 2), Fraction(2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nand_certificates_are_tight(d):
    f = build_nand_tree(d)
    cert = optimal_weights(f)
    assert cert.bound == f.n_vars
    # exhaustive verification of the certified extrema
    best_p = max((formula_resistance(f, x, cert.weights) / 2
                  for x in all_inputs(1 << d) if eval_formula(f, x) == 1))
    best_m = max((2 * formula_resistance(f, x, cert.weights, dual=True)
                  for x in all_inputs(1 << d) if eval_formula(f, x) == 0))
    assert best_p == cert.w_plus
    assert best_m == cert.w_minus
    assert best_p * best_m <= f.n_vars


def test_asymmetric_certificate_not_exceeding_n():
    f = parse_formula("x1|(x2&x3)")
    cert = optimal_weights(f)
    assert cert.bound <= 3
    best_p = max((formula_resistance(f, x, cert.weights) / 2
                  for x in all_inputs(3) if eval_formula(f, x) == 1))
    best_m = max((2 * formula_resistance(f, x, cert.weights, dual=True)
                  for x in all_inputs(3) if eval_formula(f, x) == 0))
    assert best_p * best_m == cert.bound


def test_certificate_json_shape():
    doc = optimal_weights(build_nand_tree(2)).to_json()
    assert doc == b'{"weights":{"x1":"1","x2":"1","x3":"1","x4":"1"},"bound":"4"}'
