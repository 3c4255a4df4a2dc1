import functools
import hashlib
import itertools
import math
import time
from collections import defaultdict
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formulaflow import (
    DUAL,
    EXACT_SP,
    INF,
    LAPLACIAN,
    MAXFLOW,
    PARALLEL,
    PRIMAL,
    SERIES,
    SP_RECURSION,
    build_nand_tree,
    check_unit_flow,
    compose_networks,
    cut_size,
    decompose_flow,
    dual_network,
    effective_resistance,
    eval_formula,
    flow_energy,
    formula_graph,
    formula_resistance,
    formula_subgraph,
    gate,
    leaf,
    longest_self_avoiding_path,
    optimal_flow,
    parse_formula,
    random_formula,
    recompose,
    selector_from_assignment,
    shortest_st_path_length,
    simple_st_paths,
    single_edge,
    subgraph,
    witness_cut,
)
from formulaflow.electrical import (
    _label,
    _parallel,
    _series,
    flow_from_directed,
    grounded_laplacian,
    terminals_connected,
)
from formulaflow.errors import DisconnectedError, NotSeriesParallelError, SearchBudgetError
from formulaflow.formula import fold
from formulaflow.graphs import Edge, Network
from formulaflow.spanprog import (
    _quotient,
    approx_negative_witness_reference,
    approx_positive_witness_reference,
    build_span_program,
    negative_witness,
    positive_witness,
)


def all_inputs(n):
    return itertools.product((0, 1), repeat=n)


def line(n):
    return formula_graph(parse_formula("&".join(f"x{i + 1}" for i in range(n)))) \
        if n > 1 else formula_graph(leaf(1))


# ---------------------------------------------------------------------------
# effective resistance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-2)])
def test_formula_resistance_rejects_nonpositive_weights(bad, dual):
    f = parse_formula("x1&(x2|x3)")
    weights = {"x1": bad, "x2": Fraction(1), "x3": Fraction(1)}
    x = (0, 0, 0) if dual else (1, 1, 1)
    with pytest.raises(ValueError, match="edge 'x1' needs a positive rational weight"):
        formula_resistance(f, x, weights, dual=dual)

@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_path_resistance_is_length(n):
    assert effective_resistance(line(n)) == n


@pytest.mark.parametrize("n", [2, 3, 6])
def test_parallel_resistance_is_reciprocal_count(n):
    net = formula_graph(gate("or", [leaf(i + 1) for i in range(n)])) if n > 1 \
        else formula_graph(leaf(1))
    assert effective_resistance(net) == Fraction(1, n)


def test_balloon_single_multiedge_resistance():
    # path of N unit edges in series with one surviving 1/N-weight edge: 2N
    n = 5
    path = [leaf(i + 1) for i in range(n)]
    bundle = gate("or", [leaf(n + i + 1) for i in range(n)])
    f = gate("and", path + [bundle])
    weights = {f"x{i + 1}": Fraction(1) for i in range(n)}
    weights.update({f"x{n + i + 1}": Fraction(1, n) for i in range(n)})
    x = [1] * n + [1] + [0] * (n - 1)
    sub = formula_subgraph(f, x, weights)
    assert effective_resistance(sub) == 2 * n


def test_disconnected_is_infinite():
    net = line(3)
    sub = subgraph(net, selector_from_assignment(net, "101"))
    assert effective_resistance(sub) is INF
    assert effective_resistance(sub, LAPLACIAN) == math.inf


def test_series_parallel_rules_exact():
    r1 = Fraction(3, 7)
    r2 = Fraction(5, 2)
    series = compose_networks(SERIES, [single_edge("x1", 1 / r1),
                                       single_edge("x2", 1 / r2)])
    assert effective_resistance(series) == r1 + r2
    par = compose_networks(PARALLEL, [single_edge("x1", 1 / r1),
                                      single_edge("x2", 1 / r2)])
    assert effective_resistance(par) == 1 / (1 / r1 + 1 / r2)


def test_non_series_parallel_rejected():
    # K4 is the smallest non-series-parallel two-terminal graph
    vertices = ("s", "a", "b", "t")
    edges = tuple(Edge(u, v, f"e{i}", Fraction(1))
                  for i, (u, v) in enumerate(
                      [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t"),
                       ("s", "t")]))
    with pytest.raises(NotSeriesParallelError):
        effective_resistance(Network(vertices, "s", "t", edges))


def test_backend_agreement_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 15))
        f = random_formula(rng, n) if n > 1 else leaf(1)
        weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 9)),
                                         int(rng.integers(1, 9)))
                   for i in range(n)}
        host = formula_graph(f, weights)
        x = tuple(int(b) for b in rng.integers(0, 2, size=n))
        sub = subgraph(host, selector_from_assignment(host, x))
        exact = effective_resistance(sub, EXACT_SP)
        approx = effective_resistance(sub, LAPLACIAN)
        if exact is INF:
            assert math.isinf(approx)
        else:
            assert abs(approx - float(exact)) <= 1e-9 * max(1.0, float(exact))
        # the tree fold is a third route
        assert formula_resistance(f, x, weights) == exact


def test_weight_scaling_identity():
    # dividing all weights by W multiplies the resistance by W, exactly
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        f = random_formula(rng, n)
        weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 9)),
                                         int(rng.integers(1, 9)))
                   for i in range(n)}
        w = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        scaled = {k: v / w for k, v in weights.items()}
        x = tuple(int(b) for b in rng.integers(0, 2, size=n))
        base = formula_resistance(f, x, weights)
        if base is INF:
            assert formula_resistance(f, x, scaled) is INF
        else:
            assert formula_resistance(f, x, scaled) == w * base


# ---------------------------------------------------------------------------
# series-parallel reduction
# ---------------------------------------------------------------------------

def _relabelled(f, rng, shift=0):
    """``f`` with its variables moved up by ``shift`` and about a third of its
    leaves negated."""
    return fold(f, lambda g: leaf(g.var + shift, negated=bool(rng.random() < 1 / 3)),
                partial(gate, "and"), partial(gate, "or"))


def _pq_weights(rng, first, n):
    return {f"x{first + i}": Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            for i in range(n)}


def test_reduction_matches_fold_on_random_negated_formulas():
    rng = np.random.default_rng(81)
    for _ in range(320):
        n = int(rng.integers(1, 65))
        f = _relabelled(random_formula(rng, n, max_fanin=4) if n > 1 else leaf(1), rng)
        weights = _pq_weights(rng, 1, n)
        hosts = {PRIMAL: formula_graph(f, weights), DUAL: dual_network(f, weights)}
        for _ in range(3):
            x = tuple(int(b) for b in rng.integers(0, 2, size=n))
            for polarity, host in hosts.items():
                sub = subgraph(host, selector_from_assignment(host, x, polarity))
                r = effective_resistance(sub, EXACT_SP)
                assert r == formula_resistance(f, x, weights, dual=polarity == DUAL)
                assert (r is INF) == (not terminals_connected(sub))


def test_reduction_matches_kernel_on_nested_compositions():
    rng = np.random.default_rng(82)
    for _ in range(60):
        parts, first = [], 1
        for _ in range(int(rng.integers(3, 6))):
            n = int(rng.integers(1, 8))
            f = _relabelled(random_formula(rng, n, max_fanin=4) if n > 1 else leaf(1),
                            rng, first - 1)
            host = formula_graph(f, _pq_weights(rng, first, n))
            x = tuple(int(b) for b in rng.random(n) < 0.7)
            parts.append(subgraph(host, selector_from_assignment(host, x)))
            first += n
        modes = [SERIES, PARALLEL] if rng.integers(2) else [PARALLEL, SERIES]
        while len(parts) > 1:  # fold the last two or three parts into one, inside out
            k = min(len(parts), int(rng.integers(2, 4)))
            parts[-k:] = [compose_networks(modes[len(parts) % 2], parts[-k:])]
        net = parts[0]
        r = effective_resistance(net, EXACT_SP)
        if r is INF:
            with pytest.raises(DisconnectedError):
                optimal_flow(net)
        else:
            assert optimal_flow(net)[1] == r


big = st.integers(1, 10 ** 30)
OPEN = (1, 0)
pair_resistances = st.one_of(st.just(OPEN), st.tuples(st.integers(0, 10 ** 30), big))


@given(st.lists(st.one_of(st.just(OPEN), st.tuples(st.integers(-10 ** 30, 10 ** 30), big)),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_pair_series_matches_fraction(pairs):
    # the fold's gate sum, the reduction's series step and the flow energy:
    # signed numerators, zero and large denominators; an open term opens it
    p, q = _series(pairs)
    if OPEN in pairs:
        assert (p, q) == OPEN
    else:
        assert Fraction(p, q) == sum((Fraction(*r) for r in pairs), Fraction(0))
        assert q > 0 and math.gcd(p, q) == 1


@given(st.lists(pair_resistances, max_size=6))
@settings(max_examples=300, deadline=None)
def test_pair_parallel_matches_fraction(pairs):
    # conductances add; an open branch adds none, a short (0, q) shorts the bank
    p, q = _parallel(pairs)
    closed = [Fraction(*r) for r in pairs if r != OPEN]
    if not closed:
        assert (p, q) == OPEN
    elif 0 in closed:
        assert (p, q) == (0, 1)
    else:
        assert Fraction(p, q) == 1 / sum(1 / r for r in closed)
        assert q > 0 and math.gcd(p, q) == 1


def _network(vertices, pairs, resistances):
    edges = tuple(Edge(u, v, f"e{i}", 1 / Fraction(r))
                  for i, ((u, v), r) in enumerate(zip(pairs, resistances)))
    return Network(tuple(vertices), "s", "t", edges)


def test_reduction_merges_parallel_edges_and_skips_isolated_vertices():
    # two parallel edges between a and t, in series with s-a
    net = _network("sat", [("s", "a"), ("a", "t"), ("t", "a")], [2, 3, 6])
    assert effective_resistance(net, EXACT_SP) == 2 + Fraction(3 * 6, 3 + 6)
    # parallel s-t edges, one of them written t-s
    net = _network("st", [("s", "t"), ("t", "s"), ("s", "t")], [1, 2, 3])
    assert effective_resistance(net, EXACT_SP) == 1 / (1 + Fraction(1, 2) + Fraction(1, 3))
    # an isolated vertex, first and in the middle of the vertex order
    net = _network("zsyat", [("s", "a"), ("a", "t")], [Fraction(1, 2), Fraction(5, 3)])
    assert effective_resistance(net, EXACT_SP) == Fraction(13, 6)
    # a dead end off s and a loop of two parallel edges hung off t
    net = _network("sbatc", [("s", "b"), ("s", "a"), ("a", "t"), ("t", "c"), ("c", "t")],
                   [7, 1, 1, 5, 5])
    assert effective_resistance(net, EXACT_SP) == 2


K4_EDGES = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


@pytest.mark.parametrize("vertices, pairs", [
    ("sabt", [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")]),  # Wheatstone
    ("stabcd", [("s", "t"), ("t", "a"), *K4_EDGES]),  # K4 hung off t
    ("stabcd", [("s", "t"), *K4_EDGES]),  # K4 in a separate component
], ids=["wheatstone", "k4-off-t", "k4-apart"])
def test_reduction_rejects_non_series_parallel(vertices, pairs):
    with pytest.raises(NotSeriesParallelError):
        effective_resistance(_network(vertices, pairs, [1] * len(pairs)), EXACT_SP)


def test_reduction_is_infinite_before_it_rejects():
    # the K4 apart from s and t: disconnected terminals win over the stalled reduction
    net = _network("stabcd", K4_EDGES, [1] * len(K4_EDGES))
    assert effective_resistance(net, EXACT_SP) is INF


# ---------------------------------------------------------------------------
# optimal flows
# ---------------------------------------------------------------------------

def test_path_flow_is_unit_on_every_edge():
    net = line(4)
    flow, energy = optimal_flow(net)
    assert energy == 4
    for e in net.edges:
        assert flow.value(e.u, e.v, e.label) == 1


def test_two_parallel_edges_split_half():
    net = formula_graph(parse_formula("x1|x2"))
    flow, energy = optimal_flow(net)
    assert energy == Fraction(1, 2)
    for e in net.edges:
        assert flow.value(e.u, e.v, e.label) == Fraction(1, 2)


def test_weighted_parallel_split_two_thirds():
    net = formula_graph(parse_formula("x1|x2"),
                        {"x1": Fraction(2), "x2": Fraction(1)})
    flow, energy = optimal_flow(net)
    assert energy == Fraction(1, 3)
    values = sorted(flow.value(e.u, e.v, e.label) for e in net.edges)
    assert values == [Fraction(1, 3), Fraction(2, 3)]


def test_flow_energy_equals_resistance():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        f = random_formula(rng, n)
        weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 9)),
                                         int(rng.integers(1, 9)))
                   for i in range(n)}
        x = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if eval_formula(f, x) != 1:
            continue
        sub = formula_subgraph(f, x, weights)
        flow, energy = optimal_flow(sub)
        check_unit_flow(sub, flow)
        assert energy == effective_resistance(sub)
        assert energy == flow_energy(sub, flow)


def test_optimal_flow_disconnected_raises():
    net = line(2)
    sub = subgraph(net, selector_from_assignment(net, "01"))
    with pytest.raises(DisconnectedError):
        optimal_flow(sub)


# ---------------------------------------------------------------------------
# flow decomposition
# ---------------------------------------------------------------------------

def test_single_path_flow_decomposes_to_one_path():
    flow, _ = optimal_flow(line(3))
    pieces = decompose_flow(flow)
    assert len(pieces) == 1
    coeff, kind, edges = pieces[0]
    assert (coeff, kind, len(edges)) == (1, "path", 3)


def test_half_half_decomposition():
    flow, _ = optimal_flow(formula_graph(parse_formula("x1|x2")))
    pieces = decompose_flow(flow)
    assert sorted((c, k) for c, k, _ in pieces) == \
        [(Fraction(1, 2), "path"), (Fraction(1, 2), "path")]
    assert recompose(pieces).values == flow.values


def test_injected_circulation_decomposes_to_paths_plus_cycle():
    # unit flow through x1; an idle circulation around the parallel pair
    # (x2, x3) living on the other branch
    f = parse_formula("x1|((x2|x3)&x4)")
    net = formula_graph(f)
    by_label = {e.label: e for e in net.edges}
    e1, e2, e3 = by_label["x1"], by_label["x2"], by_label["x3"]
    values = {
        (e1.u, e1.v, "x1"): Fraction(1),
        (e2.u, e2.v, "x2"): Fraction(1),
        (e3.v, e3.u, "x3"): Fraction(1),
    }
    flow = flow_from_directed(values)
    check_unit_flow(net, flow)
    pieces = decompose_flow(flow)
    kinds = sorted(kind for _c, kind, _e in pieces)
    assert kinds == ["cycle", "path"]
    assert recompose(pieces).values == flow.values
    path_edges = {lbl for c, k, edges in pieces if k == "path"
                  for (_u, _v, lbl) in edges}
    cycle_edges = {lbl for c, k, edges in pieces if k == "cycle"
                   for (_u, _v, lbl) in edges}
    assert path_edges.isdisjoint(cycle_edges)


def test_opposing_flow_uses_signed_paths():
    # theta = 3/2 on one parallel edge, -1/2 on the other: still a unit flow
    net = formula_graph(parse_formula("x1|x2"))
    e1, e2 = net.edges
    flow = flow_from_directed({
        (e1.u, e1.v, e1.label): Fraction(3, 2),
        (e2.u, e2.v, e2.label): Fraction(-1, 2),
    })
    check_unit_flow(net, flow)
    pieces = decompose_flow(flow)
    assert recompose(pieces).values == flow.values
    assert sum(c for c, k, _ in pieces if k == "path") == 1


def test_decompose_rejects_invalid_flow():
    net = line(2)
    e1, e2 = net.edges
    bad = flow_from_directed({
        (e1.u, e1.v, e1.label): Fraction(1),
        (e2.u, e2.v, e2.label): Fraction(1, 2),  # conservation broken at the joint
    })
    with pytest.raises(ValueError):
        decompose_flow(bad)
    with pytest.raises(ValueError):
        check_unit_flow(net, bad)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_decomposition_properties_random(n, seed):
    rng = np.random.default_rng(seed)
    f = random_formula(rng, n)
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    if eval_formula(f, x) != 1:
        return
    sub = formula_subgraph(f, x)
    flow, _ = optimal_flow(sub)
    pieces = decompose_flow(flow)
    assert recompose(pieces).values == flow.values
    assert sum(c for c, k, _ in pieces if k == "path") == 1
    assert not [1 for _c, k, _e in pieces if k == "cycle"]


def test_opposing_flow_decomposes_to_a_path_and_a_cycle():
    # the opposing flow above: the walk routes the unit over x1, then peels
    # the remaining half on x1 and its return over x2 as one cycle
    net = formula_graph(parse_formula("x1|x2"))
    e1, e2 = net.edges
    flow = flow_from_directed({
        (e1.u, e1.v, e1.label): Fraction(3, 2),
        (e2.u, e2.v, e2.label): Fraction(-1, 2),
    })
    assert decompose_flow(flow) == [
        (1, "path", [(e1.u, e1.v, "x1")]),
        (Fraction(1, 2), "cycle", [(e1.u, e1.v, "x1"), (e2.v, e2.u, "x2")]),
    ]


def test_circulation_through_diamonds_decomposes_in_one_walk_each():
    # a unit s-t arc plus a circulation of 5 from s through k diamonds and
    # back: a search that backtracks over each diamond's two branches takes
    # 2^k steps before it tries the s-t arc
    k = 24
    half = Fraction(5, 2)
    values = {("s", "t", "st"): Fraction(1), (f"a{k}", "s", "back"): Fraction(5)}
    for i in range(k):
        a = f"a{i}" if i else "s"
        for mid in (f"b{i}", f"c{i}"):
            values[(a, mid, f"{mid}in")] = half
            values[(mid, f"a{i + 1}", f"{mid}out")] = half
    flow = flow_from_directed(values)
    start = time.perf_counter()
    pieces = decompose_flow(flow)
    assert time.perf_counter() - start < 5
    assert [(c, kind, len(arcs)) for c, kind, arcs in pieces] == \
        [(half, "cycle", 2 * k + 1), (half, "cycle", 2 * k + 1), (1, "path", 1)]
    assert pieces[2][2] == [("s", "t", "st")]
    assert recompose(pieces).values == flow.values


def _directed(path, s):
    """The arcs of an s-t path of host edges, each with its sign against the
    edge's own orientation."""
    arcs, v = [], s
    for e in path:
        arcs.append(((e.u, e.v, e.label), 1 if e.u == v else -1))
        v = e.v if e.u == v else e.u
    return arcs


def _assert_walk(arcs, start, end):
    """``arcs`` chain from ``start`` to ``end`` through distinct tails, none
    of them ``end`` unless the walk is closed."""
    tails = [u for u, _v, _label in arcs]
    assert tails[0] == start and arcs[-1][1] == end
    assert all(a[1] == b[0] for a, b in zip(arcs, arcs[1:]))
    assert len(set(tails)) == len(tails)
    assert start == end or end not in tails


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_walk_decomposes_flows_with_circulations_and_opposing_parts(n, seed):
    # an optimal flow plus c * (P - Q) for random host s-t paths P and Q:
    # each term is a circulation around host cycles, and a large c on a
    # path the flow uses runs part of the flow against itself
    rng = np.random.default_rng(seed)
    f = _relabelled(random_formula(rng, n, max_fanin=4) if n > 1 else leaf(1), rng)
    weights = _pq_weights(rng, 1, n)
    polarity = (PRIMAL, DUAL)[int(rng.integers(2))]
    host = (formula_graph if polarity == PRIMAL else dual_network)(f, weights)
    x = tuple(int(b) for b in rng.integers(0, 2, size=n))
    sub = subgraph(host, selector_from_assignment(host, x, polarity))
    if not terminals_connected(sub):
        return
    flow, _ = optimal_flow(sub)
    values = {(e.u, e.v, e.label): flow.value(e.u, e.v, e.label) for e in host.edges}
    paths = simple_st_paths(host)
    for _ in range(int(rng.integers(1, 4))):
        p, q = (paths[int(i)] for i in rng.integers(0, len(paths), size=2))
        c = Fraction(int(rng.integers(1, 22)), int(rng.integers(1, 8)))
        for path, sign in ((p, c), (q, -c)):
            for key, direction in _directed(path, host.s):
                values[key] += sign * direction
    flow = flow_from_directed(values)
    check_unit_flow(host, flow)
    pieces = decompose_flow(flow)
    assert all(c > 0 for c, _k, _e in pieces)
    for _c, kind, arcs in pieces:
        if kind == "path":
            _assert_walk(arcs, host.s, host.t)
        else:
            assert kind == "cycle"
            _assert_walk(arcs, arcs[0][0], arcs[0][0])
    assert recompose(pieces).values == flow.values
    assert sum(c for c, k, _ in pieces if k == "path") == 1


def _three_phase_decompose(flow):
    """The earlier decomposition, kept as a reference: a backtracking search
    for s-t paths over the positive arcs, largest first, then backward t-s
    paths as negative pieces, then cycles from the least remaining arc."""
    balance = defaultdict(Fraction)
    for (u, _v, _label), val in flow.values.items():
        balance[u] += val
    s = next(v for v, b in balance.items() if b == 1)
    t = next(v for v, b in balance.items() if b == -1)
    residual = {k: v for k, v in flow.values.items() if v > 0}

    def out_arcs(v):
        arcs = [(key, val) for key, val in residual.items() if key[0] == v and val > 0]
        arcs.sort(key=lambda kv: (-kv[1], kv[0]))
        return arcs

    def find_path(a, b):
        stack = [(a, [], {a})]
        while stack:
            v, path, seen = stack.pop()
            if v == b:
                return path
            for key, _val in reversed(out_arcs(v)):
                if key[1] not in seen:
                    stack.append((key[1], path + [key], seen | {key[1]}))
        return None

    def strip(arcs):
        coeff = min(residual[key] for key in arcs)
        for key in arcs:
            residual[key] -= coeff
            if residual[key] == 0:
                del residual[key]
        return coeff

    pieces = []
    while (path := find_path(s, t)) is not None:
        pieces.append((strip(path), "path", path))
    while (back := find_path(t, s)) is not None:
        coeff = strip(back)
        pieces.append((-coeff, "path", [(v, u, label) for (u, v, label) in reversed(back)]))
    while residual:
        start = min(residual)
        walk, first_arc_at, v = [start], {start[0]: 0}, start[1]
        while v not in first_arc_at:
            first_arc_at[v] = len(walk)
            walk.append(out_arcs(v)[0][0])
            v = walk[-1][1]
        cycle = walk[first_arc_at[v]:]
        pieces.append((strip(cycle), "cycle", cycle))
    return pieces


def _grid(rows, cols, rng):
    """A weighted rows x cols grid from corner to corner: not series-parallel
    once both sides exceed one."""
    def name(i, j):
        return "s" if (i, j) == (0, 0) else "t" if (i, j) == (rows - 1, cols - 1) else f"{i}.{j}"
    pairs = [(name(i, j), name(a, b)) for i in range(rows) for j in range(cols)
             for a, b in ((i + 1, j), (i, j + 1)) if a < rows and b < cols]
    resistances = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in pairs]
    return _network([name(i, j) for i in range(rows) for j in range(cols)], pairs, resistances)


def test_walk_matches_three_phase_reference_on_weighted_grids():
    # the same pieces, in the same order, on every optimal flow: a potential
    # flow runs downhill, so the reference's search never backtracks and
    # its backward and cycle phases find nothing
    rng = np.random.default_rng(2424)
    flows = 0
    for rows, cols in itertools.product(range(2, 6), repeat=2):
        host = _grid(rows, cols, rng)
        m = len(host.edges)
        inputs = [(1,) * m] + [tuple(int(b) for b in rng.random(m) < 0.8) for _ in range(40)]
        for x in inputs:
            sub = subgraph(host, selector_from_assignment(host, x))
            if terminals_connected(sub):
                flow, _ = optimal_flow(sub)
                assert decompose_flow(flow) == _three_phase_decompose(flow), (rows, cols, x)
                flows += 1
    assert flows > 300


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------

def test_line_cut_size_is_one():
    net = line(4)
    for x in all_inputs(4):
        if all(x):
            continue
        assert cut_size(net, x, MAXFLOW) == 1
        assert cut_size(net, x, SP_RECURSION) == 1


def test_connected_cut_is_infinite():
    net = line(3)
    assert cut_size(net, "111", MAXFLOW) is INF
    assert cut_size(net, "111", SP_RECURSION) is INF


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_nand_tree_cut_value(d):
    net = formula_graph(build_nand_tree(d))
    expected = 2 ** (d // 2)
    for x in all_inputs(1 << d):
        if eval_formula(build_nand_tree(d), x) == 0:
            assert cut_size(net, x, MAXFLOW) == expected
            assert cut_size(net, x, SP_RECURSION) == expected


def test_balloon_cut_across_multiedges():
    n = 4
    path = [leaf(i + 1) for i in range(n)]
    bundle = gate("or", [leaf(n + i + 1) for i in range(n)])
    f = gate("and", path + [bundle])
    net = formula_graph(f)
    x = [1] * n + [0] * n  # path present, all multi-edges absent
    assert cut_size(net, x, MAXFLOW) == n
    assert cut_size(net, x, SP_RECURSION) == n


def test_witness_cut_single_edge():
    net = line(1)
    kappa = witness_cut(net, "0")
    assert kappa.kappa == {"s": 1, "t": 0}


def test_witness_cut_line_prefix():
    net = line(4)
    # edge 3 absent: kappa marks the first three vertices
    kappa = witness_cut(net, "1101")
    s_side = kappa.s_side()
    assert len(s_side) == 3 and "s" in s_side
    assert len(kappa.crossing_edges(net)) == 1


def test_witness_cut_nand2_all_absent():
    net = formula_graph(build_nand_tree(2))
    kappa = witness_cut(net, "0000")
    assert len(kappa.crossing_edges(net)) == 2
    assert kappa.s_side() == {"s"}  # deterministic tie-break


def test_witness_cut_connected_raises():
    with pytest.raises(DisconnectedError):
        witness_cut(line(2), "11")


def test_witness_cut_prefers_far_side_when_cheaper():
    # five parallel edges feeding one series edge, everything absent: the
    # minimum cut crosses the single series edge, not the five-edge bank
    f = parse_formula("(x1|x2|x3|x4|x5)&x6")
    net = formula_graph(f)
    kappa = witness_cut(net, "000000")
    assert len(kappa.crossing_edges(net)) == 1
    assert cut_size(net, "000000", MAXFLOW) == 1


def test_witness_cut_depth5_tree():
    # depth-5 alternating tree: 23 vertices
    f = build_nand_tree(5)
    net = formula_graph(f)
    assert len(net.vertices) == 23
    rng = np.random.default_rng(36)
    checked = 0
    while checked < 5:
        x = tuple(int(b) for b in rng.integers(0, 2, size=32))
        if eval_formula(f, x) == 1:
            continue
        kappa = witness_cut(net, x)
        size = cut_size(net, x, SP_RECURSION)
        assert len(kappa.crossing_edges(net)) == size == 2 ** (5 // 2)
        # no selected edge crosses
        sub = subgraph(net, selector_from_assignment(net, x))
        assert not kappa.crossing_edges(sub)
        checked += 1


def brute_force_witness_cut(host, x):
    """Reference minimum cut by enumerating every 0/1 labelling of the
    non-terminal vertices that no selected edge crosses.  The fewest crossing
    host edges win; ties go to the smallest characteristic vector over the
    sorted non-terminal vertices."""
    sub = subgraph(host, selector_from_assignment(host, x))
    free = [v for v in sorted(host.vertices) if v not in (host.s, host.t)]
    best = best_key = None
    for mask in range(1 << len(free)):
        kappa = {host.s: 1, host.t: 0}
        for i, v in enumerate(free):
            kappa[v] = (mask >> i) & 1
        if any(kappa[e.u] != kappa[e.v] for e in sub.edges):
            continue
        crossing = sum(1 for e in host.edges if kappa[e.u] != kappa[e.v])
        key = (crossing, tuple(kappa[v] for v in free))
        if best_key is None or key < best_key:
            best, best_key = kappa, key
    return best


def negate_some(rng, f, rate=0.3):
    if f.is_leaf:
        return leaf(f.var, negated=bool(rng.random() < rate))
    return gate(f.kind, [negate_some(rng, c, rate) for c in f.children])


@pytest.mark.parametrize("negated_and_weighted", [False, True])
def test_witness_cut_matches_brute_force(negated_and_weighted):
    rng = np.random.default_rng(37 + negated_and_weighted)
    zero_inputs = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        f = random_formula(rng, n) if n > 1 else leaf(1)
        weights = None
        if negated_and_weighted:
            f = negate_some(rng, f)
            weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 10)),
                                             int(rng.integers(1, 10)))
                       for i in range(n)}
        net = formula_graph(f, weights)
        for x in all_inputs(n):
            if eval_formula(f, x) == 1:
                with pytest.raises(DisconnectedError):
                    witness_cut(net, x)
                continue
            kappa = witness_cut(net, x).kappa
            assert kappa == brute_force_witness_cut(net, x)
            assert sum(1 for e in net.edges if kappa[e.u] != kappa[e.v]) \
                == cut_size(net, x, MAXFLOW) == cut_size(net, x, SP_RECURSION)
            zero_inputs += 1
    assert zero_inputs > 1000


def test_witness_cut_matches_brute_force_on_plain_hosts():
    # Wheatstone bridge and K4, selected in edge order
    pairs = [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")]
    for pairs in (pairs, pairs + [("s", "t")]):
        net = Network(("s", "a", "b", "t"), "s", "t",
                      tuple(Edge(u, v, f"e{i}", Fraction(i + 1, 2))
                            for i, (u, v) in enumerate(pairs)))
        for x in all_inputs(len(pairs)):
            if cut_size(net, x, MAXFLOW) is INF:
                continue
            assert witness_cut(net, x).kappa == brute_force_witness_cut(net, x)


def test_cut_equals_shortest_dual_path():
    # on 0-instances the cut size equals the shortest dual path length and
    # bounds the dual resistance from above
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        f = random_formula(rng, n)
        net = formula_graph(f)
        dnet = dual_network(f)
        for x in all_inputs(n):
            if eval_formula(f, x) == 1:
                continue
            c = cut_size(net, x, MAXFLOW)
            dual_sub = subgraph(dnet, selector_from_assignment(dnet, x, DUAL))
            assert c == shortest_st_path_length(dual_sub)
            assert c >= effective_resistance(dual_sub)


# ---------------------------------------------------------------------------
# longest self-avoiding path
# ---------------------------------------------------------------------------

def test_longest_path_on_line_and_parallel():
    assert longest_self_avoiding_path(line(5)) == 5
    par = formula_graph(gate("or", [leaf(i + 1) for i in range(4)]))
    assert longest_self_avoiding_path(par) == 1


def test_longest_path_fanin_depth_bound():
    rng = np.random.default_rng(35)
    for _ in range(20):
        f = random_formula(rng, int(rng.integers(2, 11)))
        net = formula_graph(f)
        bound = f.max_fanin() ** f.and_depth()
        assert longest_self_avoiding_path(net) <= bound
    # equality for the pure-and tree
    f = gate("and", [leaf(i + 1) for i in range(5)])
    assert longest_self_avoiding_path(formula_graph(f)) == 5


def test_longest_path_budget():
    f = build_nand_tree(5)
    with pytest.raises(SearchBudgetError):
        longest_self_avoiding_path(formula_graph(f))


def test_longest_path_disconnected_is_zero():
    net = line(2)
    sub = subgraph(net, selector_from_assignment(net, "01"))
    assert longest_self_avoiding_path(sub) == 0


# ---------------------------------------------------------------------------
# exact electrical layer against one golden digest
# ---------------------------------------------------------------------------

# Every exact field: recorded at the commit before the float Laplacian became
# a sparse elimination and the positive residual an incidence sum, with this
# test code.  The two float fields, ``size_float`` and ``residual``, move in
# their last bits with those routes, so they are checked against their
# oracles in the next test instead of hashed.
ELECTRICAL_GOLDEN_DIGEST = "39b34340ae55f2aed2565e49c2999fd4a43391536c836f7224ebdeca0d2667ea"


def _golden_plain_hosts():
    """Weighted Wheatstone bridge and K4 between s and t: not series-parallel."""
    bridge = [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")]
    k4 = [("s", "a"), *K4_EDGES, ("d", "t")]
    yield "wheatstone", _network("sabt", bridge, [1, 2, Fraction(1, 3), 3, Fraction(5, 2)])
    yield "k4", _network("sabcdt", k4, [Fraction(2, 3), 1, 2, 3, Fraction(1, 4), 5, 7, 1])


def _golden_formula_hosts(rng):
    """Random weighted formulas with negated leaves, N <= 9, both polarities."""
    for i in range(40):
        n = int(rng.integers(1, 10))
        f = _relabelled(random_formula(rng, n, max_fanin=4) if n > 1 else leaf(1), rng)
        weights = _pq_weights(rng, 1, n)
        yield f"formula {i} {f!r} primal", formula_graph(f, weights), PRIMAL
        yield f"formula {i} {f!r} dual", dual_network(f, weights), DUAL


def _witness_key(vec):
    """The positive witness vector's bytes, the negative functional's items,
    or None."""
    if isinstance(vec, np.ndarray):
        return vec.tobytes()
    return None if vec is None else list(vec.items())


def _dense_resistance(lap):
    """The float resistance of a connected grounded Laplacian by a dense
    ``numpy.linalg.solve``: the float route's oracle."""
    n = len(lap.order)
    dense = np.zeros((n + 1, n + 1))  # the ground's row and column are dropped
    for i, j, w in lap.triplets:
        w = float(w)
        dense[i, i] += w
        dense[j, j] += w
        dense[i, j] -= w
        dense[j, i] -= w
    rhs = np.zeros(n)
    rhs[lap.source] = 1.0
    return float(np.linalg.solve(dense[:n, :n], rhs)[lap.source])


def _dense_witness_float(host, x, kind):
    """``size_float`` of an exact witness from the dense oracle: R / 2 of the
    kept edges, or 2 / R of the quotient by their components."""
    kept = selector_from_assignment(host, x)
    if kind == "positive":
        lap = grounded_laplacian(host.vertices, kept, host.s, host.t)
        return _dense_resistance(lap) / 2 if lap.connected else math.inf
    comp = _label(kept, host.vertices)
    if comp[host.s] == comp[host.t]:
        return math.inf
    lap = grounded_laplacian(*_quotient(host, comp), comp[host.s], comp[host.t])
    return 2 / _dense_resistance(lap) if lap.connected else 0.0


@functools.cache
def _electrical_golden_run():
    """The digest of every exact result, and each exact witness's float
    fields beside the dense oracle's ``size_float``."""
    digest = hashlib.sha256()
    floats = []

    def put(*items):
        digest.update("|".join(map(repr, items)).encode())

    rng = np.random.default_rng(1515)
    hosts = [(label, net, PRIMAL) for label, net in _golden_plain_hosts()]
    hosts += list(_golden_formula_hosts(rng))
    for label, host, polarity in hosts:
        program = build_span_program(host)
        m = len(host.edges)
        inputs = list(all_inputs(m)) if m <= 8 else \
            [tuple(int(b) for b in rng.integers(0, 2, size=m)) for _ in range(24)]
        for x in inputs:
            put(label, x)
            sub = subgraph(host, selector_from_assignment(host, x, polarity))
            lap = grounded_laplacian(sub.vertices, sub.edges, sub.s, sub.t)
            if lap.connected:
                put("kernel", list(lap.solve_exact({sub.s: 1}).items()))
                currents = {v: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                            for v in lap.order}
                put("kernel rhs", list(lap.solve_exact(currents).items()))
                flow, energy = optimal_flow(sub)
                put("flow", list(flow.values.items()), energy, flow_energy(sub, flow))
                put("pieces", decompose_flow(flow))
            try:
                put("reduce_sp", effective_resistance(sub, EXACT_SP))
            except NotSeriesParallelError:
                put("reduce_sp", "not series-parallel")
            if polarity == PRIMAL:
                for report in (positive_witness(program, x), negative_witness(program, x)):
                    put(report.kind, report.size, report.error, _witness_key(report.witness))
                    floats.append((label, x, report.size_float, report.residual,
                                   _dense_witness_float(host, x, report.kind)))
                put("references", approx_positive_witness_reference(program, x),
                    approx_negative_witness_reference(program, x))
    return digest.hexdigest(), floats


def test_electrical_results_match_golden_digest():
    # the exact potentials of the kernel (unit current, random signed
    # currents), reduce_sp, optimal_flow with its dict order and energies,
    # decompose_flow's pieces, the exact witnesses (sizes, errors, vector
    # bytes, omega items) and the approximate-witness references on every
    # input of a weighted Wheatstone bridge and K4, and on 24 inputs of each
    # host (both polarities) of 40 random weighted formulas with negated
    # leaves, N <= 9
    assert _electrical_golden_run()[0] == ELECTRICAL_GOLDEN_DIGEST


def test_golden_witness_float_fields_match_dense_oracle():
    # the same witnesses' float fields: size_float against a dense solve of
    # the same grounded Laplacian, and the residual of the witness object
    floats = _electrical_golden_run()[1]
    assert len(floats) > 1000
    for label, x, size_float, residual, dense in floats:
        if math.isinf(dense) or dense == 0:
            assert size_float == dense, (label, x)
        else:
            assert abs(size_float - dense) <= 1e-12 * dense, (label, x)
        assert residual <= 1e-9, (label, x)
