import hashlib
import itertools
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formulaflow import (
    DUAL,
    PARALLEL,
    PRIMAL,
    SERIES,
    Edge,
    Network,
    build_nand_tree,
    compose_networks,
    dual_formula,
    dual_network,
    eval_formula,
    export,
    formula_graph,
    formula_subgraph,
    from_json,
    parse_formula,
    random_formula,
    selector_from_assignment,
    single_edge,
    subgraph,
)
from formulaflow import gate, leaf
from formulaflow.electrical import terminals_connected
from formulaflow.errors import AssignmentLengthError, LabelCollisionError
from formulaflow.formula import AND, OR, fold
from formulaflow.graphs import to_dot


def all_inputs(n):
    return itertools.product((0, 1), repeat=n)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_series_of_two_edges_is_path():
    net = compose_networks(SERIES, [single_edge("x1"), single_edge("x2")])
    assert net.vertices == ("s", "s2", "t")
    assert [(e.u, e.v) for e in net.edges] == [("s", "s2"), ("s2", "t")]


def test_parallel_of_unit_edges_is_multiedge():
    parts = [single_edge(f"x{i}") for i in range(1, 5)]
    net = compose_networks(PARALLEL, parts)
    assert net.vertices == ("s", "t")
    assert len(net.edges) == 4
    assert all({e.u, e.v} == {"s", "t"} for e in net.edges)


def test_series_reproduces_three_part_counts():
    # phi1 = x1&x2, phi2 = x3|(x4&x5), phi3 = x6: the three-part series has
    # six vertices and six edges
    g1 = formula_graph(gate("and", [leaf(1), leaf(2)]))
    g2 = formula_graph(gate("or", [leaf(3), gate("and", [leaf(4), leaf(5)])]))
    g3 = formula_graph(leaf(6))
    net = compose_networks(SERIES, [g1, g2, g3])
    assert len(net.vertices) == 6
    assert len(net.edges) == 6
    combined = formula_graph(parse_formula("(x1&x2)&(x3|(x4&x5))&x6"))
    assert len(combined.edges) == 6 and len(combined.vertices) == 6


def test_label_collision_rejected():
    with pytest.raises(LabelCollisionError):
        compose_networks(SERIES, [single_edge("x1"), single_edge("x1")])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown composition mode"):
        compose_networks("diagonal", [single_edge("x1"), single_edge("x2")])


def _hand_built_parts():
    # terminals mid-tuple, t before s, and terminals not named s/t
    p1 = Network(("a", "s", "b", "t", "c"), "s", "t",
                 (Edge("s", "a", "y1", Fraction(1)), Edge("a", "b", "y2", Fraction(2)),
                  Edge("b", "t", "y3", Fraction(1, 3)), Edge("t", "c", "y4", Fraction(1))))
    p2 = Network(("u", "t", "s"), "s", "t",
                 (Edge("s", "u", "z1", Fraction(1)), Edge("u", "t", "z2", Fraction(5))))
    p3 = Network(("in", "m", "out"), "in", "out",
                 (Edge("in", "m", "w1", Fraction(1)), Edge("out", "m", "w2", Fraction(1))))
    return p1, p2, p3


def _layout(net):
    return net.vertices, net.s, net.t, [(e.u, e.v, e.label) for e in net.edges]


# A series junction is listed where the part before it lists its t, or after a
# composed part's whole subtree; interior vertices keep their part's order.
PINNED_SERIES = (
    ("s", "1.a", "1.b", "s2", "1.c", "2.u", "s3", "3.m", "t"), "s", "t",
    [("s", "1.a", "y1"), ("1.a", "1.b", "y2"), ("1.b", "s2", "y3"), ("s2", "1.c", "y4"),
     ("s2", "2.u", "z1"), ("2.u", "s3", "z2"), ("s3", "3.m", "w1"), ("t", "3.m", "w2")])
PINNED_NESTED = (
    ("s", "1.1.a", "1.1.b", "1.1.c", "1.2.u", "s2", "2.m", "t"), "s", "t",
    [("s", "1.1.a", "y1"), ("1.1.a", "1.1.b", "y2"), ("1.1.b", "s2", "y3"),
     ("s2", "1.1.c", "y4"), ("s", "1.2.u", "z1"), ("1.2.u", "s2", "z2"),
     ("s2", "2.m", "w1"), ("t", "2.m", "w2")])
PINNED_PARALLEL = (
    ("s", "1.m", "2.a", "2.b", "2.c", "3.u", "t"), "s", "t",
    [("s", "1.m", "w1"), ("t", "1.m", "w2"), ("s", "2.a", "y1"), ("2.a", "2.b", "y2"),
     ("2.b", "t", "y3"), ("t", "2.c", "y4"), ("s", "3.u", "z1"), ("3.u", "t", "z2")])


def test_series_vertex_order_of_hand_built_parts():
    p1, p2, p3 = _hand_built_parts()
    assert _layout(compose_networks(SERIES, [p1, p2, p3])) == PINNED_SERIES
    nested = compose_networks(SERIES, [compose_networks(PARALLEL, [p1, p2]), p3])
    assert _layout(nested) == PINNED_NESTED


def test_parallel_vertex_order_of_hand_built_parts():
    p1, p2, p3 = _hand_built_parts()
    assert _layout(compose_networks(PARALLEL, [p3, p1, p2])) == PINNED_PARALLEL


def test_composition_is_deterministic():
    def build():
        return compose_networks(
            PARALLEL, [formula_graph(gate("and", [leaf(1), leaf(2)])),
                       formula_graph(gate("and", [leaf(3), leaf(4)]))])
    assert export(build()) == export(build())


# ---------------------------------------------------------------------------
# formula graphs
# ---------------------------------------------------------------------------

def test_leaf_graph_is_single_edge():
    net = formula_graph(parse_formula("x1"))
    assert net.vertices == ("s", "t")
    assert len(net.edges) == 1
    assert net.edges[0].label == "x1"


def test_and_graph_is_path():
    net = formula_graph(parse_formula("x1&x2&x3&x4"))
    assert len(net.edges) == 4
    assert len(net.vertices) == 5
    degree = {v: 0 for v in net.vertices}
    for e in net.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    assert degree["s"] == degree["t"] == 1
    assert sorted(degree.values()) == [1, 1, 2, 2, 2]


def test_nand2_graph_shape():
    net = formula_graph(build_nand_tree(2))
    assert len(net.edges) == 4
    assert len(net.vertices) == 4


@pytest.mark.parametrize("n", [1, 2, 5])
def test_edge_count_matches_variables(n):
    rng = np.random.default_rng(n)
    f = random_formula(rng, n)
    assert len(formula_graph(f).edges) == n
    assert len(dual_network(f).edges) == n


def test_weight_map_applied():
    net = formula_graph(parse_formula("x1&x2"),
                        {"x1": Fraction(3, 2), "x2": Fraction(4)})
    assert net.weight_map() == {"x1": Fraction(3, 2), "x2": Fraction(4)}


def test_partial_weights_name_the_missing_label():
    f = parse_formula("x1&x2")
    with pytest.raises(ValueError, match="'x2'"):
        formula_graph(f, {"x1": Fraction(2)})
    assert formula_graph(f, {}) == formula_graph(f, None) == formula_graph(f)


def test_dual_partial_weights_name_the_missing_label():
    f = parse_formula("x1&x2")
    with pytest.raises(ValueError, match="'x2'"):
        dual_network(f, {"x1": Fraction(2)})
    assert dual_network(f, {}) == dual_network(f, None) == dual_network(f)


@pytest.mark.parametrize("host", [formula_graph, dual_network])
@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-2)])
def test_nonpositive_weights_name_the_label(host, bad):
    with pytest.raises(ValueError, match="edge 'x1' needs a positive rational weight"):
        host(parse_formula("x1&x2"), {"x1": bad, "x2": Fraction(1)})


def _with_negations(f, negated):
    return fold(f, lambda g: leaf(g.var, negated=g.var in negated),
                partial(gate, AND), partial(gate, OR))


GOLDEN_DIGEST = "8c4ec57444f81ed327f4695f94b7459087838783106c3a91642be9a457ce0659"


def test_formula_networks_match_golden_digest():
    # seeded random formulas with negated leaves, unit and p/q weights, plus
    # NAND trees: the JSON and DOT bytes of both networks, and their formulas
    rng = np.random.default_rng(606)
    formulas = [build_nand_tree(d) for d in range(6)]
    for n in [*range(1, 25), 40, 64]:
        f = random_formula(rng, n, max_fanin=4)
        negated = {int(v) + 1 for v in rng.choice(n, size=n // 3, replace=False)}
        formulas.append(_with_negations(f, negated))
    digest = hashlib.sha256()
    for f in formulas:
        weights = {f"x{i}": Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
                   for i in range(1, f.n_vars + 1)}
        for w in (None, weights):
            for net in (formula_graph(f, w), dual_network(f, w)):
                digest.update(export(net, "json") + export(net, "dot"))
                digest.update(f"{net.formula}|{sorted(net.negated_labels)}".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_deep_alternating_chain_builds_both_networks():
    # 3,000 alternating two-input gates, each with a fresh leaf on the right
    f = leaf(1)
    for level in range(3000):
        f = gate(AND if level % 2 == 0 else OR, [f, leaf(level + 2)])
    net, dnet = formula_graph(f), dual_network(f)
    # one series junction per AND gate in the primal, per OR gate in the dual
    assert (len(net.vertices), len(net.edges)) == (1502, 3001)
    assert (len(dnet.vertices), len(dnet.edges)) == (1502, 3001)
    assert net.labels == dnet.labels == tuple(f"x{i}" for i in range(1, 3002))
    assert net.formula is f
    assert (f.kind, dnet.formula.kind, dnet.formula.n_vars) == (OR, AND, 3001)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_of_path_is_multiedge():
    dnet = dual_network(parse_formula("x1&x2&x3"))
    assert dnet.vertices == ("s'", "t'")
    assert len(dnet.edges) == 3


def test_dual_reciprocal_weights():
    dnet = dual_network(parse_formula("x1"), {"x1": Fraction(4)})
    assert dnet.edges[0].weight == Fraction(1, 4)


def test_dual_of_nand2_is_series_of_parallels():
    dnet = dual_network(build_nand_tree(2))
    swapped = formula_graph(parse_formula("(x1|x2)&(x3|x4)"))
    # same structure as the gate-swapped formula's graph, terminals renamed
    rename = {"s": "s'", "t": "t'"}
    assert dnet.vertices == tuple(rename.get(v, v) for v in swapped.vertices)
    assert [(rename.get(e.u, e.u), rename.get(e.v, e.v), e.label)
            for e in swapped.edges] == [(e.u, e.v, e.label) for e in dnet.edges]
    assert len(dnet.vertices) == 3
    assert len(dnet.edges) == 4


def test_double_dual_restores_weights():
    f = parse_formula("(x1&x2)|x3")
    weights = {"x1": Fraction(2), "x2": Fraction(1, 3), "x3": Fraction(5)}
    dd = dual_network(dual_formula(f), {k: 1 / v for k, v in weights.items()})
    primal = formula_graph(f, weights)
    assert [e.label for e in dd.edges] == [e.label for e in primal.edges]
    assert [e.weight for e in dd.edges] == [e.weight for e in primal.edges]
    assert len(dd.vertices) == len(primal.vertices)


def test_dual_children_composition():
    # an or-rooted formula's dual composes the children's duals in series;
    # an and-rooted one in parallel (checked structurally by edge partition)
    f = parse_formula("(x1&x2)|(x3&x4)|x5")
    dnet = dual_network(f)
    assert dnet.formula == dual_formula(f)
    assert dnet.formula.kind == "and"
    # every input agrees with composing duals by hand: same connectivity
    for x in all_inputs(5):
        sub = formula_subgraph(f, x, polarity=DUAL)
        parts_disconnected = []
        for child, bits in (("x1&x2", x[0:2]), ("x3&x4", x[2:4]), ("x5", x[4:5])):
            g = parse_formula(child)
            parts_disconnected.append(
                terminals_connected(formula_subgraph(g, bits, polarity=DUAL)))
        assert terminals_connected(sub) == all(parts_disconnected)


# ---------------------------------------------------------------------------
# subgraph selection
# ---------------------------------------------------------------------------

def test_primal_subgraph_keeps_all_vertices():
    f = parse_formula("x1&x2&x3")
    net = formula_graph(f)
    sub = subgraph(net, selector_from_assignment(net, "101"))
    assert sub.vertices == net.vertices
    assert [e.label for e in sub.edges] == ["x1", "x3"]
    assert not terminals_connected(sub)


def test_full_selection_keeps_path():
    f = parse_formula("x1&x2&x3")
    net = formula_graph(f)
    sub = subgraph(net, selector_from_assignment(net, "111"))
    assert len(sub.edges) == 3
    assert terminals_connected(sub)


def test_dual_selection_complements():
    dnet = dual_network(build_nand_tree(2))
    sub = subgraph(dnet, selector_from_assignment(dnet, "1100", DUAL))
    assert sorted(e.label for e in sub.edges) == ["x3", "x4"]


def test_negated_leaf_flips_presence():
    f = parse_formula("~x1&x2")
    net = formula_graph(f)
    sub = subgraph(net, selector_from_assignment(net, "01"))
    assert sorted(e.label for e in sub.edges) == ["x1", "x2"]
    sub2 = subgraph(net, selector_from_assignment(net, "11"))
    assert [e.label for e in sub2.edges] == ["x2"]


def test_selection_on_plain_network_follows_edge_order():
    net = from_json(export(formula_graph(parse_formula("x1&(x2|x3)"))))
    assert net.formula is None
    sel = selector_from_assignment(net, "011")
    assert [e.label for e in subgraph(net, sel).edges] == ["x2", "x3"]
    dual_sel = selector_from_assignment(net, "011", DUAL)
    assert [e.label for e in subgraph(net, dual_sel).edges] == ["x1"]


def test_negated_labels_computed_once():
    net = formula_graph(parse_formula("~x1&(x2|~x3)"))
    assert net.negated_labels == {"x1", "x3"}
    assert net.negated_labels is net.negated_labels


def _label_keyed_selection(net, x, polarity):
    """The reference selection: a label-to-bit dict and the negated-label set."""
    f = net.formula
    if f is None:
        bits = {e.label: int(b) for e, b in zip(net.edges, x)}
        negated = set()
    else:
        bits = {f"x{f.first_var + i}": int(b) for i, b in enumerate(x)}
        negated = {f"x{v}" for v in f.negated_vars()}
    keep = 1 if polarity == PRIMAL else 0
    return tuple(e for e in net.edges if bits[e.label] ^ (e.label in negated) == keep)


def test_selector_matches_label_keyed_reference():
    # random formulas with negated leaves on both hosts, a subformula network
    # (first_var > 1) and a plain network read back from JSON
    rng = np.random.default_rng(1717)
    hosts = []
    for _ in range(20):
        n = int(rng.integers(2, 9))
        negated = {int(v) + 1 for v in rng.choice(n, size=n // 2, replace=False)}
        f = _with_negations(random_formula(rng, n), negated)
        hosts += [(formula_graph(f), PRIMAL), (dual_network(f), DUAL)]
        part = f.children[-1]
        assert part.first_var > 1
        hosts += [(formula_graph(part), PRIMAL), (dual_network(part), DUAL)]
    hosts.append((from_json(export(hosts[0][0])), PRIMAL))
    for net, polarity in hosts:
        m = len(net.edges) if net.formula is None else net.formula.n_vars
        for x in all_inputs(m):
            for side in (polarity, PRIMAL if polarity == DUAL else DUAL):
                kept = selector_from_assignment(net, x, side)
                assert kept == _label_keyed_selection(net, x, side)
                assert all(any(e is h for h in net.edges) for e in kept)
    net = hosts[0][0]
    with pytest.raises(AssignmentLengthError):
        selector_from_assignment(net, (1,) * (len(net.edges) + 1))
    with pytest.raises(ValueError, match="unknown polarity 'sideways'"):
        selector_from_assignment(net, (1,) * len(net.edges), "sideways")


def test_selection_rejects_edges_that_do_not_match_the_formula():
    net = Network(("s", "t"), "s", "t", (Edge("s", "t", "x0", Fraction(1)),),
                  parse_formula("x1"))
    with pytest.raises(ValueError, match="edges do not match the leaves"):
        selector_from_assignment(net, "1")


def test_subgraph_validates_the_kept_edges():
    # a primal selection names endpoints the dual host does not have
    f = parse_formula("~x1&(x2|x3)")
    kept = selector_from_assignment(formula_graph(f), "011")
    with pytest.raises(ValueError, match="unknown endpoint"):
        subgraph(dual_network(f), kept)


# ---------------------------------------------------------------------------
# connectivity equivalence (small exhaustive)
# ---------------------------------------------------------------------------

def test_connectivity_matches_evaluation_small():
    rng = np.random.default_rng(12)
    formulas = [random_formula(rng, int(rng.integers(1, 9))) for _ in range(25)]
    formulas += [random_formula(rng, 12) for _ in range(2)]
    formulas += [build_nand_tree(d) for d in range(4)]
    formulas += [parse_formula("~x1"), parse_formula("~(x1&x2)|x3")]
    for f in formulas:
        host = formula_graph(f)
        dual_host = dual_network(f)
        for x in all_inputs(f.n_vars):
            primal = terminals_connected(
                subgraph(host, selector_from_assignment(host, x)))
            dual = terminals_connected(
                subgraph(dual_host, selector_from_assignment(dual_host, x, DUAL)))
            value = eval_formula(f, x)
            assert primal == (value == 1)
            assert dual == (value == 0)
            assert primal != dual  # exactly one side connects


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_single_edge():
    doc = export(single_edge("x1", Fraction(3, 2)))
    assert b'"label":"x1"' in doc
    assert b'"weight":"3/2"' in doc


def test_dot_line_graph():
    dot = to_dot(formula_graph(parse_formula("x1&x2&x3"))).decode()
    assert dot.count(" -- ") == 3
    assert dot.count('";') + dot.count('"];') >= 4  # four node lines


def test_json_round_trip_examples():
    nets = [
        formula_graph(parse_formula("(x1&x2)|(x3&x4)"),
                      {"x1": Fraction(1, 3), "x2": Fraction(2),
                       "x3": Fraction(7, 5), "x4": Fraction(1)}),
        dual_network(parse_formula("x1|x2")),
        single_edge("x1"),
    ]
    for net in nets:
        assert from_json(export(net)) == net


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_json_round_trip_random(n, seed):
    rng = np.random.default_rng(seed)
    f = random_formula(rng, n)
    weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 12)),
                                     int(rng.integers(1, 12)))
               for i in range(n)}
    net = formula_graph(f, weights)
    assert from_json(export(net)) == net
