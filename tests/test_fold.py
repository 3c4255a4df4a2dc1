"""The formula-tree walks against independent routes, and on deep trees.

The (min, +) cut recursion runs on ``formula.fold`` and ``eval_formula`` on
its own top-down loop; ``formula_resistance`` and every domain sweep run on
one live-side walk, ``electrical._live_side``, that gives an input's value
and the resistance of the network that value connects (the sweeps through
``electrical.live_sides``, which tables each child of the root).  These tests
compare each of them with a route that does not use it: series-parallel
reduction and the float Laplacian of the selected network, max-flow, graph
connectivity and both span-program witness sizes.  They also check that the
cached post-order is walked once per formula and leaves equality, hashing
and ``repr`` alone.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formulaflow import (
    DUAL,
    EXACT_SP,
    INF,
    LAPLACIAN,
    MAXFLOW,
    PRIMAL,
    SP_RECURSION,
    build_span_program,
    cut_size,
    dual_formula,
    dual_network,
    effective_resistance,
    eval_formula,
    formula_graph,
    formula_resistance,
    gate,
    leaf,
    negate_formula,
    negative_witness,
    parse_formula,
    positive_witness,
    random_formula,
    selector_from_assignment,
    subgraph,
)
from formulaflow import formula as formula_module
from formulaflow.electrical import _leaf_pairs, live_sides, terminals_connected
from formulaflow.formula import AND, OR, fold
from formulaflow.verify import _check_formula_connectivity, _path_literals


def with_negations(f, negated):
    if f.is_leaf:
        return leaf(f.var, negated=negated[f.var - 1])
    return gate(f.kind, [with_negations(c, negated) for c in f.children])


@st.composite
def weighted_instances(draw, max_vars=10, max_term=9):
    """A random formula with negated leaves, weights p/q with p, q <= max_term
    and an input."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    f = random_formula(np.random.default_rng(seed), n) if n > 1 else leaf(1)
    f = with_negations(f, draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ratios = draw(st.lists(st.tuples(st.integers(1, max_term), st.integers(1, max_term)),
                           min_size=n, max_size=n))
    weights = {f"x{i + 1}": Fraction(p, q) for i, (p, q) in enumerate(ratios)}
    x = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return f, weights, x


def selected(host, x, polarity):
    return subgraph(host, selector_from_assignment(host, x, polarity))


@given(weighted_instances())
@settings(max_examples=200, deadline=None)
def test_fold_resistance_matches_reduction_and_laplacian(instance):
    f, weights, x = instance
    hosts = ((False, formula_graph(f, weights), PRIMAL),
             (True, dual_network(f, weights), DUAL))
    for dual, host, polarity in hosts:
        sub = selected(host, x, polarity)
        r = formula_resistance(f, x, weights, dual=dual)
        assert r == effective_resistance(sub, EXACT_SP)
        r_float = effective_resistance(sub, LAPLACIAN)
        if r is INF:
            assert math.isinf(r_float)
        else:
            assert abs(r_float - float(r)) <= 1e-9 * max(1.0, float(r))


@given(weighted_instances(max_term=10**6))
@settings(max_examples=200, deadline=None)
def test_fold_resistance_matches_reduction_with_large_weights(instance):
    f, weights, x = instance
    for dual, host, polarity in ((False, formula_graph(f, weights), PRIMAL),
                                 (True, dual_network(f, weights), DUAL)):
        r = formula_resistance(f, x, weights, dual=dual)
        assert r == effective_resistance(selected(host, x, polarity), EXACT_SP)


@given(weighted_instances(max_vars=7))
@settings(max_examples=200, deadline=None)
def test_fold_resistance_matches_witness_sizes(instance):
    f, weights, x = instance
    program = build_span_program(formula_graph(f, weights))
    r = formula_resistance(f, x, weights)
    rd = formula_resistance(f, x, weights, dual=True)
    assert positive_witness(program, x).size == (INF if r is INF else r / 2)
    assert negative_witness(program, x).size == (INF if rd is INF else 2 * rd)


@given(weighted_instances())
@settings(max_examples=200, deadline=None)
def test_fold_cut_matches_maxflow(instance):
    f, weights, x = instance
    net = formula_graph(f, weights)
    assert cut_size(net, x, SP_RECURSION) == cut_size(net, x, MAXFLOW)


@given(weighted_instances())
@settings(max_examples=100, deadline=None)
def test_live_side_matches_evaluation_and_reduction_on_every_input(instance):
    # both modes of the walk: both sides at once (the tabled sweep) and one
    # side asked for (formula_resistance), against eval_formula's value and
    # the reduction of the selection that value connects
    f, weights, _x = instance
    pairs = _leaf_pairs(f, weights)
    hosts = ((dual_network(f, weights), DUAL), (formula_graph(f, weights), PRIMAL))
    for x, value, p, q in live_sides(f, pairs, itertools.product((0, 1), repeat=f.n_vars)):
        r = Fraction(p, q)
        assert value == eval_formula(f, x)
        host, polarity = hosts[value]
        assert r == effective_resistance(selected(host, x, polarity), EXACT_SP)
        assert formula_resistance(f, x, weights) == (r if value else INF)
        assert formula_resistance(f, x, weights, dual=True) == (INF if value else r)


@given(weighted_instances())
@settings(max_examples=200, deadline=None)
def test_fold_evaluation_matches_connectivity(instance):
    f, weights, x = instance
    value = eval_formula(f, x)
    assert terminals_connected(selected(formula_graph(f, weights), x, PRIMAL)) == (value == 1)
    assert terminals_connected(selected(dual_network(f, weights), x, DUAL)) == (value == 0)


# ---------------------------------------------------------------------------
# deep trees: no result depends on the recursion limit
# ---------------------------------------------------------------------------

LEVELS = 5000


def series(a, b):
    return INF if a is INF or b is INF else a + b


def parallel(a, b):
    if a is INF or b is INF:
        return b if a is INF else a
    return a * b / (a + b)


@pytest.mark.parametrize("first_bit", [0, 1])
def test_fold_on_deep_alternating_chain(first_bit):
    # gate k joins the chain built so far with the fresh leaf x_{k+2}; kinds
    # alternate from an innermost AND.  AND-side leaves are 1 and OR-side
    # leaves 0, so no gate's value is settled before its deep child.
    f = leaf(1)
    bits = [first_bit]
    kinds = []
    for k in range(LEVELS):
        kind = AND if k % 2 == 0 else OR
        f = gate(kind, [f, leaf(k + 2)])
        bits.append(1 if kind == AND else 0)
        kinds.append(kind)
    assert f.n_vars == LEVELS + 1

    value = bits[0]
    r = Fraction(1) if bits[0] else INF
    r_dual = INF if bits[0] else Fraction(1)
    for kind, bit in zip(kinds, bits[1:]):
        edge = Fraction(1) if bit else INF
        dual_edge = INF if bit else Fraction(1)
        if kind == AND:
            value = value & bit
            r = series(r, edge)
            r_dual = parallel(r_dual, dual_edge)
        else:
            value = value | bit
            r = parallel(r, edge)
            r_dual = series(r_dual, dual_edge)

    assert eval_formula(f, bits) == value == first_bit
    assert formula_resistance(f, bits) == r
    assert formula_resistance(f, bits, dual=True) == r_dual
    r_live = r if value else r_dual
    assert list(live_sides(f, _leaf_pairs(f, None), [tuple(bits)])) == [
        (tuple(bits), value, r_live.numerator, r_live.denominator)]
    assert (r is INF) != (r_dual is INF)


# ---------------------------------------------------------------------------
# the cached post-order
# ---------------------------------------------------------------------------

NEGATED = "(x1&~x2)|(x3&x4&(x5|~x6))"


def test_postorder_walked_once_per_formula(monkeypatch):
    f = parse_formula(NEGATED)
    text_repr = repr(f)
    walked = []
    real = formula_module.postorder

    def counting(g):
        walked.append(g)
        return real(g)

    monkeypatch.setattr(formula_module, "postorder", counting)
    x = (1, 0, 1, 1, 0, 1)
    for _ in range(3):
        assert fold(f, lambda g: 1, sum, sum) == 6
        assert eval_formula(f, x) == 1
        assert formula_resistance(f, x) == Fraction(2)
        assert formula_resistance(f, x, dual=True) is INF
    assert len(walked) == 1 and walked[0] is f

    fresh = parse_formula(NEGATED)
    assert f == fresh and hash(f) == hash(fresh)
    assert repr(f) == text_repr == repr(fresh)


# ---------------------------------------------------------------------------
# the connectivity suite's path check on negated leaves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transform", [lambda f: f, dual_formula, negate_formula],
                         ids=["formula", "dual", "negation"])
def test_connectivity_check_accepts_negated_leaves(transform):
    assert _check_formula_connectivity(transform(parse_formula(NEGATED)))


@pytest.mark.parametrize("dual", [False, True])
def test_connectivity_path_literals_follow_negated_leaves(dual):
    f = parse_formula(NEGATED)
    paths = _path_literals(dual_network(f) if dual else formula_graph(f), dual=dual)
    for x in itertools.product((0, 1), repeat=f.n_vars):
        connected = any(all(x[var] ^ flip for var, flip in path) for path in paths)
        assert connected == (eval_formula(f, x) == (0 if dual else 1))
