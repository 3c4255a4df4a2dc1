import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formulaflow import (
    and_promise,
    build_nand_tree,
    compose,
    composed_domain,
    composed_formula,
    dual_formula,
    enumerate_composed_domain,
    eval_formula,
    full_domain,
    gate,
    leaf,
    or_promise,
    parse_formula,
    promise_membership,
    random_formula,
    render,
    verify_resistance_product,
)
from formulaflow.errors import (
    AssignmentLengthError,
    FormulaError,
    FormulaSyntaxError,
    PromiseMismatchError,
    ReadOnceError,
)
from formulaflow.formula import count_composed_domain


def all_inputs(n):
    return itertools.product((0, 1), repeat=n)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_nand2():
    f = parse_formula("(x1&x2)|(x3&x4)")
    assert f == build_nand_tree(2)
    assert f.n_vars == 4
    assert f.depth() == 2


def test_parse_single_leaf():
    f = parse_formula("x1")
    assert f.is_leaf and f.n_vars == 1


def test_parse_de_morgan():
    f = parse_formula("~(x1|x2)")
    assert f == gate("and", [leaf(1, negated=True), leaf(2, negated=True)])


def test_parse_double_negation():
    assert parse_formula("~~x1") == leaf(1)


def test_parse_renumbers_left_to_right():
    f = parse_formula("x7&x3")
    assert f == gate("and", [leaf(1), leaf(2)])


def test_parse_flattens_same_gate():
    f = parse_formula("x1&(x2&x3)")
    assert f == gate("and", [leaf(1), leaf(2), leaf(3)])


def test_parse_whitespace():
    assert parse_formula(" ( x1 & x2 ) | x3 ") == parse_formula("(x1&x2)|x3")


def test_parse_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("x1&&x2")
    assert err.value.position == 3


@pytest.mark.parametrize("bad", ["", "x0", "x1|", "(x1", "x1 x2", "y1", "~"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


def test_parse_rejects_repeated_variable():
    with pytest.raises(ReadOnceError):
        parse_formula("x1&x1")
    with pytest.raises(ReadOnceError):
        parse_formula("(x1|x2)&(x2|x3)")


def test_parse_names_every_repeated_variable_sorted():
    with pytest.raises(ReadOnceError, match=r"^variables repeated: \[1, 2, 3\]$"):
        parse_formula("x3&x1|x2&x3|x1&x2|x3&x4")


def test_gate_rejects_fan_in_one():
    with pytest.raises(FormulaError):
        gate("and", [leaf(1)])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_nand2():
    f = build_nand_tree(2)
    assert eval_formula(f, "1100") == 1
    assert eval_formula(f, "0000") == 0
    assert eval_formula(f, "0011") == 1


def test_eval_depth4_reference_instance():
    f = build_nand_tree(4)
    assert eval_formula(f, "1110001100011101") == 1
    assert eval_formula(f, "0" * 16) == 0


def test_eval_negated_leaf():
    f = parse_formula("~x1&x2")
    assert eval_formula(f, "01") == 1
    assert eval_formula(f, "11") == 0


def test_eval_length_mismatch():
    with pytest.raises(AssignmentLengthError):
        eval_formula(build_nand_tree(1), "1")


# ---------------------------------------------------------------------------
# nand trees
# ---------------------------------------------------------------------------

def test_nand_tree_shapes():
    assert build_nand_tree(0) == leaf(1)
    assert build_nand_tree(1) == gate("and", [leaf(1), leaf(2)])
    assert build_nand_tree(2) == parse_formula("(x1&x2)|(x3&x4)")


@pytest.mark.parametrize("d", range(7))
def test_nand_tree_counts(d):
    f = build_nand_tree(d)
    assert f.n_vars == 2 ** d
    if d > 0:
        assert (f.kind == "or") == (d % 2 == 0)


@pytest.mark.parametrize("d", range(14))
def test_nand_tree_pairs_neighbours_bottom_up(d):
    # level r pairs adjacent nodes of level r - 1 under an AND (r odd) or OR
    level = [leaf(i) for i in range(1, 2 ** d + 1)]
    for r in range(1, d + 1):
        kind = "and" if r % 2 else "or"
        level = [gate(kind, level[i:i + 2]) for i in range(0, len(level), 2)]
    [want] = level
    f = build_nand_tree(d)
    assert f == want
    assert (render(f), repr(f)) == (render(want), repr(want))


# ---------------------------------------------------------------------------
# dual and negation
# ---------------------------------------------------------------------------

def test_dual_swaps_gates():
    assert dual_formula(parse_formula("(x1&x2)|(x3&x4)")) == \
        parse_formula("(x1|x2)&(x3|x4)")
    assert dual_formula(leaf(1)) == leaf(1)


def test_dual_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = random_formula(rng, int(rng.integers(1, 13)))
        assert dual_formula(dual_formula(f)) == f


def test_random_formula_stores_plain_ints():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 17, 40):
        f = random_formula(rng, n, max_fanin=4)
        for g in f._order:
            assert type(g.var) is int and type(g.n_vars) is int and type(g.first_var) is int
        assert repr(f) == repr(parse_formula(render(f)))


def test_dual_complement_identity_exhaustive():
    # dual(f)(x) == not f(complement x), checked on every input up to N = 12
    rng = np.random.default_rng(7)
    formulas = [random_formula(rng, int(rng.integers(1, 9))) for _ in range(30)]
    formulas += [random_formula(rng, 12) for _ in range(3)]
    formulas += [build_nand_tree(d) for d in range(4)]
    formulas += [parse_formula("~x1&(x2|~x3)")]
    for f in formulas:
        g = dual_formula(f)
        for x in all_inputs(f.n_vars):
            comp = tuple(1 - b for b in x)
            assert eval_formula(g, x) == 1 - eval_formula(f, comp)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_or_and():
    outer = gate("or", [leaf(1), leaf(2)])
    inner = gate("and", [leaf(1), leaf(2)])
    assert compose(outer, inner) == parse_formula("(x1&x2)|(x3&x4)")


def test_compose_with_leaf_is_identity():
    f = parse_formula("(x1&x2)|x3")
    assert compose(f, leaf(1)) == f


def test_compose_flattens_same_kind():
    inner = gate("and", [leaf(1), leaf(2)])
    composed = compose(inner, inner)
    assert composed == gate("and", [leaf(i) for i in range(1, 5)])
    for x in all_inputs(4):
        assert eval_formula(composed, x) == int(all(x))


def test_compose_evaluates_as_substitution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        outer = random_formula(rng, int(rng.integers(2, 4)))
        inner = random_formula(rng, int(rng.integers(2, 4)))
        composed = compose(outer, inner)
        n1, n2 = outer.n_vars, inner.n_vars
        assert composed.n_vars == n1 * n2
        for x in all_inputs(n1 * n2):
            inner_vals = [eval_formula(inner, x[i * n2:(i + 1) * n2])
                          for i in range(n1)]
            assert eval_formula(composed, x) == eval_formula(outer, inner_vals)


def test_compose_associative_at_evaluation():
    rng = np.random.default_rng(10)
    f = random_formula(rng, 2)
    g = random_formula(rng, 2)
    h = random_formula(rng, 2)
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    for x in all_inputs(8):
        assert eval_formula(left, x) == eval_formula(right, x)


def test_compose_negated_outer_leaf():
    outer = gate("or", [leaf(1, negated=True), leaf(2)])
    inner = gate("and", [leaf(1), leaf(2)])
    composed = compose(outer, inner)
    for x in all_inputs(4):
        want = (1 - (x[0] & x[1])) | (x[2] & x[3])
        assert eval_formula(composed, x) == want


# ---------------------------------------------------------------------------
# round trips (property-based)
# ---------------------------------------------------------------------------

@st.composite
def formulas(draw, max_vars=10):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_formula(rng, n)


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_parse_render_round_trip(f):
    assert parse_formula(render(f)) == f


@given(formulas(max_vars=7), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_dual_complement_property(f, bits_seed):
    rng = np.random.default_rng(bits_seed)
    x = tuple(int(b) for b in rng.integers(0, 2, size=f.n_vars))
    comp = tuple(1 - b for b in x)
    assert eval_formula(dual_formula(f), x) == 1 - eval_formula(f, comp)


# ---------------------------------------------------------------------------
# promise domains
# ---------------------------------------------------------------------------

def test_and_promise_membership():
    f = gate("and", [leaf(i) for i in range(1, 5)])
    dom = and_promise(4, 2)
    assert promise_membership(dom, f, "1111") is True
    assert promise_membership(dom, f, "1110") is False
    assert promise_membership(dom, f, "1100") is True
    assert promise_membership(dom, f, "0000") is True


def test_or_promise_membership():
    f = gate("or", [leaf(i) for i in range(1, 5)])
    dom = or_promise(4, 2)
    assert promise_membership(dom, f, "0110") is True
    assert promise_membership(dom, f, "0100") is False
    assert promise_membership(dom, f, "0000") is True


def test_promise_structural_mismatch():
    f = gate("or", [leaf(1), leaf(2)])
    with pytest.raises(PromiseMismatchError):
        promise_membership(and_promise(2, 1), f, "11")


def test_single_gate_promise_is_a_one_level_domain():
    f = gate("and", [leaf(1), leaf(2), leaf(3)])
    with pytest.raises(PromiseMismatchError, match="composed level structure"):
        promise_membership(or_promise(3, 1), f, "111")
    with pytest.raises(PromiseMismatchError, match=r"bad level \(and, 1, 1\)"):
        promise_membership(and_promise(1, 1), leaf(1), "1")


def test_full_domain_accepts_everything():
    f = build_nand_tree(2)
    dom = full_domain(4)
    assert all(promise_membership(dom, f, x) for x in all_inputs(4))


def test_composed_membership_checks_every_level():
    levels = [("or", 2, 1), ("and", 2, 2)]
    f = composed_formula(levels)
    dom = composed_domain(levels)
    # inner blocks must each hit weight 2 or <= 0; outer value vector anything
    assert promise_membership(dom, f, "1100") is True
    assert promise_membership(dom, f, "1000") is False  # inner block weight 1
    assert promise_membership(dom, f, "0000") is True


def test_enumerate_composed_domain_matches_membership():
    levels = [("or", 2, 1), ("and", 2, 1)]
    f = composed_formula(levels)
    dom = composed_domain(levels)
    enumerated = set(enumerate_composed_domain(levels))
    by_membership = {x for x in all_inputs(4) if promise_membership(dom, f, x)}
    assert enumerated == by_membership
    assert len(enumerated) == 16  # h=1 promises are vacuous here


@pytest.mark.parametrize("level, shown", [
    (("and", 2, 3), "(and, 2, 3)"),
    (("or", 3, 0), "(or, 3, 0)"),
    (("and", 1, 1), "(and, 1, 1)"),
    (("xor", 2, 1), "(xor, 2, 1)"),
    (("and", 4), "(and, 4)"),
])
@pytest.mark.parametrize("call", [
    composed_domain,
    composed_formula,
    count_composed_domain,
    lambda levels: list(enumerate_composed_domain(levels)),
    verify_resistance_product,
])
def test_every_composed_route_rejects_a_bad_level(call, level, shown):
    with pytest.raises(PromiseMismatchError, match=rf"^bad level {re.escape(shown)}$"):
        call([("or", 2, 1), list(level)])


def test_composed_domain_levels_are_tuples():
    assert composed_domain([["and", 2, 1], ("or", 3, 2)]).levels == (("and", 2, 1), ("or", 3, 2))
