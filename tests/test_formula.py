import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formulaflow import (
    Domain,
    build_nand_tree,
    compose,
    composed_formula,
    dual_formula,
    eval_formula,
    explicit_domain,
    gate,
    leaf,
    parse_formula,
    promise_domain,
    random_formula,
    render,
    verify_resistance_product,
)
from formulaflow import formula as formula_mod
from formulaflow.errors import (
    AssignmentLengthError,
    DomainTooLargeError,
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
    dom = promise_domain([("and", 4, 2)])
    assert ("1111" in dom) is True
    assert ("1110" in dom) is False
    assert ("1100" in dom) is True
    assert ((0, 0, 0, 0) in dom) is True


def test_or_promise_membership():
    dom = promise_domain([("or", 4, 2)])
    assert ("0110" in dom) is True
    assert ("0100" in dom) is False
    assert ("0000" in dom) is True


def test_promise_structural_mismatch():
    # the levels fix the chain, so an input of another length is refused
    with pytest.raises(AssignmentLengthError, match="assignment length 3 != variable count 2"):
        "111" in promise_domain([("and", 2, 1)])


def test_single_gate_promise_is_a_one_level_domain():
    dom = promise_domain([("or", 3, 1)])
    assert dom.levels == (("or", 3, 1),) and len(dom) == 8
    with pytest.raises(AssignmentLengthError):
        "11" in dom
    with pytest.raises(PromiseMismatchError, match=r"bad level \(and, 1, 1\)"):
        promise_domain([("and", 1, 1)])


@pytest.mark.parametrize("n, h", [(4, 1.5), (2.0, 1), (3, True), (True, True), ("3", 1)])
@pytest.mark.parametrize("kind", ["and", "or"])
def test_promise_sizes_must_be_ints(kind, n, h):
    with pytest.raises(PromiseMismatchError, match=rf"^bad level \({kind}, {n}, {h}\)$"):
        promise_domain([(kind, n, h)])


def test_full_domain_accepts_everything():
    # h = 1 promises are vacuous; the chain is the depth-2 NAND tree
    dom = promise_domain([("or", 2, 1), ("and", 2, 1)])
    assert composed_formula(dom.levels) == build_nand_tree(2)
    assert all(x in dom for x in all_inputs(4))
    assert sorted(dom) == list(all_inputs(4))


def test_composed_membership_checks_every_level():
    dom = promise_domain([("or", 2, 1), ("and", 2, 2)])
    # inner blocks must each hit weight 2 or <= 0; outer value vector anything
    assert ("1100" in dom) is True
    assert ("1000" in dom) is False  # inner block weight 1
    assert ("0010" in dom) is False  # the second inner block
    assert ("0000" in dom) is True


def test_enumerate_composed_domain_matches_membership():
    dom = promise_domain([("or", 2, 1), ("and", 2, 1)])
    by_membership = {x for x in all_inputs(4) if x in dom}
    assert set(dom) == by_membership
    assert len(dom) == 16  # h=1 promises are vacuous here


def test_explicit_domain_membership_and_order():
    dom = explicit_domain([(1, 0), [0, 1]])
    assert dom.items == ((1, 0), (0, 1)) and list(dom) == [(1, 0), (0, 1)]
    assert (len(dom), dom.kind, dom.levels, dom.counts) == (2, "explicit", (), None)
    assert "10" in dom and (0, 1) in dom and "11" not in dom and "00" not in dom
    with pytest.raises(AssignmentLengthError):
        "1" in dom
    assert "1" not in explicit_domain([])


def test_classes_domain_counts_points_not_items():
    dom = Domain(((0, 0), (1, 0), (1, 1)), (1, 2, 1))
    assert (len(dom), len(dom.items), dom.kind) == (4, 3, "classes")
    with pytest.raises(TypeError, match="one input per class"):
        (0, 0) in dom


def _chains():
    """Every chain of 1 to 3 and/or levels with N in {2, 3, 4}, every h, and
    at most 12 leaves."""
    for depth in (1, 2, 3):
        for kinds in itertools.product(("and", "or"), repeat=depth):
            for ns in itertools.product((2, 3, 4), repeat=depth):
                if np.prod(ns) <= 12:
                    for hs in itertools.product(*(range(1, n + 1) for n in ns)):
                        yield list(zip(kinds, ns, hs))


def test_enumeration_is_the_counted_promised_set_without_repeats():
    chains = list(_chains())
    assert len(chains) == 630
    for levels in chains:
        dom = promise_domain(levels)
        enumerated = list(dom)
        assert len(set(enumerated)) == len(enumerated), levels
        assert set(enumerated) == {x for x in all_inputs(composed_formula(levels).n_vars)
                                   if x in dom}, levels
        assert len(enumerated) == len(dom) == count_composed_domain(levels), levels


def test_enumeration_yields_the_1_inputs_then_the_0_inputs_by_weight():
    levels = [("or", 3, 2)]
    assert list(promise_domain(levels)) == [
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0)]
    f = composed_formula([("and", 2, 1), ("or", 2, 1)])
    values = [eval_formula(f, x) for x in promise_domain([("and", 2, 1), ("or", 2, 1)])]
    assert values == sorted(values, reverse=True) and values.count(1) == 9


@pytest.mark.parametrize("levels", [[("or", 64, 64)], [("and", 256, 256), ("or", 256, 256)]])
def test_tight_wide_structures_enumerate_in_time_with_their_count(levels):
    # an all-or-nothing promise keeps two inputs, whatever the leaf count
    start = time.perf_counter()
    enumerated = list(promise_domain(levels))
    assert time.perf_counter() - start < 1.0
    assert len(enumerated) == count_composed_domain(levels) == 2
    n = np.prod([n for _kind, n, _h in levels])
    assert sorted(enumerated) == [(0,) * n, (1,) * n]


def test_enumeration_admits_a_domain_of_exactly_the_budget(monkeypatch):
    # or(2, 1) keeps all 4 inputs of its 2 leaves
    monkeypatch.setattr(formula_mod, "DOMAIN_CAP", 4)
    assert len(promise_domain([("or", 2, 1)])) == 4
    monkeypatch.setattr(formula_mod, "DOMAIN_CAP", 3)
    with pytest.raises(DomainTooLargeError, match="^domain has more than 3 points$"):
        promise_domain([("or", 2, 1)])


@pytest.mark.parametrize("level, shown", [
    (("and", 2, 3), "(and, 2, 3)"),
    (("or", 3, 0), "(or, 3, 0)"),
    (("and", 1, 1), "(and, 1, 1)"),
    (("xor", 2, 1), "(xor, 2, 1)"),
    (("and", 4), "(and, 4)"),
    (("and", 2.5, 1), "(and, 2.5, 1)"),
    (("and", 3, 1.5), "(and, 3, 1.5)"),
    (("or", 3, True), "(or, 3, True)"),
    (("or", True, 1), "(or, True, 1)"),
])
@pytest.mark.parametrize("call", [
    promise_domain,
    composed_formula,
    count_composed_domain,
    verify_resistance_product,
])
def test_every_composed_route_rejects_a_bad_level(call, level, shown):
    with pytest.raises(PromiseMismatchError, match=rf"^bad level {re.escape(shown)}$"):
        call([("or", 2, 1), list(level)])


@pytest.mark.parametrize("levels", [
    [("and", 99999999999999999999, 1)],
    [("or", 2**10, 1), ("and", 2**11, 3)],
])
def test_count_refuses_more_leaves_than_the_cap_before_counting(levels):
    with pytest.raises(DomainTooLargeError, match="more than 1048576 leaves"):
        count_composed_domain(levels)


def test_count_accepts_exactly_cap_many_leaves():
    # 2^20 leaves; an all-or-nothing promise keeps two inputs
    assert count_composed_domain([("and", 2**10, 2**10), ("or", 2**10, 2**10)]) == 2


def test_composed_domain_levels_are_tuples():
    assert promise_domain([["and", 2, 1], ("or", 3, 2)]).levels == (("and", 2, 1), ("or", 3, 2))
