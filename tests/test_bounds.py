import inspect
import json
import math
import textwrap
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from formulaflow import (
    DUAL,
    EXACT_SP,
    MAXFLOW,
    PRIMAL,
    build_nand_tree,
    build_span_program,
    compute_bounds,
    cut_size,
    dual_network,
    effective_resistance,
    eval_formula,
    example_family,
    exponent_fit,
    formula_graph,
    gate,
    leaf,
    random_formula,
    selector_from_assignment,
    subgraph,
    verify_resistance_product,
    witness_extrema,
)
from formulaflow import bounds, electrical, spanprog
from formulaflow import formula as formula_module
from formulaflow.bounds import _check_class_count
from formulaflow.errors import DomainTooLargeError, FormulaError
from formulaflow.formula import (
    AND,
    OR,
    Formula,
    all_inputs,
    composed_formula,
    count_composed_domain,
    explicit_domain,
    fold,
    promise_domain,
    uniform_formula,
)


# ---------------------------------------------------------------------------
# example families
# ---------------------------------------------------------------------------

def test_line_family_figures():
    fam = example_family("line", n=9, h=3)
    rep = compute_bounds(fam.formula, fam.weights, fam.domain)
    assert rep.r_max == 9
    assert rep.r_dual_max == Fraction(1, 3)
    assert rep.c_max == 1
    assert rep.n_edges == 9
    assert rep.bound_old == pytest.approx(9.0)       # sqrt(9 * 9)
    assert rep.bound_cut == pytest.approx(3.0)       # sqrt(9 * 1)
    assert rep.bound_new == pytest.approx(math.sqrt(3.0))
    assert rep.exhaustive


def test_line_domain_counts_promise():
    fam = example_family("line", n=4, h=2)
    # |x|=4 plus |x| <= 2: 1 + (1 + 4 + 6)
    assert len(fam.domain) == 12
    # the classes of the and-promise (4, 2), by weight: all-ones last
    assert fam.domain.items == ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1))
    assert fam.domain.counts == (1, 4, 6, 1)


def test_balloon_family_figures():
    fam = example_family("balloon", n=4)
    rep = compute_bounds(fam.formula, fam.weights, fam.domain)
    assert rep.r_max == 8           # 2N with the 1/N multi-edge weights
    assert rep.r_dual_max == 1
    assert rep.c_max == 4
    unit = compute_bounds(fam.formula, fam.weights, fam.domain, unit_weights=True)
    assert unit.r_max == 5          # N+1 with unit weights


def test_balloon_attaining_inputs_reevaluate():
    fam = example_family("balloon", n=4)
    rep = compute_bounds(fam.formula, fam.weights, fam.domain)
    from formulaflow import formula_resistance
    assert formula_resistance(fam.formula, rep.attain_r, fam.weights) == rep.r_max
    assert formula_resistance(fam.formula, rep.attain_r_dual, fam.weights,
                              dual=True) == rep.r_dual_max


def test_nand_kfault_family_nonempty():
    fam = example_family("nand-kfault", d=2, k=0)
    assert len(fam.domain) > 0
    assert (1, 1, 1, 1) in fam.domain


def test_nand_kfault_level_filter():
    fam0 = example_family("nand-kfault", d=2, k=0)
    fam1 = example_family("nand-kfault", d=2, k=1)
    assert len(fam0.domain) < len(fam1.domain)


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        example_family("line", n=4, h=9)
    with pytest.raises(ValueError):
        example_family("nand-kfault", d=2, k=3)
    with pytest.raises(ValueError, match=r"^depth d=-1 must be nonnegative$"):
        example_family("nand-kfault", d=-1, k=0)
    with pytest.raises(ValueError):
        example_family("mystery")


def test_exponent_fit_recovers_powers():
    sizes = [4, 9, 16, 25]
    assert exponent_fit(sizes, [math.sqrt(n) for n in sizes]) == pytest.approx(0.5)
    assert exponent_fit(sizes, [n ** 0.25 for n in sizes]) == pytest.approx(0.25)


def test_line_scaling_exponents():
    sizes = [4, 9, 16, 25]
    cut_vals, new_vals, old_vals = [], [], []
    for n in sizes:
        fam = example_family("line", n=n, h=int(math.isqrt(n)))
        rep = compute_bounds(fam.formula, fam.weights, fam.domain)
        cut_vals.append(rep.bound_cut)
        new_vals.append(rep.bound_new)
        old_vals.append(rep.bound_old)
    assert abs(exponent_fit(sizes, cut_vals) - 0.5) <= 0.1
    assert abs(exponent_fit(sizes, new_vals) - 0.25) <= 0.1
    assert exponent_fit(sizes, old_vals) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# bound dominance
# ---------------------------------------------------------------------------

def test_dominance_on_nand_trees():
    for d in range(4):
        rep = compute_bounds(build_nand_tree(d), None, None, unit_weights=True)
        assert rep.bound_new <= rep.bound_cut + 1e-12
        assert rep.bound_cut <= rep.bound_old + 1e-12
        assert rep.r_dual_max <= rep.c_max <= rep.n_edges
        assert rep.c_max >= 1


def test_nand_cut_maximum_is_power():
    for d in range(4):
        rep = compute_bounds(build_nand_tree(d), None, None)
        assert rep.c_max == 2 ** (d // 2)


def test_low_fault_witness_product_stays_small():
    # on the k-fault domains the witness-size product sqrt(W+ W-) =
    # sqrt(max R * max R') is at most 2 * 2^k, while the cut figure grows
    # with depth
    for d in range(1, 4):
        for k in range(min(2, d // 2) + 1):
            fam = example_family("nand-kfault", d=d, k=k)
            rep = compute_bounds(fam.formula, None, fam.domain)
            if rep.bound_new is None:
                continue
            assert rep.bound_new <= 2 * 2 ** k + 1e-9
    fam = example_family("nand-kfault", d=4, k=1)
    rep = compute_bounds(fam.formula, None, fam.domain)
    assert rep.bound_new <= 4.0
    assert rep.bound_cut >= math.sqrt(2 ** (4 // 2))  # grows like 2^(d/4)


# ---------------------------------------------------------------------------
# resistance product identity
# ---------------------------------------------------------------------------

def test_single_and_level():
    rep = verify_resistance_product([("and", 4, 2)])
    assert rep.r_max == 4
    assert rep.r_dual_max == Fraction(1, 2)
    assert rep.product == rep.expected == 2
    assert rep.equal


def test_single_or_level():
    rep = verify_resistance_product([("or", 4, 2)])
    assert rep.r_max == Fraction(1, 2)
    assert rep.r_dual_max == 4
    assert rep.product == 2
    assert rep.equal


def test_two_level_product():
    rep = verify_resistance_product([("or", 2, 1), ("and", 2, 1)])
    assert rep.product == rep.expected == 4
    assert rep.equal
    assert rep.domain_size == 16
    assert rep.quantum_bound == pytest.approx(2.0)


def test_three_level_product():
    rep = verify_resistance_product([("and", 2, 1), ("or", 2, 2), ("and", 2, 1)])
    assert rep.expected == Fraction(8, 2)  # prod N / prod h = (2*2*2)/(1*2*1)
    assert rep.equal


def test_class_count_check_refuses_huge_families_alone():
    # the balloon's (n + 1)^2 and the line's n - h + 2 classes at n = 10^11,
    # checked without building either family
    n = 10 ** 11
    for classes in ((n + 1) ** 2, n - math.isqrt(n) + 2):
        with pytest.raises(DomainTooLargeError, match="domain budget of 1048576"):
            _check_class_count(classes)
    _check_class_count(1 << 20)


def test_families_check_their_class_count_first(monkeypatch):
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 10)
    monkeypatch.setattr(bounds, "leaf", None)  # no leaf is built before the check
    with pytest.raises(DomainTooLargeError, match="25 symmetry classes"):
        example_family("balloon", n=4)
    with pytest.raises(DomainTooLargeError, match="11 symmetry classes"):
        example_family("line", n=12, h=3)
    monkeypatch.undo()
    assert len(example_family("balloon", n=4).domain.items) == 25


def test_line_family_checks_its_leaf_count_before_building(monkeypatch):
    # h = n leaves 2 classes, inside the budget, but n leaves past it
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 10)
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "leaf", None)  # no leaf is built before the check
        with pytest.raises(DomainTooLargeError,
                           match="line family has 11 leaves, more than the domain budget of 10"):
            example_family("line", n=11, h=11)
    assert example_family("line", n=10, h=10).formula.n_vars == 10


def test_kfault_family_refuses_exactly_the_trees_past_the_budget(monkeypatch):
    # d = 2 has 2^4 = 16 inputs: inside a budget of 16, past one of 15
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 16)
    assert len(example_family("nand-kfault", d=2, k=1).domain) == 16
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 15)
    with pytest.raises(DomainTooLargeError, match=r"2\^\(2\^2\) inputs exceeds the domain "
                                                  r"budget of 15 inputs"):
        example_family("nand-kfault", d=2, k=1)


def test_compute_bounds_refuses_a_full_domain_past_the_budget(monkeypatch):
    monkeypatch.setattr(bounds, "all_inputs", None)  # nothing is enumerated before the check
    f = gate("and", [leaf(i + 1) for i in range(21)])  # 2^21 inputs
    with pytest.raises(DomainTooLargeError, match=r"^full domain too large; pass an explicit one$"):
        compute_bounds(f)
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 4)
    with pytest.raises(DomainTooLargeError, match="full domain too large"):
        compute_bounds(gate("and", [leaf(1), leaf(2), leaf(3)]))
    monkeypatch.undo()
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 4)  # exactly the budget
    assert compute_bounds(gate("and", [leaf(1), leaf(2)])).r_max == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_line_classes_are_the_and_promise_domain(n):
    for h in range(1, n + 1):
        dom = example_family("line", n=n, h=h).domain
        promised = promise_domain([("and", n, h)])
        assert sum(dom.counts) == len(dom) == len(promised)
        weight_classes = [{x for x in all_inputs(n) if sum(x) == sum(rep)} for rep in dom.items]
        assert [len(c) for c in weight_classes] == list(dom.counts)
        assert set().union(*weight_classes) == set(promised)


@pytest.mark.parametrize("n", range(2, 6))
def test_balloon_classes_group_every_input(n):
    def key(x):  # (absent path edges, present multi-edges)
        return n - sum(x[:n]), sum(x[n:])

    dom = example_family("balloon", n=n).domain
    brute = Counter(key(x) for x in all_inputs(2 * n))
    assert len(dom.items) == len(brute)
    assert {key(x): count for x, count in zip(dom.items, dom.counts)} == brute


def test_product_domain_cap():
    with pytest.raises(DomainTooLargeError):
        verify_resistance_product([("and", 2, 1)] * 12)


def test_product_json_round_trip():
    rep = verify_resistance_product([("and", 3, 2)])
    doc = json.loads(rep.to_json())
    assert doc["equal"] is True
    assert doc["product"] == "3/2"


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def test_bound_report_serialization():
    fam = example_family("line", n=4, h=2)
    rep = compute_bounds(fam.formula, fam.weights, fam.domain)
    doc = json.loads(rep.to_json())
    assert doc["r_max"] == "4"
    assert doc["c_max"] == "1"
    text = rep.to_text()
    assert "max R (1-side)" in text and "bound sqrt(R*R')" in text


def test_explicit_domain_roundtrip():
    dom = explicit_domain([(0, 1), (1, 1)])
    assert len(dom) == 2 and dom.items == ((0, 1), (1, 1)) and dom.kind == "explicit"


def test_compute_bounds_accepts_network():
    fam = example_family("line", n=4, h=2)
    via_formula = compute_bounds(fam.formula, fam.weights, fam.domain)
    via_network = compute_bounds(fam.network, domain=fam.domain)
    assert via_formula.r_max == via_network.r_max == 4
    assert via_formula.r_dual_max == via_network.r_dual_max
    assert via_formula.c_max == via_network.c_max


# ---------------------------------------------------------------------------
# domain sweeps against a brute-force loop over independent routes
# ---------------------------------------------------------------------------

def _random_instance(rng, n):
    """A random formula on ``n`` variables with negated leaves and weights."""
    f = random_formula(rng, n) if n > 1 else leaf(1)
    negated = [bool(b) for b in rng.integers(0, 2, n)]
    f = fold(f, lambda g: leaf(g.var, negated[g.var - 1]),
             lambda parts: gate(AND, parts), lambda parts: gate(OR, parts))
    weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
               for i in range(n)}
    return f, weights


def _oracle_sides(f, inputs, weights):
    """Each input's ``(bits, value, p, q)`` without the sweep's tables: the value
    from ``eval_formula`` and R = p / q from series-parallel reduction of the
    network that value connects."""
    hosts = {1: (formula_graph(f, weights), PRIMAL), 0: (dual_network(f, weights), DUAL)}
    sides = []
    for x in inputs:
        value = eval_formula(f, x)
        host, polarity = hosts[value]
        r = effective_resistance(subgraph(host, selector_from_assignment(host, x, polarity)),
                                 EXACT_SP)
        sides.append((x, value, r.numerator, r.denominator))
    return sides


def _brute_maxima(f, inputs, weights):
    """(max, first input attaining it) of R over the 1-inputs and of R' and the
    unit cut over the 0-inputs, in the order given: each value and resistance
    from :func:`_oracle_sides`, each cut from max-flow."""
    unit = formula_graph(f)
    best = {"r": (None, None), "r_dual": (None, None), "c": (None, None)}
    for x, value, p, q in _oracle_sides(f, inputs, weights):
        found = {"r" if value else "r_dual": Fraction(p, q)}
        if not value:
            found["c"] = cut_size(unit, x, MAXFLOW)
        for name, v in found.items():
            if best[name][0] is None or v > best[name][0]:
                best[name] = (v, x)
    return best


def _shuffled_inputs(rng, inputs):
    inputs = list(inputs)
    return [inputs[i] for i in rng.permutation(len(inputs))]


@pytest.mark.parametrize("seed", range(24))
def test_sweeps_match_a_brute_force_loop_on_random_formulas(seed):
    rng = np.random.default_rng([seed, 30])
    f, weights = _random_instance(rng, 1 + seed % 7)
    inputs = _shuffled_inputs(rng, all_inputs(f.n_vars))
    best = _brute_maxima(f, inputs, weights)
    rep = compute_bounds(f, weights, explicit_domain(inputs))
    assert (rep.r_max, rep.attain_r) == best["r"]
    assert (rep.r_dual_max, rep.attain_r_dual) == best["r_dual"]
    assert (rep.c_max, rep.attain_c) == best["c"]
    ext = witness_extrema(build_span_program(formula_graph(f, weights)), inputs, f,
                          include_approx=False)
    (r, attain_r), (rd, attain_rd) = best["r"], best["r_dual"]
    assert (ext.w_plus, ext.attain_plus) == (None if r is None else r / 2, attain_r)
    assert (ext.w_minus, ext.attain_minus) == (None if rd is None else 2 * rd, attain_rd)


@pytest.mark.parametrize("seed", range(16))
def test_sweeps_match_a_brute_force_loop_on_composed_domains(seed):
    rng = np.random.default_rng([seed, 31])
    while True:
        levels = [(str(rng.choice(["and", "or"])), int(n), int(rng.integers(1, n + 1)))
                  for n in rng.integers(2, 5, 1 + seed % 3)]
        if count_composed_domain(levels) <= 400:
            break
    f = composed_formula(levels)
    inputs = list(promise_domain(levels))
    best = _brute_maxima(f, inputs, None)
    rep = verify_resistance_product(levels)
    assert (rep.r_max, rep.r_dual_max) == (best["r"][0], best["r_dual"][0])
    shuffled = _shuffled_inputs(rng, inputs)
    best = _brute_maxima(f, shuffled, None)
    rep = compute_bounds(f, domain=explicit_domain(shuffled))
    assert ((rep.r_max, rep.attain_r), (rep.r_dual_max, rep.attain_r_dual),
            (rep.c_max, rep.attain_c)) == (best["r"], best["r_dual"], best["c"])


def test_sweeps_refuse_a_formula_not_numbered_from_x1():
    f = Formula(AND, children=(leaf(2), leaf(3)))
    program = build_span_program(formula_graph(f))
    with pytest.raises(FormulaError, match="evaluation needs a canonically numbered formula"):
        compute_bounds(f)
    with pytest.raises(FormulaError, match="evaluation needs a canonically numbered formula"):
        witness_extrema(program, all_inputs(2), f)


# ---------------------------------------------------------------------------
# the tabled sweep: repeated sub-inputs, ties, leaf children, and two mutants
# ---------------------------------------------------------------------------

def _with_repeats(rng, inputs):
    """``inputs`` with a third of them again, all in shuffled order."""
    inputs = list(inputs)
    again = [inputs[i] for i in rng.choice(len(inputs), size=len(inputs) // 3 + 1)]
    return _shuffled_inputs(rng, inputs + again)


def _table_cases():
    """(name, formula, weights, inputs) on which each root child sees the same
    slice of bits many times."""
    rng = np.random.default_rng(31)
    cases = []
    for n in (8, 9, 10, 11, 12):  # random weighted formulas, sampled inputs
        f, weights = _random_instance(rng, n)
        drawn = [tuple(row) for row in rng.integers(0, 2, (160, n)).tolist()]
        cases.append((f"random N={n}", f, weights, _with_repeats(rng, drawn)))
    for n in (6, 12):  # two equal OR siblings, each leaf weighted and negated at random
        _f, weights = _random_instance(rng, n)
        f = fold(uniform_formula(AND, (2, n // 2)), lambda g: leaf(g.var, bool(rng.integers(2))),
                 lambda parts: gate(AND, parts), lambda parts: gate(OR, parts))
        drawn = [tuple(row) for row in rng.integers(0, 2, (160, n)).tolist()]
        cases.append((f"two equal siblings N={n}", f, weights, _with_repeats(rng, drawn)))
    for f in (build_nand_tree(2), build_nand_tree(3), uniform_formula(OR, (3, 2))):
        # unit weights and symmetric children: many inputs tie for each maximum
        inputs = list(all_inputs(f.n_vars))
        cases.append((f"symmetric {f}", f, None, inputs))
        cases.append((f"symmetric {f}, shuffled", f, None, _with_repeats(rng, inputs)))
    for f in (leaf(1), leaf(1, negated=True), gate(AND, [leaf(1), leaf(2, True), leaf(3)]),
              gate(OR, [leaf(1, True), leaf(2), leaf(3), leaf(4, True)])):
        weights = {f"x{i + 1}": Fraction(i + 2, 3) for i in range(f.n_vars)}
        inputs = _with_repeats(rng, all_inputs(f.n_vars))
        cases.append((f"leaf children {f}", f, weights, inputs))
    return cases


TABLE_CASES = _table_cases()


def _check_tables(f, weights, inputs):
    """The tabled sweep against per-input evaluation and reduction, and every
    maximum and first attaining input of both sweeps against the brute-force
    loop."""
    sides = list(electrical.live_sides(f, electrical._leaf_pairs(f, weights), inputs))
    assert sides == _oracle_sides(f, inputs, weights)
    best = _brute_maxima(f, inputs, weights)
    rep = compute_bounds(f, weights, explicit_domain(inputs))
    assert ((rep.r_max, rep.attain_r), (rep.r_dual_max, rep.attain_r_dual),
            (rep.c_max, rep.attain_c)) == (best["r"], best["r_dual"], best["c"])
    ext = witness_extrema(build_span_program(formula_graph(f, weights)), inputs, f,
                          include_approx=False)
    (r, attain_r), (rd, attain_rd) = best["r"], best["r_dual"]
    assert (ext.w_plus, ext.attain_plus) == (None if r is None else r / 2, attain_r)
    assert (ext.w_minus, ext.attain_minus) == (None if rd is None else 2 * rd, attain_rd)
    return best


@pytest.mark.parametrize("name, f, weights, inputs", TABLE_CASES,
                         ids=[case[0] for case in TABLE_CASES])
def test_tabled_sweep_matches_evaluation_and_reduction(name, f, weights, inputs):
    best = _check_tables(f, weights, inputs)
    if name.startswith("symmetric"):
        # the maxima tie on several inputs, and the first of them in the list is kept
        for key, value in (("r", 1), ("r_dual", 0)):
            top, first = best[key]
            tied = [x for x, v, p, q in _oracle_sides(f, inputs, None)
                    if v == value and Fraction(p, q) == top]
            assert len(set(tied)) > 1 and first == tied[0]


def test_side_maxima_keeps_the_first_of_equal_pairs():
    # one R as different int pairs: the first input in the stream keeps the maximum
    sides = [((0,), 1, 1, 2), ((1,), 1, 2, 4), ((2,), 0, 3, 1), ((3,), 0, 6, 2),
             ((4,), 1, 1, 3), ((5,), 0, 5, 2)]
    best = formula_module.side_maxima(sides, odd=(1, lambda bits: bits[0] % 2))
    assert best == {"r": (Fraction(1, 2), (0,)), "r_dual": (Fraction(3), (2,)),
                    "odd": (1, (1,))}
    assert formula_module.side_maxima([], odd=(1, len)) == {
        "r": (None, None), "r_dual": (None, None), "odd": (None, None)}


def _mutant(old, new):
    """``electrical.live_sides`` with ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(electrical.live_sides))
    assert source.count(old) == 1
    namespace = dict(vars(electrical))
    exec(compile(source.replace(old, new), electrical.__file__, "exec"), namespace)
    return namespace["live_sides"]


MUTANTS = {
    "key shifted by one bit": ("key = bits[lo:hi]", "key = bits[lo + 1:hi + 1]"),
    "sibling reuses a table": (
        "child._order, {}))",
        "child._order, parts[-1][4] if parts and parts[-1][4] is not None else {}))"),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_table_mutants_fail_the_table_checks(mutant, monkeypatch):
    live_sides = _mutant(*MUTANTS[mutant])
    for module in (electrical, bounds, spanprog):
        monkeypatch.setattr(module, "live_sides", live_sides)
    failed = []
    for name, f, weights, inputs in TABLE_CASES:
        try:
            _check_tables(f, weights, inputs)
        except AssertionError:
            failed.append(name)
    assert failed
