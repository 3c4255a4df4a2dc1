import json
import math
from fractions import Fraction

import pytest

from formulaflow import (
    build_nand_tree,
    compute_bounds,
    example_family,
    exponent_fit,
    verify_resistance_product,
)
from formulaflow import bounds
from formulaflow.bounds import _check_class_count, explicit_domain
from formulaflow.errors import DomainTooLargeError


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
    assert fam.domain.total == 12
    # the classes of and_promise(4, 2), by weight: all-ones last
    assert fam.domain.items == (((0, 0, 0, 0), 1), ((1, 0, 0, 0), 4), ((1, 1, 0, 0), 6),
                                ((1, 1, 1, 1), 1))


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
    assert fam.domain.total > 0
    members = {x for x, _count in fam.domain.items}
    assert (1, 1, 1, 1) in members


def test_nand_kfault_level_filter():
    fam0 = example_family("nand-kfault", d=2, k=0)
    fam1 = example_family("nand-kfault", d=2, k=1)
    assert fam0.domain.total < fam1.domain.total


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
    assert example_family("nand-kfault", d=2, k=1).domain.total == 16
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 15)
    with pytest.raises(DomainTooLargeError, match=r"2\^\(2\^2\) inputs exceeds the domain "
                                                  r"budget of 15 inputs"):
        example_family("nand-kfault", d=2, k=1)


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
    assert dom.total == 2 and dom.exhaustive


def test_compute_bounds_accepts_network():
    fam = example_family("line", n=4, h=2)
    via_formula = compute_bounds(fam.formula, fam.weights, fam.domain)
    via_network = compute_bounds(fam.network, domain=fam.domain)
    assert via_formula.r_max == via_network.r_max == 4
    assert via_formula.r_dual_max == via_network.r_dual_max
    assert via_formula.c_max == via_network.c_max
