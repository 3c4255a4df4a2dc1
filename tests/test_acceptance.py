"""End-to-end acceptance runs: one test per verification suite.

Each test executes the corresponding suite from formulaflow.verify at its
full pinned size and tolerance through ``run_suite``, the runner behind the
``formulaflow verify`` command, which prints the one-line outcome (run
pytest with -s or check the captured output).  The perturbation tests at the
end knock one production route of each suite a hair off and check that the
suite then fails, so every oracle is shown to be live.
"""

import dataclasses
from fractions import Fraction

import pytest

from formulaflow import bounds, electrical, verify
from formulaflow.extended import INF
from formulaflow.verify import CRITERIA, run_criterion, run_suite


def _run(name):
    [result] = run_suite([name])
    assert result.name == name
    assert result.passed, f"{result.name}: {result.detail}"


def test_01_witness_sizes_equal_resistances():
    # 200 random weighted series-parallel networks (<= 12 edges), all inputs:
    # w+ = R/2 and w- = 2R' exactly in rational mode, 1e-9 relative in float
    _run("witness-resistance")


def test_02_connectivity_equivalence():
    # systematic formula family, every input: subgraph connects iff value 1,
    # dual subgraph connects iff value 0
    _run("connectivity")


def test_03_weight_certificates():
    # recursive scheme on alternating trees (d <= 4) and 100 random formulas
    # (N <= 16): exhaustively verified W+ * W- <= N
    _run("weight-certificates")


def test_04_nand_cut_values():
    # every 0-instance, depths <= 4: cut size 2^(d//2) via max-flow and via
    # the structural recursion
    _run("nand-cut")


def test_05_reference_instance():
    # the depth-4 instance with leaves 1110 0011 0001 1101: value 1, F_A = 4
    _run("reference-instance")


def test_06_resistance_fault_bound():
    # exhaustive d <= 4: R <= F_A and R' <= F_B (even d), factor-2 (odd d)
    _run("fault-bound")


def test_07_resistance_product_identity():
    # exact rational equality max R * max R' = prod(N)/prod(h) on the battery
    # of level structures
    _run("resistance-product")


def test_08_example_families():
    # line family: maxima N, 1/h, 1 and bound exponents 0.5/0.25; balloon
    # family: maxima 2N, <= 1, N, and N+1 unweighted
    _run("example-families")


def test_09_bound_dominance():
    # sqrt(R R') <= sqrt(R C) <= sqrt(R |E|) with unit weights on every
    # enumerated domain of suites 4, 7, 8
    _run("bound-dominance")


def test_10_game_strategy_cost():
    # depths 2..10, 50 instances each, 1000 random-opponent games: all won,
    # mean cost within 2^(d/4+11/2) sqrt(R) / 2^(d/4+5) sqrt(R), guarantee
    # never violated
    _run("game-strategy")


def test_11_approx_witnesses_and_paths():
    # 200 random formulas (N <= 10): approximate witness sizes within the
    # fan-in/depth caps, longest path within its cap, solver matches the
    # exact reference within 1e-7 on <= 6-edge instances
    _run("approx-witness")


def test_12_flow_axioms_and_decomposition():
    # optimal flows: exact axioms, exact recomposition, path coefficients
    # summing to one
    _run("flow-decomposition")


# ---------------------------------------------------------------------------
# perturbations: each suite must FAIL once one production route is off
# ---------------------------------------------------------------------------

HAIR = Fraction(1, 10**9)


def _hair(value):
    return value if value is INF else value + HAIR


def _plus_hair(fn):
    return lambda *args, **kwargs: _hair(fn(*args, **kwargs))


def _shift_field(field, shift):
    """Wrap a route so that ``field`` of its dataclass result is shifted."""
    def wrap(fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            return dataclasses.replace(result, **{field: shift(getattr(result, field))})
        return wrapped
    return wrap


def _float_hair(value):
    # a hair measured against the suites' 1e-9 and 1e-7 relative tolerances
    return value + 1e-6


def _drop_last_path(fn):
    return lambda net, budget: fn(net, budget)[:-1]


def _energy_plus_hair(fn):
    def wrapped(sub):
        flow, energy = fn(sub)
        return flow, energy + HAIR
    return wrapped


# case -> (module, route, wrap, start of the suite's FAIL detail).  A case is
# named after its suite, or "suite/check" for a further check of that suite.
PERTURBATIONS = {
    "witness-resistance": (verify, "positive_witness", _shift_field("size", _hair),
                           "exact mismatch"),
    "witness-resistance/float-positive": (
        verify, "positive_witness", _shift_field("size_float", _float_hair),
        "float positive mismatch"),
    "witness-resistance/float-negative": (
        verify, "negative_witness", _shift_field("size_float", _float_hair),
        "float negative mismatch"),
    "connectivity": (verify, "simple_st_paths", _drop_last_path, "mismatch on"),
    "weight-certificates": (verify, "formula_resistance", _plus_hair,
                            "sweep disagrees with certificate"),
    # the max-flow backend only, so the two cut routes disagree
    "nand-cut": (electrical, "_max_flow_value", _plus_hair, "d=0 x=(0,)"),
    "reference-instance": (verify, "fault_complexity", _shift_field("f_a", _hair),
                           "value=1, F_A=4000000001/1000000000"),
    "fault-bound": (verify, "subtree_resistance", _plus_hair, "violated at"),
    "resistance-product": (bounds, "formula_resistance", _plus_hair, "[('and', 2, 1)]: "),
    "example-families": (bounds, "cut_size", _plus_hair, "line n="),
    "bound-dominance": (bounds, "formula_resistance", _plus_hair, "ordering violated"),
    "game-strategy": (verify, "simulate_game",
                      _shift_field("wins", lambda wins: wins - 1), "d=2: lost 1 games"),
    "approx-witness": (verify, "approx_positive_witness",
                       _shift_field("size", _float_hair), "solver/reference gap"),
    "flow-decomposition": (verify, "optimal_flow", _energy_plus_hair, "energy mismatch"),
    "flow-decomposition/recomposition": (
        verify, "recompose",
        _shift_field("values", lambda values: {k: v + HAIR for k, v in values.items()}),
        "recomposition mismatch"),
}


def test_every_suite_has_a_perturbation():
    assert {case.partition("/")[0] for case in PERTURBATIONS} == set(CRITERIA)


@pytest.mark.parametrize("case", list(PERTURBATIONS))
def test_perturbed_route_fails_its_suite(case, monkeypatch):
    module, attr, wrap, detail = PERTURBATIONS[case]
    name = case.partition("/")[0]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    result = run_criterion(name)
    assert result.name == name
    assert result.passed is False, result.detail
    assert result.detail.startswith(detail), result.detail
