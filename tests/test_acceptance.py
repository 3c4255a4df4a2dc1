"""End-to-end acceptance runs: one test per verification suite.

Each test executes the corresponding suite from formulaflow.verify at its
full pinned size and tolerance through ``run_suite``, the runner behind the
``formulaflow verify`` command, which prints the one-line outcome (run
pytest with -s or check the captured output).  The perturbation tests at the
end knock one production route a hair off for each failure check of each
suite and check that the suite then fails there, so every oracle is shown to
be live.
"""

import ast
import dataclasses
import inspect
import operator
from fractions import Fraction
from itertools import product

import pytest

from formulaflow import (
    approx_negative_witness_reference,
    approx_positive_witness_reference,
    bounds,
    build_span_program,
    electrical,
    eval_formula,
    formula_graph,
    linalg,
    negative_witness,
    parse_formula,
    positive_witness,
    verify,
)
from formulaflow.extended import INF
from formulaflow.formula import Formula
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
    # exact reference within 1e-7 on <= 6-edge instances, and there each
    # exact error is the reciprocal of the other kind's exact witness size
    _run("approx-witness")


def test_12_flow_axioms_and_decomposition():
    # optimal flows: exact axioms, energy equal to the effective resistance,
    # exact recomposition, path coefficients summing to one
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


def _error_plus_hair(fn):
    # (error, size) with the error a hair off: inside the 1e-7 float gap check
    def wrapped(*args, **kwargs):
        err, size = fn(*args, **kwargs)
        return err + HAIR, size
    return wrapped


def _drop_last_path(fn):
    return lambda net, budget: fn(net, budget)[:-1]


def _energy_plus_hair(fn):
    def wrapped(sub):
        flow, energy = fn(sub)
        return flow, energy + HAIR
    return wrapped


def _one_path_flow(fn):
    """A valid but non-optimal unit flow: all of it on the first s-t path,
    reported with its true energy."""
    def wrapped(sub):
        values, here = {}, sub.s
        for e in electrical.simple_st_paths(sub)[0]:
            there = e.v if e.u == here else e.u
            values[(here, there, e.label)] = 1
            here = there
        flow = electrical.flow_from_directed(values)
        return flow, electrical.flow_energy(sub, flow)
    return wrapped


def _squared_values(fn):
    # bound figures missing their square root double every fitted exponent
    return lambda sizes, values: fn(sizes, [v * v for v in values])


def _unit_weights_only(wrap):
    """Apply ``wrap`` only to the calls made with ``unit_weights=True``."""
    def outer(fn):
        shifted = wrap(fn)
        return lambda *args, **kwargs: (shifted if kwargs.get("unit_weights") else fn)(
            *args, **kwargs)
    return outer


def _one_short(fn):
    return lambda f: fn(f) - 1


def _first_path_as_cycle(fn):
    # a path misfiled as a cycle: the flow still recomposes
    def wrapped(flow):
        (coeff, _kind, edges), *rest = fn(flow)
        return [(coeff, "cycle", edges), *rest]
    return wrapped


def _spurious_cycles(fn):
    # a piece and its negation: the flow still recomposes, the paths still sum to one
    def wrapped(flow):
        pieces = fn(flow)
        edges = pieces[0][2]
        return [*pieces, (HAIR, "cycle", edges), (-HAIR, "cycle", edges)]
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
    # the leaf's product is exactly N = 1
    "weight-certificates/product": (verify, "optimal_weights", _shift_field("bound", _hair),
                                    "product exceeds N on x1"),
    # the max-flow backend only, so the two cut routes disagree
    "nand-cut": (electrical, "_max_flow_value", _plus_hair, "d=0 x=(0,)"),
    "reference-instance": (verify, "fault_complexity", _shift_field("f_a", _hair),
                           "value=1, F_A=4000000001/1000000000"),
    "fault-bound": (verify, "subtree_resistance", _plus_hair, "violated at"),
    "resistance-product": (bounds, "formula_resistance", _plus_hair, "[('and', 2, 1)]: "),
    "example-families": (bounds, "cut_size", _plus_hair, "line n="),
    "example-families/exponents": (verify, "exponent_fit", _squared_values,
                                   "line exponents 1.000/0.500"),
    "example-families/balloon": (verify, "compute_bounds",
                                 _unit_weights_only(_shift_field("r_max", _hair)),
                                 "balloon n=4"),
    "bound-dominance": (bounds, "formula_resistance", _plus_hair, "ordering violated"),
    "game-strategy": (verify, "simulate_game",
                      _shift_field("wins", lambda wins: wins - 1), "d=2: lost 1 games"),
    # the ceiling is about 50x the mean cost, so the route misreports its own check
    "game-strategy/ceiling": (verify, "simulate_game", _shift_field("bound_ok", operator.not_),
                              "d=2: mean cost"),
    "game-strategy/factor-two": (
        verify, "simulate_game", _shift_field("guarantee_violations", lambda v: v + 1),
        "d=2: selection guarantee violated"),
    "approx-witness": (verify, "approx_positive_witness",
                       _shift_field("size", _float_hair), "solver/reference gap"),
    # (x1|x2)&x3&x4's longest path meets its cap, fan-in ** AND depth, exactly
    "approx-witness/path": (verify, "longest_self_avoiding_path", _plus_hair,
                            "path bound violated"),
    # an OR depth one short puts the negative-size cap a level too low
    "approx-witness/size": (Formula, "or_depth", _one_short, "size bound violated"),
    "approx-witness/duality": (verify, "approx_positive_witness_reference", _error_plus_hair,
                               "duality violated"),
    "flow-decomposition": (verify, "optimal_flow", _energy_plus_hair, "energy mismatch"),
    "flow-decomposition/thomson": (verify, "optimal_flow", _one_path_flow,
                                   "energy above the effective resistance"),
    "flow-decomposition/recomposition": (
        verify, "recompose",
        _shift_field("values", lambda values: {k: v + HAIR for k, v in values.items()}),
        "recomposition mismatch"),
    "flow-decomposition/coefficients": (verify, "decompose_flow", _first_path_as_cycle,
                                        "path coefficients sum != 1"),
    "flow-decomposition/cycles": (verify, "decompose_flow", _spurious_cycles,
                                  "optimal flow decomposed with a cycle"),
}


def test_every_suite_has_a_perturbation():
    assert {case.partition("/")[0] for case in PERTURBATIONS} == set(CRITERIA)


def test_every_failure_site_has_a_perturbation():
    # one case per ``raise SuiteFailure(...)`` in the suites, so none is unreachable
    sites = [node for node in ast.walk(ast.parse(inspect.getsource(verify)))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "SuiteFailure"]
    assert len(sites) == len(PERTURBATIONS)


@pytest.mark.parametrize("case", list(PERTURBATIONS))
def test_perturbed_route_fails_its_suite(case, monkeypatch):
    module, attr, wrap, detail = PERTURBATIONS[case]
    name = case.partition("/")[0]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    result = run_criterion(name)
    assert result.name == name
    assert result.passed is False, result.detail
    assert result.detail.startswith(detail), result.detail


def test_duality_check_moves_off_one_under_a_scaled_kernel(monkeypatch):
    # the references and the exact witnesses share one grounded kernel, so
    # error * witness size reads 1 whatever the kernel returns; the suite's
    # product against the resistance fold does not
    f = parse_formula("(x1|x2)&x3")
    program = build_span_program(formula_graph(f))

    def products():
        fold, shared = [], []
        for bits in product((0, 1), repeat=3):
            err_p, _ = approx_positive_witness_reference(program, bits)
            err_n, _ = approx_negative_witness_reference(program, bits)
            fold.append(verify._duality_product(f, bits, err_p, err_n))
            shared.append(err_n * positive_witness(program, bits).size if eval_formula(f, bits)
                          else err_p * negative_witness(program, bits).size)
        return fold, shared

    assert products() == ([1] * 8, [1] * 8)
    solve = linalg.solve_grounded_laplacian
    monkeypatch.setattr(linalg, "solve_grounded_laplacian",
                        lambda n, edges, rhs: [3 * v for v in solve(n, edges, rhs)])
    fold, shared = products()
    assert shared == [1] * 8
    assert sorted(set(fold)) == [Fraction(1, 3), 3]
