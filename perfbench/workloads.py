"""The four workloads: inputs generated from a seed, and one job routine each.

A workload is a list of groups.  A group shares one set-up (for example the
networks of one formula) among its jobs, one job per input.  The set-up runs
inside the group's first job, because users pay graph building for every
formula they submit.  Every job checks its routes against each other and
returns how many items it completed.

Sizes are fixed per workload; the seed draws formula shapes, weights, inputs
and game seeds.  So seeds change the instances but not the amount of work,
which keeps runs with different seeds comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from formulaflow import (
    DUAL,
    INF,
    PRIMAL,
    as_float,
    build_nand_tree,
    eval_formula,
    is_inf,
    random_formula,
)

from check import APPROX_TOL


@dataclass
class Group:
    name: str
    build: object  # build(lib, chk) -> context shared by the group's jobs
    run: object  # run(lib, chk, context, x) -> items completed
    inputs: list


@dataclass
class Workload:
    name: str
    groups: list
    warmup: Group  # one small group; its first job is the warm-up job
    tamper: tuple  # (lib attribute, result corruption) for the self-test

    @property
    def n_jobs(self) -> int:
        return sum(len(g.inputs) for g in self.groups)


def as_input(i: int, n: int) -> tuple:
    """The n-bit input that spells ``i``, most significant bit first."""
    return tuple((i >> (n - 1 - j)) & 1 for j in range(n))


def all_inputs(n: int) -> list:
    return [as_input(i, n) for i in range(1 << n)]


def random_weights(rng, n: int) -> dict:
    return {f"x{i + 1}": Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            for i in range(n)}


def random_bits(rng, n: int, density: float) -> tuple:
    return tuple(int(b) for b in rng.random(n) < density)


def sample_inputs(rng, n: int, k: int) -> list:
    """Every input when there are at most ``k``, else ``k`` distinct ones."""
    if 1 << n <= k:
        return all_inputs(n)
    return [as_input(int(i), n) for i in sorted(rng.choice(1 << n, size=k, replace=False))]


def no_context(_lib, _chk):
    return None


def half(r):
    return INF if r is INF else r / 2


def twice(r):
    return INF if r is INF else 2 * r


# ---------------------------------------------------------------------------
# witness-sweep: many tiny exact solves
# ---------------------------------------------------------------------------

WITNESS_SIZES = range(2, 13)
# Many networks with a sample of inputs each, rather than one network with
# every input: the cost of a job depends on the shape (how the vertices split
# between primal and dual network, and the paths flow decomposition
# enumerates), so 32 shapes per size keep a pass's work and its slowest jobs
# steady from seed to seed.
WITNESS_NETWORKS = 32
WITNESS_INPUTS = 8


def build_witness(f, weights, lib, _chk):
    net = lib.formula_graph(f, weights)
    return net, lib.dual_network(f, weights), lib.build_span_program(net)


def witness_job(lib, chk, ctx, bits):
    """w+ = R/2 and w- = 2R' against series-parallel reduction and the float
    Laplacian, then the optimal flow and its decomposition on whichever of
    the two selections connects its terminals."""
    net, dual, program = ctx
    pos = lib.positive_witness(program, bits)
    neg = lib.negative_witness(program, bits)
    sub = lib.subgraph(net, lib.selector(net, bits, PRIMAL))
    dsub = lib.subgraph(dual, lib.selector(dual, bits, DUAL))
    r = lib.reduce_sp(sub)
    rd = lib.reduce_sp(dsub)
    chk.exact("w+ = R/2", pos.size, half(r))
    chk.exact("w- = 2R'", neg.size, twice(rd))
    chk.close("float w+", pos.size_float, as_float(half(r)))
    chk.close("float w-", neg.size_float, as_float(twice(rd)))
    chk.close("float R", lib.laplacian_float(sub), as_float(r))
    connected, resistance = (sub, r) if r is not INF else (dsub, rd)
    flow, energy = lib.optimal_flow(connected)
    chk.exact("flow energy = R", energy, resistance)
    pieces = lib.decompose_flow(flow)
    chk.exact("recomposed flow", lib.recompose(pieces).values, flow.values)
    chk.exact("path coefficients sum",
              sum((c for c, kind, _ in pieces if kind == "path"), Fraction(0)), 1)
    chk.holds("optimal flow has no cycle", all(k == "path" for _c, k, _e in pieces))
    return 1


def witness_sweep(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    groups = []
    for n in WITNESS_SIZES:
        for _ in range(WITNESS_NETWORKS):
            f = random_formula(rng, n)
            weights = random_weights(rng, n)
            groups.append(Group(f"random N={n}", partial(build_witness, f, weights),
                                witness_job, sample_inputs(rng, n, WITNESS_INPUTS)))
    return Workload("witness-sweep", groups, groups[0],
                    ("positive_witness", _tamper_size))


# ---------------------------------------------------------------------------
# large-network: a few big instances through every route
# ---------------------------------------------------------------------------

# The NAND tree with d = 12 is left out: its jobs took a third of a pass, and
# the cost of its random-input jobs changed twofold from seed to seed.  Its
# graph build is measured as the traced run's scale.formula_graph.N4096_ms.
NAND_DEPTHS = (4, 5, 6, 7, 8, 9, 10, 11)
RANDOM_SIZES = (256, 512, 1024, 2048)
# per density and instance: cut and reduction costs depend on the input, so
# several random inputs keep the median job steady from seed to seed
RANDOM_INPUTS = 4
# Exact witnesses grow as V^3 with growing rationals (about 1 s a call at
# N = 128).  They run on the all-ones and all-zeros inputs, which select
# whole networks, of the NAND trees: fixed shapes, so the same cost from seed
# to seed.  optimal_flow repeats positive_witness's elimination on the same
# network, so it stops one size earlier.
EXACT_MAX_N = 128
FLOW_MAX_N = 64
CUT_WITNESS_MAX_N = 32  # witness_cut at d = 4 (brute force) and d = 5 (max-flow)


@dataclass(frozen=True)
class Instance:
    formula: object
    weights: dict | None


@dataclass(frozen=True)
class Built:
    formula: object
    weights: dict | None
    net: object
    dual: object
    program: object


def build_large(inst, lib, chk):
    """Text round trip and both networks, once per instance."""
    f = lib.parse_formula(lib.render(inst.formula))
    chk.exact("parse(render(f)) == f", f, inst.formula)
    net = lib.formula_graph(f, inst.weights)
    program = lib.build_span_program(net) if f.n_vars <= EXACT_MAX_N else None
    return Built(f, inst.weights, net, lib.dual_network(f, inst.weights), program)


def large_job(lib, chk, ctx, bits):
    """Both selections and every resistance and cut route on one input;
    exact witnesses on whole networks of the smaller instances."""
    f, w, net, dual = ctx.formula, ctx.weights, ctx.net, ctx.dual
    sub = lib.subgraph(net, lib.selector(net, bits, PRIMAL))
    dsub = lib.subgraph(dual, lib.selector(dual, bits, DUAL))
    value = lib.eval_formula(f, bits)
    r = lib.formula_resistance(f, bits, w)
    rd = lib.formula_resistance(f, bits, w, dual=True)
    chk.holds("primal connected iff value 1", (r is not INF) == (value == 1))
    chk.holds("dual connected iff value 0", (rd is not INF) == (value == 0))
    chk.exact("exact-sp R = fold R", lib.reduce_sp(sub), r)
    chk.exact("exact-sp R' = fold R'", lib.reduce_sp(dsub), rd)
    chk.close("float R", lib.laplacian_float(sub), as_float(r))
    chk.close("float R'", lib.laplacian_float(dsub), as_float(rd))
    if value == 0:
        cut = lib.cut_maxflow(net, bits)
        chk.exact("max-flow cut = recursion cut", cut, lib.cut_recursion(net, bits))
        if f.n_vars <= CUT_WITNESS_MAX_N:
            kappa = lib.witness_cut(net, bits)
            chk.exact("witness cut size", len(kappa.crossing_edges(net)), cut)
            chk.holds("witness cut separates",
                      not kappa.crossing_edges(sub) and kappa.kappa[net.s] == 1)
    if ctx.program is not None and len(set(bits)) == 1:
        chk.exact("w+ = R/2", lib.positive_witness(ctx.program, bits).size, half(r))
        chk.exact("w- = 2R'", lib.negative_witness(ctx.program, bits).size, twice(rd))
        if value == 1 and f.n_vars <= FLOW_MAX_N:
            _flow, energy = lib.optimal_flow(sub)
            chk.exact("flow energy = R", energy, r)
    return 1


def large_network(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    instances = [Instance(build_nand_tree(d), None) for d in NAND_DEPTHS]
    for i, n in enumerate(RANDOM_SIZES):
        instances.append(Instance(random_formula(rng, n),
                                  random_weights(rng, n) if i % 2 else None))
    groups = []
    for inst in instances:
        n = inst.formula.n_vars
        inputs = [(1,) * n, (0,) * n]
        inputs += [random_bits(rng, n, density)
                   for density in (0.5, 0.9) for _ in range(RANDOM_INPUTS)]
        groups.append(Group(f"N={n}", partial(build_large, inst), large_job, inputs))
    return Workload("large-network", groups, groups[0],
                    ("formula_resistance", _tamper_fraction))


# ---------------------------------------------------------------------------
# domain-sweep: folds over whole domains, no linear algebra
# ---------------------------------------------------------------------------

# a selection of the resistance-product suite's structures, sized so that no
# single sweep dominates a pass
PRODUCT_LEVELS = (
    (("and", 3, 2),), (("and", 5, 2),), (("and", 8, 2),), (("and", 12, 3),),
    (("or", 3, 2),), (("or", 5, 3),), (("or", 8, 4),), (("or", 12, 4),),
    (("or", 2, 1), ("and", 2, 1)), (("and", 2, 2), ("or", 3, 1)),
    (("or", 3, 1), ("or", 2, 2)), (("and", 2, 1), ("or", 2, 1), ("and", 2, 2)),
    (("or", 2, 2), ("and", 2, 1), ("or", 2, 1)), (("and", 8, 8), ("or", 8, 8)),
)
LINE_SIZES = (4, 9, 16, 25)
BALLOON_SIZES = (4, 8, 16)
CERT_SIZES = (8, 10, 12, 14)
GAME_DEPTHS = (2, 3, 4, 5, 6, 7, 8, 9, 10)
GAME_INSTANCES = 4  # per depth
GAME_REPS = 1000
# Leaf density of the winnable game instances: at (sqrt(5) - 1) / 2 a NAND
# tree's value stays near balanced at every depth, whereas at 0.5 it drifts to
# one value and drawing a winnable input took up to a hundred tries at d = 9,
# a seed-dependent share of set-up time.
GAME_DENSITY = (math.sqrt(5) - 1) / 2


def product_job(lib, chk, _ctx, levels):
    report = lib.verify_resistance_product(levels)
    expected = Fraction(1)
    for _kind, n, h in levels:
        expected *= Fraction(n, h)
    chk.exact("max R * max R' = prod N / prod h", report.product, expected)
    chk.holds("report.equal", report.equal)
    return report.domain_size


def dominance(chk, rep):
    """With unit weights R' <= C <= |E| on every domain."""
    chk.holds("R' <= C <= |E|", rep.r_dual_max <= rep.c_max <= rep.n_edges)


def line_job(lib, chk, _ctx, n):
    h = math.isqrt(n)
    fam = lib.example_family("line", n=n, h=h)
    rep = lib.compute_bounds(fam.formula, fam.weights, fam.domain)
    chk.exact("line max R", rep.r_max, n)
    chk.exact("line max R'", rep.r_dual_max, Fraction(1, h))
    chk.exact("line max C", rep.c_max, 1)
    dominance(chk, lib.compute_bounds(fam.formula, None, fam.domain, unit_weights=True))
    return 2 * len(fam.domain.items)


def balloon_job(lib, chk, _ctx, n):
    fam = lib.example_family("balloon", n=n)
    rep = lib.compute_bounds(fam.formula, fam.weights, fam.domain)
    unit = lib.compute_bounds(fam.formula, fam.weights, fam.domain, unit_weights=True)
    chk.exact("balloon max R", rep.r_max, 2 * n)
    chk.holds("balloon max R' <= 1", rep.r_dual_max <= 1)
    chk.exact("balloon max C", rep.c_max, n)
    chk.exact("balloon unit max R", unit.r_max, n + 1)
    dominance(chk, unit)
    return 2 * len(fam.domain.items)


def certificate_job(lib, chk, _ctx, job):
    """The closed-form certificate against the exhaustive extrema sweep."""
    f, domain = job
    cert = lib.optimal_weights(f)
    program = lib.build_span_program(lib.formula_graph(f, cert.weights))
    ext = lib.witness_extrema(program, domain, f, include_approx=False)
    chk.exact("swept W+ = certified W+", ext.w_plus, cert.w_plus)
    chk.exact("swept W- = certified W-", ext.w_minus, cert.w_minus)
    chk.exact("bound = W+ W-", cert.bound, cert.w_plus * cert.w_minus)
    chk.holds("W+ W- <= N", cert.bound <= f.n_vars)
    chk.cert_ratio(cert.bound, f.n_vars)
    return len(domain)


def _fault_checks(lib, chk, tree, d, bits):
    """Fault complexities against evaluation and the resistance bound."""
    rep = lib.fault_complexity(d, bits)
    chk.exact("winnable = value", rep.winnable, lib.eval_formula(tree, bits) == 1)
    factor = 1 if d % 2 == 0 else 2
    r = lib.formula_resistance(tree, bits)
    rd = lib.formula_resistance(tree, bits, dual=True)
    chk.holds("R <= F_A", is_inf(rep.f_a) or r <= factor * rep.f_a)
    chk.holds("R' <= F_B", is_inf(rep.f_b) or rd <= factor * rep.f_b)
    return r


def game_job(lib, chk, tree, job):
    d, bits, other, seed = job
    r = _fault_checks(lib, chk, tree, d, bits)
    _fault_checks(lib, chk, tree, d, other)
    stats = lib.simulate_game(d, bits, seed=seed, reps=GAME_REPS, keep_transcripts=False)
    chk.exact("every game won", stats.wins, stats.reps)
    chk.holds("mean cost within bound", stats.bound_ok)
    chk.exact("select guarantee violations", stats.guarantee_violations, 0)
    exponent = d / 4.0 + (5.5 if d % 2 == 0 else 5.0)
    chk.close("game bound from fold R", stats.bound, 2.0 ** exponent * math.sqrt(float(r)))
    chk.game_slack(stats.bound, stats.mean_cost)
    return stats.reps


def domain_sweep(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    groups = [Group(f"product {levels}", no_context, product_job, [levels])
              for levels in PRODUCT_LEVELS]
    groups += [Group(f"line n={n}", no_context, line_job, [n]) for n in LINE_SIZES]
    groups += [Group(f"balloon n={n}", no_context, balloon_job, [n])
               for n in BALLOON_SIZES]
    for n in CERT_SIZES:
        groups.append(Group(f"certificate N={n}", no_context, certificate_job,
                            [(random_formula(rng, n), all_inputs(n))]))
    for d in GAME_DEPTHS:
        tree = build_nand_tree(d)
        games = [(d, _winnable(rng, tree), random_bits(rng, 1 << d, 0.5),
                  int(rng.integers(0, 2**31))) for _ in range(GAME_INSTANCES)]
        groups.append(Group(f"game d={d}", partial(_const, tree), game_job, games))
    warmup = groups[0]
    return Workload("domain-sweep", groups, warmup,
                    ("verify_resistance_product", _tamper_product))


def _winnable(rng, tree):
    while True:
        bits = random_bits(rng, tree.n_vars, GAME_DENSITY)
        if eval_formula(tree, bits) == 1:
            return bits


def _const(value, _lib, _chk):
    return value


# ---------------------------------------------------------------------------
# approx-witness: two-stage float solver against its exact reference
# ---------------------------------------------------------------------------

APPROX_SIZES = range(1, 11)
REFERENCE_MAX_N = 6
# (networks, inputs per network) for each size.  The exact reference's cost
# depends on the shape, so where it runs a pass holds many shapes with few
# inputs each.  The approximate-only jobs above outnumber the reference jobs,
# so that the median job sits well inside them and not on the boundary
# between the two kinds.
APPROX_SHAPES = {n: (48, 2) if n <= REFERENCE_MAX_N else (32, 8) for n in APPROX_SIZES}


def build_approx(f, lib, _chk):
    return f, lib.build_span_program(lib.formula_graph(f))


def approx_job(lib, chk, ctx, bits):
    f, program = ctx
    fanin = max(f.max_fanin(), 1)
    pos = lib.approx_positive_witness(program, bits)
    neg = lib.approx_negative_witness(program, bits)
    chk.holds("approx w+ within fan-in bound",
              pos.size <= 0.5 * fanin ** f.and_depth() + APPROX_TOL)
    chk.holds("approx w- within fan-in bound",
              neg.size <= 2.0 * fanin ** f.or_depth() + APPROX_TOL)
    if f.n_vars <= REFERENCE_MAX_N:
        err_p, size_p = lib.approx_positive_reference(program, bits)
        err_n, size_n = lib.approx_negative_reference(program, bits)
        chk.close("approx w+ error", pos.error, err_p, APPROX_TOL)
        chk.close("approx w+ size", pos.size, size_p, APPROX_TOL)
        chk.close("approx w- error", neg.error, err_n, APPROX_TOL)
        chk.close("approx w- size", neg.size, size_n, APPROX_TOL)
    return 1


def approx_witness(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    groups = []
    for n in APPROX_SIZES:
        networks, inputs = APPROX_SHAPES[n]
        for _ in range(networks):
            f = random_formula(rng, n) if n > 1 else build_nand_tree(0)
            groups.append(Group(f"random N={n}", partial(build_approx, f), approx_job,
                                sample_inputs(rng, n, inputs)))
    return Workload("approx-witness", groups, groups[APPROX_SHAPES[1][0]],
                    ("approx_positive_witness", _tamper_approx))


# ---------------------------------------------------------------------------
# self-test corruptions: each returns a result that is wrong by a hair
# ---------------------------------------------------------------------------

def _tamper_size(report):
    return replace(report, size=report.size + Fraction(1, 10**9))


def _tamper_fraction(value):
    return value + Fraction(1, 10**9)


def _tamper_product(report):
    return replace(report, product=report.product * Fraction(10**9 + 1, 10**9))


def _tamper_approx(report):
    return replace(report, size=report.size * (1 + 10 * APPROX_TOL),
                   error=report.error + 10 * APPROX_TOL)


WORKLOADS = {
    "witness-sweep": witness_sweep,
    "large-network": large_network,
    "domain-sweep": domain_sweep,
    "approx-witness": approx_witness,
}
