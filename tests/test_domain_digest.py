"""The domain maxima and promise membership against one golden digest,
recorded before ``compute_bounds``, ``verify_resistance_product`` and
``witness_extrema`` shared one side-maxima sweep and before promise membership
walked its levels bottom-up: every result must keep its exact ``repr``
(values, attaining inputs, float bounds).  The one exception is the float
maxima of the approximate solvers, which move in the last bits with the
solver's method: the digest hashes those extrema without them, and each is
checked against the exact maximum it approximates at relative 1e-9."""

import dataclasses
import hashlib
from fractions import Fraction
from functools import partial

import numpy as np

from formulaflow import (
    build_nand_tree,
    build_span_program,
    compute_bounds,
    composed_formula,
    eval_formula,
    example_family,
    explicit_domain,
    export,
    formula_graph,
    from_json,
    gate,
    leaf,
    promise_domain,
    random_formula,
    verify_resistance_product,
    witness_extrema,
)
from formulaflow.formula import AND, OR, all_inputs, fold
from formulaflow.verify import PRODUCT_STRUCTURES

GOLDEN_DIGEST = "28aad20f4879958db8497e578f69b6b8bc0d3905ba26a9e24cd6f0e414227b9a"


def _weighted_random(rng, n):
    f = random_formula(rng, n)
    f = fold(f, lambda g: leaf(g.var, negated=bool(rng.integers(2))),
             partial(gate, AND), partial(gate, OR))
    weights = {f"x{i + 1}": Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
               for i in range(n)}
    return f, weights


def _bound_cases():
    """Yield (label, formula, weights, domain) for every compute_bounds input."""
    for n in (1, 4, 9, 16, 25):
        for h in range(1, n + 1):
            fam = example_family("line", n=n, h=h)
            yield f"line {n} {h}", fam.formula, fam.weights, fam.domain
    for n in (2, 4, 8, 16):
        fam = example_family("balloon", n=n)
        yield f"balloon {n}", fam.formula, fam.weights, fam.domain
    for d in range(5):
        for k in range(d // 2 + 1):
            fam = example_family("nand-kfault", d=d, k=k)
            yield f"kfault {d} {k}", fam.formula, fam.weights, fam.domain
        yield f"nand {d}", build_nand_tree(d), None, None
    rng = np.random.default_rng(1212)
    for i in range(20):
        f, weights = _weighted_random(rng, int(rng.integers(1, 11)))
        yield f"random {i}", f, weights, None
        inputs = list(all_inputs(f.n_vars))
        for side in (0, 1):
            members = [x for x in inputs if eval_formula(f, x) == side]
            yield f"random {i} side {side}", f, weights, explicit_domain(members)


def _label(kind, n, h, levels):
    return f"PromiseDomain(kind={kind!r}, n={n!r}, h={h!r}, levels={levels!r})"


def _golden_digest():
    digest = hashlib.sha256()
    for label, f, weights, domain in _bound_cases():
        for unit in (False, True) if weights else (False,):  # None is unit already
            rep = compute_bounds(f, weights, domain, unit_weights=unit)
            digest.update(f"{label} {unit}|{rep!r}".encode())
    for levels in PRODUCT_STRUCTURES:
        digest.update(f"{levels}|{verify_resistance_product(levels)!r}".encode())
    rng = np.random.default_rng(612)
    for i in range(20):
        f, weights = _weighted_random(rng, int(rng.integers(1, 7)))
        host = formula_graph(f, weights)
        inputs = list(all_inputs(f.n_vars))
        for net in (host, from_json(export(host))):
            program = build_span_program(net)
            for approx in (False, True):
                ext = witness_extrema(program, inputs, f, include_approx=approx)
                if approx:
                    # on every input the least-error witness of the right side
                    # is the exact one, so the maxima are the exact maxima
                    for got, want in ((ext.approx_plus, ext.w_plus),
                                      (ext.approx_minus, ext.w_minus)):
                        assert (got is None) == (want is None)
                        assert want is None or abs(got - float(want)) <= 1e-9 * float(want)
                    ext = dataclasses.replace(ext, approx_plus=None, approx_minus=None)
                digest.update(f"extrema {i} {approx}|{ext!r}".encode())
    # each membership list is labelled as it was recorded, by the repr of the
    # promise type of the time, which the label alone still spells
    for n in range(2, 9):
        for kind in (AND, OR):
            for h in range(1, n + 1):
                dom = promise_domain([(kind, n, h)])
                members = [x in dom for x in all_inputs(n)]
                digest.update(f"{_label(kind, n, h, ())}|{members}".encode())
    for levels in PRODUCT_STRUCTURES:
        n = composed_formula(levels).n_vars
        if n <= 12:
            dom = promise_domain(levels)
            members = [x in dom for x in all_inputs(n)]
            digest.update(f"{_label('composed', 0, 0, dom.levels)}|{members}".encode())
    return digest.hexdigest()


def test_domain_results_match_golden_digest():
    # compute_bounds, weighted and (where weights are given) unit, on line
    # n = 1, 4, 9, 16, 25 (every h), balloon n = 2, 4, 8, 16, every nand-kfault with d <= 4, the full domain
    # of the NAND trees with d <= 4, and 20 random weighted formulas (N <= 10,
    # some leaves negated) over their full domain and over explicit domains of
    # only 1-inputs and only 0-inputs; verify_resistance_product on every
    # PRODUCT_STRUCTURES entry; witness_extrema on 20 random weighted formulas
    # (N <= 6), with and without approx, on the host and on its exported copy
    # (the approximate maxima against the exact ones at 1e-9, not by digest);
    # membership on every input of the and/or promises with
    # 2 <= n <= 8 and every h, and of the composed structures with N <= 12
    assert _golden_digest() == GOLDEN_DIGEST
