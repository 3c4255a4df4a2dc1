"""The formula constructors against one golden digest, recorded before they
shared a single shape-to-formula builder: every formula they return must keep
its exact ``repr`` (kinds, variable numbers, negations, nesting)."""

import hashlib
import itertools
from functools import partial

import numpy as np

from formulaflow import (
    compose,
    composed_formula,
    enumerate_formulas,
    gate,
    leaf,
    random_formula,
    render,
    uniform_formula,
)
from formulaflow.formula import AND, OR, fold
from formulaflow.verify import PRODUCT_STRUCTURES

GOLDEN_DIGEST = "3941133fcea4a7e661c4244d32a750d943d0f664157f7f7a9f4dbb83741ff590"


def _with_negations(f, rng):
    return fold(f, lambda g: leaf(g.var, negated=bool(rng.integers(2))),
                partial(gate, AND), partial(gate, OR))


def _constructor_outputs():
    """Yield (label, formula) for every constructor input the digest covers."""
    for depth in range(6):
        for fanins in itertools.product((2, 3, 4), repeat=depth):
            for root_kind in (AND, OR):
                yield f"uniform {root_kind} {fanins}", uniform_formula(root_kind, fanins)
    for max_fanin in (2, 3, 5):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for n in range(1, 33):
                yield f"random {max_fanin} {seed} {n}", random_formula(rng, n, max_fanin)
    for args in ((3, (2, 3), 10), (2, (2, 3, 4), None)):
        for i, f in enumerate(enumerate_formulas(*args)):
            yield f"enumerate {args} {i} {render(f)}", f
    for levels in PRODUCT_STRUCTURES:
        yield f"composed {levels}", composed_formula(levels)
    rng = np.random.default_rng(1010)
    blocks = [leaf(1), leaf(1, negated=True)]
    blocks += [_with_negations(random_formula(rng, n), rng) for n in (2, 2, 3, 3, 4, 4, 5, 6, 7, 8)]
    for outer, inner in itertools.product(blocks, repeat=2):
        yield f"compose {render(outer)} {render(inner)}", compose(outer, inner)


def _golden_digest():
    digest = hashlib.sha256()
    for label, f in _constructor_outputs():
        digest.update(f"{label}|{f!r}".encode())
    return digest.hexdigest()


def test_constructors_match_golden_digest():
    # uniform_formula on every (2,3,4) fan-in profile up to depth 5 and both
    # root kinds; random_formula for 40 seeds x N = 1..32 x max_fanin 2, 3, 5;
    # two enumerate_formulas lists (with their render); composed_formula on
    # every PRODUCT_STRUCTURES entry; compose on 144 pairs with negated leaves
    assert _golden_digest() == GOLDEN_DIGEST
