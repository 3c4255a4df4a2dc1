"""``INF`` as a plain value, and the routes that meet an open branch.

``INF`` compares, hashes, prints, pickles and converts to float, and takes
part in no arithmetic.  The cut recursion, the alternating-tree resistance
table, the game's guarantee check and the fault-bound suite each handle an
open branch themselves; one golden digest pins their results.
"""

import copy
import hashlib
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from formulaflow import (
    INF,
    MAXFLOW,
    SP_RECURSION,
    Infinity,
    as_float,
    build_nand_tree,
    cut_size,
    fault_complexity,
    formula_graph,
    is_inf,
    select,
    simulate_game,
    subtree_resistance,
)
from formulaflow.errors import DisconnectedError


# ---------------------------------------------------------------------------
# value semantics
# ---------------------------------------------------------------------------

def test_inf_is_one_value_across_pickle_and_copy():
    assert Infinity() is INF
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert copy.deepcopy(INF) is INF
    assert copy.copy(INF) is INF
    assert copy.deepcopy({"r": [INF]})["r"][0] is INF


def test_inf_compares_hashes_and_prints_as_float_infinity():
    assert INF == math.inf and math.inf == INF
    assert not (INF != math.inf) and not (math.inf != INF)
    assert INF != -math.inf and INF != 1 and INF != Fraction(3)
    assert hash(INF) == hash(math.inf)
    assert {INF: 1}[math.inf] == 1
    assert float(INF) == math.inf and as_float(INF) == math.inf
    assert str(INF) == repr(INF) == "inf"
    assert is_inf(INF) and is_inf(math.inf) and not is_inf(Fraction(10**9))


@pytest.mark.parametrize("finite", [0, 7, Fraction(-3, 2), Fraction(10**30, 7), 1e308])
def test_inf_orders_above_every_finite_number(finite):
    assert INF > finite and INF >= finite
    assert not (INF < finite) and not (INF <= finite)
    assert finite < INF and finite <= INF
    assert not (finite > INF) and not (finite >= INF)
    assert min(INF, finite) == finite and max(finite, INF) is INF
    assert sorted([INF, finite]) == [finite, INF]


def test_inf_orders_equal_to_itself_and_float_infinity():
    for other in (INF, math.inf):
        assert INF <= other and INF >= other
        assert not (INF < other) and not (INF > other)
    assert min(INF, INF) is INF


@pytest.mark.parametrize("op", [
    lambda: INF + 1,
    lambda: 1 + INF,
    lambda: INF + INF,
    lambda: 2 * INF,
    lambda: INF * 2,
    lambda: INF / 2,
    lambda: 1 / INF,
    lambda: Fraction(1) + INF,
    lambda: Fraction(1) / INF,
    lambda: sum([INF, 1]),
])
def test_inf_takes_part_in_no_arithmetic(op):
    with pytest.raises(TypeError):
        op()


# ---------------------------------------------------------------------------
# the routes that meet an open branch: one digest recorded before INF lost
# its arithmetic, extended with larger games before each A move was decided
# once per node
# ---------------------------------------------------------------------------

GOLDEN_DIGEST = "2dc0e070a09cf1e9790882f19e374a54b4149c41d832c0b3634916317674e5b9"


def _typed(value) -> str:
    return f"{type(value).__name__}:{value!r}"


def _golden_digest():
    digest = hashlib.sha256()
    for d in range(5):
        net = formula_graph(build_nand_tree(d))
        for bits in product((0, 1), repeat=1 << d):
            rep = fault_complexity(d, bits)
            fields = [subtree_resistance(bits, d), rep.f_a, rep.f_b, rep.f, rep.g_a,
                      rep.g_b, rep.winnable, cut_size(net, bits, MAXFLOW),
                      cut_size(net, bits, SP_RECURSION)]
            digest.update("|".join(map(_typed, fields)).encode())
    rng = random.Random(909)
    for d in range(2, 11):
        for seed in (1, 2, 3):
            while True:
                bits = tuple(rng.randint(0, 1) for _ in range(1 << d))
                if subtree_resistance(bits, d) is not INF:
                    break
            stats = simulate_game(d, bits, seed=seed, reps=8)
            digest.update(stats.to_json())
            digest.update(repr((stats.wins, stats.max_cost, stats.bound_ok,
                                stats.select_calls, stats.guarantee_violations)).encode())
    for d in range(4):
        pairs = list(product(product((0, 1), repeat=1 << d), repeat=2))
        if len(pairs) > 300:
            pairs = rng.sample(pairs, 300)
        for x0, x1 in pairs:
            try:
                digest.update(repr(select(x0, x1)).encode())
            except DisconnectedError as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
    for d in range(2, 11):
        while True:
            bits = tuple(rng.randint(0, 1) for _ in range(1 << d))
            if subtree_resistance(bits, d) is not INF:
                break
        for reps in (64, 65, 1000):
            stats = simulate_game(d, bits, seed=d, reps=reps)
            digest.update(stats.to_json())
            digest.update(repr((stats.wins, stats.mean_cost, stats.max_cost, stats.bound_ok,
                                stats.select_calls, stats.guarantee_violations)).encode())
    return digest.hexdigest()


def test_open_branch_routes_match_golden_digest():
    # every input up to d = 4: subtree_resistance, every FaultReport field and
    # both cut backends, with type names; game JSON and stats for three seeds
    # at each d = 2..10; select on all or 300 sampled instance pairs, d <= 3;
    # one more instance at each d = 2..10 played 64 times (transcripts kept),
    # 65 times (just past the transcript default) and 1,000 times
    assert _golden_digest() == GOLDEN_DIGEST
