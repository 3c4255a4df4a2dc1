import itertools
import math

import numpy as np
import pytest

from formulaflow import (
    INF,
    build_nand_tree,
    eval_formula,
    fault_complexity,
    fault_complexity_bruteforce,
    formula_resistance,
    is_k_fault,
    naive_cost,
    select,
    simulate_game,
    subtree_resistance,
)
from formulaflow.errors import AssignmentLengthError, DisconnectedError

REFERENCE = (1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1)


def all_inputs(n):
    return itertools.product((0, 1), repeat=n)


# ---------------------------------------------------------------------------
# fault complexity
# ---------------------------------------------------------------------------

def test_depth0_winning_leaf():
    rep = fault_complexity(0, "1")
    assert rep.f_a == 1 and rep.f_b is INF and rep.f == 1
    assert rep.winnable


def test_depth0_losing_leaf():
    rep = fault_complexity(0, "0")
    assert rep.f_a is INF and rep.f_b == 1 and rep.f == 1
    assert not rep.winnable


def test_reference_instance_fault_four():
    rep = fault_complexity(4, REFERENCE)
    assert rep.f_a == 4
    assert rep.g_a == 2
    assert rep.f_b is INF
    assert rep.f == 4


def test_all_ones_has_no_faults():
    for d in range(6):
        rep = fault_complexity(d, [1] * (1 << d))
        assert rep.f_a == 1 and rep.g_a == 0


def test_fault_length_mismatch():
    with pytest.raises(AssignmentLengthError):
        fault_complexity(3, "1111")


@pytest.mark.parametrize("call", [
    lambda: fault_complexity(-1, "1"),
    lambda: fault_complexity_bruteforce(-1, "1"),
    lambda: subtree_resistance((1,), -1),
    lambda: simulate_game(-1, "1", seed=1, reps=1),
    lambda: is_k_fault(-1, 0, "1"),
])
def test_negative_depth_is_named(call):
    with pytest.raises(ValueError, match=r"depth d=-1 must be nonnegative"):
        call()


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_recursion_matches_bruteforce_exhaustive(d):
    for x in all_inputs(1 << d):
        fast = fault_complexity(d, x)
        slow = fault_complexity_bruteforce(d, x)
        assert (fast.f_a, fast.f_b, fast.f) == (slow.f_a, slow.f_b, slow.f)


def test_recursion_matches_bruteforce_depth4_sample():
    rng = np.random.default_rng(51)
    for _ in range(400):
        x = tuple(int(b) for b in rng.integers(0, 2, size=16))
        fast = fault_complexity(4, x)
        slow = fault_complexity_bruteforce(4, x)
        assert (fast.f_a, fast.f_b, fast.f) == (slow.f_a, slow.f_b, slow.f)


def test_fault_values_are_powers_of_two():
    for x in all_inputs(8):
        rep = fault_complexity(3, x)
        finite = rep.f_a if rep.winnable else rep.f_b
        assert finite == 2 ** (rep.g_a if rep.winnable else rep.g_b)


def test_winnable_iff_value_one():
    for d in range(4):
        f = build_nand_tree(d)
        for x in all_inputs(1 << d):
            assert fault_complexity(d, x).winnable == (eval_formula(f, x) == 1)


# ---------------------------------------------------------------------------
# k-fault membership
# ---------------------------------------------------------------------------

def test_all_ones_is_zero_fault():
    assert is_k_fault(2, 0, "1111")


def test_reference_instance_levels():
    assert not is_k_fault(4, 1, REFERENCE)
    assert is_k_fault(4, 2, REFERENCE)


def test_k_fault_level_validation():
    with pytest.raises(ValueError):
        is_k_fault(2, 3, "1111")


# ---------------------------------------------------------------------------
# subtree resistance
# ---------------------------------------------------------------------------

def test_subtree_resistance_matches_formula_fold():
    for d in range(5):
        f = build_nand_tree(d)
        rng = np.random.default_rng(d)
        for _ in range(40):
            x = tuple(int(b) for b in rng.integers(0, 2, size=1 << d))
            assert subtree_resistance(x, d) == formula_resistance(f, x)


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_prefers_smaller_resistance():
    b, cost = select("1111", "1100")
    # depth-2 instances: R = 1 and 2
    assert b == 0
    assert cost == pytest.approx(2 ** 0.5 * 1.0)


def test_select_tie_goes_left():
    b, cost = select("11", "11")
    assert b == 0
    assert cost == pytest.approx(2 ** 0.25 * math.sqrt(2.0))


def test_select_with_losing_branch():
    b, cost = select("00", "11")
    assert b == 1
    assert cost == pytest.approx(2 ** 0.25 * math.sqrt(2.0))


def test_select_guarantee_exhaustive_depth2():
    for x0 in all_inputs(4):
        for x1 in all_inputs(4):
            r0 = subtree_resistance(x0, 2)
            r1 = subtree_resistance(x1, 2)
            if r0 is INF and r1 is INF:
                continue
            b, _ = select(x0, x1)
            chosen, other = (r0, r1) if b == 0 else (r1, r0)
            assert chosen <= other  # exact oracle: strictly stronger than 2x
            assert float(chosen) <= 2 * float(other) or other is INF


def test_select_rejects_double_loss():
    with pytest.raises(DisconnectedError):
        select("00", "00")


# ---------------------------------------------------------------------------
# game simulation
# ---------------------------------------------------------------------------

def test_all_ones_game_always_won():
    stats = simulate_game(3, [1] * 8, seed=7, reps=50)
    assert stats.wins == 50
    assert stats.guarantee_violations == 0
    assert stats.bound_ok


def test_reference_instance_game():
    stats = simulate_game(4, REFERENCE, seed=11, reps=200, keep_transcripts=True)
    assert stats.wins == 200
    assert stats.bound_ok
    # player A's moves always land on a winning subtree: the game is won in
    # every transcript and the cost matches the per-move sum
    for tr in stats.transcripts:
        assert tr.winner == "A"
        assert tr.total_cost == pytest.approx(sum(m.cost for m in tr.moves))


def test_depth2_single_decision_cost():
    # at the root of the depth-2 game the two depth-1 subinstances are 11/00,
    # so the one charged move costs 2^(1/4) * sqrt(2)
    stats = simulate_game(2, "1100", seed=3, reps=8, keep_transcripts=True)
    assert stats.wins == 8
    expected = 2 ** 0.25 * math.sqrt(2.0)
    for tr in stats.transcripts:
        a_moves = [m for m in tr.moves if m.turn == "A"]
        assert len(a_moves) == 1
        assert a_moves[0].cost == pytest.approx(expected)
        assert a_moves[0].child == 0


@pytest.mark.parametrize("d", range(2, 7))
def test_transcript_a_moves_equal_select_on_sliced_children(d):
    # each A move, read by its node's position, must equal select on the two
    # child subinstances sliced from the input: the resistance table's rows
    # are indexed as the tree is laid out
    rng = np.random.default_rng(d)
    played = 0
    while played < 4:
        bits = tuple(int(b) for b in rng.integers(0, 2, 1 << d))
        if subtree_resistance(bits, d) is INF:
            continue
        played += 1
        stats = simulate_game(d, bits, seed=played, reps=16, keep_transcripts=True)
        a_moves = [m for tr in stats.transcripts for m in tr.moves if m.turn == "A"]
        assert len(a_moves) == stats.select_calls == 16 * (d // 2)
        for m in a_moves:
            level, pos = (0, 0) if m.node == "root" else (len(m.node), int(m.node, 2))
            width = 1 << (d - level)
            node = bits[pos * width:(pos + 1) * width]
            assert select(node[:width // 2], node[width // 2:]) == (m.child, m.cost)


def test_game_rejects_losing_instance():
    with pytest.raises(DisconnectedError):
        simulate_game(2, "0000", seed=1, reps=4)


def test_game_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps"):
        simulate_game(2, "1111", seed=1, reps=0)


def test_game_reproducible_for_fixed_seed():
    a = simulate_game(4, REFERENCE, seed=123, reps=64, keep_transcripts=True)
    b = simulate_game(4, REFERENCE, seed=123, reps=64, keep_transcripts=True)
    assert a.to_json() == b.to_json()
    c = simulate_game(4, REFERENCE, seed=124, reps=64, keep_transcripts=True)
    assert a.to_json() != c.to_json()


def test_transcript_json_schema():
    stats = simulate_game(2, "1100", seed=5, reps=2, keep_transcripts=True)
    import json
    doc = json.loads(stats.to_json())
    assert set(doc) == {"seed", "games", "mean_cost", "bound"}
    assert doc["seed"] == 5
    assert len(doc["games"]) == 2
    game = doc["games"][0]
    assert set(game) == {"moves", "winner", "total_cost"}
    assert set(game["moves"][0]) == {"node", "turn", "child", "cost"}


# ---------------------------------------------------------------------------
# naive baseline
# ---------------------------------------------------------------------------

def test_naive_cost_small_values():
    assert naive_cost(2) == pytest.approx(2 * (2 + 1) * math.log2(2))
    assert naive_cost(4) == pytest.approx(2 * (4 + 2 + 1) * math.log2(4))


def test_naive_cost_ratio_bounded():
    for d in range(2, 31):
        ratio = naive_cost(d) / 2 ** (d / 2)
        assert ratio <= 4.1 * math.log2(d)


def test_naive_cost_requires_positive_depth():
    with pytest.raises(ValueError):
        naive_cost(0)
