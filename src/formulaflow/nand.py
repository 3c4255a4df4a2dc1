"""Alternating-tree specifics: fault complexity, the resistance-guided move
rule (decided once per A node for all of a run's games), game simulation
against a random opponent, and the repeated-full-evaluation baseline cost.

The two-player game on a depth-d alternating tree walks from the root to a
leaf; player A moves at nodes an even distance from the leaves, player B at
odd distance, and A wins exactly on 1-leaves.  A *fault* is a node whose two
children root subtrees of different values; the fault complexity of a player
is two to the worst number of faults met at that player's decisions along
any of their safe root-to-leaf paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AssignmentLengthError, DisconnectedError
from .extended import INF, as_float
from .formula import as_bits


def _depth_of(x_len: int) -> int:
    d = x_len.bit_length() - 1
    if 1 << d != x_len:
        raise AssignmentLengthError(f"length {x_len} is not a power of two")
    return d


def _leaf_count(d: int) -> int:
    """Leaves of the depth-d alternating tree, after checking ``d``."""
    if d < 0:
        raise ValueError(f"depth d={d} must be nonnegative")
    return 1 << d


def _level_table(leaves, d: int, combine) -> list:
    """Bottom-up table over the depth-d alternating tree.

    ``table[d]`` holds the leaf values and ``table[level][pos]`` is
    ``combine(r, left, right)`` for the node at distance ``r = d - level``
    from the leaves, whose children sit at ``2 * pos`` and ``2 * pos + 1``.
    """
    if len(leaves) != _leaf_count(d):
        raise AssignmentLengthError("bit count must be 2^r")
    table = [None] * d + [list(leaves)]
    for level in range(d - 1, -1, -1):
        below = table[level + 1]
        table[level] = [combine(d - level, below[i], below[i + 1])
                        for i in range(0, len(below), 2)]
    return table


def _resistance_table(bits, d: int) -> list:
    """Exact resistances of every subtree on ``bits``.

    A node at odd distance from the leaves composes in series, at even
    distance (> 0) in parallel; a present leaf is a unit edge and an absent
    one ``INF``, which opens a series pair and drops out of a parallel one.
    """
    def combine(r: int, a, b):
        if r % 2 == 1:
            return INF if a is INF or b is INF else a + b
        if a is INF or b is INF:
            return b if a is INF else a
        return a * b / (a + b)

    return _level_table([Fraction(1) if b else INF for b in bits], d, combine)


def subtree_resistance(bits, r: int):
    """Exact resistance of the depth-r alternating-tree network on ``bits``.

    Read off the bottom-up level table that :func:`simulate_game` plays on;
    it does not use the formula fold behind ``formula_resistance``.
    """
    return _resistance_table(bits, r)[0][0]


# ---------------------------------------------------------------------------
# fault complexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultReport:
    """Fault complexities of one instance.

    ``f_a`` / ``f_b`` are powers of two (or INF for the losing player),
    ``f`` their minimum; ``g_a`` / ``g_b`` are the underlying worst fault
    counts, None for the losing player.  ``winnable`` is True when the
    instance has value one (player A can force a win).
    """

    f_a: object
    f_b: object
    f: object
    g_a: int | None
    g_b: int | None
    winnable: bool


def fault_complexity(d: int, x) -> FaultReport:
    """Fault complexities by one bottom-up pass.

    A node is a fault iff its children's subtree values differ.  At the
    winning player's decision nodes exactly one child continues a safe path
    when the node is a fault (add one there); otherwise both children
    continue and the worst branch counts.
    """
    bits = as_bits(x, _leaf_count(d))

    def step(r: int, left, right):
        (v0, a0, b0), (v1, a1, b1) = left, right
        fault = v0 != v1
        if r % 2 == 1:
            # odd distance from the leaves: AND gate, player B decides
            v = v0 & v1
            ga = max(a0, a1) if v == 1 else None
            if v == 0:
                gb = (b0 if v0 == 0 else b1) + 1 if fault else max(b0, b1)
            else:
                gb = None
        else:
            # even distance: OR gate, player A decides
            v = v0 | v1
            gb = max(b0, b1) if v == 0 else None
            if v == 1:
                ga = (a0 if v0 == 1 else a1) + 1 if fault else max(a0, a1)
            else:
                ga = None
        return v, ga, gb

    leaves = [(v, 0 if v == 1 else None, 0 if v == 0 else None) for v in bits]
    value, g_a, g_b = _level_table(leaves, d, step)[0][0]
    f_a = Fraction(2) ** g_a if g_a is not None else INF
    f_b = Fraction(2) ** g_b if g_b is not None else INF
    return FaultReport(f_a, f_b, min(f_a, f_b), g_a, g_b, value == 1)


def fault_complexity_bruteforce(d: int, x) -> FaultReport:
    """Reference computation enumerating every safe root-to-leaf path.

    A safe path for the winning player visits only nodes whose subtree value
    equals that player's target; the fault count of a path counts fault
    nodes at the player's decision levels.  Exponential; for validation.
    """
    bits = as_bits(x, _leaf_count(d))

    def value(lo, hi, r):
        if r == 0:
            return bits[lo]
        mid = (lo + hi) // 2
        v0 = value(lo, mid, r - 1)
        v1 = value(mid, hi, r - 1)
        return (v0 & v1) if r % 2 == 1 else (v0 | v1)

    root = value(0, len(bits), d)
    target = root

    def paths(lo, hi, r):
        # yields fault counts (at the winner's decision nodes) of safe paths
        if r == 0:
            yield 0
            return
        mid = (lo + hi) // 2
        v0 = value(lo, mid, r - 1)
        v1 = value(mid, hi, r - 1)
        fault = v0 != v1
        winner_decides = (r % 2 == 0) if target == 1 else (r % 2 == 1)
        own = 1 if (fault and winner_decides) else 0
        if v0 == target:
            for c in paths(lo, mid, r - 1):
                yield c + own
        if v1 == target:
            for c in paths(mid, hi, r - 1):
                yield c + own

    worst = max(paths(0, len(bits), d))
    if root == 1:
        f_a, g_a, f_b, g_b = Fraction(2) ** worst, worst, INF, None
    else:
        f_a, g_a, f_b, g_b = INF, None, Fraction(2) ** worst, worst
    return FaultReport(f_a, f_b, min(f_a, f_b), g_a, g_b, root == 1)


def is_k_fault(d: int, k: int, x) -> bool:
    """Whether the instance's fault complexity is at most 2^k."""
    _leaf_count(d)
    if not 0 <= 2 * k <= d:
        raise ValueError(f"level k={k} must satisfy 0 <= k <= d/2")
    report = fault_complexity(d, x)
    return report.f <= Fraction(2) ** k


# ---------------------------------------------------------------------------
# the Select rule and the game
# ---------------------------------------------------------------------------

def _select_rule(r0, r1, depth: int):
    """The Select rule on two depth-``depth`` children: ``(b, cost, violated)``
    for the side b of smaller resistance (ties go to 0), its cost
    2^(depth/4) * sqrt(R_b), and whether R_b <= 2 R_(1-b) fails."""
    b = 0 if r0 <= r1 else 1
    chosen, other = (r0, r1) if b == 0 else (r1, r0)
    cost = 2.0 ** (depth / 4.0) * math.sqrt(as_float(chosen))
    return b, cost, other is not INF and chosen > 2 * other


def select(x0, x1):
    """Pick the child subtree with the smaller effective resistance.

    ``x0`` and ``x1`` are same-depth alternating-tree instances, at least one
    of them winnable for A.  Returns ``(b, cost)`` where the charged cost is
    2^(d/4) * sqrt(min resistance), the termination budget of running two
    resistance estimators in parallel and stopping at the faster one.  Ties
    go to 0, so the returned side always satisfies R_b <= 2 R_(1-b).
    """
    if len(x0) != len(x1):
        raise AssignmentLengthError("subinstances must have equal length")
    d = _depth_of(len(x0))
    r0 = subtree_resistance(as_bits(x0, len(x0)), d)
    r1 = subtree_resistance(as_bits(x1, len(x1)), d)
    if r0 is INF and r1 is INF:
        raise DisconnectedError("both subinstances are losing for A")
    b, cost, _ = _select_rule(r0, r1, d)
    return b, cost


@dataclass(frozen=True)
class Move:
    node: str
    turn: str
    child: int
    cost: float


@dataclass(frozen=True)
class GameTranscript:
    moves: tuple
    winner: str
    total_cost: float


@dataclass(frozen=True)
class GameStats:
    """Aggregate of repeated games on one instance.

    ``bound`` is the cost ceiling 2^(d/4 + 11/2) sqrt(R) for even depth and
    2^(d/4 + 5) sqrt(R) for odd depth; ``transcripts`` is populated only for
    small repetition counts unless requested explicitly.
    """

    depth: int
    seed: int
    reps: int
    wins: int
    mean_cost: float
    max_cost: float
    bound: float
    bound_ok: bool
    select_calls: int
    guarantee_violations: int
    transcripts: tuple | None

    def to_json(self) -> bytes:
        doc = {
            "seed": self.seed,
            "games": [
                {
                    "moves": [{"node": m.node, "turn": m.turn, "child": m.child,
                               "cost": m.cost} for m in tr.moves],
                    "winner": tr.winner,
                    "total_cost": tr.total_cost,
                }
                for tr in (self.transcripts or ())
            ],
            "mean_cost": self.mean_cost,
            "bound": self.bound,
        }
        return json.dumps(doc, separators=(",", ":")).encode()


def simulate_game(d: int, x, seed: int, reps: int,
                  keep_transcripts: bool | None = None) -> GameStats:
    """Play ``reps`` games on an A-winnable instance with B moving uniformly.

    Player A, at nodes an even distance (> 0) from the leaves, plays the
    resistance-guided rule, decided once per A node of the resistance table,
    and pays its cost; B's choices come from a Philox generator keyed by ``seed``.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if not 0 <= seed < 2**128:  # the range of a Philox key
        raise ValueError(f"seed={seed} must satisfy 0 <= seed < 2**128")
    bits = as_bits(x, _leaf_count(d))
    table = _resistance_table(bits, d)
    root_r = table[0][0]
    if root_r is INF:
        raise DisconnectedError("instance is not A-winnable")
    if keep_transcripts is None:
        keep_transcripts = reps <= 64

    rng = np.random.Generator(np.random.Philox(key=seed))
    b_draws = rng.integers(0, 2, size=(reps, max(1, (d + 1) // 2))).tolist()  # per B level
    # a_moves[level][pos] is A's (child, cost, violated) there; None at B levels
    a_moves = [None if (d - level) % 2 else
               [_select_rule(below[i], below[i + 1], d - level - 1)
                for i in range(0, len(below), 2)]
               for level, below in enumerate(table[1:])]

    bound_exp = d / 4.0 + (5.5 if d % 2 == 0 else 5.0)
    bound = 2.0 ** bound_exp * math.sqrt(float(root_r))

    wins = 0
    total = 0.0
    worst = 0.0
    violations = 0
    transcripts = [] if keep_transcripts else None
    for draws in map(iter, b_draws):
        pos = 0
        cost = 0.0
        moves = [] if keep_transcripts else None
        for level, level_moves in enumerate(a_moves):
            if level_moves is not None:
                child, step, violated = level_moves[pos]
                cost += step
                violations += violated
            else:
                child = next(draws)
                step = 0.0
            if keep_transcripts:
                moves.append(Move(format(pos, f"0{level}b") if level else "root",
                                  "B" if level_moves is None else "A", child, step))
            pos = 2 * pos + child
        won = bits[pos] == 1
        wins += won
        total += cost
        worst = max(worst, cost)
        if keep_transcripts:
            transcripts.append(GameTranscript(tuple(moves), "A" if won else "B", cost))
    mean_cost = total / reps
    return GameStats(d, seed, reps, wins, mean_cost, worst, bound,
                     mean_cost <= bound, reps * (d // 2), violations,
                     tuple(transcripts) if keep_transcripts else None)


def naive_cost(d: int) -> float:
    """Baseline strategy cost: evaluate both subtrees from scratch at every
    decision, with log-many repetitions for amplification (log base 2)."""
    if d < 1:
        raise ValueError("depth must be at least 1")
    total = sum(2.0 ** ((d - 2 * i) / 2.0) for i in range(d // 2 + 1))
    return 2.0 * total * math.log2(d)
