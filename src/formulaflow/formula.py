"""Read-once AND-OR formulas: parsing, evaluation, and structural transforms.

A formula is a rooted tree whose internal nodes are AND/OR gates with fan-in
at least two and whose leaves are (possibly negated) variables.  The parser,
the generators and :func:`compose` describe their formula as a *shape* (a
leaf's negation flag, or a ``(kind, children)`` pair) and end in one builder,
which produces the canonical normal form in a single pass:

* negations appear only on leaves,
* adjacent gates of the same kind are flattened (gate kinds alternate),
* leaf variables, read left to right, are numbered 1..N.

Grammar accepted by :func:`parse_formula` (whitespace ignored)::

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '~' factor | '(' expr ')' | var
    var    := 'x' [1-9][0-9]*

It reads the tokens once, left to right, with an explicit stack of open
groups, so nesting depth is not bounded by Python's recursion limit.

Assignments are given most-significant-first: character 0 instantiates x1.

Promise domains: an and/or promise is the one-level composed domain
``((kind, n, h),)``.  The level table :func:`_level_classes` maps each child
weight a level admits to its gate's value; membership, the count and the
enumeration read it bottom-up.  The enumeration builds each level one weight
at a time, so it costs what it yields: the 1-inputs, then the 0-inputs.
:func:`side_maxima` is the one sweep behind every domain maximum
(``compute_bounds``, ``verify_resistance_product``, ``witness_extrema``), and
``DOMAIN_CAP`` (2^20 inputs) is the one budget of the full and composed
domains they enumerate.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterator, Sequence

from .errors import (
    AssignmentLengthError,
    DomainTooLargeError,
    FormulaError,
    FormulaSyntaxError,
    PromiseMismatchError,
    ReadOnceError,
)

AND = "and"
OR = "or"
LEAF = "leaf"


@dataclass(frozen=True, eq=False, repr=False)
class Formula:
    """Immutable formula node.  Use the module constructors, not this directly.

    ``==``, ``hash`` and ``repr`` act as the dataclass ones, without recursion.
    """

    kind: str
    var: int = 0
    negated: bool = False
    children: tuple["Formula", ...] = ()
    n_vars: int = field(init=False, compare=False)
    first_var: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.kind == LEAF:
            if self.var < 1 or self.children:
                raise FormulaError("leaf must carry a positive variable index and no children")
            object.__setattr__(self, "n_vars", 1)
            object.__setattr__(self, "first_var", self.var)
        elif self.kind in (AND, OR):
            if len(self.children) < 2:
                raise FormulaError(f"{self.kind}-gate requires fan-in >= 2")
            if self.negated or self.var:
                raise FormulaError("gates carry no variable or negation")
            first = self.children[0].first_var
            nxt = first
            for child in self.children:
                if child.first_var != nxt:
                    raise FormulaError("children must cover consecutive variable ranges")
                nxt += child.n_vars
            object.__setattr__(self, "n_vars", nxt - first)
            object.__setattr__(self, "first_var", first)
        else:
            raise FormulaError(f"unknown node kind {self.kind!r}")

    # structural measures ---------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    @cached_property
    def _order(self) -> list:
        """``postorder(self)``, walked once and kept for every later fold."""
        return postorder(self)

    def leaves(self) -> Iterator["Formula"]:
        return (g for g in self._order if g.is_leaf)

    def depth(self) -> int:
        return fold(self, lambda g: 0, _deeper, _deeper)

    def max_fanin(self) -> int:
        return fold(self, lambda g: 1, _widest, _widest)

    def gate_depth(self, kind: str) -> int:
        """Largest number of ``kind``-gates on any root-to-leaf path."""
        return fold(self, lambda g: 0, _deeper if kind == AND else max,
                    _deeper if kind == OR else max)

    def and_depth(self) -> int:
        return self.gate_depth(AND)

    def or_depth(self) -> int:
        return self.gate_depth(OR)

    def negated_vars(self) -> frozenset:
        return frozenset(leaf.var for leaf in self.leaves() if leaf.negated)

    def __str__(self):
        return render(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        left, right = [self], [other]  # explicit stacks, popped in step
        while left:
            a, b = left.pop(), right.pop()
            if a is not b:
                if (a.kind != b.kind or a.var != b.var or a.negated != b.negated
                        or len(a.children) != len(b.children)):
                    return False
                left.extend(a.children)
                right.extend(b.children)
        return True

    def __hash__(self):
        return hash(tuple((g.kind, g.var, g.negated, len(g.children)) for g in self._order))

    def __repr__(self):
        return nested_text(  # leaves no cached order behind
            self,
            lambda g: f"Formula(kind={g.kind!r}, var={g.var!r}, negated={g.negated!r}, children=(",
            lambda g: f"), n_vars={g.n_vars!r}, first_var={g.first_var!r})")


def _deeper(values) -> int:
    return 1 + max(values)


def _widest(values) -> int:
    return max(len(values), *values)


def leaf(var: int, negated: bool = False) -> Formula:
    return Formula(LEAF, var=var, negated=negated)


def gate(kind: str, children: Sequence[Formula]) -> Formula:
    return Formula(kind, children=tuple(children))


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(x[1-9][0-9]*|[()&|~])|(x[0-9]*|\S))")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        bad = m.group(2)
        if bad:
            kind = "token" if len(bad) > 1 else "character"
            raise FormulaSyntaxError(f"unexpected {kind} {bad!r}", m.start())
        out.append((m.group(1), m.start(1)))
    return out + [(None, len(text))]


def parse_formula(text: str) -> Formula:
    """Parse formula text into canonical normal form.

    Raises :class:`FormulaSyntaxError` on malformed input and
    :class:`ReadOnceError` if any variable labels more than one leaf.
    """
    # One pass over the tokens with a stack of open groups.  A group is
    # [parity, closed terms, factors of the open term]; its parity carries the
    # negations over it, under which '&' builds an OR and '|' an AND.  Terms
    # and factors are shapes; the builder numbers and flattens them at the end.
    groups = [[False, [], []]]
    neg, operand = False, True  # parity of the '~'s since the last operand; one is due
    seen = Counter()
    for tok, pos in _tokenize(text):
        parity, terms, factors = groups[-1]
        if operand:
            if tok == "~":
                neg = not neg
            elif tok == "(":
                groups.append([parity ^ neg, [], []])
                neg = False
            elif tok is not None and tok.startswith("x"):
                seen[tok] += 1
                factors.append(parity ^ neg)
                neg, operand = False, False
            else:
                raise FormulaSyntaxError(f"expected '~', '(' or variable, found {tok!r}", pos)
        elif tok == "&":
            operand = True
        elif tok == "|":
            terms.append(_join(OR if parity else AND, factors))
            groups[-1][2], operand = [], True
        elif tok == ")" and len(groups) > 1:
            groups.pop()
            terms.append(_join(OR if parity else AND, factors))
            groups[-1][2].append(_join(AND if parity else OR, terms))
        elif len(groups) > 1:
            raise FormulaSyntaxError(f"expected ')', found {tok!r}", pos)
        elif tok is not None:
            raise FormulaSyntaxError(f"trailing input {tok!r}", pos)
    duplicates = [int(tok[1:]) for tok, k in seen.items() if k > 1]
    if duplicates:
        raise ReadOnceError(f"variables repeated: {sorted(duplicates)}")
    terms.append(_join(AND, factors))
    return _from_shape(_join(OR, terms))


def _join(kind, shapes):
    """The one shape, or a ``kind`` gate over several."""
    return shapes[0] if len(shapes) == 1 else (kind, shapes)


def _from_shape(shape) -> Formula:
    """The normal form of ``shape``, built in one post-order pass: leaves are
    numbered 1..N left to right, and a gate of its parent's kind hands its
    children to the parent instead of becoming a node."""
    frames = [(None, iter((shape,)), [])]  # (kind, shapes to read, children built)
    number = 0
    while True:
        kind, todo, built = frames[-1]
        s = next(todo, None)
        if s is None:
            frames.pop()
            if not frames:
                return built[0]
            parent_kind, _, siblings = frames[-1]
            siblings.extend(built if parent_kind == kind else (gate(kind, built),))
        elif isinstance(s, bool):
            number += 1
            built.append(leaf(number, negated=s))
        else:
            frames.append((s[0], iter(s[1]), []))


def _shape(f: Formula, at_leaf=lambda g: g.negated):
    """The shape of ``f``, with ``at_leaf(g)`` standing for each leaf ``g``."""
    return fold(f, at_leaf, lambda shapes: (AND, shapes), lambda shapes: (OR, shapes))


def render(f: Formula) -> str:
    """Formula text that parses back to ``f``."""
    return fold(f, lambda g: (("~" if g.negated else "") + f"x{g.var}", False),
                lambda parts: ("&".join([f"({t})" if is_or else t for t, is_or in parts]), False),
                lambda parts: ("|".join([t for t, _ in parts]), True))[0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def as_bits(x, n: int) -> tuple:
    """Coerce an assignment (bitstring or sequence) to a tuple of 0/1 bits.

    A tuple of ``n`` exact ``int`` 0/1 bits is already canonical and comes
    back as it is; the domain sweeps pass each input through several layers.
    """
    if type(x) is tuple and len(x) == n and set(map(type, x)) <= {int} and set(x) <= {0, 1}:
        return x
    if isinstance(x, str):
        if not all(c in "01" for c in x):
            raise AssignmentLengthError(f"assignment must be a bitstring, got {x!r}")
        bits = tuple(int(c) for c in x)
    else:
        bits = tuple(int(b) for b in x)
        if any(b not in (0, 1) for b in bits):
            raise AssignmentLengthError("assignment bits must be 0 or 1")
    if len(bits) != n:
        raise AssignmentLengthError(f"assignment length {len(bits)} != variable count {n}")
    return bits


def all_inputs(n: int) -> Iterator[tuple]:
    """Every assignment to ``n`` variables as a bit tuple, x1 most significant,
    in counting order."""
    return itertools.product((0, 1), repeat=n)


def postorder(f: Formula) -> list:
    """The nodes of ``f``, children left to right before their parent."""
    order = []
    stack = [f]
    while stack:
        g = stack.pop()
        order.append(g)
        stack.extend(g.children)
    order.reverse()
    return order


def nested_text(f: Formula, opening, closing) -> str:
    """Text of ``f`` from one preorder walk: each node's ``opening(g)``, its
    children's texts separated by ``", "``, then ``closing(g)``.  The pieces
    go into one list that is joined once, so the cost is linear in the text."""
    pieces = []
    stack = [f]  # nodes still to open, and texts still to emit
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            pieces.append(g)
            continue
        pieces.append(opening(g))
        stack.append(closing(g))
        for i, child in enumerate(reversed(g.children)):
            stack.extend((", ", child) if i else (child,))
    return "".join(pieces)


def fold(f: Formula, leaf, at_and, at_or):
    """Post-order fold of ``f`` without Python recursion.

    ``leaf(g)`` gives the value of leaf ``g``; ``at_and(values)`` and
    ``at_or(values)`` combine the values of a gate's children, left to right.
    The order is walked by :func:`postorder` once per node object and kept in
    its instance ``__dict__`` (not a field), so every later fold of the same
    node, and its ``hash``, reuse it.
    """
    values = []
    for g in f._order:
        if g.children:
            k = len(g.children)
            args = values[-k:]
            del values[-k:]
            values.append((at_and if g.kind == AND else at_or)(args))
        else:
            values.append(leaf(g))
    return values[0]


def eval_formula(f: Formula, x) -> int:
    """Evaluate ``f`` on assignment ``x`` (bit i instantiates x_{i+1})."""
    if f.first_var != 1:
        raise FormulaError("evaluation needs a canonically numbered formula")
    bits = as_bits(x, f.n_vars)
    return fold(f, lambda g: bits[g.var - 1] ^ g.negated, min, max)


# ---------------------------------------------------------------------------
# structural transforms
# ---------------------------------------------------------------------------

def build_nand_tree(d: int) -> Formula:
    """Full binary alternating tree of depth ``d`` over 2^d variables.

    A node at even distance from the leaves is an OR, odd an AND; depth 0 is
    the single-bit identity leaf.
    """
    if d < 0:
        raise FormulaError("depth must be nonnegative")
    return uniform_formula(OR if d % 2 == 0 else AND, (2,) * d)


def dual_formula(f: Formula) -> Formula:
    """Swap AND and OR gates; leaves (including negations) are unchanged."""
    return fold(f, lambda g: g, partial(gate, OR), partial(gate, AND))


def negate_formula(f: Formula) -> Formula:
    """Proper negation: gates swapped and leaf negations flipped."""
    return fold(f, lambda g: leaf(g.var, negated=not g.negated),
                partial(gate, OR), partial(gate, AND))


def compose(outer: Formula, inner: Formula) -> Formula:
    """Substitute a fresh copy of ``inner`` for every leaf of ``outer``, the
    negated copy for a negated leaf.  The result has N_outer * N_inner variables,
    numbered 1..N left to right, with same-kind adjacency flattened."""
    blocks = (_shape(inner), _shape(negate_formula(inner)))
    return _from_shape(_shape(outer, lambda g: blocks[g.negated]))


# ---------------------------------------------------------------------------
# promise domains
# ---------------------------------------------------------------------------

AND_PROMISE = "and"
OR_PROMISE = "or"
FULL = "full"
COMPOSED = "composed"

DOMAIN_CAP = 1 << 20  # the most inputs a full or composed domain may hold to be enumerated


@dataclass(frozen=True)
class PromiseDomain:
    """Restriction of the inputs a formula is evaluated on.

    ``and``-promise on N bits keeps |x| = N or |x| <= N-h; the ``or``-promise
    keeps |x| = 0 or |x| >= h.  A composed domain applies a per-level promise
    to the input vector of every gate of a uniform composition chain.
    """

    kind: str
    n: int = 0
    h: int = 0
    levels: tuple = ()

    @cached_property
    def _chain(self) -> Formula:
        return composed_formula(self.levels or ((self.kind, self.n, self.h),))

    def __post_init__(self):
        if self.kind in (AND_PROMISE, OR_PROMISE):
            if not _sizes_ok(self.n, self.h):
                raise PromiseMismatchError("promise requires 1 <= h <= N")
        elif self.kind == COMPOSED:
            object.__setattr__(self, "levels", _checked_levels(self.levels))
        elif self.kind != FULL:
            raise PromiseMismatchError(f"unknown domain kind {self.kind!r}")


def full_domain(n: int) -> PromiseDomain:
    return PromiseDomain(FULL, n=n)


def and_promise(n: int, h: int) -> PromiseDomain:
    return PromiseDomain(AND_PROMISE, n=n, h=h)


def or_promise(n: int, h: int) -> PromiseDomain:
    return PromiseDomain(OR_PROMISE, n=n, h=h)


def composed_domain(levels) -> PromiseDomain:
    return PromiseDomain(COMPOSED, levels=levels)


def _sizes_ok(n, h) -> bool:  # ints, not bools, with 1 <= h <= n
    return type(n) is type(h) is int and 1 <= h <= n


def _checked_levels(levels) -> tuple:
    """``levels`` as ``(kind, N, h)`` tuples, each and/or with int N >= 2, 1 <= h <= N."""
    levels = tuple(tuple(level) for level in levels)
    for level in levels:
        kind, n, h = level if len(level) == 3 else (None, 0, 0)
        if kind not in (AND_PROMISE, OR_PROMISE) or not _sizes_ok(n, h) or n < 2:
            raise PromiseMismatchError(f"bad level ({', '.join(map(str, level))})")
    return levels


def _level_classes(kind: str, n: int, h: int) -> dict:
    """The level table: each weight (count of 1-valued children) that a
    ``(kind, n, h)`` gate admits, in increasing order, mapped to the value
    the gate outputs on it."""
    if kind == AND_PROMISE:
        return {w: int(w == n) for w in (*range(n - h + 1), n)}
    return {w: int(w > 0) for w in (0, *range(h, n + 1))}


def composed_formula(levels) -> Formula:
    """The uniform composition chain AND_N/OR_N|level1 o ... o |level_l."""
    levels = _checked_levels(levels)
    if not levels:
        raise PromiseMismatchError("composed domain needs at least one level")
    shape = False
    for kind, n, _h in reversed(levels):
        shape = (AND if kind == AND_PROMISE else OR, [shape] * n)
    return _from_shape(shape)


def promise_membership(dom: PromiseDomain, f: Formula, x) -> bool:
    """Whether ``x`` (and, for composed domains, every intermediate gate
    input vector) lies in the promised set.  An and/or promise is the
    one-level composed domain ``((kind, n, h),)``."""
    if dom.kind == FULL:
        as_bits(x, f.n_vars)
        return True
    levels = dom.levels or ((dom.kind, dom.n, dom.h),)
    if f != dom._chain:
        raise PromiseMismatchError("formula does not match the composed level structure")
    values = as_bits(x, f.n_vars)
    for kind, n, h in reversed(levels):  # bottom-up: blocks of n values become gate values
        classes = _level_classes(kind, n, h)
        values = [classes.get(sum(values[i:i + n])) for i in range(0, len(values), n)]
        if None in values:
            return False
    return True


def count_composed_domain(levels) -> int:
    """Size of the composed promise domain, computed without enumeration; a
    structure of more than ``DOMAIN_CAP`` leaves raises
    :class:`DomainTooLargeError` before any level's weights are looped over."""
    levels = _checked_levels(levels)
    if math.prod(n for _kind, n, _h in levels) > DOMAIN_CAP:
        raise DomainTooLargeError(f"composed structure has more than {DOMAIN_CAP} leaves")
    counts = [1, 1]  # strings of gate value 0, 1 for a single raw bit
    for kind, n, h in reversed(levels):
        zeros, ones = counts
        counts = [0, 0]
        for w, value in _level_classes(kind, n, h).items():
            counts[value] += math.comb(n, w) * ones**w * zeros**(n - w)
    return sum(counts)


def enumerate_composed_domain(levels):
    """Yield every assignment (as a bit tuple) of the composed promise domain:
    the 1-inputs, then the 0-inputs, each grouped by the root's child weight
    in increasing order.  The cost grows with the inputs yielded, not 2^N.
    Raises :class:`DomainTooLargeError` when the domain exceeds ``DOMAIN_CAP``.
    """
    levels = _checked_levels(levels)
    if count_composed_domain(levels) > DOMAIN_CAP:
        raise DomainTooLargeError("composed domain exceeds the exhaustive budget")
    strings = ([(0,)], [(1,)])  # the bit strings of gate value 0, 1 for a raw bit
    for kind, n, h in reversed(levels):
        grown = ([], [])
        for w, value in _level_classes(kind, n, h).items():
            for ones in map(set, itertools.combinations(range(n), w)):  # the 1-valued children
                grown[value].extend(
                    tuple(itertools.chain.from_iterable(parts))
                    for parts in itertools.product(*(strings[i in ones] for i in range(n))))
        strings = grown
    yield from strings[1] + strings[0]


def side_maxima(f: Formula, inputs, value, **tracked) -> dict:
    """One sweep over ``inputs`` (bit tuples) for several maxima at once.

    Each ``name=(side, fn)`` gets ``(max fn(bits), first input attaining it)``
    over the inputs with ``value(f, bits) == side``, or ``(None, None)`` when
    that side is empty.
    """
    best = dict.fromkeys(tracked, (None, None))
    by_side = ([], [])  # (name, fn) pairs tracked over the 0-inputs, the 1-inputs
    for name, (side, fn) in tracked.items():
        by_side[side].append((name, fn))
    for bits in inputs:
        for name, fn in by_side[value(f, bits)]:
            v = fn(bits)
            top = best[name][0]
            if top is None or v > top:
                best[name] = (v, bits)
    return best


# ---------------------------------------------------------------------------
# systematic and random generation
# ---------------------------------------------------------------------------

def uniform_formula(root_kind: str, fanins: Sequence[int]) -> Formula:
    """Alternating tree with the given per-level fan-ins, root kind first."""
    other = AND if root_kind == OR else OR
    shape = False
    for level in reversed(range(len(fanins))):
        shape = (other if level % 2 else root_kind, [shape] * fanins[level])
    return _from_shape(shape)


def enumerate_formulas(max_depth: int, fanins=(2, 3), max_vars: int | None = None):
    """All canonical (alternating-gate) formulas up to the given depth, less
    those over ``max_vars`` variables when a cap is given."""

    def shapes(kind, depth_left):  # (size, shape) pairs
        yield 1, False
        if depth_left == 0:
            return
        other = AND if kind == OR else OR
        child_shapes = list(shapes(other, depth_left - 1))
        for fanin in fanins:
            for combo in itertools.product(child_shapes, repeat=fanin):
                size = sum(n for n, _ in combo)
                if max_vars is not None and size > max_vars:
                    continue
                yield size, (kind, [shape for _, shape in combo])

    seen = set()
    yield _from_shape(False)
    for root_kind in (AND, OR):
        for size, shape in shapes(root_kind, max_depth):
            if size == 1:
                continue
            f = _from_shape(shape)
            key = render(f)
            if key not in seen:
                seen.add(key)
                yield f


def random_formula(rng, n_vars: int, max_fanin: int = 3) -> Formula:
    """Random canonical formula on exactly ``n_vars`` variables."""
    if n_vars < 1:
        raise FormulaError("need at least one variable")

    def build(kind, n):
        if n == 1:
            return False
        fanin = int(rng.integers(2, min(max_fanin, n) + 1))
        cuts = sorted(int(c) + 1 for c in rng.choice(n - 1, size=fanin - 1, replace=False))
        other = AND if kind == OR else OR
        return kind, [build(other, b - a) for a, b in zip([0, *cuts], [*cuts, n])]

    root_kind = AND if rng.integers(2) == 0 else OR
    return _from_shape(build(root_kind, n_vars))
