"""Two-terminal labeled weighted multigraphs and their compositions.

Networks are immutable.  Vertex names follow one rule: a series composition of
k parts joins them at junctions ``s2 .. sk``, and part ``i`` prefixes its
interior vertices with ``"i."``, so repeated builds are byte-identical.  The
graph of an AND gate is the series composition of its children's graphs, of an
OR gate the parallel composition, and of a leaf a single labeled edge.  Each
network is assembled from its whole composition tree in one pass and validated
once; formula-derived networks carry a back-reference to their formula.

:func:`selector_from_assignment` returns the host edges an input keeps, from a
per-network table of bit indices and negation flips built at first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import LabelCollisionError
from .formula import Formula, as_bits, dual_formula, fold

SERIES = "series"
PARALLEL = "parallel"


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    label: str
    weight: Fraction

    def key(self):
        return (self.u, self.v, self.label, self.weight)


@dataclass(frozen=True, eq=False)
class Network:
    """Weighted multigraph with designated terminals ``s`` and ``t``."""

    vertices: tuple
    s: str
    t: str
    edges: tuple
    formula: Formula | None = None

    def __post_init__(self):
        if self.s == self.t:
            raise ValueError("terminals must be distinct")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        if self.s not in vset or self.t not in vset:
            raise ValueError("terminals must be vertices")
        labels = set()
        for e in self.edges:
            if e.u == e.v:
                raise ValueError(f"self-loop on {e.u!r}")
            if e.u not in vset or e.v not in vset:
                raise ValueError(f"edge {e.label!r} has unknown endpoint")
            if e.label in labels:
                raise LabelCollisionError(f"duplicate edge label {e.label!r}")
            labels.add(e.label)
            if not isinstance(e.weight, Fraction) or e.weight.numerator <= 0:
                raise ValueError(f"edge {e.label!r} needs a positive rational weight")

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self.vertices, self.s, self.t, tuple(e.key() for e in self.edges)) == \
               (other.vertices, other.s, other.t, tuple(e.key() for e in other.edges))

    def __hash__(self):
        return hash((self.vertices, self.s, self.t, tuple(e.key() for e in self.edges)))

    @property
    def labels(self) -> tuple:
        return tuple(e.label for e in self.edges)

    @cached_property
    def negated_labels(self) -> frozenset:
        if self.formula is None:
            return frozenset()
        return frozenset(f"x{v}" for v in self.formula.negated_vars())

    @cached_property
    def _selection(self) -> tuple:
        """``(bit index, negation flip)`` of each edge, in edge order: bit i of
        an input is edge i, or on a formula-derived network the i-th leaf
        ``x{first_var + i}``, and the flip is 1 on a negated leaf."""
        f = self.formula
        if f is None:
            return tuple((i, 0) for i in range(len(self.edges)))
        leaves = tuple(f.leaves())
        if self.labels != tuple(f"x{g.var}" for g in leaves):
            raise ValueError("edges do not match the leaves of the network's formula")
        return tuple((i, int(g.negated)) for i, g in enumerate(leaves))

    def weight_map(self) -> dict:
        return {e.label: e.weight for e in self.edges}

    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append((e.v, e))
            adj[e.v].append((e.u, e))
        return adj


def single_edge(label: str, weight=Fraction(1), s: str = "s", t: str = "t") -> Network:
    return Network((s, t), s, t, (Edge(s, t, label, Fraction(weight)),))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _assemble(tree, s: str, t: str, formula: Formula | None = None) -> Network:
    """The network of a composition tree, whose nodes are ``Network`` parts,
    bare ``Edge`` parts (placed between the part's terminals) or
    ``(mode, children)`` pairs, walked top-down once.  A series junction is
    listed where a ``Network`` part before it lists its ``t``, or else after
    the whole subtree of the part before it."""
    vertices, edges = [s], []
    stack = [(tree, s, t, None, "")]  # node, its s and t, junction after it, prefix
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            vertices.append(item)
            continue
        node, a, b, junction, prefix = item
        if isinstance(node, Network):
            names = {node.s: a, node.t: b}
            for v in node.vertices:
                if v not in names:
                    vertices.append(prefix + v)
                elif v == node.t and junction:
                    vertices.append(junction)
            edges.extend(Edge(names.get(e.u) or prefix + e.u, names.get(e.v) or prefix + e.v,
                              e.label, e.weight) for e in node.edges)
            continue
        if junction:
            stack.append(junction)
        if isinstance(node, Edge):
            edges.append(Edge(a, b, node.label, node.weight))
            continue
        mode, children = node
        k = len(children)
        if mode == SERIES:
            joints = [a, *(f"{prefix}s{i}" for i in range(2, k + 1)), b]
            ends = [(joints[i], joints[i + 1], joints[i + 1] if i < k - 1 else None)
                    for i in range(k)]
        elif mode == PARALLEL:
            ends = [(a, b, None)] * k
        else:
            raise ValueError(f"unknown composition mode {mode!r}")
        for i in reversed(range(k)):
            stack.append((children[i], *ends[i], f"{prefix}{i + 1}."))
    vertices.append(t)
    return Network(tuple(vertices), s, t, tuple(edges), formula)


def compose_networks(mode: str, parts: Sequence[Network]) -> Network:
    """Series or parallel composition of two or more two-terminal networks,
    named by the module's rule with terminals ``s`` and ``t``; parts that
    share an edge label raise ``LabelCollisionError``."""
    if len(parts) < 2:
        raise ValueError("composition needs at least two parts")
    return _assemble((mode, parts), "s", "t")


def _leaf_weight(weights, label: str) -> tuple:
    """The weight of ``label`` as a reduced ``(numerator, denominator)`` pair:
    one when ``weights`` is empty, else its entry, which must be positive."""
    if not weights:
        return 1, 1
    if label not in weights:
        raise ValueError(f"weights give no value for label {label!r}")
    w = weights[label]
    if type(w) is not Fraction:
        w = Fraction(w)
    if w.numerator <= 0:
        raise ValueError(f"edge {label!r} needs a positive rational weight")
    return w.numerator, w.denominator


def _formula_network(f: Formula, weight, s: str, t: str) -> Network:
    """Leaf i is the edge ``x{i}`` of weight ``weight("x{i}")``."""
    tree = fold(f, lambda g: Edge(s, t, f"x{g.var}", weight(f"x{g.var}")),
                lambda parts: (SERIES, parts), lambda parts: (PARALLEL, parts))
    return _assemble(tree, s, t, f)


def formula_graph(f: Formula, weights: Mapping[str, Fraction] | None = None) -> Network:
    """The two-terminal series-parallel network of a read-once formula.

    Leaf i becomes the single edge labeled ``x{i}``; AND composes children in
    series, OR in parallel, and the whole tree is assembled in one pass with
    terminals ``s`` and ``t``.  ``weights`` maps edge labels to rationals and
    defaults to all ones; a non-empty mapping must cover every label.
    """
    return _formula_network(f, lambda label: Fraction(*_leaf_weight(weights, label)), "s", "t")


def dual_network(f: Formula, weights: Mapping[str, Fraction] | None = None) -> Network:
    """Structural dual of ``formula_graph(f, weights)``.

    Gates are swapped via the dual formula, the terminals are ``s'``/``t'``,
    and each dual edge carries the reciprocal weight of its primal partner.
    A non-empty ``weights`` must cover every label, as for the primal.
    """
    return _formula_network(dual_formula(f),
                            lambda label: Fraction(*_leaf_weight(weights, label)[::-1]),
                            "s'", "t'")


# ---------------------------------------------------------------------------
# subgraph selection
# ---------------------------------------------------------------------------

PRIMAL = "primal"
DUAL = "dual"


def selector_from_assignment(net: Network, x, polarity: str = PRIMAL) -> tuple:
    """The host edges that the assignment ``x`` keeps, in edge order.

    On a formula-derived network bit i sets the leaf ``x{first_var + i}``;
    on any other network bit i sets the i-th edge.  An edge is present when
    its bit is 1, or 0 on a negated leaf; primal polarity keeps the present
    edges, dual polarity the absent ones.
    """
    f = net.formula
    bits = as_bits(x, len(net.edges) if f is None else f.n_vars)
    if polarity not in (PRIMAL, DUAL):
        raise ValueError(f"unknown polarity {polarity!r}")
    keep = 1 if polarity == PRIMAL else 0
    return tuple(e for e, (i, flip) in zip(net.edges, net._selection)
                 if bits[i] ^ flip == keep)


def subgraph(net: Network, kept) -> Network:
    """The subgraph of ``net`` on the edges ``kept``, validated as any network;
    every vertex (terminals included) is retained."""
    return Network(net.vertices, net.s, net.t, tuple(kept))


def formula_subgraph(f: Formula, x, weights=None, polarity: str = PRIMAL) -> Network:
    """Input-selected subgraph of the formula network or of its dual.

    Primal polarity keeps the edges switched on by ``x``; dual polarity keeps
    the dual edges of those switched off.  The dual host shares the primal's
    labels and leaf negations, so the same assignment drives both.
    """
    host = formula_graph(f, weights) if polarity == PRIMAL else dual_network(f, weights)
    return subgraph(host, selector_from_assignment(host, x, polarity))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json(net: Network) -> bytes:
    doc = {
        "s": net.s,
        "t": net.t,
        "vertices": list(net.vertices),
        "edges": [{"u": e.u, "v": e.v, "label": e.label, "weight": str(e.weight)}
                  for e in net.edges],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=False).encode()


def from_json(data) -> Network:
    doc = json.loads(data.decode() if isinstance(data, bytes) else data)
    edges = tuple(Edge(e["u"], e["v"], e["label"], Fraction(e["weight"]))
                  for e in doc["edges"])
    return Network(tuple(doc["vertices"]), doc["s"], doc["t"], edges)


def to_dot(net: Network) -> bytes:
    lines = ["graph network {"]
    for v in net.vertices:
        mark = ""
        if v == net.s:
            mark = ' [shape=doublecircle, role="s"]'
        elif v == net.t:
            mark = ' [shape=doublecircle, role="t"]'
        lines.append(f'  "{v}"{mark};')
    for e in net.edges:
        lines.append(f'  "{e.u}" -- "{e.v}" [label="{e.label}, c={e.weight}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def export(net: Network, fmt: str = "json") -> bytes:
    """Deterministic serialization; ``json`` round-trips through from_json."""
    if fmt == "json":
        return to_json(net)
    if fmt == "dot":
        return to_dot(net)
    raise ValueError(f"unknown export format {fmt!r}")
