"""Query-cost bound figures over input domains, and the example families.

For a host network and a domain of inputs, three bound figures are compared:

* ``bound_old``  -- sqrt(max R over 1-side * edge count),
* ``bound_cut``  -- sqrt(max R over 1-side * max cut size over 0-side),
* ``bound_new``  -- sqrt(max R over 1-side * max dual resistance over 0-side).

With unit weights the three are provably ordered new <= cut <= old, because
the cut size equals the shortest dual path length, which the dual resistance
never exceeds, and no cut crosses more than every edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# perfbench/tracing.py patches eval_formula and formula_resistance here: keep them imported
from .electrical import SP_RECURSION, _leaf_pairs, cut_size, formula_resistance, live_sides
from .errors import DomainTooLargeError
from .extended import as_float, is_inf
from .formula import (
    DOMAIN_CAP,
    Domain,
    Formula,
    _canonical,
    _level_classes,
    all_inputs,
    as_bits,
    build_nand_tree,
    composed_formula,
    eval_formula,
    explicit_domain,
    gate,
    leaf,
    promise_domain,
    side_maxima,
)
from .graphs import Network, formula_graph
from .nand import _leaf_count, is_k_fault


@dataclass(frozen=True)
class BoundReport:
    r_max: object
    r_dual_max: object
    c_max: object
    n_edges: int
    bound_old: float | None
    bound_cut: float | None
    bound_new: float | None
    weights: dict
    domain: str
    exhaustive: bool  # every domain is swept point by point or class by class
    attain_r: tuple | None
    attain_r_dual: tuple | None
    attain_c: tuple | None

    def to_json(self) -> bytes:
        def enc(v):
            return None if v is None else ("inf" if is_inf(v) else str(v))

        doc = {
            "r_max": enc(self.r_max),
            "r_dual_max": enc(self.r_dual_max),
            "c_max": enc(self.c_max),
            "edges": self.n_edges,
            "bound_old": self.bound_old,
            "bound_cut": self.bound_cut,
            "bound_new": self.bound_new,
            "domain": self.domain,
            "exhaustive": self.exhaustive,
        }
        return json.dumps(doc, separators=(",", ":")).encode()

    def to_text(self) -> str:
        rows = [
            ("max R (1-side)", self.r_max),
            ("max R' (0-side)", self.r_dual_max),
            ("max C (0-side)", self.c_max),
            ("edges", self.n_edges),
            ("bound sqrt(R*E)", self.bound_old),
            ("bound sqrt(R*C)", self.bound_cut),
            ("bound sqrt(R*R')", self.bound_new),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def compute_bounds(host, weights=None, domain: Domain | None = None,
                   unit_weights: bool = False) -> BoundReport:
    """Bound figures for a formula network over a domain of assignments.

    ``host`` is a Formula or a formula-derived Network (whose stored weights
    then serve as the default weight map).  The maxima of the primal
    resistance (1-inputs), dual resistance and cut size (0-inputs) are
    tracked together with their attaining inputs.  The cut size is always
    computed with unit counting, the resistances with the supplied weights
    unless ``unit_weights`` forces ones.
    """
    if isinstance(host, Network):
        if host.formula is None:
            raise ValueError("bound figures need a formula-derived network")
        f = host.formula
        if weights is None:
            weights = host.weight_map()
    else:
        f = host
    if domain is None:
        if 1 << f.n_vars > DOMAIN_CAP:
            raise DomainTooLargeError("full domain too large; pass an explicit one")
        domain = explicit_domain(all_inputs(f.n_vars))
    use_weights = None if unit_weights else weights
    net = formula_graph(f, use_weights)
    inputs = (as_bits(x, f.n_vars) for x in domain)
    (r_max, attain_r), (r_dual_max, attain_rd), (c_max, attain_c) = side_maxima(
        live_sides(f, _leaf_pairs(_canonical(f), use_weights), inputs),
        c=(0, lambda bits: cut_size(net, bits, backend=SP_RECURSION))).values()
    n_edges = f.n_vars

    def bound(a, b):
        if a is None or b is None:
            return None
        return math.sqrt(as_float(a) * as_float(b))

    return BoundReport(
        r_max, r_dual_max, c_max, n_edges,
        bound(r_max, n_edges), bound(r_max, c_max), bound(r_max, r_dual_max),
        dict(use_weights or {}), domain.kind, True, attain_r, attain_rd, attain_c,
    )


# ---------------------------------------------------------------------------
# example families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExampleFamily:
    name: str
    params: dict
    formula: Formula
    weights: dict | None
    network: Network
    domain: Domain


def _check_class_count(classes: int) -> None:
    """Refuse a family whose domain has more symmetry classes than
    ``DOMAIN_CAP``, before any of its leaves is built."""
    if classes > DOMAIN_CAP:
        raise DomainTooLargeError(f"family domain has {classes} symmetry classes, more than "
                                  f"the domain budget of {DOMAIN_CAP}")


def _line_family(n: int, h: int | None) -> ExampleFamily:
    """Single path of n unit edges under the all-ones-or-few-ones promise;
    ``h`` defaults to isqrt(n)."""
    if n < 1:
        raise ValueError(f"size n={n} must be at least 1")
    if h is None:
        h = math.isqrt(n)
    if not 1 <= h <= n:
        raise ValueError("need 1 <= h <= n")
    _check_class_count(n - h + 2)
    if n > DOMAIN_CAP:  # the leaf budget of count_composed_domain
        raise DomainTooLargeError(f"line family has {n} leaves, more than the domain "
                                  f"budget of {DOMAIN_CAP}")
    f = gate("and", [leaf(i + 1) for i in range(n)]) if n > 1 else leaf(1)
    ws = tuple(_level_classes("and", n, h))  # the and-promise's classes, by weight
    domain = Domain(tuple(tuple([1] * w + [0] * (n - w)) for w in ws),
                    tuple(math.comb(n, w) for w in ws))
    return ExampleFamily("line", {"n": n, "h": h}, f, None,
                         formula_graph(f), domain)


def _balloon_family(n: int) -> ExampleFamily:
    """A length-n path in series with an n-fold multi-edge of weight 1/n."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_class_count((n + 1) ** 2)
    path = [leaf(i + 1) for i in range(n)]
    bundle = gate("or", [leaf(n + i + 1) for i in range(n)])
    f = gate("and", path + [bundle])
    weights = {f"x{i + 1}": Fraction(1) for i in range(n)}
    weights.update({f"x{n + i + 1}": Fraction(1, n) for i in range(n)})
    # one class per (a, p): a path edges absent, p multi-edges present
    classes = [(a, p) for a in range(n + 1) for p in range(n + 1)]
    domain = Domain(
        tuple(tuple([1] * (n - a) + [0] * a + [1] * p + [0] * (n - p)) for a, p in classes),
        tuple(math.comb(n, a) * math.comb(n, p) for a, p in classes))
    return ExampleFamily("balloon", {"n": n}, f, weights,
                         formula_graph(f, weights), domain)


def _nand_kfault_family(d: int, k: int) -> ExampleFamily:
    """Alternating tree restricted to the inputs of fault level at most k."""
    n = _leaf_count(d)
    if not 0 <= 2 * k <= d:
        raise ValueError("need 0 <= k <= d/2")
    if n >= DOMAIN_CAP.bit_length():  # 2^n > DOMAIN_CAP, without building 2^n
        raise DomainTooLargeError(f"k-fault enumeration of 2^(2^{d}) inputs exceeds "
                                  f"the domain budget of {DOMAIN_CAP} inputs")
    f = build_nand_tree(d)
    domain = explicit_domain(bits for bits in all_inputs(n) if is_k_fault(d, k, bits))
    return ExampleFamily("nand-kfault", {"d": d, "k": k}, f, None,
                         formula_graph(f), domain)


def example_family(name: str, **params) -> ExampleFamily:
    """Generate one of the built-in families: line, balloon, nand-kfault."""
    if name == "line":
        return _line_family(params["n"], params.get("h"))
    if name == "balloon":
        return _balloon_family(params["n"])
    if name == "nand-kfault":
        return _nand_kfault_family(params["d"], params["k"])
    raise ValueError(f"unknown family {name!r}")


def exponent_fit(sizes, values) -> float:
    """Slope of log(value) against log(size); the empirical growth exponent."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    slope, _intercept = np.polyfit(xs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# composed resistance product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductReport:
    levels: tuple
    r_max: Fraction
    r_dual_max: Fraction
    product: Fraction
    expected: Fraction
    equal: bool
    quantum_bound: float
    domain_size: int

    def to_json(self) -> bytes:
        doc = {
            "levels": [{"kind": k, "n": n, "h": h} for (k, n, h) in self.levels],
            "r_max": str(self.r_max),
            "r_dual_max": str(self.r_dual_max),
            "product": str(self.product),
            "expected": str(self.expected),
            "equal": self.equal,
            "quantum_bound": self.quantum_bound,
            "domain_size": self.domain_size,
        }
        return json.dumps(doc, separators=(",", ":")).encode()


def verify_resistance_product(levels) -> ProductReport:
    """Exhaustively check the product identity for a promise composition.

    Builds the domain with :func:`.formula.promise_domain`, which raises
    :class:`DomainTooLargeError` past ``DOMAIN_CAP`` before it builds any
    input.  Then verifies in exact arithmetic, on the uniform composition
    chain, that the product of the worst primal resistance (over 1-inputs) and
    the worst dual resistance (over 0-inputs) equals prod(N_i) / prod(h_i).
    Also reports the accompanying estimate prod(sqrt(N_i / h_i)).
    """
    dom = promise_domain(levels)
    f = composed_formula(dom.levels)
    (r_max, _), (rd_max, _) = side_maxima(
        live_sides(f, _leaf_pairs(f, None), dom.items)).values()
    expected = math.prod(Fraction(n, h) for _kind, n, h in dom.levels)
    quantum = math.prod(math.sqrt(n / h) for _kind, n, h in dom.levels)
    product = r_max * rd_max
    return ProductReport(dom.levels, r_max, rd_max, product, expected,
                         product == expected, quantum, len(dom))
