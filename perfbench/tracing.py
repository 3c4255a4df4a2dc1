"""The table of library calls the benchmark makes, and the span tracer.

Every call a workload makes into formulaflow goes through a ``lib``
namespace built from ``ROUTES``.  Untraced, its attributes are the library
functions themselves.  Traced, each is wrapped so that the call records a
span (name, start, end, parent span, job id) in memory.

Three groups of calls happen inside the library, not in the benchmark, and are
traced by replacing module attributes for the length of the traced pass:

* ``linalg.solve_consistent`` and ``linalg.lex_min_quadratics``, which
  ``electrical``, ``spanprog`` and ``linalg`` itself look up at call time.
  This separates exact elimination from the witness solvers that call it.
* ``formula_resistance`` and ``eval_formula`` as bound in ``bounds`` and
  ``spanprog``, the folds that the domain sweeps spend their time in.
* ``formula_graph`` and ``cut_size`` as bound in ``bounds``:
  ``compute_bounds`` builds the network once and runs the recursion cut on
  every 0-input of its domain.  The cut's span is named by its backend.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from types import SimpleNamespace

import formulaflow as ff
from formulaflow import bounds, linalg, spanprog

# attribute of ``lib`` -> (span name, library function)
ROUTES = {
    "render": ("formula.render", ff.render),
    "parse_formula": ("formula.parse_formula", ff.parse_formula),
    "eval_formula": ("formula.eval_formula", ff.eval_formula),
    "formula_graph": ("graphs.formula_graph", ff.formula_graph),
    "dual_network": ("graphs.dual_network", ff.dual_network),
    "selector": ("graphs.selector_from_assignment", ff.selector_from_assignment),
    "subgraph": ("graphs.subgraph", ff.subgraph),
    "reduce_sp": ("electrical.reduce_sp",
                  partial(ff.effective_resistance, backend=ff.EXACT_SP)),
    "laplacian_float": ("electrical.laplacian_float",
                        partial(ff.effective_resistance, backend=ff.LAPLACIAN)),
    "formula_resistance": ("electrical.formula_resistance", ff.formula_resistance),
    "optimal_flow": ("electrical.optimal_flow", ff.optimal_flow),
    "decompose_flow": ("electrical.decompose_flow", ff.decompose_flow),
    "recompose": ("electrical.recompose", ff.recompose),
    "cut_maxflow": ("electrical.cut_maxflow", partial(ff.cut_size, backend=ff.MAXFLOW)),
    "cut_recursion": ("electrical.cut_recursion",
                      partial(ff.cut_size, backend=ff.SP_RECURSION)),
    "witness_cut": ("electrical.witness_cut", ff.witness_cut),
    "build_span_program": ("spanprog.build_span_program", ff.build_span_program),
    "positive_witness": ("spanprog.positive_witness", ff.positive_witness),
    "negative_witness": ("spanprog.negative_witness", ff.negative_witness),
    "approx_positive_witness": ("spanprog.approx_positive_witness",
                                ff.approx_positive_witness),
    "approx_negative_witness": ("spanprog.approx_negative_witness",
                                ff.approx_negative_witness),
    "approx_positive_reference": ("spanprog.approx_reference",
                                  ff.approx_positive_witness_reference),
    "approx_negative_reference": ("spanprog.approx_reference",
                                  ff.approx_negative_witness_reference),
    "optimal_weights": ("spanprog.optimal_weights", ff.optimal_weights),
    "witness_extrema": ("spanprog.witness_extrema", ff.witness_extrema),
    "simulate_game": ("nand.simulate_game", ff.simulate_game),
    "fault_complexity": ("nand.fault_complexity", ff.fault_complexity),
    "example_family": ("bounds.example_family", ff.example_family),
    "compute_bounds": ("bounds.compute_bounds", ff.compute_bounds),
    "verify_resistance_product": ("bounds.verify_resistance_product",
                                  ff.verify_resistance_product),
}

# (module, attribute, span name) replaced while a traced pass runs
PATCHED = (
    (linalg, "solve_consistent", "linalg.solve_consistent"),
    (linalg, "lex_min_quadratics", "linalg.lex_min_quadratics"),
    (bounds, "formula_resistance", "electrical.formula_resistance"),
    (bounds, "eval_formula", "formula.eval_formula"),
    (spanprog, "formula_resistance", "electrical.formula_resistance"),
    (spanprog, "eval_formula", "formula.eval_formula"),
    (bounds, "formula_graph", "graphs.formula_graph"),
)

# span name of a ``cut_size`` call by its backend
CUT_SPANS = {ff.MAXFLOW: "electrical.cut_maxflow", ff.SP_RECURSION: "electrical.cut_recursion"}

# spans whose calls and self time are reported as per-layer metrics
REPORTED = (
    "formula.render", "formula.parse_formula", "formula.eval_formula",
    "graphs.formula_graph", "graphs.dual_network",
    "graphs.selector_from_assignment", "graphs.subgraph",
    "electrical.reduce_sp", "electrical.laplacian_float",
    "electrical.formula_resistance", "electrical.optimal_flow",
    "electrical.decompose_flow", "electrical.recompose",
    "electrical.cut_maxflow", "electrical.cut_recursion", "electrical.witness_cut",
    "linalg.solve_consistent", "linalg.lex_min_quadratics",
    "spanprog.build_span_program", "spanprog.positive_witness",
    "spanprog.negative_witness", "spanprog.approx_positive_witness",
    "spanprog.approx_negative_witness", "spanprog.approx_reference",
    "spanprog.optimal_weights", "spanprog.witness_extrema",
    "nand.simulate_game", "nand.fault_complexity",
    "bounds.example_family", "bounds.compute_bounds",
    "bounds.verify_resistance_product",
)

# work counters reported beside the spans
COUNTERS = ("graphs.edges_built", "linalg.solve_consistent.rows_max",
            "linalg.solve_consistent.cells")

NO_PARENT = -1


def plain_lib() -> SimpleNamespace:
    """The call table with no tracing: every attribute is the library call."""
    return SimpleNamespace(**{attr: fn for attr, (_name, fn) in ROUTES.items()})


class Tracer:
    """In-memory spans of one traced pass, plus work counters."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job id)
        self.stack = []
        self.job = NO_PARENT
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _count(self, name, args, result):
        if name in ("graphs.formula_graph", "graphs.dual_network"):
            self.counts["graphs.edges_built"] += len(result.edges)
        elif name == "linalg.solve_consistent":
            matrix = args[0]
            rows = len(matrix)
            cols = len(matrix[0]) if rows else 0
            self.counts["linalg.solve_consistent.cells"] += rows * cols
            key = "linalg.solve_consistent.rows_max"
            self.counts[key] = max(self.counts[key], rows)

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            self._count(name, args, result)
            return result

        return traced

    def lib(self) -> SimpleNamespace:
        return SimpleNamespace(**{attr: self.wrap(name, fn)
                                  for attr, (name, fn) in ROUTES.items()})

    def wrap_cut(self, cut_size):
        """``cut_size`` with one span name per backend."""
        by_backend = {backend: self.wrap(name, partial(cut_size, backend=backend))
                      for backend, name in CUT_SPANS.items()}

        def traced(host, x, backend=ff.MAXFLOW):
            return by_backend[backend](host, x)

        return traced

    def patch(self):
        """Replace the ``PATCHED`` module attributes and ``bounds.cut_size``;
        returns the undo list."""
        saved = [(bounds, "cut_size", bounds.cut_size)]
        bounds.cut_size = self.wrap_cut(bounds.cut_size)
        for module, attr, name in PATCHED:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return saved

    @staticmethod
    def unpatch(saved) -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls and self time per span name; self time is the span's
        duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent != NO_PARENT:
                child_time[parent] += end - start
        calls = {}
        self_s = {}
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        return {"calls": calls, "self_s": self_s}
