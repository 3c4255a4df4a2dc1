"""The benchmark tracer's targets exist and see the domain sweeps.

``perfbench/tracing.py`` replaces library module attributes by name and calls
every ``ROUTES`` entry.  A rename, a dropped import or a sweep that stops
calling through those module globals would otherwise show only when a traced
benchmark run crashes or reports too few calls.  The file is read, never
imported from its directory, so nothing is written beside it.
"""

import pathlib
import types

import formulaflow as ff
from formulaflow import bounds, spanprog
from formulaflow.formula import all_inputs

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_patched_and_routed_targets_resolve():
    tracing = _tracing()
    missing = [f"{module.__name__}.{attr}" for module, attr, _name in tracing.PATCHED
               if not callable(getattr(module, attr, None))]
    assert missing == []
    assert callable(bounds.cut_size)  # patched beside PATCHED, once per backend
    assert [attr for attr, (_name, fn) in tracing.ROUTES.items() if not callable(fn)] == []


def test_patched_bindings_see_every_domain_sweep():
    tracer = _tracing().Tracer()
    saved = tracer.patch()
    try:
        f = ff.build_nand_tree(2)  # 16 inputs: 7 of them 1-inputs, 9 0-inputs
        ff.compute_bounds(f)
        ff.verify_resistance_product([("or", 2, 1), ("and", 2, 1)])  # the same 16
        ff.witness_extrema(ff.build_span_program(ff.formula_graph(f)),
                           all_inputs(4), f, include_approx=False)
    finally:
        tracer.unpatch(saved)
    assert bounds.eval_formula is ff.eval_formula
    assert spanprog.formula_resistance is ff.formula_resistance
    calls = tracer.summary()["calls"]
    # each sweep reads a value and a resistance per input from one live-side
    # walk, ``electrical._live_side``, which no span wraps: neither
    # ``eval_formula`` nor ``formula_resistance`` is called per input
    assert calls == {
        "electrical.cut_recursion": 9,
        "graphs.formula_graph": 1,
    }
