"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad formula, disconnected
terminals, budget exceeded, ...), 2 on a usage error.  Machine-readable
output is available behind ``--json`` where noted; all randomized commands
take an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import verify as verify_mod
from .electrical import (
    EXACT_SP,
    LAPLACIAN,
    MAXFLOW,
    SP_RECURSION,
    cut_size,
    decompose_flow,
    effective_resistance,
    optimal_flow,
    witness_cut,
)
from .errors import (
    AssignmentLengthError,
    DisconnectedError,
    DomainTooLargeError,
    FormulaError,
    LabelCollisionError,
    NotSeriesParallelError,
    PromiseMismatchError,
    SearchBudgetError,
)
from .extended import is_inf
from .formula import DOMAIN_CAP, all_inputs, nested_text, parse_formula, render
from .graphs import (
    DUAL,
    PRIMAL,
    dual_network,
    export,
    formula_graph,
    formula_subgraph,
)
from .nand import fault_complexity, is_k_fault, naive_cost, simulate_game
from .spanprog import (
    approx_negative_witness,
    approx_positive_witness,
    build_span_program,
    negative_witness,
    optimal_weights,
    positive_witness,
    witness_extrema,
)

DOMAIN_ERRORS = (
    FormulaError, AssignmentLengthError, PromiseMismatchError,
    LabelCollisionError, NotSeriesParallelError, DisconnectedError,
    SearchBudgetError, DomainTooLargeError, ValueError,
)


def _load_weights(path):
    """The ``--weights`` file: one JSON object of label: number or numeric string."""
    if path is None:
        return None
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read weights file {path!r}: {exc.strerror}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"weights file {path!r} must hold one JSON object of label: weight")
    weights = {}
    for label, value in doc.items():
        try:
            if isinstance(value, bool):
                raise TypeError("a boolean is not a weight")
            weights[label] = Fraction(value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"label {label!r} has no rational weight: {value!r}") from exc
    return weights


def _fmt(value) -> str:
    if value is None:
        return "-"
    if is_inf(value):
        return "inf"
    return str(value)


def _json_value(value):
    """A finite float as a JSON number, anything else as its ``_fmt`` string."""
    return value if isinstance(value, float) and not is_inf(value) else _fmt(value)


def _tree_lines(f):
    stack = [(f, 0)]  # preorder, each node with its depth
    while stack:
        g, depth = stack.pop()
        yield "  " * depth + (f"{'~' if g.negated else ''}x{g.var}" if g.is_leaf else g.kind)
        stack.extend((child, depth + 1) for child in reversed(g.children))


def _formula_doc(f) -> str:
    """The ``json.dumps`` text of the nested tree, built without recursion."""
    return nested_text(
        f,
        lambda g: (f'{{"leaf": {g.var}, "negated": {json.dumps(g.negated)}}}' if g.is_leaf
                   else f'{{"gate": "{g.kind}", "children": ['),
        lambda g: "" if g.is_leaf else "]}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    f = parse_formula(args.formula)
    if args.json:
        print(f'{{"formula": {json.dumps(render(f))}, "n": {f.n_vars}, '
              f'"depth": {f.depth()}, "tree": {_formula_doc(f)}}}')
    else:
        print("\n".join(_tree_lines(f)))
        print(f"normalized: {render(f)}")
        print(f"N={f.n_vars}")
    return 0


def _cmd_graph(args) -> int:
    f = parse_formula(args.formula)
    weights = _load_weights(args.weights)
    net = dual_network(f, weights) if args.dual else formula_graph(f, weights)
    sys.stdout.write(export(net, args.format).decode())
    return 0


def _subnet(args, polarity):
    return formula_subgraph(parse_formula(args.formula), args.x,
                            _load_weights(args.weights), polarity)


def _cmd_resist(args) -> int:
    polarity = DUAL if args.dual else PRIMAL
    net = _subnet(args, polarity)
    backend = LAPLACIAN if args.float else EXACT_SP
    value = effective_resistance(net, backend)
    if args.json:
        print(json.dumps({"resistance": _json_value(value), "backend": backend}))
    else:
        print(_fmt(value))
    return 0


def _cmd_flow(args) -> int:
    net = _subnet(args, PRIMAL)
    flow, energy = optimal_flow(net)
    pieces = decompose_flow(flow)
    doc = {
        "energy": str(energy),
        "flow": [{"u": u, "v": v, "label": label, "value": str(val)}
                 for (u, v, label), val in sorted(flow.values.items())
                 if val > 0],
        "decomposition": [
            {"coefficient": str(c), "kind": kind,
             "edges": [{"u": u, "v": v, "label": label} for (u, v, label) in edges]}
            for c, kind, edges in pieces
        ],
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"energy {energy}")
        for entry in doc["flow"]:
            print(f"  {entry['label']}: {entry['u']} -> {entry['v']}  {entry['value']}")
    return 0


def _cmd_cut(args) -> int:
    f = parse_formula(args.formula)
    net = formula_graph(f, _load_weights(args.weights))
    backend = SP_RECURSION if args.backend == "sp" else MAXFLOW
    value = cut_size(net, args.x, backend)
    doc = {"cut_size": _fmt(value), "backend": backend}
    if not is_inf(value):
        kappa = witness_cut(net, args.x)
        doc["s_side"] = sorted(kappa.s_side())
    if args.json:
        print(json.dumps(doc))
    else:
        print(_fmt(value))
        if "s_side" in doc:
            print("s-side:", " ".join(doc["s_side"]))
    return 0


def _cmd_witness(args) -> int:
    f = parse_formula(args.formula)
    weights = _load_weights(args.weights)
    program = build_span_program(formula_graph(f, weights))
    handler = {
        "pos": positive_witness,
        "neg": negative_witness,
        "approx-pos": approx_positive_witness,
        "approx-neg": approx_negative_witness,
    }[args.kind]
    report = handler(program, args.x)
    doc = {
        "kind": report.kind,
        "size": _json_value(report.size),
        "size_float": report.size_float,
        "error": _json_value(report.error),
        "residual": report.residual,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"{doc['kind']}: size={doc['size']} error={doc['error']}")
    return 0


def _cmd_weights(args) -> int:
    f = parse_formula(args.formula)
    cert = optimal_weights(f)
    sys.stdout.write(cert.to_json().decode() + "\n")
    return 0


def _cmd_extrema(args) -> int:
    f = parse_formula(args.formula)
    weights = _load_weights(args.weights)
    if 1 << f.n_vars > DOMAIN_CAP:
        raise DomainTooLargeError("extrema sweep capped at 2^20 inputs")
    program = build_span_program(formula_graph(f, weights))
    ext = witness_extrema(program, all_inputs(f.n_vars), f,
                          include_approx=not args.no_approx)
    doc = {
        "w_plus": _fmt(ext.w_plus),
        "w_minus": _fmt(ext.w_minus),
        "approx_plus": ext.approx_plus,
        "approx_minus": ext.approx_minus,
        "bound": ext.bound,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"W+={doc['w_plus']} W-={doc['w_minus']} "
              f"W~+={doc['approx_plus']} W~-={doc['approx_minus']} "
              f"bound={doc['bound']}")
    return 0


def _cmd_fault(args) -> int:
    report = fault_complexity(args.d, args.x)
    if args.json:
        print(json.dumps({"f_a": _fmt(report.f_a), "f_b": _fmt(report.f_b),
                          "f": _fmt(report.f), "winnable": report.winnable}))
    else:
        print(f"F_A={_fmt(report.f_a)} F_B={_fmt(report.f_b)} F={_fmt(report.f)}")
    return 0


def _cmd_kfault(args) -> int:
    result = is_k_fault(args.d, args.k, args.x)
    print(json.dumps({"k_fault": result}) if args.json else str(result).lower())
    return 0


def _cmd_game(args) -> int:
    stats = simulate_game(args.d, args.x, seed=args.seed, reps=args.reps,
                          keep_transcripts=args.transcripts or None)
    if args.json:
        sys.stdout.write(stats.to_json().decode() + "\n")
    else:
        naive = f"{naive_cost(args.d):.4f}" if args.d else _fmt(None)
        print(f"wins {stats.wins}/{stats.reps}  mean cost {stats.mean_cost:.4f}  "
              f"bound {stats.bound:.4f}  naive {naive}")
    return 0


def _cmd_bounds(args) -> int:
    params = {}
    if args.family == "line":
        params = {"n": args.n, "h": args.h}
    elif args.family == "balloon":
        params = {"n": args.n}
    else:
        params = {"d": args.d, "k": args.k}
    fam = bounds_mod.example_family(
        "nand-kfault" if args.family == "nand" else args.family, **params)
    report = bounds_mod.compute_bounds(fam.formula, fam.weights, fam.domain,
                                       unit_weights=args.unit)
    if args.json:
        sys.stdout.write(report.to_json().decode() + "\n")
    else:
        print(report.to_text())
    return 0


def _cmd_product(args) -> int:
    levels = []
    for chunk in args.levels.split(","):
        try:
            kind, n, h = chunk.strip().split(":")
            n, h = int(n), int(h)
        except ValueError:
            raise ValueError(f"level {chunk.strip()!r} is not kind:N:h with integers N, h") from None
        if kind not in ("and", "or"):
            raise ValueError(f"level kind must be and/or, got {kind!r}")
        levels.append((kind, n, h))
    report = bounds_mod.verify_resistance_product(levels)
    if args.json:
        sys.stdout.write(report.to_json().decode() + "\n")
    else:
        print(f"max R  (1-side) = {report.r_max}")
        print(f"max R' (0-side) = {report.r_dual_max}")
        print(f"product         = {report.product}")
        print(f"expected        = {report.expected}  "
              f"({'equal' if report.equal else 'MISMATCH'})")
        print(f"estimate prod(sqrt(N/h)) = {report.quantum_bound:.6f}")
    return 0


def _cmd_verify(args) -> int:
    names = verify_mod.resolve_suite(args.suite)
    results = verify_mod.run_suite(names, jobs=args.jobs, as_json=args.json)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formulaflow",
        description="Read-once AND-OR formulas as two-terminal networks: "
                    "resistances, flows, cuts, witness sizes, and games.")
    parser.add_argument("--jobs", type=int,
                        default=os.environ.get("FF_JOBS", "1"),
                        help="worker count for sweeps (output order is "
                             "deterministic regardless)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("parse", _cmd_parse, help="parse and normalize a formula")
    p.add_argument("-f", "--formula", required=True)

    p = add("graph", _cmd_graph, help="export the formula network")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--weights", help="JSON file mapping labels to rationals")

    p = add("resist", _cmd_resist, help="effective resistance of the selected subgraph")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-x", required=True, help="assignment bitstring, x1 first")
    p.add_argument("--dual", action="store_true")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--float", action="store_true")
    p.add_argument("--weights")

    p = add("flow", _cmd_flow, help="optimal unit flow and its decomposition")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-x", required=True)
    p.add_argument("--weights")

    p = add("cut", _cmd_cut, help="cut size of the selected subgraph")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-x", required=True)
    p.add_argument("--backend", choices=("maxflow", "sp"), default="maxflow")
    p.add_argument("--weights")

    p = add("witness", _cmd_witness, help="witness sizes of the span program")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-x", required=True)
    p.add_argument("--kind", choices=("pos", "neg", "approx-pos", "approx-neg"),
                   default="pos")
    p.add_argument("--weights")

    p = add("weights", _cmd_weights, help="certified near-optimal edge weights")
    p.add_argument("-f", "--formula", required=True)

    p = add("extrema", _cmd_extrema, help="witness-size extrema over all inputs")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--weights")
    p.add_argument("--no-approx", action="store_true")

    p = add("fault", _cmd_fault, help="fault complexity of an instance")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-x", required=True)

    p = add("kfault", _cmd_kfault, help="k-fault membership")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-x", required=True)

    p = add("game", _cmd_game, help="simulate the two-player game")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-x", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=32)
    p.add_argument("--transcripts", action="store_true")

    p = add("bounds", _cmd_bounds, help="bound figures for an example family")
    p.add_argument("--family", choices=("line", "balloon", "nand"), required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--unit", action="store_true", help="force unit weights")

    p = add("product", _cmd_product, help="composed resistance-product identity")
    p.add_argument("--levels", required=True,
                   help="comma-separated kind:N:h, e.g. and:4:2,or:3:1")

    p = add("verify", _cmd_verify, help="run verification suites")
    p.add_argument("--suite", default="all")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point it at devnull so
        # the exit-time flush stays quiet, as Python's SIGPIPE note advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
