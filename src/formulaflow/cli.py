"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad formula, disconnected
terminals, budget exceeded, ...), 2 on a usage error.  Machine-readable
output is available behind ``--json`` where noted; all randomized commands
take an explicit ``--seed``.  Each handler returns its ``--json`` text and
its plain text, and :func:`main` prints the one asked for; ``graph`` and
``verify`` write their own output and return the exit code.
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
from .errors import DomainTooLargeError, SearchBudgetError
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

DOMAIN_ERRORS = (ValueError, SearchBudgetError, DomainTooLargeError)


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

def _cmd_parse(args):
    f = parse_formula(args.formula)
    return (f'{{"formula": {json.dumps(render(f))}, "n": {f.n_vars}, '
            f'"depth": {f.depth()}, "tree": {_formula_doc(f)}}}',
            "\n".join([*_tree_lines(f), f"normalized: {render(f)}", f"N={f.n_vars}"]))


def _cmd_graph(args) -> int:
    f = parse_formula(args.formula)
    weights = _load_weights(args.weights)
    net = dual_network(f, weights) if args.dual else formula_graph(f, weights)
    sys.stdout.write(export(net, args.format).decode())
    return 0


def _subnet(args, polarity):
    return formula_subgraph(parse_formula(args.formula), args.x,
                            _load_weights(args.weights), polarity)


def _cmd_resist(args):
    net = _subnet(args, DUAL if args.dual else PRIMAL)
    backend = LAPLACIAN if args.float else EXACT_SP
    value = effective_resistance(net, backend)
    return json.dumps({"resistance": _json_value(value), "backend": backend}), _fmt(value)


def _cmd_flow(args):
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
    return json.dumps(doc), "\n".join(
        [f"energy {energy}",
         *(f"  {e['label']}: {e['u']} -> {e['v']}  {e['value']}" for e in doc["flow"])])


def _cmd_cut(args):
    f = parse_formula(args.formula)
    net = formula_graph(f, _load_weights(args.weights))
    backend = SP_RECURSION if args.backend == "sp" else MAXFLOW
    value = cut_size(net, args.x, backend)
    doc = {"cut_size": _fmt(value), "backend": backend}
    lines = [_fmt(value)]
    if not is_inf(value):
        doc["s_side"] = sorted(witness_cut(net, args.x).s_side())
        lines.append(f"s-side: {' '.join(doc['s_side'])}")
    return json.dumps(doc), "\n".join(lines)


# --kind -> solver
_WITNESS_KINDS = {
    "pos": positive_witness,
    "neg": negative_witness,
    "approx-pos": approx_positive_witness,
    "approx-neg": approx_negative_witness,
}


def _cmd_witness(args):
    f = parse_formula(args.formula)
    program = build_span_program(formula_graph(f, _load_weights(args.weights)))
    report = _WITNESS_KINDS[args.kind](program, args.x)
    doc = {
        "kind": report.kind,
        "size": _json_value(report.size),
        "size_float": report.size_float,
        "error": _json_value(report.error),
        "residual": report.residual,
    }
    return json.dumps(doc), f"{doc['kind']}: size={doc['size']} error={doc['error']}"


def _cmd_weights(args):
    text = optimal_weights(parse_formula(args.formula)).to_json().decode()
    return text, text


def _cmd_extrema(args):
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
    return json.dumps(doc), (f"W+={doc['w_plus']} W-={doc['w_minus']} "
                             f"W~+={doc['approx_plus']} W~-={doc['approx_minus']} "
                             f"bound={doc['bound']}")


def _cmd_fault(args):
    report = fault_complexity(args.d, args.x)
    return (json.dumps({"f_a": _fmt(report.f_a), "f_b": _fmt(report.f_b),
                        "f": _fmt(report.f), "winnable": report.winnable}),
            f"F_A={_fmt(report.f_a)} F_B={_fmt(report.f_b)} F={_fmt(report.f)}")


def _cmd_kfault(args):
    result = is_k_fault(args.d, args.k, args.x)
    return json.dumps({"k_fault": result}), str(result).lower()


def _cmd_game(args):
    stats = simulate_game(args.d, args.x, seed=args.seed, reps=args.reps,
                          keep_transcripts=args.transcripts or None)
    naive = f"{naive_cost(args.d):.4f}" if args.d else _fmt(None)
    return stats.to_json().decode(), (f"wins {stats.wins}/{stats.reps}  "
                                      f"mean cost {stats.mean_cost:.4f}  "
                                      f"bound {stats.bound:.4f}  naive {naive}")


# --family -> (example family, the flags that set its parameters)
_FAMILIES = {
    "line": ("line", ("n", "h")),
    "balloon": ("balloon", ("n",)),
    "nand": ("nand-kfault", ("d", "k")),
}


def _cmd_bounds(args):
    family, params = _FAMILIES[args.family]
    fam = bounds_mod.example_family(family, **{p: getattr(args, p) for p in params})
    report = bounds_mod.compute_bounds(fam.formula, fam.weights, fam.domain,
                                       unit_weights=args.unit)
    return report.to_json().decode(), report.to_text()


def _cmd_product(args):
    levels = []
    for chunk in args.levels.split(","):
        try:
            kind, n, h = chunk.split(":")
            kind, n, h = kind.strip(), int(n), int(h)
        except ValueError:
            raise ValueError(f"level {chunk.strip()!r} is not kind:N:h with integers N, h") from None
        if kind not in ("and", "or"):
            raise ValueError(f"level kind must be and/or, got {kind!r}")
        levels.append((kind, n, h))
    report = bounds_mod.verify_resistance_product(levels)
    return report.to_json().decode(), "\n".join([
        f"max R  (1-side) = {report.r_max}",
        f"max R' (0-side) = {report.r_dual_max}",
        f"product         = {report.product}",
        f"expected        = {report.expected}  ({'equal' if report.equal else 'MISMATCH'})",
        f"estimate prod(sqrt(N/h)) = {report.quantum_bound:.6f}",
    ])


def _cmd_verify(args) -> int:
    names = verify_mod.resolve_suite(args.suite)
    results = verify_mod.run_suite(names, jobs=args.jobs, as_json=args.json)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the arguments several subcommands take: flag -> (its flags, add_argument
# keywords).  kfault's -k sits here too, so that its required arguments keep
# their order -d, -k, -x in usage errors.
_SHARED = {
    "-f": (("-f", "--formula"), {"required": True,
                                 "help": "read-once formula, e.g. x1&(x2|~x3)"}),
    "-x": (("-x",), {"required": True, "help": "assignment bitstring, x1 first"}),
    "--weights": (("--weights",), {"help": "JSON file mapping labels to rationals"}),
    "-d": (("-d",), {"type": int, "required": True, "help": "depth of the NAND tree"}),
    "-k": (("-k",), {"type": int, "required": True}),
}

# subcommand -> (handler, help line, the shared arguments it takes)
_COMMANDS = {
    "parse": (_cmd_parse, "parse and normalize a formula", ("-f",)),
    "graph": (_cmd_graph, "export the formula network", ("-f", "--weights")),
    "resist": (_cmd_resist, "effective resistance of the selected subgraph",
               ("-f", "-x", "--weights")),
    "flow": (_cmd_flow, "optimal unit flow and its decomposition", ("-f", "-x", "--weights")),
    "cut": (_cmd_cut, "cut size of the selected subgraph", ("-f", "-x", "--weights")),
    "witness": (_cmd_witness, "witness sizes of the span program", ("-f", "-x", "--weights")),
    "weights": (_cmd_weights, "certified near-optimal edge weights", ("-f",)),
    "extrema": (_cmd_extrema, "witness-size extrema over all inputs", ("-f", "--weights")),
    "fault": (_cmd_fault, "fault complexity of an instance", ("-d", "-x")),
    "kfault": (_cmd_kfault, "k-fault membership", ("-d", "-k", "-x")),
    "game": (_cmd_game, "simulate the two-player game", ("-d", "-x")),
    "bounds": (_cmd_bounds, "bound figures for an example family", ()),
    "product": (_cmd_product, "composed resistance-product identity", ()),
    "verify": (_cmd_verify, "run verification suites", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formulaflow",
        description="Read-once AND-OR formulas as two-terminal networks: "
                    "resistances, flows, cuts, witness sizes, and games.")
    parser.add_argument("--jobs", type=int,
                        default=os.environ.get("FF_JOBS", "1"),
                        help="worker count for verify suites (output order is "
                             "deterministic regardless)")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, (handler, help_line, shared) in _COMMANDS.items():
        p = cmd[name] = sub.add_parser(name, help=help_line)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag in shared:
            flags, kwargs = _SHARED[flag]
            p.add_argument(*flags, **kwargs)

    for name in ("graph", "resist"):
        cmd[name].add_argument("--dual", action="store_true")
    cmd["graph"].add_argument("--format", choices=("dot", "json"), default="json")
    group = cmd["resist"].add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--float", action="store_true")
    cmd["cut"].add_argument("--backend", choices=("maxflow", "sp"), default="maxflow")
    cmd["witness"].add_argument("--kind", choices=_WITNESS_KINDS, default="pos")
    cmd["extrema"].add_argument("--no-approx", action="store_true")
    cmd["game"].add_argument("--seed", type=int, required=True)
    cmd["game"].add_argument("--reps", type=int, default=32)
    cmd["game"].add_argument("--transcripts", action="store_true")
    bounds = cmd["bounds"]
    bounds.add_argument("--family", choices=_FAMILIES, required=True)
    bounds.add_argument("--n", type=int, default=4)
    bounds.add_argument("--h", type=int, default=None)
    bounds.add_argument("--d", type=int, default=2)
    bounds.add_argument("--k", type=int, default=0)
    bounds.add_argument("--unit", action="store_true", help="force unit weights")
    cmd["product"].add_argument("--levels", required=True,
                                help="comma-separated kind:N:h, e.g. and:4:2,or:3:1")
    cmd["verify"].add_argument("--suite", default="all")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    try:
        result = args.handler(args)
        if isinstance(result, tuple):
            print(result[0] if args.json else result[1])
            result = 0
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return result
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
