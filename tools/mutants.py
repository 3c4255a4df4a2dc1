"""A mutation probe: which single-operator slips in a module do the tests miss?

Each mutant flips one operator in the named functions of one module of
``src/formulaflow`` (``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``,
``in`` <-> ``not in``, ``is`` <-> ``is not``, ``+`` <-> ``-``, ``*`` <-> ``/``,
``and`` <-> ``or``), is written into a temporary copy of ``src/``, and the
given test files run against it with a time limit.  A mutant is killed when
the tests fail, survives when they pass and hangs when they overrun.  The
probe prints the three counts and each survivor and hang, with its line.

    python tools/mutants.py formula --functions _level_classes count_composed_domain \\
        --tests tests/test_formula.py tests/test_domain_digest.py

It is a tool, not a test: Tier-1 does not collect it, and one run can take
as long as the test files times the mutant count.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.Module, functions) -> list:
    """Every (node, field, index) whose operator SWAPS can flip, inside the
    named functions (all of the module when none is named), in a fixed order."""
    roots = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in functions] if functions else [tree]
    found, seen = [], set()
    for root in roots:
        for node in ast.walk(root):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.Compare):
                found += [(node, "ops", i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in SWAPS:
                found.append((node, "op", None))
    return found


def mutate(source: str, functions, k: int) -> tuple[str, str]:
    """The source with site ``k`` flipped, and a one-line description of it."""
    tree = ast.parse(source)
    node, field, index = sites(tree, functions)[k]
    old = getattr(node, field) if index is None else getattr(node, field)[index]
    new = SWAPS[type(old)]()
    if index is None:
        setattr(node, field, new)
    else:
        getattr(node, field)[index] = new
    where = f"line {node.lineno}" + ("" if index is None else f", comparison {index + 1}")
    line = source.splitlines()[node.lineno - 1].strip()
    return ast.unparse(tree), f"{where}: {type(old).__name__} -> {type(new).__name__}: {line}"


def run_tests(src: Path, tests, limit: float) -> str:
    """'killed', 'survived' or 'hung' for the test files against ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return "hung"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name in src/formulaflow, e.g. formula")
    parser.add_argument("--functions", nargs="*", default=[],
                        help="only mutate these functions (default: the whole module)")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run")
    parser.add_argument("--limit", type=float, default=300.0,
                        help="seconds before a test run counts as hung")
    args = parser.parse_args(argv)
    path = ROOT / "src" / "formulaflow" / f"{args.module}.py"
    source = path.read_text()
    count = len(sites(ast.parse(source), args.functions))
    outcomes = {"killed": [], "survived": [], "hung": []}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "formulaflow" / path.name
        if run_tests(src, args.tests, args.limit) != "survived":
            print("the tests fail on the unmutated source", file=sys.stderr)
            return 1
        for k in range(count):
            text, what = mutate(source, args.functions, k)
            target.write_text(text)
            outcome = run_tests(src, args.tests, args.limit)
            outcomes[outcome].append(what)
            print(f"[{k + 1}/{count}] {outcome}: {what}", flush=True)
    print(" ".join(f"{name} {len(found)}" for name, found in outcomes.items()))
    for name in ("survived", "hung"):
        for what in outcomes[name]:
            print(f"{name}: {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
