"""Formula walks without Python recursion: one golden digest of the parser,
printer, repr and weight certificates, and inputs far deeper than the
recursion limit."""

import ast
import contextlib
import hashlib
import io
import json
import pathlib
import random
from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

import formulaflow
from formulaflow import (
    build_nand_tree,
    gate,
    leaf,
    negate_formula,
    parse_formula,
    random_formula,
    render,
)
from formulaflow.cli import main
from formulaflow.errors import FormulaError
from formulaflow.formula import AND, OR, fold
from formulaflow.spanprog import optimal_weights

MALFORMED = ["", "x0", "x1|", "(x1", "x1 x2", "y1", "~", "x1&&x2", "x1&x1",
             "(x1|x2)&(x2|x3)", "x3&x1|x2&x3|x1&x2|x3&x4", "x1)", ")", "x1(",
             "(x1 x2)", "(x1~", "~~", "x1&", "&x1", "x1 & (x2 | ) ", "x1\tx2", "x1$"]

STRUCTURE = ["x1", "x2", "x7", "x12", "(", ")", "&", "|", "~", " ", "&&"]
SOUP = STRUCTURE + ["x0", "y", "$"]


def _random_text(rng, depth=0):
    """A random formula text nested at most 50 deep; variables may repeat."""
    if depth >= 48 or rng.random() < 0.3 + 0.06 * depth:
        return f"x{rng.randint(1, 40)}"
    r = rng.random()
    if r < 0.2:
        return "~" * rng.randint(1, 3) + _random_text(rng, depth + 1)
    if r < 0.35:
        return f"({_random_text(rng, depth + 1)})"
    op = rng.choice(["&", "|", " & ", " | "])
    return op.join(_random_text(rng, depth + 1) for _ in range(rng.randint(2, 4)))


def _token_string(rng):
    """A well-formed text, a mutated one, or plain token soup."""
    r = rng.random()
    if r < 0.15:
        return "".join(rng.choice(SOUP) for _ in range(rng.randint(1, 20)))
    text = _random_text(rng)
    if r < 0.55:
        for _ in range(rng.randint(1, 3)):
            i = rng.choice([i for i in range(len(text) + 1) if not text[i:i + 1].isdigit()])
            if text[i:i + 1] in ("(", ")", "&", "|", "~", " ") and rng.random() < 0.5:
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice(STRUCTURE) + text[i:]
    return text


def _with_negations(f, rng):
    """``f`` with plain int variables and about a third of its leaves negated."""
    return fold(f, lambda g: leaf(int(g.var), negated=rng.random() < 0.33),
                partial(gate, AND), partial(gate, OR))


def _cli_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{code}|{out.getvalue()}".encode()


GOLDEN_DIGEST = "ab4341f20f418aab495e30ef801bee6e77f403f929c3ba68e862c0235d89ab71"


def _golden_digest():
    rng = random.Random(707)
    digest = hashlib.sha256()
    for text in MALFORMED + [_token_string(rng) for _ in range(2000)]:
        try:
            digest.update(repr(parse_formula(text)).encode())
        except FormulaError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
    nprng = np.random.default_rng(707)
    formulas = [build_nand_tree(d) for d in range(9)]
    formulas += [_with_negations(random_formula(nprng, int(nprng.integers(1, 60)), 4), rng)
                 for _ in range(200)]
    for f in formulas:
        cert = optimal_weights(f)
        digest.update(f"{render(f)}|{f!r}|{list(cert.weights.items())}|{cert.scalings}"
                      .encode() + cert.to_json())
    for f in formulas[9:59]:
        digest.update(_cli_bytes(["parse", "-f", render(f)]))
        digest.update(_cli_bytes(["parse", "--json", "-f", render(f)]))
    return digest.hexdigest()


def test_parse_print_and_weights_match_golden_digest():
    # 2,000 seeded token strings and the malformed cases (parse repr or error),
    # then render, repr and weight certificates of NAND trees d <= 8 and 200
    # random formulas with negated leaves, and `parse` text and --json bytes
    assert _golden_digest() == GOLDEN_DIGEST


# ---------------------------------------------------------------------------
# inputs far deeper than the recursion limit
# ---------------------------------------------------------------------------

def _chain(levels):
    """``levels`` alternating two-input gates, each with a fresh leaf on the right."""
    f = leaf(1)
    for level in range(levels):
        f = gate(AND if level % 2 == 0 else OR, [f, leaf(level + 2)])
    return f


def test_deep_chain_parses_prints_compares_and_certifies():
    f = _chain(5000)
    g = parse_formula(render(f))
    assert g == f and g is not f
    assert hash(g) == hash(f) and {f: 1}[g] == 1
    assert g != _chain(4999) and g != negate_formula(f)
    assert repr(g) == repr(f) and repr(f).count("Formula(") == 10001
    cert = optimal_weights(f)
    assert len(cert.weights) == 5001 and len(cert.scalings) == 10000
    assert cert.bound <= f.n_vars


def test_deep_chain_through_the_cli():
    text = render(_chain(5000))
    lines = _cli_bytes(["parse", "-f", text]).decode().splitlines()
    assert lines[0] == "0|or" and lines[1] == "  and" and lines[-1] == "N=5001"
    # json.loads itself recurses, so build the expected text level by level
    tree = '{"leaf": 1, "negated": false}'
    for level in range(5000):
        tree = (f'{{"gate": "{AND if level % 2 == 0 else OR}", "children": '
                f'[{tree}, {{"leaf": {level + 2}, "negated": false}}]}}')
    expected = f'{{"formula": {json.dumps(text)}, "n": 5001, "depth": 5000, "tree": {tree}}}\n'
    assert _cli_bytes(["parse", "--json", "-f", text]).decode() == f"0|{expected}"


def test_deep_nesting_and_negation_parse():
    assert parse_formula("(" * 5000 + "x7" + ")" * 5000) == leaf(1)
    assert parse_formula("~" * 5000 + "x7") == leaf(1)
    assert parse_formula("~(" * 5001 + "x1&x2" + ")" * 5001) == \
        gate(OR, [leaf(1, negated=True), leaf(2, negated=True)])


OPENERS = ["(", "~", "~(", "(x{i}&", "x{i}|(", "(x{i}|", "x{i}&(", "~x{i}&~("]
TOKENS = ["x1", "x2", "x9", "(", ")", "&", "|", "~", " ", "x0", "$"]


@st.composite
def deep_texts(draw):
    """Random token strings wrapped in up to 5,000 levels of openers."""
    pattern = draw(st.lists(st.sampled_from(OPENERS), min_size=1, max_size=3))
    depth = draw(st.integers(0, 5000))
    prefix = "".join(pattern[i % len(pattern)].format(i=i + 10) for i in range(depth))
    core = draw(st.one_of(st.sampled_from(["x1", "x1&x2|~x3"]),
                          st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)))
    closers = prefix.count("(") + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return prefix + core + ")" * max(closers, 0)


@settings(max_examples=40, deadline=None)
@given(deep_texts())
def test_deep_token_strings_never_raise_through_the_cli(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["parse", "-f", text])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# no new recursion
# ---------------------------------------------------------------------------

# every function of the package that can reach itself, and what bounds its depth
RECURSIVE = {
    "electrical.simple_st_paths.dfs": "the path length, at most the edge budget",
    "formula.random_formula.build": "the split depth, O(log N) expected for random cut points",
    "formula.enumerate_formulas.shapes": "max_depth; the enumeration is exponential in it",
    "nand.fault_complexity_bruteforce.value": "the tree depth d of its 2^d input bits",
    "nand.fault_complexity_bruteforce.paths": "the tree depth d of its 2^d input bits",
}


def _recursive_functions(path):
    """Qualified names of the functions in ``path`` that reach themselves
    through calls by name (a closure, sibling or module function, or a
    ``self``/``cls`` method)."""
    defs, calls = {}, {}
    todo = [(ast.parse(path.read_text()), ())]
    while todo:
        node, scope = todo.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
                if not isinstance(child, ast.ClassDef):
                    defs[inner] = child
            todo.append((child, inner))
    for name, node in defs.items():
        called = set()
        body = list(ast.iter_child_nodes(node))
        while body:
            item = body.pop()
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested function's calls are its own
            body.extend(ast.iter_child_nodes(item))
            if isinstance(item, ast.Call):
                func = item.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute) and getattr(func.value, "id", "") in (
                        "self", "cls"):
                    called.add(func.attr)
        # resolve each name in the innermost scope that defines it
        calls[name] = {next((name[:k] + (c,) for k in range(len(name), -1, -1)
                             if name[:k] + (c,) in defs), None) for c in called} - {None}
    found = []
    for name in defs:
        seen, stack = set(), list(calls[name])
        while stack:
            callee = stack.pop()
            if callee not in seen:
                seen.add(callee)
                stack.extend(calls[callee])
        if name in seen:
            found.append(".".join((path.stem, *name)))
    return found


def test_only_depth_bounded_functions_recurse():
    package = pathlib.Path(formulaflow.__file__).parent
    found = [name for path in sorted(package.glob("*.py")) for name in _recursive_functions(path)]
    assert sorted(found) == sorted(RECURSIVE)
