import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from formulaflow import bounds, errors, verify
from formulaflow.cli import DOMAIN_ERRORS, main
from formulaflow.formula import count_composed_domain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_tree_and_count(capsys):
    code, out, _ = run(capsys, "parse", "-f", "(x1&x2)|(x3&x4)")
    assert code == 0
    assert "N=4" in out
    assert "or" in out and "and" in out


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--json", "-f", "x1&x2")
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 2
    assert doc["formula"] == "x1&x2"


def test_parse_syntax_error_exits_one(capsys):
    code, _out, err = run(capsys, "parse", "-f", "x1&&x2")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resist"])  # missing required arguments
    assert exc.value.code == 2


def test_resist_exact(capsys):
    code, out, _ = run(capsys, "resist", "-f", "(x1&x2)|(x3&x4)", "-x", "1100",
                       "--exact")
    assert code == 0
    assert out.strip() == "2"


def test_resist_disconnected_prints_inf(capsys):
    code, out, _ = run(capsys, "resist", "-f", "x1&x2", "-x", "10")
    assert code == 0
    assert out.strip() == "inf"


def test_resist_dual_and_float(capsys):
    code, out, _ = run(capsys, "resist", "-f", "x1&x2", "-x", "00", "--dual",
                       "--float", "--json")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["resistance"] - 0.5) < 1e-12


def test_float_routes_keep_a_dead_end_far_heavier_than_its_path(capsys, tmp_path):
    # x1 (conductance ~2^53) hangs off s once x2 is absent, beside the unit
    # edge x3 from s to t: an assembled diagonal rounds the unit conductance
    # away against x1's, and a dense solve of it was singular
    path = tmp_path / "w.json"
    path.write_text('{"x1": "9007199187632128", "x2": "1", "x3": "1"}')
    args = ("-f", "(x1&x2)|x3", "-x", "101", "--weights", str(path))
    assert run(capsys, "resist", "--float", *args) == (0, "1.0\n", "")
    code, out, _ = run(capsys, "witness", "--json", "--kind", "pos", *args)
    assert code == 0
    assert json.loads(out)["size_float"] == 0.5


def test_graph_json_export(capsys):
    code, out, _ = run(capsys, "graph", "-f", "x1&x2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["s"] == "s" and doc["t"] == "t"
    assert len(doc["edges"]) == 2


def test_graph_dot_export(capsys):
    code, out, _ = run(capsys, "graph", "-f", "x1&x2&x3", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 3


def test_graph_dual_renames_terminals(capsys):
    code, out, _ = run(capsys, "graph", "-f", "x1|x2", "--dual")
    doc = json.loads(out)
    assert doc["s"] == "s'" and doc["t"] == "t'"


def test_flow_reports_energy(capsys):
    code, out, _ = run(capsys, "flow", "-f", "x1|x2", "-x", "11", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["energy"] == "1/2"
    assert len(doc["decomposition"]) == 2


def test_flow_disconnected_is_domain_error(capsys):
    code, _out, err = run(capsys, "flow", "-f", "x1&x2", "-x", "10")
    assert code == 1
    assert "error" in err


def test_cut_value_and_witness(capsys):
    code, out, _ = run(capsys, "cut", "-f", "x1&x2&x3", "-x", "110", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["cut_size"] == "1"
    assert "s_side" in doc


def test_cut_backends_agree(capsys):
    _, out1, _ = run(capsys, "cut", "-f", "(x1&x2)|(x3&x4)", "-x", "0000")
    _, out2, _ = run(capsys, "cut", "-f", "(x1&x2)|(x3&x4)", "-x", "0000",
                     "--backend", "sp")
    assert out1.splitlines()[0] == out2.splitlines()[0] == "2"


def test_witness_kinds(capsys):
    for kind, expected in (("pos", "1/2"), ("neg", "inf")):
        code, out, _ = run(capsys, "witness", "-f", "x1", "-x", "1",
                           "--kind", kind, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["size"] == expected
    code, out, _ = run(capsys, "witness", "-f", "x1", "-x", "0",
                       "--kind", "approx-pos", "--json")
    doc = json.loads(out)
    assert abs(doc["size"] - 0.5) < 1e-9


def test_weights_certificate(capsys):
    code, out, _ = run(capsys, "weights", "-f", "(x1&x2)|(x3&x4)")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"weights": {"x1": "1", "x2": "1", "x3": "1", "x4": "1"},
                   "bound": "4"}


def test_extrema(capsys):
    code, out, _ = run(capsys, "extrema", "-f", "x1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["w_plus"] == "1/2" and doc["w_minus"] == "2"
    assert abs(doc["bound"] - 1.0) < 1e-12


def test_fault_output_format(capsys):
    code, out, _ = run(capsys, "fault", "-d", "4", "-x", "1110001100011101")
    assert code == 0
    assert out.strip() == "F_A=4 F_B=inf F=4"


def test_kfault(capsys):
    code, out, _ = run(capsys, "kfault", "-d", "4", "-k", "2", "-x",
                       "1110001100011101")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "kfault", "-d", "4", "-k", "1", "-x",
                       "1110001100011101")
    assert code == 0 and out.strip() == "false"


def test_game_deterministic_json(capsys):
    args = ("game", "-d", "2", "-x", "1100", "--seed", "9", "--reps", "4",
            "--transcripts", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 9
    assert len(doc["games"]) == 4
    assert all(g["winner"] == "A" for g in doc["games"])


def test_game_text_line_is_unchanged_for_positive_depth(capsys):
    code, out, _ = run(capsys, "game", "-d", "2", "-x", "1100", "--seed", "9", "--reps", "4")
    assert code == 0
    assert out == "wins 4/4  mean cost 1.6818  bound 90.5097  naive 6.0000\n"


def test_game_depth_zero_exits_zero_in_both_modes(capsys):
    # the naive baseline needs d >= 1, so the text line shows the placeholder
    code, out, err = run(capsys, "game", "-d", "0", "-x", "1", "--seed", "1")
    assert (code, err) == (0, "")
    assert out == "wins 32/32  mean cost 0.0000  bound 45.2548  naive -\n"
    code, out, err = run(capsys, "game", "-d", "0", "-x", "1", "--seed", "1", "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["games"]) == 32


def test_game_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["game", "-d", "2", "-x", "1100"])
    assert exc.value.code == 2


def test_game_zero_reps_exits_one(capsys):
    code, _out, err = run(capsys, "game", "-d", "2", "-x", "1111", "--seed", "1",
                          "--reps", "0")
    assert code == 1
    assert err.startswith("error: reps")


@pytest.mark.parametrize("argv", [
    ("fault", "-d", "-1", "-x", "1"),
    ("fault", "-d", "-3", "-x", "1", "--json"),
    ("game", "-d", "-1", "-x", "1", "--seed", "1"),
    ("game", "-d", "-2", "-x", "1", "--seed", "1", "--json"),
    ("kfault", "-d", "-1", "-k", "0", "-x", "1"),
])
def test_negative_depth_exits_one_naming_d(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: depth d={argv[2]} must be nonnegative\n"


@pytest.mark.parametrize("n", ["-3", "0"])
def test_bounds_line_nonpositive_size_names_n(capsys, n):
    code, out, err = run(capsys, "bounds", "--family", "line", "--n", n)
    assert (code, out) == (1, "")
    assert err == f"error: size n={n} must be at least 1\n"


@pytest.mark.parametrize("h", ["0", "-1", "5"])
def test_bounds_line_out_of_range_h_exits_one(capsys, h):
    code, out, err = run(capsys, "bounds", "--family", "line", "--n", "4", "--h", h)
    assert (code, out) == (1, "")
    assert err == "error: need 1 <= h <= n\n"


def test_bounds_line_past_the_leaf_budget_exits_one(capsys, monkeypatch):
    # the check alone: a budget of 10 stands in for 2^20, and no leaf is built
    monkeypatch.setattr(bounds, "DOMAIN_CAP", 10)
    monkeypatch.setattr(bounds, "leaf", None)
    code, out, err = run(capsys, "bounds", "--family", "line", "--n", "11", "--h", "11")
    assert (code, out) == (1, "")
    assert err == "error: line family has 11 leaves, more than the domain budget of 10\n"


def test_bounds_line_h_defaults_to_isqrt_n(capsys):
    assert run(capsys, "bounds", "--family", "line", "--n", "4") == \
        run(capsys, "bounds", "--family", "line", "--n", "4", "--h", "2")


@pytest.mark.parametrize("text, shown, position", [
    ("x0", "token 'x0'", 0),
    ("x1&x02", "token 'x02'", 3),
    ("x1|xa", "character 'x'", 3),
    ("x12x0x3", "token 'x0'", 3),
    ("x1&x", "character 'x'", 3),
    ("x1&$", "character '$'", 3),
])
def test_parse_names_the_whole_bad_token(capsys, text, shown, position):
    code, out, err = run(capsys, "parse", "-f", text)
    assert (code, out) == (1, "")
    assert err == f"error: unexpected {shown} (at position {position})\n"


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_game_seed_out_of_range_names_seed(capsys, seed):
    code, out, err = run(capsys, "game", "-d", "2", "-x", "1111", "--seed", seed)
    assert (code, out) == (1, "")
    assert err == f"error: seed={seed} must satisfy 0 <= seed < 2**128\n"


def test_bounds_nand_negative_depth_names_d(capsys):
    code, out, err = run(capsys, "bounds", "--family", "nand", "--d", "-1")
    assert (code, out) == (1, "")
    assert err == "error: depth d=-1 must be nonnegative\n"


def test_partial_weights_exit_one(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"x1": "2"}')
    code, _out, err = run(capsys, "witness", "-f", "x1&x2", "-x", "11",
                          "--weights", str(path))
    assert code == 1
    assert err.startswith("error:") and "'x2'" in err


@pytest.mark.parametrize("argv", [["graph", "--dual"], ["resist", "--dual", "-x", "00"]])
def test_dual_partial_weights_exit_one(capsys, tmp_path, argv):
    path = tmp_path / "w.json"
    path.write_text('{"x1": "2"}')
    code, out, err = run(capsys, *argv, "-f", "x1&x2", "--weights", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'x2'" in err


@pytest.mark.parametrize("bad", ["0", "-2"])
@pytest.mark.parametrize("argv", [["graph"], ["graph", "--dual"], ["resist", "-x", "11"],
                                  ["resist", "--dual", "-x", "00"]])
def test_nonpositive_weights_exit_one(capsys, tmp_path, argv, bad):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"x1": bad, "x2": "1"}))
    code, out, err = run(capsys, *argv, "-f", "x1&x2", "--weights", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: edge 'x1' needs a positive rational weight")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, named", [
    ("[1, 2]", "JSON object"), ('"x1"', "JSON object"),
    ('{"x1": null, "x2": 1}', "'x1'"), ('{"x1": [1], "x2": 1}', "'x1'"),
    ('{"x1": {}, "x2": 1}', "'x1'"), ('{"x1": true, "x2": 1}', "'x1'"),
    ('{"x1": 1, "x2": "1/0"}', "'x2'"), ('{"x1": 1, "x2": Infinity}', "'x2'"),
    ('{"x1": NaN, "x2": 1}', "'x1'"), ('{"x1": "abc", "x2": 1}', "'x1'"),
])
@pytest.mark.parametrize("argv", [["graph"], ["witness", "-x", "11"]])
def test_malformed_weights_file_exits_one(capsys, tmp_path, argv, doc, named):
    path = tmp_path / "w.json"
    path.write_text(doc)
    code, out, err = run(capsys, *argv, "-f", "x1&x2", "--weights", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_missing_weights_file_exits_one(capsys, tmp_path):
    code, _out, err = run(capsys, "witness", "-f", "x1&x2", "-x", "11",
                          "--weights", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error: cannot read weights file")


def test_domain_errors_cover_every_library_error():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)]
    assert all(issubclass(c, DOMAIN_ERRORS) for c in classes)


def test_bad_jobs_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FF_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["parse", "-f", "x1"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_bounds_line_family(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "line", "--n", "9",
                       "--h", "3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["r_max"] == "9"
    assert doc["r_dual_max"] == "1/3"
    assert doc["c_max"] == "1"


def test_bounds_balloon_text(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "balloon", "--n", "4")
    assert code == 0
    assert "max R (1-side)" in out
    assert " 8" in out  # 2N


def test_bounds_kfault_family(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "nand", "--d", "2",
                       "--k", "1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["exhaustive"] is True


def test_bounds_kfault_family_names_the_domain_budget(capsys):
    # d = 4 enumerates 2^16 inputs, inside the 2^20 budget; d = 5 needs 2^32
    code, _, _ = run(capsys, "bounds", "--family", "nand", "--d", "4", "--k", "0")
    assert code == 0
    code, out, err = run(capsys, "bounds", "--family", "nand", "--d", "5")
    assert (code, out) == (1, "")
    assert err == ("error: k-fault enumeration of 2^(2^5) inputs exceeds the domain "
                   "budget of 1048576 inputs\n")


@pytest.mark.parametrize("argv, env", [(["--jobs", "0"], "1"), (["--jobs", "-3"], "1"),
                                       ([], "0")])
def test_jobs_below_one_is_usage_error(capsys, monkeypatch, argv, env):
    monkeypatch.setenv("FF_JOBS", env)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "verify", "--suite", "reference-instance"])
    assert exc.value.code == 2
    assert "argument --jobs: must be at least 1" in capsys.readouterr().err


CHEAP_SUITES = ["reference-instance", "example-families"]


def test_run_suite_caps_workers_at_the_suite_count(monkeypatch):
    # a stand-in pool records its size and runs the suites in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    results = verify.run_suite(CHEAP_SUITES, stream=io.StringIO(), jobs=5000)
    assert sizes == [2]
    assert [r.name for r in results] == CHEAP_SUITES and all(r.passed for r in results)
    verify.run_suite(CHEAP_SUITES[:1], stream=io.StringIO(), jobs=5000)
    assert sizes == [2]  # one suite runs serially, with no pool


def test_run_suite_pool_keeps_the_given_order():
    out = io.StringIO()
    results = verify.run_suite(CHEAP_SUITES, stream=out, jobs=2)
    assert [r.name for r in results] == CHEAP_SUITES and all(r.passed for r in results)
    assert [line.split()[1] for line in out.getvalue().splitlines()] == CHEAP_SUITES


def test_jobs_flag_parallel_verify(capsys):
    code, out, _ = run(capsys, "--jobs", "2", "verify", "--suite",
                       "reference-instance")
    assert code == 0
    assert "[PASS] reference-instance" in out


def test_product_command(capsys):
    code, out, _ = run(capsys, "product", "--levels", "or:2:1,and:2:1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["equal"] is True
    assert doc["product"] == "4"


def test_product_rejects_bad_levels(capsys):
    code, _out, err = run(capsys, "product", "--levels", "nand:2:1")
    assert code == 1


@pytest.mark.parametrize("levels, message", [
    ("and:2:3", "bad level (and, 2, 3)"),
    ("or:3:0", "bad level (or, 3, 0)"),
    ("and:1:1", "bad level (and, 1, 1)"),
    ("or:2:1,and:4:5", "bad level (and, 4, 5)"),
    ("and:4", "level 'and:4' is not kind:N:h with integers N, h"),
    ("and:a:1", "level 'and:a:1' is not kind:N:h with integers N, h"),
    ("and:2:1:1", "level 'and:2:1:1' is not kind:N:h with integers N, h"),
])
def test_product_names_each_bad_level(capsys, levels, message):
    code, out, err = run(capsys, "product", "--levels", levels)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("levels", [
    "and:16:16,and:16:16,and:16:16,and:16:16,and:2:1",  # 131,072 leaves
    ",".join(["and:2:1,or:2:1"] * 5),  # ten alternating levels, 2^1024 points
])
def test_product_checks_the_cap_before_building(capsys, levels):
    code, out, err = run(capsys, "product", "--levels", levels)
    assert (code, out) == (1, "")
    assert err == "error: domain has more than 1048576 points\n"
    assert "Exceeds the limit" not in err and "Traceback" not in err


@st.composite
def _level_chunks(draw):
    """One chunk of a ``--levels`` string: kind:N:h with N <= 100 and
    h <= N + 1 (small N and 1 <= h <= N drawn often, so that more examples
    stay small and pass), or, about one time in eight, a malformed chunk."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(["xor:2:1", "and:4", "and:2.5:1", "or:3:1.5", "",
                                     "or:x:2", "and:3:2:1", "AND:2:1", "or:3:True"]))
    n = draw(st.one_of(st.integers(2, 8), st.integers(0, 100)))
    h = draw(st.one_of(st.integers(1, max(n, 1)), st.sampled_from([0, n, n + 1])))
    return f"{draw(st.sampled_from(['and', 'or']))}:{n}:{h}"


@given(st.lists(_level_chunks(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_product_on_fuzzed_levels_ends_in_an_exit_code(chunks):
    levels = [tuple(int(v) if v.isdigit() else v for v in c.split(":")) for c in chunks
              if re.fullmatch(r"(and|or):\d+:\d+", c)]
    assume(math.prod(n for _kind, n, _h in levels) <= 2**8)
    if len(levels) == len(chunks):
        with contextlib.suppress(errors.PromiseMismatchError):
            assume(count_composed_domain(levels) <= 2**8)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["product", "--levels", ",".join(chunks)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (chunks, code)
    assert code != 0 or "(equal)" in out.getvalue()
    assert "Traceback" not in err.getvalue()


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reference-instance")
    assert code == 0
    assert out.startswith("[PASS] reference-instance")


def test_verify_suite_alias(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "5")
    assert code == 0
    assert "[PASS] reference-instance" in out


def test_verify_json_prints_one_object_per_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "flow-decomposition", "--json")
    assert code == 0
    (line,) = out.splitlines()
    doc = json.loads(line)
    assert list(doc) == ["suite", "passed", "seconds", "detail"]
    assert doc["suite"] == "flow-decomposition" and doc["passed"] is True
    assert isinstance(doc["seconds"], float) and doc["detail"]


def test_verify_unknown_suite(capsys):
    code, _out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 1
    assert "unknown suite" in err


def test_closed_stdout_pipe_exits_quietly():
    # the parse tree of a 20,000-leaf formula is far larger than a pipe
    # buffer, so the command is still writing when the reader closes its end
    formula = "&".join(f"x{i}" for i in range(1, 20001))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "formulaflow", "parse", "-f", formula],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"and\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


# ---------------------------------------------------------------------------
# golden digest of the whole front end
# ---------------------------------------------------------------------------

# formula -> the inputs its per-input commands run on
BATTERY_FORMULAS = {
    "x1": ("0", "1"),
    "x1&x2": ("11", "10"),
    "x1|~x2": ("00", "01"),
    "(x1&x2)|(x3&x4)": ("1100", "0000", "1011"),
    "(x1|~x2)&x3": ("101", "010"),
}
# relative names, so no temporary path reaches the hashed bytes
BATTERY_WEIGHTS = {
    "w.json": {"x1": "2", "x2": "1/3", "x3": 5, "x4": "3/2"},
    "partial.json": {"x1": "2"},
    "list.json": [1, 2],
}
WEIGHT_CHOICES = ((), ("--weights", "w.json"))


def _battery():
    """Every subcommand but ``verify``, each run plain and with ``--json``."""
    commands = []
    for f, inputs in BATTERY_FORMULAS.items():
        commands += [["parse", "-f", f], ["weights", "-f", f]]
        for w in WEIGHT_CHOICES:
            commands += [["graph", "-f", f, *flags, *w]
                         for flags in ((), ("--dual",), ("--format", "dot"),
                                       ("--dual", "--format", "dot"))]
            commands += [["extrema", "-f", f, *flags, *w] for flags in ((), ("--no-approx",))]
            for x in inputs:
                commands += [["resist", "-f", f, "-x", x, *flags, *w]
                             for flags in ((), ("--dual", "--exact"), ("--float",),
                                           ("--dual", "--float"))]
                commands += [["flow", "-f", f, "-x", x, *w],
                             ["cut", "-f", f, "-x", x, *w],
                             ["cut", "-f", f, "-x", x, "--backend", "sp", *w]]
                commands += [["witness", "-f", f, "-x", x, "--kind", kind, *w]
                             for kind in ("pos", "neg", "approx-pos", "approx-neg")]
    for d, x in ((0, "0"), (0, "1"), (1, "10"), (2, "1011"), (2, "0110"),
                 (4, "1110001100011101")):
        commands += [["fault", "-d", str(d), "-x", x]]
        commands += [["kfault", "-d", str(d), "-k", str(k), "-x", x] for k in range(d // 2 + 1)]
        commands += [["game", "-d", str(d), "-x", x, "--seed", "5", *flags]
                     for flags in (("--reps", "1"), ("--reps", "3", "--transcripts"))]
    for family in (("line", "--n", "4"), ("line", "--n", "6", "--h", "3"),
                   ("balloon", "--n", "3"), ("nand", "--d", "2", "--k", "1"),
                   ("nand", "--d", "3")):
        commands += [["bounds", "--family", *family, *unit] for unit in ((), ("--unit",))]
    commands += [["product", "--levels", levels]
                 for levels in ("and:2:1,or:2:1", "or:3:2", " and:4:2 , or:2:1",
                                "nand:2:1", "and:4", "and:2:3")]
    # exit 1: domain errors
    commands += [
        ["parse", "-f", "x1&&x2"], ["parse", "-f", "x0"],
        ["graph", "-f", "x1&x2", "--weights", "partial.json"],
        ["graph", "-f", "x1&x2", "--dual", "--weights", "list.json"],
        ["resist", "-f", "x1&x2", "-x", "1"],
        ["flow", "-f", "x1&x2", "-x", "10"],
        ["cut", "-f", "x1&x2", "-x", "111"],
        ["witness", "-f", "x1&x2", "-x", "11", "--weights", "absent.json"],
        ["extrema", "-f", "x1&x2", "--weights", "partial.json"],
        ["fault", "-d", "-1", "-x", "1"], ["fault", "-d", "2", "-x", "10"],
        ["kfault", "-d", "2", "-k", "2", "-x", "1011"],
        ["game", "-d", "2", "-x", "1011", "--seed", "1", "--reps", "0"],
        ["bounds", "--family", "line", "--n", "0"],
        ["bounds", "--family", "nand", "--d", "5"],
    ]
    commands = [[*argv, *json_flag] for argv in commands for json_flag in ((), ("--json",))]
    # exit 2: usage errors of the top-level parser and of subcommands
    return commands + [
        [], ["nonsense"], ["--jobs", "0", "parse", "-f", "x1"],
        ["parse", "-f", "x1", "--bogus"], ["parse"], ["fault", "-d", "abc", "-x", "1"],
        ["game", "-d", "2", "-x", "1011"], ["bounds", "--family", "tree"], ["product"],
        ["extrema", "--json"], ["flow", "-f", "x1", "-x"],
    ]


CLI_DIGEST = "6fb795de29f1bc28e0259fccf8704c86fc8b31d8db22e7f4a199181329fa361c"


def test_every_command_matches_the_golden_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FF_JOBS", "1")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    for name, doc in BATTERY_WEIGHTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    digest = hashlib.sha256()
    for argv in _battery():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 0 and "--json" in argv and argv[0] != "graph":
            json.loads(out)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == CLI_DIGEST
