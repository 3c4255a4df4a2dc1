import json

import pytest

from formulaflow.cli import main


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


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reference-instance")
    assert code == 0
    assert out.startswith("[PASS] reference-instance")


def test_verify_suite_alias(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "5")
    assert code == 0
    assert "[PASS] reference-instance" in out


def test_verify_unknown_suite(capsys):
    code, _out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 1
    assert "unknown suite" in err
