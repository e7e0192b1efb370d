import json
import pathlib
import sys

import pytest

from lapdual.cli import main
from lapdual.serialization import (dumps, graph_from_json, graph_to_json,
                                   matrix_from_json, matrix_to_json)
from lapdual import IntMatrix, MultiGraph

EX2 = {"name": "ex2", "num_vertices": 7,
       "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [3, 5], [4, 5], [4, 6], [5, 6]]}
K3 = {"name": "K3", "num_vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
A2K3 = {"name": "a2K3", "num_vertices": 3,
        "edges": [[0, 1]] * 4 + [[0, 2]] * 4 + [[1, 2]] * 4}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [("ex2", EX2), ("k3", K3), ("a2k3", A2K3),
                      ("zero", {"rows": 2, "cols": 2, "data": [["0", "0"], ["0", "0"]]})]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_laplacian_command(files, capsys):
    code, out = run(capsys, "laplacian", files["k3"])
    assert code == 0
    data = json.loads(out)
    assert data["data"][0] == ["2", "-1", "-1"]


def test_planarity_command_affirms(files, capsys):
    code, out = run(capsys, "planarity", files["ex2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "planar"
    dual = doc["certificate"]["dual_graph"]
    assert dual["num_vertices"] == 4 and len(dual["edges"]) == 9


def test_check_2iso_negative_exit(files, capsys):
    code, out = run(capsys, "check-2iso", files["k3"], files["a2k3"])
    assert code == 1
    assert json.loads(out)["status"] == "not_two_isomorphic"


def test_snf_zero_matrix(files, capsys):
    code, out = run(capsys, "snf", files["zero"])
    assert code == 0
    assert json.loads(out)["diag"] == ["0", "0"]


def test_check_congruence_exit_codes(files, capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"rows": 1, "cols": 1, "data": [["2"]]}))
    b.write_text(json.dumps({"rows": 1, "cols": 1, "data": [["3"]]}))
    code, out = run(capsys, "check-congruence", str(a), str(b))
    assert code == 1
    assert json.loads(out)["separating_invariant"]["name"] == "det"
    code, _ = run(capsys, "check-congruence", str(a), str(a))
    assert code == 0
    # same genus invariants, different classes: no decision either way
    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    c.write_text(json.dumps({"rows": 2, "cols": 2, "data": [["1", "0"], ["0", "23"]]}))
    d.write_text(json.dumps({"rows": 2, "cols": 2, "data": [["2", "1"], ["1", "12"]]}))
    code, out = run(capsys, "check-congruence", str(c), str(d))
    assert code == 2
    assert json.loads(out)["status"] == "unknown"


def test_explicit_forest_and_v0_reproduce_golden_flow(files, capsys):
    code, out = run(capsys, "flow-matrix", files["ex2"],
                    "--forest", "e1,e2,e4,e5,e6,e8", "--v0", "v3")
    assert code == 0
    rows = json.loads(out)["data"]
    assert rows[0] == ["-1", "1", "-1", "0", "0", "0", "0", "0", "0"]


def test_zero_based_tokens_match_one_based(files, capsys):
    _, out1 = run(capsys, "flow-matrix", files["ex2"], "--forest", "e1,e2,e4,e5,e6,e8")
    _, out2 = run(capsys, "flow-matrix", files["ex2"], "--forest", "0,1,3,4,5,7")
    assert out1 == out2


def test_verify_property_pass_and_unknown_tag(files, capsys):
    code, _ = run(capsys, "verify-property", "V", files["ex2"])
    assert code == 0
    code, out = run(capsys, "verify-property", "nope", files["ex2"])
    assert code == 64
    assert json.loads(out)["error"]["type"] == "UnknownTag"


def test_verify_property_x_on_the_empty_graph(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"num_vertices": 0, "edges": []}')
    code, out = run(capsys, "verify-property", "X", str(empty))
    assert code == 0
    assert json.loads(out)["details"]["report"]["consistent"] is True


def test_find_dual_then_verify(files, capsys, tmp_path):
    code, out = run(capsys, "find-dual", files["ex2"])
    assert code == 0
    cert = json.loads(out)
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(cert["dual_graph"]))
    code, out = run(capsys, "verify-dual", files["ex2"], str(dual_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_find_dual_nonplanar_exit(capsys, tmp_path):
    k5 = {"name": "K5", "num_vertices": 5,
          "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)]}
    p = tmp_path / "k5.json"
    p.write_text(json.dumps(k5))
    code, out = run(capsys, "find-dual", str(p), "--budget", "200000")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NonplanarInput"
    code, out = run(capsys, "planarity", str(p), "--budget", "200000")
    assert code == 1


def test_exhausted_budget_exits_unknown(capsys, tmp_path):
    # at budget 1 the embedding cannot take its first steps on K5
    k5 = {"name": "K5", "num_vertices": 5,
          "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)]}
    p = tmp_path / "k5.json"
    p.write_text(json.dumps(k5))
    code, out = run(capsys, "planarity", str(p), "--budget", "1")
    assert code == 2
    assert json.loads(out)["status"] == "unknown"
    code, out = run(capsys, "find-dual", str(p), "--budget", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


def test_verify_dual_with_explicit_beta(files, capsys, tmp_path):
    # triple edge vs K3: any bijection works, pass one explicitly
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({"name": "triple", "num_vertices": 2,
                                  "edges": [[0, 1], [0, 1], [0, 1]]}))
    code, out = run(capsys, "verify-dual", str(triple), files["k3"], "--beta", "2,0,1")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = run(capsys, "verify-dual", files["k3"], files["k3"], "--beta", "identity")
    assert code == 1


def test_snf_bignum_strings(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"rows": 2, "cols": 2,
                               "data": [[str(10**40), "1"], ["1", str(10**40)]]}))
    code, out = run(capsys, "snf", str(big))
    assert code == 0
    diag = [int(d) for d in json.loads(out)["diag"]]
    assert diag[0] * diag[1] == 10**80 - 1


def test_emit_dot(files, capsys):
    code, out = run(capsys, "emit-dot", files["k3"])
    assert code == 0
    assert out.startswith('digraph "K3"')
    assert 'v0 -> v1 [label="e1"]' in out


def test_malformed_input_exit(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "laplacian", str(bad))
    assert code == 65
    assert json.loads(out)["error"]["type"] == "MalformedInput"
    missing_key = tmp_path / "mk.json"
    missing_key.write_text(json.dumps({"edges": []}))
    code, _ = run(capsys, "laplacian", str(missing_key))
    assert code == 65


def test_input_contract_violations_exit(files, capsys):
    # a vertex set that is not one-per-component is unusable input, not a
    # negative decision
    code, out = run(capsys, "reduced-laplacian", files["k3"], "--v0", "v1,v2")
    assert code == 65
    assert json.loads(out)["error"]["type"] == "InvalidReductionSpec"
    code, out = run(capsys, "flow-matrix", files["k3"], "--forest", "e1")
    assert code == 65
    assert json.loads(out)["error"]["type"] == "NotMaximalForest"
    code, out = run(capsys, "check-congruence", files["k3"], files["k3"])
    assert code == 65  # graph JSON is not a matrix
    assert json.loads(out)["error"]["type"] == "MalformedInput"


def test_out_flag_and_determinism(files, capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["planarity", files["ex2"], "--out", str(out1)]) == 0
    assert main(["planarity", files["ex2"], "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_budget_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("LAPDUAL_BUDGET", "3")
    code, out = run(capsys, "check-2iso", files["k3"], files["k3"])
    assert code == 2
    assert json.loads(out)["status"] == "budget_exceeded"


def test_non_integer_budget_env_is_usage_error(files, capsys, monkeypatch):
    monkeypatch.setenv("LAPDUAL_BUDGET", "abc")
    with pytest.raises(SystemExit) as err:
        main(["laplacian", files["k3"]])
    assert err.value.code == 64
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit flag still wins over the environment
    code, _ = run(capsys, "laplacian", files["k3"], "--budget", "5")
    assert code == 0


def test_cli_config_drives_run(files, tmp_path, monkeypatch):
    from lapdual.cli import CliConfig, run
    out = tmp_path / "out.json"
    code = run(CliConfig(command="planarity", inputs=(files["ex2"],),
                         seed=0, out=str(out)))
    assert code == 0
    assert json.loads(out.read_text())["status"] == "planar"
    # the keyword defaults are the parser's defaults: same bytes as main
    monkeypatch.delenv("LAPDUAL_BUDGET", raising=False)
    for argv in (["planarity", files["ex2"]], ["dual-laplacian", files["ex2"]]):
        by_config = tmp_path / "config.json"
        by_main = tmp_path / "main.json"
        assert run(CliConfig(command=argv[0], inputs=(argv[1],), out=str(by_config))) == \
            main(argv + ["--out", str(by_main)])
        assert by_config.read_bytes() == by_main.read_bytes()
    with pytest.raises(ValueError):
        CliConfig(command="planarity", inputs=("x",), budget=-1)
    # malformed JSON is reported by the reader's lazily imported json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(CliConfig(command="laplacian", inputs=(str(bad),), out=str(out))) == 65
    assert json.loads(out.read_text())["error"]["type"] == "MalformedInput"


def test_usage_error_exit():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 64


def test_bad_flag_tokens_are_usage_errors(files, capsys):
    code, _ = run(capsys, "flow-matrix", files["k3"], "--forest", "zap")
    assert code == 64
    code, _ = run(capsys, "flow-matrix", files["k3"], "--forest", "e9")
    assert code == 64  # edge label out of range


def test_json_round_trips():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 1)], name="g")
    assert graph_from_json(graph_to_json(g)) == g
    m = IntMatrix.from_rows([[10**30, -2], [0, 5]])
    assert matrix_from_json(matrix_to_json(m)) == m
    assert json.loads(dumps(m)) == matrix_to_json(m)


def test_emitted_objects_reparse_exactly():
    # the wire formats reconstruct the exact in-memory objects
    from lapdual import (decide_2_isomorphism_bruteforce, decide_congruence,
                         decide_planarity, reduced_laplacian, smith_normal_form,
                         verify_abstract_dual)
    from lapdual.laplacians import laplacian, reduced_dual_laplacian
    from lapdual.serialization import (dual_pair_from_json,
                                       duality_report_from_json,
                                       evidence_from_json, planarity_from_json,
                                       snf_from_json, to_jsonable,
                                       two_iso_from_json, verdict_from_json)

    g = MultiGraph.from_edges(7, [tuple(e) for e in EX2["edges"]], name="ex2")
    k5 = MultiGraph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])

    res = decide_planarity(g)
    assert planarity_from_json(json.loads(dumps(res))) == res
    nonplanar = decide_planarity(k5, budget=10**5)
    assert planarity_from_json(json.loads(dumps(nonplanar))) == nonplanar

    snf = smith_normal_form(laplacian(g))
    assert snf_from_json(to_jsonable(snf)) == snf

    verdict = decide_congruence(reduced_laplacian(g), reduced_laplacian(g))
    assert verdict_from_json(to_jsonable(verdict)) == verdict

    iso = decide_2_isomorphism_bruteforce(g, g)
    assert two_iso_from_json(to_jsonable(iso)) == iso

    pair = reduced_dual_laplacian(g)
    assert dual_pair_from_json(to_jsonable(pair)) == pair

    report = verify_abstract_dual(g, res.certificate.dual_graph,
                                  res.certificate.edge_bijection)
    assert duality_report_from_json(to_jsonable(report)) == report

    evidence = nonplanar.evidence
    assert evidence_from_json(to_jsonable(evidence)) == evidence


def test_evidence_of_unknown_kind_is_malformed():
    from lapdual import MalformedInput
    from lapdual.serialization import evidence_from_json

    with pytest.raises(MalformedInput, match="unknown kind 'K7'"):
        evidence_from_json({"kind": "K7", "branch_sets": [[0], [1], [2], [3], [4], [5]]})


def test_emitted_graph_json_reparses(files, capsys):
    code, out = run(capsys, "find-dual", files["ex2"])
    dual = graph_from_json(json.loads(out)["dual_graph"])
    assert dual.num_edges == 9


GOLDEN = pathlib.Path(__file__).parent / "golden"
# argparse 3.13 ends the usage line of the command choices with " ...", which
# earlier versions put on a line of its own
TOP_HELP = "help_py313.txt" if sys.version_info >= (3, 13) else "help.txt"
# subcommand -> its --help text
SUBCOMMAND_HELP = json.loads((GOLDEN / "subcommand_help.json").read_text())


@pytest.mark.parametrize("argv, golden", [(["--help"], TOP_HELP),
                                          (["verify-property", "--help"],
                                           "verify_property_help.txt")] +
                         [pytest.param([cmd, "--help"], "subcommand_help.json",
                                       id=f"{cmd}-help") for cmd in SUBCOMMAND_HELP])
def test_help_text_matches_golden(argv, golden, capsys, monkeypatch):
    # argparse wraps help at the terminal width, which COLUMNS fixes
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    if golden == "subcommand_help.json":
        expected = SUBCOMMAND_HELP[argv[0]]
    else:
        expected = (GOLDEN / golden).read_text()
    assert capsys.readouterr().out == expected
