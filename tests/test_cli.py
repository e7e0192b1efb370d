import json
import pathlib
import sys

import pytest

from lapdual.cli import _COMMANDS, main
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
    code, out = run(capsys, "flow-matrix", files["ex2"], "--forest", "e1,e2,e4,e5,e6,e8")
    assert code == 0
    rows = json.loads(out)["data"]
    assert rows[0] == ["-1", "1", "-1", "0", "0", "0", "0", "0", "0"]


def test_zero_based_tokens_match_one_based(files, capsys):
    _, out1 = run(capsys, "flow-matrix", files["ex2"], "--forest", "e1,e2,e4,e5,e6,e8")
    _, out2 = run(capsys, "flow-matrix", files["ex2"], "--forest", "0,1,3,4,5,7")
    assert out1 == out2
    # an empty token is skipped
    _, out3 = run(capsys, "flow-matrix", files["ex2"], "--forest", "e1,,e2,e4,e5,e6,e8")
    assert out3 == out1


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
    # int() would truncate a float and read a boolean as 0 or 1; both are refused
    for command, obj in [
            ("emit-dot", {"num_vertices": 2.9, "edges": [[1, 0]]}),
            ("emit-dot", {"num_vertices": 2, "edges": [[True, 0]]}),
            ("laplacian", {"num_vertices": 3, "edges": [[0, 1.0]]}),
            ("snf", {"rows": 1, "cols": 1, "data": [[2.7]]}),
            ("snf", {"rows": 1, "cols": 1, "data": [[False]]}),
            ("snf", {"rows": 1.0, "cols": 1, "data": [["2"]]})]:
        path = tmp_path / "non_integer.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, command, str(path))
        assert code == 65, (command, obj)
        assert json.loads(out)["error"]["type"] == "MalformedInput"


def test_unreadable_input_is_malformed(files, capsys):
    missing = str(files["dir"] / "missing.json")
    code, out = run(capsys, "laplacian", missing)
    assert code == 65
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert error["message"].startswith(f"cannot read {missing}: ")


@pytest.mark.parametrize("command, obj, message", [
    ("laplacian", [], "graph JSON must be an object"),
    ("snf", [], "matrix JSON must be an object"),
    ("snf", {"rows": 3, "cols": 2, "data": [["1", "2"], ["3", "4"]]},
     "matrix JSON shape mismatch"),
    ("snf", {"rows": 2, "cols": 2, "data": [["1", "2"], ["3"]]}, "ragged row")],
    ids=["graph-list", "matrix-list", "shape-mismatch", "ragged-row"])
def test_input_that_does_not_fit_its_schema_is_malformed(command, obj, message, capsys,
                                                         tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, command, str(path))
    assert code == 65
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedInput"
    assert message in error["message"]


def test_incidence_with_v0_is_the_reduced_incidence(files, capsys):
    from lapdual import reduced_incidence
    code, out = run(capsys, "incidence", files["ex2"], "--v0", "v4")
    assert code == 0
    assert out == dumps(reduced_incidence(graph_from_json(EX2), [3]))


@pytest.mark.parametrize("flag", [["--budget", "5"], ["--budget=5"]], ids=["spaced", "joined"])
def test_budget_on_a_command_without_one_names_the_searches(flag, files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["laplacian"] + flag + [files["k3"]])
    assert err.value.code == 64
    assert capsys.readouterr().err == ("lapdual: error: --budget is taken only by "
                                       "check-congruence, check-2iso, planarity and find-dual\n")


def test_other_leftover_arguments_keep_the_argparse_message(files, capsys):
    for argv, leftovers in ((["laplacian", files["k3"], "extra"], "extra"),
                            (["planarity", "--seed", "1", files["k3"]], f"--seed {files['k3']}"),
                            (["laplacian", "--budgetx", "5", files["k3"]],
                             f"--budgetx {files['k3']}")):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64
        assert capsys.readouterr().err == f"lapdual: error: unrecognized arguments: {leftovers}\n"


@pytest.mark.parametrize("command, obj", [
    ("snf", {"rows": 1, "cols": 2, "data": ["12"]}),
    ("emit-dot", {"num_vertices": 3, "edges": ["01", "12"]})], ids=["snf", "emit-dot"])
def test_string_for_a_list_is_malformed(command, obj, capsys, tmp_path):
    # iterating the string would read it as its digits: [1, 2], or 0-1, 1-2
    path = tmp_path / "string_for_list.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, command, str(path))
    assert code == 65
    assert json.loads(out)["error"]["type"] == "MalformedInput"


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


def test_unwritable_out_is_usage_error(files, capsys, tmp_path):
    missing_dir = tmp_path / "missing" / "x.json"
    code = main(["laplacian", files["k3"], "--out", str(missing_dir)])
    captured = capsys.readouterr()
    assert code == 64
    assert json.loads(captured.out)["error"]["type"] == "FileNotFoundError"
    assert captured.err == ""


def test_budget_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("LAPDUAL_BUDGET", "3")
    code, out = run(capsys, "check-2iso", files["k3"], files["k3"])
    assert code == 2
    assert json.loads(out)["status"] == "budget_exceeded"


def test_non_integer_budget_env_is_usage_error(files, capsys, monkeypatch):
    monkeypatch.setenv("LAPDUAL_BUDGET", "abc")
    with pytest.raises(SystemExit) as err:
        main(["planarity", files["k3"]])
    assert err.value.code == 64
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit flag still wins over the environment: 5 steps leave K3 unknown
    code, _ = run(capsys, "planarity", files["k3"], "--budget", "5")
    assert code == 2


SEARCHES = {"check-congruence", "check-2iso", "planarity", "find-dual"}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_only_the_searches_take_a_budget(command, files, monkeypatch, tmp_path):
    # the other commands read no budget, so they neither offer --budget nor
    # fail on a LAPDUAL_BUDGET they never read
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"rows": 2, "cols": 2, "data": [["2", "-1"], ["-1", "2"]]}))
    inputs = {"tag": "V", "matrix": str(matrix)}
    argv = [command] + [inputs.get(name.split("_")[0], files["k3"])
                        for name in _COMMANDS[command][1] if not name.startswith("-")]

    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as err:
            return err.code

    monkeypatch.setenv("LAPDUAL_BUDGET", "abc")
    assert (exit_code(argv) == 64) == (command in SEARCHES)
    monkeypatch.delenv("LAPDUAL_BUDGET")
    assert (exit_code(argv + ["--budget", "5"]) == 64) == (command not in SEARCHES)


def test_cli_config_drives_run(files, tmp_path, monkeypatch):
    # the parser holds every default: running its namespace gives main's bytes
    from lapdual.cli import build_parser, run

    def both(argv):
        by_run, by_main = tmp_path / "run.json", tmp_path / "main.json"
        code = run(build_parser().parse_args(argv + ["--out", str(by_run)]))
        assert code == main(argv + ["--out", str(by_main)])
        assert by_run.read_bytes() == by_main.read_bytes()
        return code, json.loads(by_run.read_text())

    monkeypatch.delenv("LAPDUAL_BUDGET", raising=False)
    assert both(["planarity", files["ex2"]])[0] == 0
    assert both(["dual-laplacian", files["ex2"]])[0] == 0
    # malformed JSON is reported by the reader's lazily imported json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = both(["laplacian", str(bad)])
    assert code == 65
    assert out["error"]["type"] == "MalformedInput"
    # LAPDUAL_BUDGET is read by the parser alone, so both paths spend it
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({"num_vertices": 4, "edges": [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
    monkeypatch.setenv("LAPDUAL_BUDGET", "0")
    code, out = both(["planarity", str(k4)])
    assert code == 2
    assert out["status"] == "unknown"


def test_usage_error_exit(monkeypatch):
    # --v0 is taken only by the commands whose output it changes; a budget
    # is nonnegative, from the flag or from the environment
    for argv in (["not-a-command"], ["flow-matrix", "--v0", "v1", "k4.json"],
                 ["planarity", "--budget", "-1", "k4.json"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64
    monkeypatch.setenv("LAPDUAL_BUDGET", "-1")
    with pytest.raises(SystemExit) as err:
        main(["planarity", "k4.json"])
    assert err.value.code == 64


def test_bad_flag_tokens_are_usage_errors(files, capsys):
    for token in ("zap", "auto"):
        code, _ = run(capsys, "flow-matrix", files["k3"], "--forest", token)
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
    # two edgeless graphs are 2-isomorphic by the empty bijection, kept as []
    edgeless = decide_2_isomorphism_bruteforce(MultiGraph.from_edges(2, []),
                                               MultiGraph.from_edges(3, []))
    assert to_jsonable(edgeless)["bijection"] == []
    assert two_iso_from_json(to_jsonable(edgeless)) == edgeless

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


def test_snf_reader_refuses_a_diagonal_of_the_wrong_length():
    from lapdual import MalformedInput, SnfResult, UnimodularWitness
    from lapdual.serialization import snf_from_json

    left, right = IntMatrix.identity(2), IntMatrix.identity(3)
    with pytest.raises(MalformedInput, match="Smith diagonal length"):
        snf_from_json({"diag": ["1"], "left": matrix_to_json(left),
                       "right": matrix_to_json(right)})
    with pytest.raises(ValueError, match="Smith diagonal length"):
        SnfResult((1, 1, 1), UnimodularWitness(left), UnimodularWitness(right))
    assert snf_from_json({"diag": ["1", "1"], "left": matrix_to_json(left),
                          "right": matrix_to_json(right)}).diag == (1, 1)


# each reader takes its own decider's status words and no other word
@pytest.mark.parametrize("reader, own, foreign", [
    ("verdict_from_json", ("congruent", "not_congruent", "unknown"), "planar"),
    ("two_iso_from_json", ("two_isomorphic", "not_two_isomorphic", "budget_exceeded"),
     "unknown"),
    ("planarity_from_json", ("planar", "nonplanar", "unknown"), "budget_exceeded"),
], ids=["verdict", "two_iso", "planarity"])
def test_reader_refuses_a_foreign_status_word(reader, own, foreign):
    from lapdual import MalformedInput, serialization

    read = getattr(serialization, reader)
    witness = matrix_to_json(IntMatrix.identity(1))
    separating = {"name": "det", "left": "1", "right": "2"}
    for status in own:
        # the fields a verdict of this status needs
        read({"status": status, "witness": witness, "separating_invariant": separating})
    for status in ("banana", foreign, ""):
        with pytest.raises(MalformedInput, match="status"):
            read({"status": status, "witness": witness, "separating_invariant": separating})


def _det_two(obj):
    """The wire form of a matrix with its first row doubled: determinant 2
    for a unimodular matrix with determinant 1, and -2 for one with -1."""
    data = [list(row) for row in obj["data"]]
    data[0] = [str(2 * int(x)) for x in data[0]]
    return dict(obj, data=data)


def test_readers_refuse_a_witness_whose_determinant_is_not_one():
    # a witness that a reader builds is checked whatever it is read into
    from lapdual import (NotUnimodular, construct_abstract_dual, reduced_dual_laplacian,
                         smith_normal_form)
    from lapdual.serialization import (certificate_from_json, dual_pair_from_json,
                                       snf_from_json, to_jsonable, verdict_from_json,
                                       witness_from_json)

    k4 = MultiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    identity = matrix_to_json(IntMatrix.identity(2))
    snf = to_jsonable(smith_normal_form(IntMatrix.from_rows([[4, 6], [6, 10]])))
    cert = to_jsonable(construct_abstract_dual(k4))
    pair = to_jsonable(reduced_dual_laplacian(k4))
    refused = [
        lambda: witness_from_json(_det_two(identity)),
        lambda: verdict_from_json({"status": "congruent", "witness": _det_two(identity)}),
        lambda: snf_from_json(dict(snf, left=_det_two(snf["left"]))),
        lambda: snf_from_json(dict(snf, right=_det_two(snf["right"]))),
        lambda: certificate_from_json(dict(cert, witness_z=_det_two(cert["witness_z"]))),
        lambda: certificate_from_json(dict(
            cert, laplacian_witness=_det_two(cert["laplacian_witness"]))),
        lambda: dual_pair_from_json(dict(pair, witness=_det_two(pair["witness"]))),
    ]
    for read in refused:
        with pytest.raises(NotUnimodular, match="determinant is not"):
            read()
    # the unaltered objects read back
    certificate_from_json(cert)
    dual_pair_from_json(pair)
    snf_from_json(snf)


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
