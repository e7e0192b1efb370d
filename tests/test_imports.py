"""The package's import surface: the lazily resolved exports, which layers
the CLI loads for what it runs, and no import left unused."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import lapdual
from lapdual.errors import PROPERTY_TAGS

# the package's public names: each layer's exports and the layers themselves
EXPORTS = [
    "BudgetExceeded", "CongruenceVerdict", "DualCertificate", "DualLaplacianPair",
    "DualityReport", "EmptyOrFullSet", "ForestCertificate", "IntMatrix",
    "InvalidReductionSpec", "KuratowskiEvidence", "LapdualError",
    "LoopCountMismatch", "MalformedInput", "MultiGraph", "NonplanarInput",
    "NotCotreeEdge", "NotMaximalForest", "NotSquare", "NotSymmetric",
    "NotUnimodular", "PlanarityResult", "PropertyReport",
    "PropertyXReport", "RowSumNonzero", "ShapeMismatch",
    "SnfResult", "SuperbaseState", "TraceTooLarge", "TwoIsomorphismResult",
    "UnimodularWitness", "UnknownTag", "border_first", "border_last",
    "classify_edges", "components", "congruence", "congruence_invariants",
    "construct_abstract_dual", "cut_block", "cut_gram", "cut_vector",
    "decide_2_isomorphism_bruteforce", "decide_congruence", "decide_planarity",
    "descent", "det_bareiss", "duality", "errors",
    "flow_gram", "flow_matrix", "fundamental_circuit_vector", "graphs",
    "hermite_normal_form", "hnf_nonzero_part", "identify_vertices", "incidence",
    "inertia", "intmatrix", "inverse_unimodular", "is_connected", "laplacian",
    "laplacians", "lemma_center_recover", "loose_row_equivalence", "maximal_forest",
    "permute_vertices", "properties", "property_x_report", "rank", "reduced_dual_laplacian",
    "reduced_incidence", "reduced_laplacian", "reduction_change_witness",
    "smith_normal_form", "strict_row_equivalence", "superbase_matrix",
    "superbase_trace_minimize", "verify_abstract_dual",
    "verify_kuratowski_evidence", "verify_property",
]
SUBMODULES = ("errors", "graphs", "intmatrix", "laplacians", "properties", "congruence",
              "duality", "descent")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lapdual.__file__)))


# stdlib modules of interest: no layer needs `fractions` or the `decimal` it
# imports, since every elimination stays in integers; the CLI front end needs
# none of `dataclasses`, the `inspect` it imports, or `json`
STDLIB = ("dataclasses", "decimal", "fractions", "inspect", "json")


@pytest.fixture
def k4(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text('{"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}')
    return str(path)


def loaded_after(code):
    """The lapdual layers and STDLIB modules that a fresh interpreter has
    loaded after running `code`."""
    probe = (f"{code}\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             f"                      if m.startswith('lapdual.') or m in {STDLIB!r})))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True).stdout
    return set(out.split())


def loaded_by_cli(*argvs):
    """`loaded_after` running each argv through `cli.main`, which must
    return 0."""
    return loaded_after("import contextlib, io\nfrom lapdual import cli\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        + "".join(f"    assert cli.main({argv!r}) == 0\n" for argv in argvs))


def test_exports_are_unchanged():
    assert len(EXPORTS) == 80
    assert lapdual.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(lapdual))


def test_every_export_is_its_defining_module_attribute():
    for name in EXPORTS:
        value = getattr(lapdual, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"lapdual.{name}"]
        else:
            assert value.__module__.startswith("lapdual.")
            assert value is getattr(sys.modules[value.__module__], name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from lapdual import *", namespace)
    assert {name: namespace[name] for name in EXPORTS} == \
        {name: getattr(lapdual, name) for name in EXPORTS}


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(lapdual, "no_such_name")


def test_building_the_parser_loads_no_layer():
    assert loaded_after("import lapdual.cli as cli; cli.build_parser()") == \
        {"lapdual.cli", "lapdual.errors"}


def test_help_and_usage_errors_load_no_layer():
    code = ("import contextlib, io\nfrom lapdual import cli\n"
            "for argv in (['--help'], ['verify-property', '--help'], ['laplacian'],\n"
            "             ['laplacian', 'g.json', '--budget', '-1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            cli.main(argv)\n"
            "        except SystemExit:\n"
            "            pass")
    assert loaded_after(code) == {"lapdual.cli", "lapdual.errors"}


# the layers each command loads on K4 beyond cli, errors, graphs and
# serialization, which every command that reads an input loads: `snf` reads
# K4's Laplacian and `verify-dual` K4's dual, edge k dual to K4's edge k.
# Only the two commands that decide planarity load the private `embedding`,
# and only `verify-property` loads `properties`
MATRIX_LAYERS = ("intmatrix", "laplacians")
LOAD_SETS = [(["emit-dot", "K4"], ())] + [
    ([command, "K4"], MATRIX_LAYERS)
    for command in ("laplacian", "reduced-laplacian", "incidence", "cut-block",
                    "flow-matrix", "dual-laplacian")] + [
    (["snf", "L"], ("intmatrix",)),
    (["check-2iso", "K4", "K4"], MATRIX_LAYERS),
    (["verify-property", "I", "K4"], MATRIX_LAYERS + ("properties",)),
    (["check-congruence", "L", "L"], MATRIX_LAYERS + ("congruence",)),
    (["planarity", "K4"], MATRIX_LAYERS + ("duality", "embedding")),
    (["verify-dual", "K4", "DUAL"], MATRIX_LAYERS + ("duality",)),
    (["find-dual", "K4"], MATRIX_LAYERS + ("duality", "embedding"))]


@pytest.mark.parametrize("argv, layers", LOAD_SETS, ids=[argv[0] for argv, _ in LOAD_SETS])
def test_each_command_loads_exactly_its_layers(argv, layers, k4, tmp_path):
    laplacian = tmp_path / "l.json"
    laplacian.write_text('{"rows": 4, "cols": 4, "data": [[3, -1, -1, -1], [-1, 3, -1, -1], '
                         '[-1, -1, 3, -1], [-1, -1, -1, 3]]}')
    dual = tmp_path / "dual.json"
    dual.write_text('{"num_vertices": 4, "edges": [[3, 1], [2, 3], [1, 2], [3, 0], [0, 1], [2, 0]]}')
    paths = {"K4": k4, "L": str(laplacian), "DUAL": str(dual)}
    loaded = loaded_by_cli([paths.get(arg, arg) for arg in argv])
    assert {m for m in loaded if m.startswith("lapdual.")} == \
        {f"lapdual.{m}" for m in ("cli", "errors", "graphs", "serialization") + layers}


def test_emit_dot_leaves_the_matrix_layers_unloaded(k4):
    # graphs' dataclasses import inspect; serialization imports json
    assert loaded_by_cli(["emit-dot", k4]) == {
        "lapdual.cli", "lapdual.errors", "lapdual.graphs", "lapdual.serialization",
        "dataclasses", "inspect", "json"}


def test_check_2iso_leaves_congruence_and_duality_unloaded(k4):
    # the forest counts come from Kirchhoff's theorem, so laplacians and
    # intmatrix load
    loaded = loaded_by_cli(["check-2iso", k4, k4])
    assert not loaded & {"lapdual.congruence", "lapdual.duality"}


def test_graph_commands_leave_congruence_and_duality_unloaded(k4):
    loaded = loaded_by_cli(["emit-dot", k4], ["laplacian", k4])
    assert "lapdual.laplacians" in loaded
    assert not loaded & {"lapdual.congruence", "lapdual.duality"}


def test_verify_property_loads_congruence_and_duality_only_where_needed(k4):
    # X's constructive replay runs the center lemma, which lives in laplacians
    for tag in PROPERTY_TAGS:
        loaded = loaded_by_cli(["verify-property", tag, k4])
        assert "lapdual.properties" in loaded
        assert ("lapdual.congruence" in loaded) == (tag == "X"), tag
        assert "lapdual.duality" not in loaded, tag
        assert "lapdual.embedding" not in loaded, tag


def test_planarity_leaves_congruence_and_descent_unloaded(k4):
    loaded = loaded_by_cli(["planarity", k4])
    assert "lapdual.duality" in loaded
    assert not loaded & {"lapdual.congruence", "lapdual.descent"}


def test_find_dual_leaves_congruence_and_descent_unloaded(k4):
    # the dual's witness is read off the primal forest's cotree columns
    loaded = loaded_by_cli(["find-dual", k4])
    assert "lapdual.duality" in loaded
    assert not loaded & {"lapdual.congruence", "lapdual.descent"}


def test_matrix_commands_load_no_rationals(k4, tmp_path):
    m = tmp_path / "m.json"
    m.write_text('{"rows": 2, "cols": 2, "data": [["4", "6"], ["6", "10"]]}')
    loaded = loaded_by_cli(["snf", str(m)], ["check-congruence", str(m), str(m)],
                           ["planarity", k4], ["verify-property", "X", k4])
    assert {"lapdual.congruence", "lapdual.duality"} <= loaded
    assert not loaded & {"fractions", "decimal"}


def test_importing_duality_leaves_descent_unloaded():
    assert "lapdual.descent" not in loaded_after("import lapdual.duality")


def test_importing_duality_leaves_the_embedding_unloaded():
    # decide_planarity imports the embedding on its first call
    assert "lapdual.embedding" not in loaded_after("import lapdual.duality")


# importing a layer loads no other layer above laplacians: duality loads the
# embedding on decide_planarity's first call, properties loads congruence on
# property X's, and the descent needs no congruence
@pytest.mark.parametrize("layer", ("laplacians", "congruence", "duality", "descent",
                                   "properties"))
def test_importing_a_layer_loads_only_the_layers_below(layer):
    loaded = loaded_after(f"import lapdual.{layer}")
    assert {m for m in loaded if m.startswith("lapdual.")} == \
        {f"lapdual.{m}" for m in ("errors", "graphs", "intmatrix", "laplacians", layer)}


def unused_imports(tree):
    """The names that imports in `tree` bind and that nothing in it reads;
    `__future__` features are not names."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_finds_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport os, sys\nimport a.b\n"
                     "import c.d\nfrom x import y as z, w\ndef f():\n    from q import r\n"
                     "    return sys, w, c.d\n")
    assert unused_imports(tree) == ["a", "os", "r", "z"]


def test_every_import_is_used():
    package = pathlib.Path(lapdual.__file__).parent
    offenders = [f"{path.name}:{name}" for path in sorted(package.glob("*.py"))
                 for name in unused_imports(ast.parse(path.read_text()))]
    assert offenders == []
