"""The package's import surface: the lazily resolved exports, and which
layers the CLI loads for what it runs."""

import os
import subprocess
import sys

import lapdual
from lapdual.errors import PROPERTY_TAGS

# the package's public names, as fixed when every layer was imported eagerly
EXPORTS = [
    "BudgetExceeded", "CapExceeded", "CongruenceVerdict", "DualCertificate",
    "DualLaplacianPair", "DualityReport", "EmptyOrFullSet", "ForestCertificate",
    "IntMatrix", "InvalidReductionSpec", "KuratowskiEvidence", "LapdualError",
    "LoopCountMismatch", "MalformedInput", "MultiGraph", "NonplanarInput",
    "NotCotreeEdge", "NotMaximalForest", "NotSquare", "NotSymmetric",
    "NotUnimodular", "Orientation", "PlanarityResult", "PropertyReport",
    "PropertyXReport", "ReductionSpec", "RowSumNonzero", "ShapeMismatch",
    "SnfResult", "SuperbaseState", "TraceTooLarge", "TwoIsomorphismResult",
    "UnimodularWitness", "UnknownTag", "border_first", "border_last",
    "classify_edges", "components", "congruence", "congruence_invariants",
    "construct_abstract_dual", "count_maximal_forests", "cut_block", "cut_gram",
    "cut_vector", "decide_2_isomorphism_bruteforce", "decide_congruence",
    "decide_planarity", "default_reduction_spec", "det_bareiss", "duality",
    "enumerate_maximal_forests", "errors", "flow_gram", "flow_matrix",
    "fundamental_circuit_vector", "graphs", "hermite_normal_form",
    "hnf_nonzero_part", "identify_vertices", "incidence", "inertia", "intmatrix",
    "inverse_unimodular", "is_connected", "laplacian", "laplacians",
    "lemma_center_recover", "loose_row_equivalence", "maximal_forest",
    "permute_vertices", "property_x_report", "rank", "reduced_dual_laplacian",
    "reduced_incidence", "reduced_laplacian", "reduction_change_witness",
    "smith_normal_form", "strict_row_equivalence", "superbase_matrix",
    "superbase_trace_minimize", "verify_abstract_dual",
    "verify_kuratowski_evidence", "verify_property",
]
SUBMODULES = ("errors", "graphs", "intmatrix", "laplacians", "congruence", "duality")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lapdual.__file__)))


# stdlib modules of interest: `fractions` comes with the matrix layers; the
# CLI front end needs none of `dataclasses`, the `inspect` it imports, or `json`
STDLIB = ("dataclasses", "fractions", "inspect", "json")


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


def test_exports_are_unchanged():
    assert len(EXPORTS) == 84
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


def test_emit_dot_leaves_the_matrix_layers_unloaded(tmp_path):
    g = tmp_path / "k4.json"
    g.write_text('{"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}')
    code = ("import contextlib, io\nfrom lapdual import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['emit-dot', {str(g)!r}]) == 0")
    # graphs' dataclasses import inspect; serialization imports json
    assert loaded_after(code) == {"lapdual.cli", "lapdual.errors", "lapdual.graphs",
                                  "lapdual.serialization", "dataclasses", "inspect", "json"}


def test_check_2iso_leaves_congruence_and_duality_unloaded(tmp_path):
    # the forest counts come from Kirchhoff's theorem, so laplacians and
    # intmatrix load
    g = tmp_path / "k4.json"
    g.write_text('{"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}')
    code = ("import contextlib, io\nfrom lapdual import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['check-2iso', {str(g)!r}, {str(g)!r}]) == 0")
    assert not loaded_after(code) & {"lapdual.congruence", "lapdual.duality"}


def test_graph_commands_leave_congruence_and_duality_unloaded(tmp_path):
    g = tmp_path / "k4.json"
    g.write_text('{"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}')
    code = ("import contextlib, io\nfrom lapdual import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['emit-dot', {str(g)!r}]) == 0\n"
            f"    assert cli.main(['laplacian', {str(g)!r}]) == 0")
    loaded = loaded_after(code)
    assert "lapdual.laplacians" in loaded
    assert not loaded & {"lapdual.congruence", "lapdual.duality"}


def test_verify_property_loads_congruence_and_duality_only_where_needed(tmp_path):
    g = tmp_path / "k4.json"
    g.write_text('{"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}')
    for tag in PROPERTY_TAGS:
        code = ("import contextlib, io\nfrom lapdual import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main(['verify-property', {tag!r}, {str(g)!r}]) == 0")
        loaded = loaded_after(code)
        assert ("lapdual.congruence" in loaded) == (tag in ("X", "VIII*", "IX*")), tag
        assert ("lapdual.duality" in loaded) == (tag == "X"), tag
