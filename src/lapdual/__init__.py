"""Exact integer matrix machinery for graphs: Laplacians, dual Laplacians,
integer congruence, 2-isomorphism, abstract duality and certified planarity.

Each export is imported from its layer on first access (PEP 562), so a
program loads only the layers it uses.
"""

from importlib import import_module as _import_module

# the public names of each layer
_EXPORTS = {
    "errors": ("BudgetExceeded", "EmptyOrFullSet", "InvalidReductionSpec",
               "LapdualError", "LoopCountMismatch", "MalformedInput",
               "NonplanarInput", "NotCotreeEdge", "NotMaximalForest",
               "NotSquare", "NotSymmetric", "NotUnimodular", "RowSumNonzero",
               "ShapeMismatch", "TraceTooLarge", "UnknownTag"),
    "graphs": ("ForestCertificate", "MultiGraph", "TwoIsomorphismResult",
               "classify_edges", "components", "cut_vector",
               "decide_2_isomorphism_bruteforce", "fundamental_circuit_vector",
               "identify_vertices", "is_connected", "maximal_forest",
               "permute_vertices"),
    "intmatrix": ("IntMatrix", "SnfResult", "UnimodularWitness", "det_bareiss",
                  "hermite_normal_form", "hnf_nonzero_part", "inertia",
                  "inverse_unimodular", "rank", "smith_normal_form"),
    "laplacians": ("DualLaplacianPair", "border_first", "border_last", "cut_block",
                   "cut_gram", "flow_gram", "flow_matrix", "incidence", "laplacian",
                   "lemma_center_recover", "reduced_dual_laplacian", "reduced_incidence",
                   "reduced_laplacian", "reduction_change_witness", "superbase_matrix"),
    "properties": ("PropertyReport", "verify_property"),
    "congruence": ("CongruenceVerdict", "PropertyXReport",
                   "congruence_invariants", "decide_congruence",
                   "loose_row_equivalence", "property_x_report",
                   "strict_row_equivalence"),
    "duality": ("DualCertificate", "DualityReport", "KuratowskiEvidence",
                "PlanarityResult", "construct_abstract_dual", "decide_planarity",
                "verify_abstract_dual", "verify_kuratowski_evidence"),
    "descent": ("SuperbaseState", "superbase_trace_minimize"),
}

# export name -> the submodule that defines it; a layer maps to itself
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULE.update({module: module for module in _EXPORTS})

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_SUBMODULE[name]}", __name__)
    value = module if name == _SUBMODULE[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    # the exports, loaded or not, and no private helper
    public = {name for name in globals() if not name.startswith("_") or name.endswith("__")}
    return sorted(public | set(__all__))
