"""Exact integer matrix machinery for graphs: Laplacians, dual Laplacians,
integer congruence, 2-isomorphism, abstract duality and certified planarity.
"""

from .errors import (BudgetExceeded, CapExceeded, EmptyOrFullSet,
                     InvalidReductionSpec, LapdualError, LoopCountMismatch,
                     MalformedInput, NonplanarInput, NotCotreeEdge,
                     NotMaximalForest, NotSquare, NotSymmetric, NotUnimodular,
                     RowSumNonzero, ShapeMismatch, TraceTooLarge, UnknownTag)
from .graphs import (ForestCertificate, MultiGraph, Orientation,
                     TwoIsomorphismResult, classify_edges, components,
                     count_maximal_forests, cut_vector,
                     decide_2_isomorphism_bruteforce, enumerate_circuits,
                     enumerate_maximal_forests, fundamental_circuit_vector,
                     identify_vertices, is_connected, loopless_isomorphic,
                     maximal_forest, permute_vertices)
from .intmatrix import (IntMatrix, SnfResult, UnimodularWitness, det_bareiss,
                        hermite_normal_form, hnf_nonzero_part, inertia,
                        inverse_unimodular, rank, smith_normal_form)
from .laplacians import (DualLaplacianPair, PropertyReport, ReductionSpec,
                         border_first, border_last, cut_block, cut_gram,
                         default_reduction_spec, flow_gram, flow_matrix,
                         incidence, laplacian, reduced_dual_laplacian,
                         reduced_incidence, reduced_laplacian,
                         reduction_change_witness, superbase_matrix,
                         verify_property)
from .congruence import (CongruenceVerdict, PropertyXReport,
                         congruence_invariants, decide_congruence,
                         loose_row_equivalence, property_x_report,
                         strict_row_equivalence)
from .duality import (DualCertificate, DualityReport, KuratowskiEvidence,
                      PlanarityResult, SuperbaseState, construct_abstract_dual,
                      decide_planarity, lemma_center_recover,
                      superbase_trace_minimize, verify_abstract_dual,
                      verify_kuratowski_evidence)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
