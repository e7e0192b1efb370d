"""Abstract duality and certified planarity.

A graph is planar exactly when its flow lattice has a superbase whose Gram
trace hits twice the number of non-isthmus edges.  `decide_planarity` finds
that superbase outright: the private `embedding` module embeds the stripped
core by a left-right planarity test, and the consistently oriented face
boundaries of the embedding are such a superbase.  It is shipped as the
incidence matrix of an abstract dual, recovered explicitly:
`decide_planarity` hands the face rows to the center lemma of `laplacians`,
which reads its Gram conditions off their columns, so no matrix product is
formed.  On a nonplanar core the embedding's edge deletions leave a K5 or
K3,3 subdivision, whose branch sets are verified and returned instead.

`decide_planarity` loads `embedding` on its first call, so checking a dual
or a certificate never compiles it.  The paper's own route to the same
superbase, a trace descent, is the `descent` layer, which nothing here
loads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import BudgetExceeded, NonplanarInput, ShapeMismatch
from .graphs import (ForestCertificate, MultiGraph, SearchBudget, _bfs_tree,
                     _require_maximal_forest, _Verdict, adjacency, classify_edges,
                     forest_count, forest_size, fundamental_circuits, in_cut_space,
                     maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness
from .laplacians import (_flow_coordinates, _recover, _reduction, _superbase, flow_gram,
                         incidence, reduced_incidence, reduced_laplacian)

PLANAR = "planar"
NONPLANAR = "nonplanar"
UNKNOWN = "unknown"
KURATOWSKI_SETS = {"K5": 5, "K3,3": 6}  # kind -> number of branch sets


@dataclass(frozen=True)
class KuratowskiEvidence:
    kind: str  # "K5" | "K3,3"
    branch_sets: tuple  # tuple of sorted vertex tuples


@dataclass(frozen=True)
class DualCertificate:
    """Witnessed abstract dual: the recovered graph, each edge listed from tail
    to head, the unimodular transform that carries the bordered flow matrix
    onto its incidence matrix, and the positional primal-to-dual edge
    bijection."""

    dual_graph: MultiGraph
    witness_z: UnimodularWitness
    edge_bijection: tuple
    trace: int
    core_edges: tuple
    core_forest: ForestCertificate
    core_v0: tuple  # sorted
    laplacian_witness: UnimodularWitness = None

    def core_graph(self, g: MultiGraph) -> MultiGraph:
        return MultiGraph(g.num_vertices, tuple([g.edges[e] for e in self.core_edges]))

    def replay_core(self, g: MultiGraph) -> bool:
        """Check that the certificate's core is g's stripped core, its trace
        twice the core edges and loops, and its witness carries the bordered
        flow matrix of that core, a zero row over the core's flow matrix, onto
        the dual core's incidence rows, with no product: `_flow_coordinates`
        checks that those rows are flows of the core and reads the one such
        carrier, which the witness's columns past the first must equal (its
        first column meets the zero row).  A `core_forest` that is not a
        maximal forest of the core raises as `flow_matrix` does.  The flow
        side does not depend on V0, but a `core_v0` that is not one vertex per
        component of the core is still refused.  A `beta` that is not a
        permutation of g's edges, a dual graph with another edge count or too
        few vertices, another core, another trace, or a witness of the wrong
        size replays False."""
        m = g.num_edges
        if sorted(self.edge_bijection) != list(range(m)) or self.dual_graph.num_edges != m:
            return False
        core_edges, loops, core = _stripped_core(g)
        if self.core_edges != core_edges or self.trace != 2 * (len(core_edges) + len(loops)):
            return False
        _require_maximal_forest(core, self.core_forest)
        _reduction(core, self.core_v0)
        r = len(self.core_forest.cotree_edges)
        if self.witness_z.u.rows != r + 1 or self.dual_graph.num_vertices <= r:
            return False
        core_cols = [self.edge_bijection[e] for e in self.core_edges]
        rows = incidence(self.dual_graph).submatrix(range(r + 1), core_cols).data
        w = _flow_coordinates(core, self.core_forest, rows)
        return w is not None and w == self.witness_z.u.submatrix(range(r + 1), range(1, r + 1))


@dataclass(frozen=True)
class PlanarityResult(_Verdict):
    WORDS = (PLANAR, NONPLANAR, UNKNOWN)
    certificate: DualCertificate = None
    evidence: KuratowskiEvidence = None
    best_trace: int = None
    note: str = ""


def verify_kuratowski_evidence(g: MultiGraph, ev: KuratowskiEvidence) -> bool:
    """Branch sets must be nonempty, disjoint, connected in g, and pairwise
    adjacent in the target pattern.  One edge scan finds the edges inside the
    sets, which one breadth-first forest walks, and the set pairs joined."""
    sets = [set(s) for s in ev.branch_sets]
    if len(sets) != KURATOWSKI_SETS.get(ev.kind) or not all(sets):
        return False
    owner = {}
    for i, s in enumerate(sets):
        for v in s:
            if v in owner or not 0 <= v < g.num_vertices:
                return False
            owner[v] = i
    inside, joined = [], set()
    for k, (u, v) in enumerate(g.edges):
        if u in owner and v in owner:
            if owner[u] == owner[v]:
                inside.append(k)
            else:
                joined.add((min(owner[u], owner[v]), max(owner[u], owner[v])))
    if len(_bfs_tree(adjacency(g, inside), [min(s) for s in sets])) != len(owner):
        return False
    if ev.kind == "K5":
        return len(joined) == 10  # every pair of the five sets
    return joined.issuperset((i, j) for i in range(3) for j in range(3, 6))


def _stripped_core(g: MultiGraph):
    """g's stripped core: its ascending edges that are neither loops nor
    isthmuses, its loops, and the graph of the core edges on g's vertices."""
    loops, isthmuses = classify_edges(g)
    skip = set(loops) | set(isthmuses)
    core_edges = tuple([e for e in range(g.num_edges) if e not in skip])
    return core_edges, loops, MultiGraph(g.num_vertices, tuple([g.edges[e] for e in core_edges]))


def decide_planarity(g: MultiGraph, budget=10**6, seed=0) -> PlanarityResult:
    """Certified planarity of g by a left-right embedding of its stripped core.

    A planar verdict carries a DualCertificate whose superbase is the
    embedding's face boundaries, handed to the center lemma as they are; a
    nonplanar verdict carries verified Kuratowski branch sets.  Each
    half-edge step of the embedding's walks and each planarity test of the
    extraction spends one unit of `budget`; running out gives `unknown`.
    `seed` does not affect the result; it stays for the callers that pass it
    positionally, such as the benchmark's planarity op."""
    from .embedding import _face_basis, _kuratowski_subdivision

    core_edges, loops, core = _stripped_core(g)
    core_forest = maximal_forest(core)
    counter = SearchBudget(budget)
    try:
        faces = _face_basis(core, core_forest.cotree_edges, counter)
        kuratowski = _kuratowski_subdivision(core, counter) if faces is None else None
    except BudgetExceeded:
        return PlanarityResult(UNKNOWN, note=f"planarity search budget {budget} exhausted")
    if kuratowski is not None:
        evidence = KuratowskiEvidence(*kuratowski)
        if not verify_kuratowski_evidence(g, evidence):
            raise AssertionError("Kuratowski evidence failed verification")
        return PlanarityResult(NONPLANAR, evidence=evidence)
    # the lemma reads ca, the superbase of the faces.  z puts e_0 before ca's
    # flow coordinates, so it carries the flow matrix under a zero row onto ca
    ca = _superbase([[face.get(e, 0) for e in range(core.num_edges)] for face in faces],
                    core.num_edges)
    z = UnimodularWitness(IntMatrix.from_rows(
        [[1 if i == 0 else 0] + list(row)
         for i, row in enumerate(_flow_coordinates(core, core_forest, ca.data).data)]))
    dual_core = _recover(ca, 2 * core.num_edges)
    # an isthmus is a loop of the dual, and a loop a pendant isthmus
    edges = [(0, 0)] * g.num_edges
    for pos, e in enumerate(core_edges):
        edges[e] = dual_core.edges[pos]
    for i, e in enumerate(loops):
        edges[e] = (0, dual_core.num_vertices + i)
    dual = MultiGraph(dual_core.num_vertices + len(loops), tuple(edges),
                      name=f"dual({g.name})" if g.name else "")
    cert = DualCertificate(dual, z, tuple(range(g.num_edges)),
                           2 * (len(core_edges) + len(loops)), core_edges, core_forest,
                           _reduction(core)[0])
    return PlanarityResult(PLANAR, certificate=cert, best_trace=cert.trace)


def construct_abstract_dual(g: MultiGraph, budget=10**6) -> DualCertificate:
    """Build and verify an abstract dual of a planar graph.

    The dual's loop count equals the primal isthmus count by construction,
    and the dual's reduced Laplacian is certified congruent to the primal's
    flow Gram matrix through an explicit row-equivalence witness.  The
    witness W, with W * flow_matrix(g) = the dual's reduced incidence, is
    read by `_flow_coordinates`, which checks those rows are flows of g
    without a product; its determinant and the congruence W * flow Gram *
    W^T are then replayed."""
    result = decide_planarity(g, budget)
    if result.status == NONPLANAR:
        raise NonplanarInput("graph is nonplanar; it has no abstract dual")
    if result.status == UNKNOWN:
        raise BudgetExceeded(result.note or "planarity search exhausted its budget")
    cert = result.certificate
    w = _flow_coordinates(g, maximal_forest(g), reduced_incidence(cert.dual_graph).data)
    if w is None:
        raise AssertionError("dual incidence rows do not span the primal flow lattice")
    u = UnimodularWitness(w)
    base = flow_gram(g)
    if u.u.mul(base).mul(u.u.transpose()) != reduced_laplacian(cert.dual_graph):
        raise AssertionError("dual Laplacian congruence failed replay")
    return replace(cert, laplacian_witness=u)


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    forest_size_identity: bool
    complement_bijection: bool
    forest_counts: tuple


def verify_abstract_dual(g1: MultiGraph, g2: MultiGraph, beta) -> DualityReport:
    """Check that beta carries the maximal forests of g1 onto the complements
    of the maximal forests of g2, that is the cycle matroid of g1 onto the
    dual of that of g2.

    Both matroids are binary, so that holds exactly when beta carries the
    GF(2) cycle space of g1 onto the cut space of g2: when the forest sizes
    satisfy n2 - c2 = m - (n1 - c1) and every fundamental circuit of g1 maps
    to a cut of g2.  The forest counts come from Kirchhoff's theorem."""
    m = g1.num_edges
    if g2.num_edges != m:
        raise ShapeMismatch("abstract duals need equal edge counts")
    beta = tuple(beta)
    if sorted(beta) != list(range(m)):
        raise ShapeMismatch("beta is not an edge bijection")
    size_ok = forest_size(g2) == m - forest_size(g1)
    complement_ok = size_ok and in_cut_space(
        g2, [[beta[k] for k in c] for c in fundamental_circuits(g1).values()])
    return DualityReport(ok=complement_ok,
                         forest_size_identity=size_ok,
                         complement_bijection=complement_ok,
                         forest_counts=(forest_count(g1), forest_count(g2)))
