"""Abstract duality and certified planarity.

A graph is planar exactly when its flow lattice has a superbase whose Gram
trace hits twice the number of non-isthmus edges.  `decide_planarity` finds
that superbase outright: the private `embedding` module embeds the stripped
core by a left-right planarity test, and the consistently oriented face
boundaries of the embedding are such a superbase.  It is shipped as the
incidence matrix of an abstract dual, recovered explicitly:
`decide_planarity` hands the face rows to the center lemma, which reads its
Gram conditions off their columns, so no matrix product is formed.  On a
nonplanar core the embedding's edge deletions leave a K5 or K3,3
subdivision, whose branch sets are verified and returned instead.

`decide_planarity` loads `embedding` on its first call, so checking a dual
or a certificate, or replaying the center lemma, never compiles it.  The
paper's own route to the same superbase, a trace descent, is the `descent`
layer, which nothing here loads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (BudgetExceeded, NonplanarInput, RowSumNonzero,
                     ShapeMismatch, TraceTooLarge)
from .graphs import (ForestCertificate, MultiGraph, SearchBudget, _bfs_tree,
                     _Verdict, adjacency, classify_edges, forest_count, forest_size,
                     fundamental_circuits, in_cut_space, maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness
from .laplacians import (_flow_coordinates, _reduction, flow_gram, flow_matrix,
                         incidence, reduced_incidence, reduced_laplacian)

PLANAR = "planar"
NONPLANAR = "nonplanar"
UNKNOWN = "unknown"
KURATOWSKI_SETS = {"K5": 5, "K3,3": 6}  # kind -> number of branch sets


def lemma_center_recover(a: IntMatrix, c: UnimodularWitness):
    """Recover the directed graph whose incidence matrix is c.u * a.

    Requires the Gram matrix of c.u * a to have zero row sums and trace at
    most twice the number of nonzero columns of a; under those conditions
    every nonzero column has exactly one +1 and one -1, and zero columns are
    returned as loops at vertex 0.  Both conditions are read off the columns
    of c.u * a, so the Gram matrix is never formed."""
    return _recover(c.u.mul(a), 2 * len(a.nonzero_columns()))


def _recover(ca: IntMatrix, bound: int):
    """The center lemma on ca with trace bound `bound`.

    Row i of the Gram matrix sums to row i of ca times ca's column sums, and
    those row sums add up to the sum of the squared column sums, so they all
    vanish exactly when every column sums to zero.  The trace is the sum of
    the squared entries, and a nonzero zero-sum column contributes exactly 2
    when it is one +1 and one -1, more otherwise.  Over a bound of twice the
    nonzero columns, then, some column is not an incidence column; within
    the bound, every column is an incidence column or zero."""
    cols = ca.transpose().data
    if any(sum(col) for col in cols):
        raise RowSumNonzero("Gram matrix rows do not sum to zero")
    squares = [sum(x * x for x in col) for col in cols]
    trace = sum(squares)
    if trace > bound:
        j = next(j for j, sq in enumerate(squares) if sq > 2)
        raise TraceTooLarge(f"trace {trace} exceeds {bound}; column {j} is not "
                            "a signed incidence column", column=j)
    if cols and not ca.rows:
        raise RowSumNonzero("cannot place edges on an empty vertex set")
    g = MultiGraph(ca.rows, tuple([(col.index(-1), col.index(1)) if sq else (0, 0)
                                   for col, sq in zip(cols, squares)]))
    if incidence(g) != ca:
        raise AssertionError("recovered incidence does not replay")
    return g


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
        """Re-derive the bordered flow matrix of the stripped core and check
        the witness maps it onto the dual core's incidence matrix.  The flow
        matrix does not depend on V0, but a `core_v0` that is not one vertex
        per component of the core is still refused.  A `beta` that is not a
        permutation of g's edges, a core edge outside them, a dual graph
        with another edge count or too few vertices, or a witness of the
        wrong size replays False."""
        m = g.num_edges
        if sorted(self.edge_bijection) != list(range(m)) or self.dual_graph.num_edges != m or \
                not all(0 <= e < m for e in self.core_edges):
            return False
        core = self.core_graph(g)
        fm = flow_matrix(core, self.core_forest)
        _reduction(core, self.core_v0)
        a = IntMatrix.zeros(1, fm.cols).vstack(fm)
        if self.witness_z.u.rows != a.rows or self.dual_graph.num_vertices < a.rows:
            return False
        ca = self.witness_z.u.mul(a)
        core_rows = range(self.witness_z.u.rows)
        core_cols = [self.edge_bijection[e] for e in self.core_edges]
        dual_inc = incidence(self.dual_graph)
        return ca == dual_inc.submatrix(core_rows, core_cols)


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


def _strip_for_planarity(g: MultiGraph):
    loops, isthmuses = classify_edges(g)
    skip = set(loops) | set(isthmuses)
    core_edges = tuple([e for e in range(g.num_edges) if e not in skip])
    core = MultiGraph(g.num_vertices, tuple([g.edges[e] for e in core_edges]))
    return core, core_edges, loops, isthmuses


def _assemble_dual(g, core_edges, loops, isthmuses, dual_core, z, trace_core,
                   core_forest, core_v0):
    n_core = dual_core.num_vertices
    dual_vertices = n_core + len(loops)
    edges = [None] * g.num_edges
    for pos, e in enumerate(core_edges):
        edges[e] = dual_core.edges[pos]
    for i, e in enumerate(loops):
        edges[e] = (0, n_core + i)  # pendant isthmus in the dual
    for e in isthmuses:
        edges[e] = (0, 0)  # loop in the dual
    dual = MultiGraph(dual_vertices, tuple(edges), name=f"dual({g.name})" if g.name else "")
    return DualCertificate(
        dual_graph=dual,
        witness_z=z,
        edge_bijection=tuple(range(g.num_edges)),
        trace=trace_core + 2 * len(loops),
        core_edges=core_edges,
        core_forest=core_forest,
        core_v0=core_v0,
    )


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

    core, core_edges, loops, isthmuses = _strip_for_planarity(g)
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
    # the lemma reads ca: the faces under minus their sum.  z puts e_0 before
    # ca's flow coordinates, so it carries the flow matrix under a zero row onto ca
    rows = [[face.get(e, 0) for e in range(core.num_edges)] for face in faces]
    ca = [[-sum(col) for col in zip(*rows)]] + rows
    z = UnimodularWitness(IntMatrix.from_rows(
        [[1 if i == 0 else 0] + list(row)
         for i, row in enumerate(_flow_coordinates(core_forest, ca).data)]))
    dual_core = _recover(IntMatrix.from_rows(ca, cols=core.num_edges), 2 * core.num_edges)
    cert = _assemble_dual(g, core_edges, loops, isthmuses, dual_core, z,
                          2 * core.num_edges, core_forest, _reduction(core)[0])
    return PlanarityResult(PLANAR, certificate=cert, best_trace=cert.trace)


def construct_abstract_dual(g: MultiGraph, budget=10**6) -> DualCertificate:
    """Build and verify an abstract dual of a planar graph.

    The dual's loop count equals the primal isthmus count by construction,
    and the dual's reduced Laplacian is certified congruent to the primal's
    flow Gram matrix through an explicit row-equivalence witness."""
    result = decide_planarity(g, budget)
    if result.status == NONPLANAR:
        raise NonplanarInput("graph is nonplanar; it has no abstract dual")
    if result.status == UNKNOWN:
        raise BudgetExceeded(result.note or "planarity search exhausted its budget")
    cert = result.certificate
    f = maximal_forest(g)
    fm = flow_matrix(g, f)
    n_dual = reduced_incidence(cert.dual_graph)
    w = _flow_coordinates(f, n_dual.data)
    if w.mul(fm) != n_dual:
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
