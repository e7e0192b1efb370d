"""Laplacians, incidence matrices, cut/flow blocks and dual Laplacians.

This layer holds the constructions only; the checks of the classical facts
about them are the `properties` layer, which nothing here loads.

Column permutations are never materialized: every edge-indexed matrix keeps
its columns in ascending edge order, and block formulas are assembled by
writing each column into its edge position directly.  The flow matrix is
read off the forest, one fundamental circuit per cotree edge, and the cut
block is its forest columns transposed; nothing inverts the forest block.
It is -I on its cotree columns, so a flow is fixed by its cotree entries:
`_flow_coordinates` reads every change of flow basis as minus the new rows'
cotree columns, the one W with W * flow_matrix = rows, with no Hermite form.

The vertex side takes V0, a list of vertices with one from each component,
whose rows it deletes.  The flow side (flow matrix, cut block, superbase,
flow and cut Grams, dual Laplacian) depends on the maximal forest only: its
rows span the kernel of the incidence matrix, which is the kernel of every
reduced incidence whatever V0 deletes.
"""

from dataclasses import dataclass

from .errors import InvalidReductionSpec, NotUnimodular
from .graphs import (ForestCertificate, MultiGraph, _require_maximal_forest,
                     adjacency, circuit_through, components, maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness


def _reduction(g: MultiGraph, v0=None):
    """V0, sorted and checked, and the vertices it keeps, ascending.  V0 is
    any iterable of vertices holding exactly one of each component; by
    default it is each component's smallest vertex."""
    comps = components(g)
    if v0 is None:
        chosen = {comp[0] for comp in comps}
    else:
        chosen = set(int(v) for v in v0)
        if not all(0 <= v < g.num_vertices for v in chosen):
            raise InvalidReductionSpec("vertex out of range")
        for comp in comps:
            if len(chosen.intersection(comp)) != 1:
                raise InvalidReductionSpec(f"need exactly one vertex from component {comp}")
    return tuple(sorted(chosen)), [v for v in range(g.num_vertices) if v not in chosen]


def laplacian(g: MultiGraph) -> IntMatrix:
    """Degree-minus-adjacency matrix; loops contribute nothing."""
    n = g.num_vertices
    m = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            m[u][v] -= 1
            m[v][u] -= 1
            m[u][u] += 1
            m[v][v] += 1
    return IntMatrix.from_rows(m, cols=n)


def reduced_laplacian(g: MultiGraph, v0=None) -> IntMatrix:
    _, kept = _reduction(g, v0)
    return laplacian(g).submatrix(kept, kept)


def incidence(g: MultiGraph) -> IntMatrix:
    """Vertex-by-edge matrix: edge (u, v) has -1 at its tail u and +1 at its
    head v; loop columns are zero."""
    m = [[0] * g.num_edges for _ in range(g.num_vertices)]
    for e, (tail, head) in enumerate(g.edges):
        if tail != head:
            m[tail][e] = -1
            m[head][e] = 1
    return IntMatrix.from_rows(m, cols=g.num_edges)


def reduced_incidence(g: MultiGraph, v0=None) -> IntMatrix:
    _, kept = _reduction(g, v0)
    return incidence(g).submatrix(kept, range(g.num_edges))


def flow_matrix(g: MultiGraph, f: ForestCertificate = None) -> IntMatrix:
    """Fundamental-circuit matrix: one row per cotree edge (ascending), with
    -1 in its own column and its signed forest path in the forest columns.

    Each row is read off one walk of the forest."""
    if f is None:
        f = maximal_forest(g)
    _require_maximal_forest(g, f)
    adj = adjacency(g, f.forest_edges)
    return IntMatrix.from_rows((circuit_through(g, e, adj) for e in f.cotree_edges),
                               cols=g.num_edges)


def _flow_coordinates(f: ForestCertificate, rows) -> IntMatrix:
    """Minus the cotree columns of `rows`, unchecked: the W with
    W * flow_matrix(g, f) = rows when those rows are flows of g."""
    return IntMatrix.from_rows(([-row[e] for e in f.cotree_edges] for row in rows),
                               cols=len(f.cotree_edges))


def cut_block(g: MultiGraph, f: ForestCertificate = None) -> IntMatrix:
    """Fundamental-cut block C: rows indexed by forest edges, columns by cotree
    edges, both ascending; the flow matrix's forest columns, transposed.  The
    reduced incidence's forest columns times C are its cotree columns."""
    if f is None:
        f = maximal_forest(g)
    fm = flow_matrix(g, f)
    return fm.submatrix(range(fm.rows), f.forest_edges).transpose()


def superbase_matrix(g: MultiGraph, f: ForestCertificate = None) -> IntMatrix:
    """Flow matrix with the dependent row (negative of the row sum) on top, so
    all rows sum to the zero vector."""
    fm = flow_matrix(g, f)
    dep = tuple([-sum(col) for col in fm.transpose().data])
    return IntMatrix(fm.rows + 1, fm.cols, (dep,) + fm.data)


def border_last(r: IntMatrix) -> IntMatrix:
    """Append one row and column making all row/column sums zero: the new
    column is minus the row sums, the new row minus the column sums."""
    sums = [sum(row) for row in r.data]
    rows = [row + (-s,) for row, s in zip(r.data, sums)]
    rows.append(tuple([-sum(col) for col in r.transpose().data]) + (sum(sums),))
    return IntMatrix.from_rows(rows, cols=r.cols + 1)


def border_first(r: IntMatrix) -> IntMatrix:
    """border_last with the new row and column put first."""
    sums = [sum(row) for row in r.data]
    rows = [(sum(sums),) + tuple([-sum(col) for col in r.transpose().data])]
    for row, s in zip(r.data, sums):
        rows.append((-s,) + row)
    return IntMatrix.from_rows(rows, cols=r.cols + 1)


@dataclass(frozen=True)
class DualLaplacianPair:
    """A reduced dual Laplacian, its zero-sum bordered version, and the witness
    relating the reduced matrix to the generating flow Gram matrix."""

    reduced: IntMatrix
    unreduced: IntMatrix
    witness: UnimodularWitness
    gram_base: IntMatrix  # flow Gram the witness acts on

    def __post_init__(self):
        w = self.witness.u
        if w.mul(self.gram_base).mul(w.transpose()) != self.reduced:
            raise NotUnimodular("witness does not map the base Gram to the reduced matrix")
        if not self.reduced.is_symmetric() or not self.unreduced.is_symmetric():
            raise ValueError("dual Laplacians must be symmetric")
        if self.unreduced != border_last(self.reduced):
            raise ValueError("unreduced matrix must be the zero-sum bordering of the reduced one")
        if self.unreduced.trace() % 2 != 0:
            raise ValueError("unreduced trace must be even")


def flow_gram(g: MultiGraph, f: ForestCertificate = None) -> IntMatrix:
    """Gram matrix of the fundamental circuits (identity plus transposed cut
    block times cut block)."""
    c = cut_block(g, f)
    return IntMatrix.identity(c.cols).add(c.transpose().mul(c))


def cut_gram(g: MultiGraph, f: ForestCertificate = None) -> IntMatrix:
    """Gram matrix of the fundamental cuts (identity plus cut block times its
    transpose)."""
    c = cut_block(g, f)
    return IntMatrix.identity(c.rows).add(c.mul(c.transpose()))


def reduced_dual_laplacian(g: MultiGraph, f: ForestCertificate = None) -> DualLaplacianPair:
    base = flow_gram(g, f)
    return DualLaplacianPair(reduced=base, unreduced=border_last(base),
                             witness=UnimodularWitness(IntMatrix.identity(base.rows)),
                             gram_base=base)


def reduction_change_witness(g: MultiGraph, v0_from, v0_to) -> UnimodularWitness:
    """Unimodular U with U * N_from = N_to and U * L_from * U^T = L_to.

    Built componentwise: a row deleted by `v0_from` but kept by `v0_to` is
    minus the sum of that component's surviving rows.
    """
    _, kept_from = _reduction(g, v0_from)
    _, kept_to = _reduction(g, v0_to)
    pos_from = {v: i for i, v in enumerate(kept_from)}
    comp_of = {v: comp for comp in components(g) for v in comp}
    rows = []
    for w in kept_to:
        row = [0] * len(kept_from)
        if w in pos_from:
            row[pos_from[w]] = 1
        else:
            # w is deleted by v0_from; expand it over its component
            for x in comp_of[w]:
                if x != w and x in pos_from:
                    row[pos_from[x]] = -1
        rows.append(row)
    return UnimodularWitness(IntMatrix.from_rows(rows, cols=len(kept_from)))
