"""Laplacians, incidence matrices, cut/flow blocks and dual Laplacians, and
the center lemma, which recovers a graph from its incidence matrix.

This layer holds the constructions only; the checks of the classical facts
about them are the `properties` layer, which nothing here loads.  The
center lemma is here because both upper layers run it, each on a
superbase: `duality` on the face rows of a plane embedding, and
`congruence`, in property X's constructive replay, on a congruence witness
times a reduced incidence, so neither loads the other.

Column permutations are never materialized: every edge-indexed matrix keeps
its columns in ascending edge order, and block formulas are assembled by
writing each column into its edge position directly.  The flow matrix is
read off the forest, one fundamental circuit per cotree edge, and the cut
block is its forest columns transposed; nothing inverts the forest block.
It is -I on its cotree columns, so a flow is fixed by its cotree entries:
`_flow_coordinates` is the one checked reading of a change of flow basis.
It checks that the new rows are flows, by their net flow at each vertex,
and reads the one W with W * flow_matrix = rows as minus their cotree
columns, with no product and no Hermite form.  Certificate replay, the
abstract dual, the trace descent's witness and its short-cycle basis all
read it.

The vertex side takes V0, a list of vertices with one from each component,
whose rows it deletes.  The flow side (flow matrix, cut block, superbase,
flow and cut Grams, dual Laplacian) depends on the maximal forest only: its
rows span the kernel of the incidence matrix, which is the kernel of every
reduced incidence whatever V0 deletes.

A superbase is rows under their dependent row, minus their sum, and
`_superbase` is its one construction: the superbase matrix, the trace
descent's state and the face rows of a planar certificate are built by it.
Bordering a matrix so that every row and column sums to zero is the
superbase of its rows, then of that result's columns.
"""

from dataclasses import dataclass

from .errors import InvalidReductionSpec, NotUnimodular, RowSumNonzero, TraceTooLarge
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


def _flow_coordinates(g: MultiGraph, f: ForestCertificate, rows):
    """The one W with W * flow_matrix(g, f) = rows, or None when no W exists.

    It exists exactly when every row is a flow of g, and it is then minus the
    rows' cotree columns: a flow minus its cotree reading is a flow on the
    forest, which is zero.  So the check is one pass over each row's nonzero
    entries for zero net flow at every vertex, and no product is formed."""
    for row in rows:
        net = [0] * g.num_vertices
        for (tail, head), x in zip(g.edges, row):
            if x:
                net[tail] -= x
                net[head] += x
        if any(net):
            return None
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


def _superbase(rows, cols: int) -> IntMatrix:
    """The rows under their dependent row, minus their sum, so that all rows
    sum to the zero vector; `cols` is the width of a matrix with no rows."""
    dep = [-sum(col) for col in zip(*rows)] or [0] * cols
    return IntMatrix.from_rows([dep, *rows], cols=cols)


def superbase_matrix(g: MultiGraph, f: ForestCertificate = None) -> IntMatrix:
    """Flow matrix with its dependent row on top."""
    fm = flow_matrix(g, f)
    return _superbase(fm.data, fm.cols)


def border_first(r: IntMatrix) -> IntMatrix:
    """Put one row and one column first making all row and column sums zero:
    the superbase of the rows, then of the result's columns."""
    return _superbase(_superbase(r.data, r.cols).transpose().data, r.rows + 1).transpose()


def border_last(r: IntMatrix) -> IntMatrix:
    """border_first with the new row and column put last."""
    b = border_first(r)
    return b.submatrix([*range(1, b.rows), 0], [*range(1, b.cols), 0])


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
