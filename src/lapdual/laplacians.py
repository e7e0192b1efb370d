"""Laplacians, incidence matrices, cut/flow blocks and dual Laplacians.

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

from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, InvalidReductionSpec, NotUnimodular, UnknownTag
from .graphs import (ForestCertificate, MultiGraph, _require_maximal_forest,
                     adjacency, circuit_through, classify_edges, components,
                     forest_count, greedy_forest, maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness, det_bareiss

# the fixed search budget of property X's check: verify_property takes none
PROPERTY_X_BUDGET = 200000


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


def border_witness_last(u: UnimodularWitness) -> UnimodularWitness:
    """Extend a congruence witness of R to one of border_last(R)."""
    rows = [row + (0,) for row in u.u.data]
    rows.append(tuple([1 - sum(col) for col in u.u.transpose().data]) + (1,))
    return UnimodularWitness(IntMatrix.from_rows(rows, cols=u.u.rows + 1))


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


@dataclass(frozen=True)
class PropertyReport:
    tag: str
    passed: bool
    details: dict


def _alternate_v0(g):
    return tuple(sorted(comp[-1] for comp in components(g)))


def _zero_line_sums(m):
    return all(sum(row) == 0 for row in m.data) and \
        all(sum(m.column(j)) == 0 for j in range(m.cols))


def _reduction_change(g):
    """The default and alternate V0, and the witness between them."""
    v1, v2 = _reduction(g)[0], _alternate_v0(g)
    return v1, v2, reduction_change_witness(g, v1, v2)


def _second_forest(g, f1):
    """The maximal forest after f1 = maximal_forest(g) in lexicographic
    order, or f1 when it is the only one.  A forest sharing exactly its first
    k edges with f1 has all its others after f1's k-th, and greedy over those
    edges and f1's first k finds the least such forest (the matroid greedy
    property).  One exists exactly when f1's k-th edge is on a circuit, so
    the longest shared prefix stops at the last forest edge that is not an
    isthmus."""
    isthmuses = set(classify_edges(g)[1])
    first = f1.forest_edges
    for k in reversed(range(len(first))):
        if first[k] not in isthmuses:
            return greedy_forest(g, first[:k] + tuple(range(first[k] + 1, g.num_edges)))
    return f1


def _forest_change(g):
    """Two maximal forests, their flow matrices and a row equivalence or None."""
    f1 = maximal_forest(g)
    f2 = _second_forest(g, f1)
    fm1, fm2 = flow_matrix(g, f1), flow_matrix(g, f2)
    try:
        u = UnimodularWitness(_flow_coordinates(f1, fm2.data))
    except NotUnimodular:
        u = None
    return f1, f2, fm1, fm2, u


# property checks, one block: each builds only what it reads and returns
# (passed, details)
def _check_i(g):
    lap = laplacian(g)
    return lap.is_symmetric(), {"laplacian": lap}

def _check_ii(g):
    lap = laplacian(g)
    with_loop = MultiGraph(g.num_vertices, g.edges + ((0, 0),), g.name) if g.num_vertices else g
    stripped = MultiGraph(g.num_vertices, tuple([e for e in g.edges if e[0] != e[1]]), g.name)
    return laplacian(with_loop) == lap == laplacian(stripped), {"laplacian": lap}

def _check_iii(g):
    # off the diagonal L reads the edge multiplicities, and its zero line
    # sums give the diagonal, so L fixes the loopless multigraph
    lap = laplacian(g)
    mult = Counter(tuple(sorted(e)) for e in g.edges if e[0] != e[1])
    n = g.num_vertices
    ok = all(lap.data[i][j] == lap.data[j][i] == -mult[i, j]
             for i in range(n) for j in range(i + 1, n))
    return ok and _zero_line_sums(lap), {"laplacian": lap}

def _check_iv(g):
    lap = laplacian(g)
    return _zero_line_sums(lap), {"laplacian": lap}

def _check_v(g):
    trace = laplacian(g).trace()
    expected = 2 * (g.num_edges - g.num_loops)
    return trace == expected, {"trace": trace, "expected": expected}

def _check_vi(g):
    lap = laplacian(g)
    comps = components(g)
    owner = {v: idx for idx, comp in enumerate(comps) for v in comp}
    ok = all(lap.data[i][j] == 0
             for i in range(g.num_vertices) for j in range(g.num_vertices)
             if owner[i] != owner[j])
    return ok, {"components": comps}

def _check_vii(g):
    n_full, n_red = incidence(g), reduced_incidence(g)
    ok = n_full.mul(n_full.transpose()) == laplacian(g) and \
        n_red.mul(n_red.transpose()) == reduced_laplacian(g)
    return ok, {"incidence": n_full}

def _check_viii(g):
    v1, v2, u = _reduction_change(g)
    ok = u.u.mul(reduced_incidence(g, v1)) == reduced_incidence(g, v2)
    return ok, {"witness": u, "specs": (v1, v2)}

def _check_ix(g):
    v1, v2, u = _reduction_change(g)
    l1 = reduced_laplacian(g, v1)
    return u.u.mul(l1).mul(u.u.transpose()) == reduced_laplacian(g, v2), {"witness": u}

def _check_x(g):
    from .congruence import property_x_report
    other = MultiGraph(g.num_vertices, g.edges[1:] + g.edges[:1], g.name)
    report = property_x_report(g, other, budget=PROPERTY_X_BUDGET)
    statuses = report.condition_statuses()
    if report.consistent and "unknown" in statuses and "false" not in statuses:
        raise BudgetExceeded(f"property X conditions {statuses} at budget {PROPERTY_X_BUDGET}")
    return report.consistent and statuses == ("true",) * 4, {"report": report}

def _check_xi(g):
    f = maximal_forest(g)
    forest_cols = incidence(g).submatrix(_reduction(g)[1], f.forest_edges)
    gram = cut_gram(g, f)
    ok = forest_cols.mul(gram).mul(forest_cols.transpose()) == reduced_laplacian(g)
    return ok, {"witness": forest_cols}

def _check_i_star(g):
    pair = reduced_dual_laplacian(g)
    ok = pair.reduced.is_symmetric() and pair.unreduced.is_symmetric()
    return ok, {"reduced": pair.reduced}

def _check_ii_star(g):
    if g.num_vertices == 0:
        return True, {"note": "empty graph; nothing to attach"}
    pair = reduced_dual_laplacian(g)
    grown = MultiGraph(g.num_vertices + 1, g.edges + ((0, g.num_vertices),), g.name)
    ok = flow_gram(grown) == pair.gram_base
    isthmuses = classify_edges(g)[1]
    if isthmuses:
        e = isthmuses[0]
        shrunk = MultiGraph(g.num_vertices, g.edges[:e] + g.edges[e + 1:], g.name)
        ok = ok and flow_gram(shrunk) == pair.gram_base
    return ok, {"reduced": pair.reduced}

def _check_iv_star(g):
    # matrix-tree: the flow Gram and the reduced Laplacian count the same forests
    pair = reduced_dual_laplacian(g)
    count = forest_count(g)
    ok = _zero_line_sums(pair.unreduced) and det_bareiss(pair.gram_base) == count
    return ok, {"forest_count": count}

def _check_v_star(g):
    hat = superbase_matrix(g)
    tr = sum(x * x for row in hat.data for x in row)  # trace of hat * hat^T
    bound = 2 * (g.num_edges - len(classify_edges(g)[1]))
    return tr % 2 == 0 and tr >= bound, {"trace": tr, "bound": bound}

def _check_vi_star(g):
    comps = components(g)
    if len(comps) <= 1:
        return True, {"note": "graph already connected"}
    bridges = [(comps[i][0], comps[i + 1][0]) for i in range(len(comps) - 1)]
    joined = MultiGraph(g.num_vertices, g.edges + tuple(bridges), g.name)
    ok = flow_gram(joined) == reduced_dual_laplacian(g).gram_base
    return ok, {"bridges": bridges}

def _check_vii_star(g):
    pair = reduced_dual_laplacian(g)
    fm = flow_matrix(g)
    hat = superbase_matrix(g)
    ok = fm.mul(fm.transpose()) == pair.gram_base and \
        hat.mul(hat.transpose()) == border_first(pair.gram_base)
    return ok, {"flow_matrix": fm}

def _check_viii_star(g):
    f1, f2, fm1, fm2, u = _forest_change(g)
    # the flow rows lie in the kernel of the reduced incidence for any V0
    in_kernel = fm1.mul(reduced_incidence(g, _alternate_v0(g)).transpose()).is_zero()
    ok = in_kernel and u is not None and u.u.mul(fm1) == fm2
    return ok, {"witness": u, "forests": (f1, f2)}

def _check_ix_star(g):
    f1, f2, fm1, fm2, u = _forest_change(g)
    if u is None:
        return False, {"note": "flow matrices not row equivalent"}
    # the flow Grams of f1 and f2, read off their flow matrices (property VII*)
    r1, r2 = fm1.mul(fm1.transpose()), fm2.mul(fm2.transpose())
    ok = u.u.mul(r1).mul(u.u.transpose()) == r2
    hat_u = border_witness_last(u)
    ok = ok and hat_u.u.mul(border_last(r1)).mul(hat_u.u.transpose()) == border_last(r2)
    return ok, {"witness": u, "bordered_witness": hat_u}


# one check per tag of `errors.PROPERTY_TAGS`, in its order
_PROPERTY_CHECKS = {
    "I": _check_i, "II": _check_ii, "III": _check_iii, "IV": _check_iv,
    "V": _check_v, "VI": _check_vi, "VII": _check_vii, "VIII": _check_viii,
    "IX": _check_ix, "X": _check_x, "XI": _check_xi,
    "I*": _check_i_star, "II*": _check_ii_star, "IV*": _check_iv_star,
    "V*": _check_v_star, "VI*": _check_vi_star, "VII*": _check_vii_star,
    "VIII*": _check_viii_star, "IX*": _check_ix_star,
}


def verify_property(g: MultiGraph, tag: str) -> PropertyReport:
    """Check one of the classical (un)reduced Laplacian facts or its flow-side
    analogue on the given graph, returning the witnesses used.

    `_PROPERTY_CHECKS` maps each tag to its check; only X loads a further
    layer, `congruence` and `duality`.  No check has a size cap: III reads
    the edge multiplicities off L's entries, IV* compares det(flow Gram) with
    the Kirchhoff count of the reduced Laplacian, and VIII* and IX* find the
    second forest greedily.  X compares g with its edge-rotated copy at the
    fixed budget `PROPERTY_X_BUDGET`, and it alone raises: BudgetExceeded
    (exit 2) when that budget leaves a condition unknown and none is false."""
    check = _PROPERTY_CHECKS.get(tag)
    if check is None:
        raise UnknownTag(f"unknown property tag {tag!r}")
    passed, details = check(g)
    return PropertyReport(tag, passed, details)
