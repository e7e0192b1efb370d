"""Laplacians, incidence matrices, cut/flow blocks and dual Laplacians.

Column permutations are never materialized: every edge-indexed matrix keeps
its columns in ascending edge order, and block formulas are assembled by
writing each column into its edge position directly.  The flow matrix is
read off the forest, one fundamental circuit per cotree edge, and the cut
block is its forest columns transposed; nothing inverts the forest block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (PROPERTY_TAGS, CapExceeded, InvalidReductionSpec,
                     NotMaximalForest, NotUnimodular, UnknownTag)
from .graphs import (ForestCertificate, MultiGraph, Orientation, adjacency,
                     circuit_through, classify_edges, components,
                     count_maximal_forests, is_maximal_forest,
                     iter_maximal_forests, maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness, det_bareiss


@dataclass(frozen=True)
class ReductionSpec:
    """Vertex set with exactly one member per connected component."""

    v0: tuple

    @staticmethod
    def of(vertices):
        return ReductionSpec(tuple(sorted(set(int(v) for v in vertices))))

    def validate(self, g: MultiGraph):
        chosen = set(self.v0)
        if not all(0 <= v < g.num_vertices for v in chosen):
            raise InvalidReductionSpec("vertex out of range")
        for comp in components(g):
            if len(chosen.intersection(comp)) != 1:
                raise InvalidReductionSpec(
                    f"need exactly one vertex from component {comp}")

    def kept_vertices(self, g: MultiGraph):
        chosen = set(self.v0)
        return [v for v in range(g.num_vertices) if v not in chosen]


def default_reduction_spec(g: MultiGraph) -> ReductionSpec:
    """Smallest-index vertex of every component."""
    return ReductionSpec.of(comp[0] for comp in components(g))


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


def reduced_laplacian(g: MultiGraph, spec: ReductionSpec = None) -> IntMatrix:
    if spec is None:
        spec = default_reduction_spec(g)
    spec.validate(g)
    kept = spec.kept_vertices(g)
    return laplacian(g).submatrix(kept, kept)


def incidence(g: MultiGraph, o: Orientation = None) -> IntMatrix:
    """Vertex-by-edge matrix: -1 at the tail, +1 at the head, loop columns zero."""
    if o is None:
        o = Orientation.default(g)
    m = [[0] * g.num_edges for _ in range(g.num_vertices)]
    for e in range(g.num_edges):
        if g.is_loop(e):
            continue
        tail, head = o.endpoints(g, e)
        m[tail][e] = -1
        m[head][e] = 1
    return IntMatrix.from_rows(m, cols=g.num_edges)


def reduced_incidence(g: MultiGraph, o: Orientation = None, spec: ReductionSpec = None) -> IntMatrix:
    if spec is None:
        spec = default_reduction_spec(g)
    spec.validate(g)
    kept = spec.kept_vertices(g)
    return incidence(g, o).submatrix(kept, range(g.num_edges))


def _require_maximal_forest(g, f):
    if not is_maximal_forest(g, f.forest_edges):
        raise NotMaximalForest("edge set is not a maximal forest")
    if tuple(sorted(f.forest_edges + f.cotree_edges)) != tuple(range(g.num_edges)):
        raise NotMaximalForest("forest and cotree do not partition the edge set")


def flow_matrix(g: MultiGraph, o: Orientation = None, f: ForestCertificate = None,
                spec: ReductionSpec = None) -> IntMatrix:
    """Fundamental-circuit matrix: one row per cotree edge (ascending), with
    -1 in its own column and its signed forest path in the forest columns.

    Each row is read off one walk of the forest.  `spec` is validated but
    changes nothing: the rows lie in the kernel of every reduced incidence."""
    if o is None:
        o = Orientation.default(g)
    if f is None:
        f = maximal_forest(g)
    if spec is None:
        spec = default_reduction_spec(g)
    _require_maximal_forest(g, f)
    spec.validate(g)
    adj = adjacency(g, f.forest_edges)
    return IntMatrix.from_rows((circuit_through(g, o, e, adj) for e in f.cotree_edges),
                               cols=g.num_edges)


def cut_block(g: MultiGraph, o: Orientation = None, f: ForestCertificate = None,
              spec: ReductionSpec = None) -> IntMatrix:
    """Fundamental-cut block C: rows indexed by forest edges, columns by cotree
    edges, both ascending; the flow matrix's forest columns, transposed.  The
    reduced incidence's forest columns times C are its cotree columns."""
    if f is None:
        f = maximal_forest(g)
    fm = flow_matrix(g, o, f, spec)
    return fm.submatrix(range(fm.rows), f.forest_edges).transpose()


def superbase_matrix(g: MultiGraph, o: Orientation = None, f: ForestCertificate = None,
                     spec: ReductionSpec = None) -> IntMatrix:
    """Flow matrix with the dependent row (negative of the row sum) on top, so
    all rows sum to the zero vector."""
    fm = flow_matrix(g, o, f, spec)
    dep = tuple([-sum(col) for col in fm.transpose().data])
    return IntMatrix(fm.rows + 1, fm.cols, (dep,) + fm.data)


def border_last(r: IntMatrix) -> IntMatrix:
    """Append one row and column making all row/column sums zero."""
    sums = [sum(row) for row in r.data]
    corner = sum(sums)
    rows = [row + (-s,) for row, s in zip(r.data, sums)]
    rows.append(tuple([-s for s in sums]) + (corner,))
    return IntMatrix.from_rows(rows, cols=r.cols + 1)


def border_first(r: IntMatrix) -> IntMatrix:
    sums = [sum(row) for row in r.data]
    corner = sum(sums)
    rows = [(corner,) + tuple([-s for s in sums])]
    for row, s in zip(r.data, sums):
        rows.append((-s,) + row)
    return IntMatrix.from_rows(rows, cols=r.cols + 1)


def border_witness_last(u: UnimodularWitness) -> UnimodularWitness:
    """Extend a congruence witness of R to one of border_last(R)."""
    n = u.u.rows
    col_deficit = [1 - sum(u.u.data[i][j] for i in range(n)) for j in range(n)]
    rows = [row + (0,) for row in u.u.data]
    rows.append(tuple(col_deficit) + (1,))
    return UnimodularWitness(IntMatrix.from_rows(rows, cols=n + 1))


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


def flow_gram(g: MultiGraph, o: Orientation = None, f: ForestCertificate = None,
              spec: ReductionSpec = None) -> IntMatrix:
    """Gram matrix of the fundamental circuits (identity plus transposed cut
    block times cut block)."""
    c = cut_block(g, o, f, spec)
    return IntMatrix.identity(c.cols).add(c.transpose().mul(c))


def cut_gram(g: MultiGraph, o: Orientation = None, f: ForestCertificate = None,
             spec: ReductionSpec = None) -> IntMatrix:
    """Gram matrix of the fundamental cuts (identity plus cut block times its
    transpose)."""
    c = cut_block(g, o, f, spec)
    return IntMatrix.identity(c.rows).add(c.mul(c.transpose()))


def reduced_dual_laplacian(g: MultiGraph, o: Orientation = None, f: ForestCertificate = None,
                           spec: ReductionSpec = None, u: UnimodularWitness = None) -> DualLaplacianPair:
    base = flow_gram(g, o, f, spec)
    if u is None:
        u = UnimodularWitness(IntMatrix.identity(base.rows))
    if u.u.rows != base.rows:
        raise NotUnimodular("witness size does not match the flow Gram matrix")
    reduced = u.u.mul(base).mul(u.u.transpose())
    return DualLaplacianPair(reduced=reduced, unreduced=border_last(reduced),
                             witness=u, gram_base=base)


def reduction_change_witness(g: MultiGraph, spec_from: ReductionSpec,
                             spec_to: ReductionSpec) -> UnimodularWitness:
    """Unimodular U with U * N_from = N_to and U * L_from * U^T = L_to.

    Built componentwise: a row deleted by `spec_from` but kept by `spec_to`
    is minus the sum of that component's surviving rows.
    """
    spec_from.validate(g)
    spec_to.validate(g)
    kept_from = spec_from.kept_vertices(g)
    kept_to = spec_to.kept_vertices(g)
    pos_from = {v: i for i, v in enumerate(kept_from)}
    comp_of = {}
    for comp in components(g):
        for v in comp:
            comp_of[v] = tuple(comp)
    rows = []
    for w in kept_to:
        row = [0] * len(kept_from)
        if w in pos_from:
            row[pos_from[w]] = 1
        else:
            # w is deleted by spec_from; expand it over its component
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


def _append_edges(g, extra):
    return MultiGraph(g.num_vertices, g.edges + tuple(extra), g.name)


def _second_forest(g):
    forests = list(itertools.islice(iter_maximal_forests(g), 2))
    return forests[-1]


def _alternate_spec(g):
    return ReductionSpec.of(comp[-1] for comp in components(g))


def verify_property(g: MultiGraph, tag: str) -> PropertyReport:
    """Check one of the classical (un)reduced Laplacian facts or its flow-side
    analogue on the given graph, returning the witnesses used."""
    if tag not in PROPERTY_TAGS:
        raise UnknownTag(f"unknown property tag {tag!r}")
    o = Orientation.default(g)
    lap = laplacian(g)
    loops, isthmuses = classify_edges(g)
    details = {}

    if tag == "I":
        return PropertyReport(tag, lap.is_symmetric(), {"laplacian": lap})

    if tag == "II":
        with_loop = _append_edges(g, [(0, 0)]) if g.num_vertices else g
        stripped = MultiGraph(g.num_vertices,
                              tuple([e for e in g.edges if e[0] != e[1]]), g.name)
        ok = laplacian(with_loop) == lap == laplacian(stripped)
        return PropertyReport(tag, ok, {"laplacian": lap})

    if tag == "III":
        n = g.num_vertices
        if n > 8:
            raise CapExceeded("property III check enumerates vertex permutations; n <= 8")
        stripped_edges = sorted(tuple(sorted(e)) for e in g.edges if e[0] != e[1])
        matching, isos = [], []
        for perm in itertools.permutations(range(n)):
            if all(lap.data[perm[i]][perm[j]] == lap.data[i][j]
                   for i in range(n) for j in range(n)):
                matching.append(perm)
            mapped = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in stripped_edges)
            if mapped == stripped_edges:
                isos.append(perm)
        ok = matching == isos
        return PropertyReport(tag, ok, {"laplacian_permutations": len(matching),
                                        "loopless_isomorphisms": len(isos)})

    if tag == "IV":
        ok = all(sum(row) == 0 for row in lap.data) and \
            all(sum(lap.column(j)) == 0 for j in range(lap.cols))
        return PropertyReport(tag, ok, {"laplacian": lap})

    if tag == "V":
        expected = 2 * (g.num_edges - len(loops))
        return PropertyReport(tag, lap.trace() == expected,
                              {"trace": lap.trace(), "expected": expected})

    if tag == "VI":
        comps = components(g)
        owner = {}
        for idx, comp in enumerate(comps):
            for v in comp:
                owner[v] = idx
        ok = all(lap.data[i][j] == 0
                 for i in range(g.num_vertices) for j in range(g.num_vertices)
                 if owner[i] != owner[j])
        return PropertyReport(tag, ok, {"components": comps})

    if tag == "VII":
        spec = default_reduction_spec(g)
        n_full = incidence(g, o)
        n_red = reduced_incidence(g, o, spec)
        ok = n_full.mul(n_full.transpose()) == lap and \
            n_red.mul(n_red.transpose()) == reduced_laplacian(g, spec)
        return PropertyReport(tag, ok, {"incidence": n_full})

    if tag == "VIII":
        spec1, spec2 = default_reduction_spec(g), _alternate_spec(g)
        u = reduction_change_witness(g, spec1, spec2)
        n1 = reduced_incidence(g, o, spec1)
        n2 = reduced_incidence(g, o, spec2)
        ok = u.u.mul(n1) == n2
        return PropertyReport(tag, ok, {"witness": u, "specs": (spec1, spec2)})

    if tag == "IX":
        spec1, spec2 = default_reduction_spec(g), _alternate_spec(g)
        u = reduction_change_witness(g, spec1, spec2)
        l1 = reduced_laplacian(g, spec1)
        l2 = reduced_laplacian(g, spec2)
        ok = u.u.mul(l1).mul(u.u.transpose()) == l2
        return PropertyReport(tag, ok, {"witness": u})

    if tag == "X":
        if g.num_edges > 9:
            raise CapExceeded("property X check enumerates edge bijections; m <= 9")
        from .congruence import property_x_report
        relabel = g.edges[1:] + g.edges[:1]
        other = MultiGraph(g.num_vertices, relabel, g.name)
        report = property_x_report(g, other, budget=200000)
        ok = report.consistent and report.condition_statuses() == ("true",) * 4
        return PropertyReport(tag, ok, {"report": report})

    if tag == "XI":
        spec = default_reduction_spec(g)
        f = maximal_forest(g)
        kept = spec.kept_vertices(g)
        forest_cols = incidence(g, o).submatrix(kept, f.forest_edges)
        gram = cut_gram(g, o, f, spec)
        ok = forest_cols.mul(gram).mul(forest_cols.transpose()) == reduced_laplacian(g, spec)
        return PropertyReport(tag, ok, {"witness": forest_cols})

    # starred properties
    pair = reduced_dual_laplacian(g)

    if tag == "I*":
        ok = pair.reduced.is_symmetric() and pair.unreduced.is_symmetric()
        return PropertyReport(tag, ok, {"reduced": pair.reduced})

    if tag == "II*":
        if g.num_vertices == 0:
            return PropertyReport(tag, True, {"note": "empty graph; nothing to attach"})
        grown = MultiGraph(g.num_vertices + 1,
                           g.edges + ((0, g.num_vertices),), g.name)
        ok = flow_gram(grown) == pair.gram_base
        if isthmuses:
            e = isthmuses[0]
            shrunk = MultiGraph(g.num_vertices, g.edges[:e] + g.edges[e + 1:], g.name)
            ok = ok and flow_gram(shrunk) == pair.gram_base
        return PropertyReport(tag, ok, {"reduced": pair.reduced})

    if tag == "IV*":
        ok = all(sum(row) == 0 for row in pair.unreduced.data)
        ok = ok and all(sum(pair.unreduced.column(j)) == 0 for j in range(pair.unreduced.cols))
        forest_count = count_maximal_forests(g, cap=200000)
        ok = ok and det_bareiss(pair.gram_base) == forest_count
        return PropertyReport(tag, ok, {"forest_count": forest_count})

    if tag == "V*":
        hat = superbase_matrix(g)
        tr = hat.mul(hat.transpose()).trace()
        bound = 2 * (g.num_edges - len(isthmuses))
        ok = tr % 2 == 0 and tr >= bound
        return PropertyReport(tag, ok, {"trace": tr, "bound": bound})

    if tag == "VI*":
        comps = components(g)
        if len(comps) <= 1:
            return PropertyReport(tag, True, {"note": "graph already connected"})
        bridges = [(comps[i][0], comps[i + 1][0]) for i in range(len(comps) - 1)]
        joined = _append_edges(g, bridges)
        ok = flow_gram(joined) == pair.gram_base
        return PropertyReport(tag, ok, {"bridges": bridges})

    if tag == "VII*":
        fm = flow_matrix(g)
        hat = superbase_matrix(g)
        ok = fm.mul(fm.transpose()) == pair.gram_base
        ok = ok and hat.mul(hat.transpose()) == border_first(pair.gram_base)
        return PropertyReport(tag, ok, {"flow_matrix": fm})

    if tag == "VIII*":
        from .congruence import strict_row_equivalence
        f1 = maximal_forest(g)
        f2 = _second_forest(g)
        fm1 = flow_matrix(g, o, f1)
        fm2 = flow_matrix(g, o, f2)
        same_under_spec = flow_matrix(g, o, f1, _alternate_spec(g)) == fm1
        u = strict_row_equivalence(fm1, fm2)
        ok = same_under_spec and u is not None and u.u.mul(fm1) == fm2
        return PropertyReport(tag, ok, {"witness": u, "forests": (f1, f2)})

    if tag == "IX*":
        from .congruence import strict_row_equivalence
        f1 = maximal_forest(g)
        f2 = _second_forest(g)
        fm1 = flow_matrix(g, o, f1)
        fm2 = flow_matrix(g, o, f2)
        u = strict_row_equivalence(fm1, fm2)
        if u is None:
            return PropertyReport(tag, False, {"note": "flow matrices not row equivalent"})
        r1 = flow_gram(g, o, f1)
        r2 = flow_gram(g, o, f2)
        ok = u.u.mul(r1).mul(u.u.transpose()) == r2
        hat_u = border_witness_last(u)
        ok = ok and hat_u.u.mul(border_last(r1)).mul(hat_u.u.transpose()) == border_last(r2)
        return PropertyReport(tag, ok, {"witness": u, "bordered_witness": hat_u})

    raise UnknownTag(f"unhandled property tag {tag!r}")
