"""Property checks: the classical facts about Laplacians, tags I-XI, and
their flow-side analogues, tags I*-IX*, each checked on one graph.

`verify_property` runs the check of one tag of `errors.PROPERTY_TAGS` and
returns the witnesses it used.  The checks build what they read with the
constructions of `laplacians`; they are a layer of their own, so a process
that only builds matrices never compiles them, and only `verify-property`
loads this one.
"""

from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, NotUnimodular, UnknownTag
from .graphs import (MultiGraph, classify_edges, components, forest_count, greedy_forest,
                     maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness, det_bareiss
from .laplacians import (_flow_coordinates, _reduction, border_first, border_last, cut_gram,
                         flow_gram, flow_matrix, incidence, laplacian, reduced_dual_laplacian,
                         reduced_incidence, reduced_laplacian, reduction_change_witness,
                         superbase_matrix)

# the fixed search budget of property X's check: verify_property takes none
PROPERTY_X_BUDGET = 200000


def border_witness_last(u: UnimodularWitness) -> UnimodularWitness:
    """Extend a congruence witness of R to one of border_last(R)."""
    rows = [row + (0,) for row in u.u.data]
    rows.append(tuple([1 - sum(col) for col in u.u.transpose().data]) + (1,))
    return UnimodularWitness(IntMatrix.from_rows(rows, cols=u.u.rows + 1))


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
