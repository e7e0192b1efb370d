"""Deciders for integer congruence and row equivalence, plus the four-way
equivalence report tying congruence of reduced Laplacians to 2-isomorphism.

Congruence of symmetric integer matrices has no known efficient complete
decision procedure, so every answer here is one of three kinds: a positive
answer always carries a unimodular witness that replays bit-exactly, a
negative answer always names a congruence invariant whose values differ, and
everything else is reported as unknown.

Each side of a semidefinite question is reduced by one unimodular transform,
`_reduced_core`, and every congruent witness, whether found by the isometry
search, by the move search or through the block reductions of the unreduced
proposition, is lifted by `_lift`, which inverts one transform and replays
the witness.  The transforms are plain matrices, unimodular by construction,
so the lifted witness's determinant is the one a decision checks.  The
isometry search spends one budget unit per node and per
candidate it tests, so a budget bounds its work.

The report searches for a 2-isomorphism once, for condition 4, and tests
the two row equivalences, conditions 2 and 3, on the bijection it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BudgetExceeded, LoopCountMismatch, NotSymmetric, ShapeMismatch
from .graphs import (ForestCertificate, MultiGraph, SearchBudget, TwoIsomorphismResult,
                     _bfs_tree, _Verdict, adjacency, component_count, components,
                     decide_2_isomorphism_bruteforce, identify_vertices, maximal_forest)
from .intmatrix import (IntMatrix, UnimodularWitness, _add_col, _add_row, _negate_col,
                        _negate_row, _pivot_inertia, _smith_elimination, _swap_cols,
                        _swap_rows, _symmetric_bareiss, hermite_normal_form, inertia,
                        inverse_unimodular)
from .laplacians import (_reduction, flow_matrix, incidence, laplacian,
                         reduced_incidence, reduced_laplacian)

CONGRUENT = "congruent"
NOT_CONGRUENT = "not_congruent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CongruenceVerdict(_Verdict):
    WORDS = (CONGRUENT, NOT_CONGRUENT, UNKNOWN)
    witness: UnimodularWitness = None
    separating_invariant: tuple = None  # (name, value_a, value_b)
    note: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.status == CONGRUENT and self.witness is None:
            raise ValueError("congruent verdict requires a witness")
        if self.status == NOT_CONGRUENT and self.separating_invariant is None:
            raise ValueError("negative verdict requires a separating invariant")


def congruence_invariants(a: IntMatrix) -> dict:
    """Five invariants of the integer congruence class of a symmetric matrix."""
    if not a.is_symmetric():
        raise NotSymmetric("congruence invariants require a symmetric matrix")
    # inertia and det from one elimination: det is the last minor, 1 for a
    # 0 x 0 matrix, and 0 when a row is left over; the Smith diagonal comes
    # from the elimination behind smith_normal_form, without its witnesses
    _, minors, _ = _symmetric_bareiss(a)
    ine = _pivot_inertia(minors, a.rows)
    return {
        "size": a.rows,
        "rank": a.rows - ine[2],
        "det": 0 if ine[2] else (minors[-1] if minors else 1),
        "inertia": ine,
        "snf": _smith_elimination(a)[0],
    }


def short_vectors(a: IntMatrix, bound: int, budget: SearchBudget):
    """All nonzero integer vectors v with v a v^T <= bound, for PD a and
    bound >= 0.

    Fincke-Pohst enumeration in integers.  With the minors D_k and the
    columns lambda of `_symmetric_bareiss`, fixing x_(n-1) .. x_(k+1) leaves
    C = sum_(j>k) lambda_jk x_j and T = D_k times the part of v a v^T fixed
    so far, and x_k fits exactly when
    |D_k x_k + C| <= isqrt(D_(k-1) (bound D_k - T)).
    """
    n = a.rows
    if n == 0:
        return []
    order, minors, columns = _symmetric_bareiss(a)
    if order != list(range(n)) or any(d <= 0 for d in minors):
        raise ValueError("matrix is not positive definite")
    out = []
    _short_vectors_from(n - 1, 0, bound, [1] + minors, columns, [0] * n, out, budget)
    return out


def _short_vectors_from(k, t, bound, minors, columns, coords, out, budget):
    """Fix coords[k] and, recursively, the coordinates below it, appending
    each nonzero vector of norm at most `bound` to `out`; `t` is
    `minors[k + 1]` times the norm fixed so far (`minors` is shifted by one,
    so that `minors[0]` is D_(-1) = 1).

    A module-level function, not a closure: a closure calling itself refers
    to itself through its own cell, and that cycle would keep every vector
    alive until the cyclic collector runs."""
    budget.spend()
    if k < 0:
        if any(coords):
            out.append(tuple(coords))
        return
    d_prev, d = minors[k], minors[k + 1]
    lam = columns[k]
    c = sum(lam[j] * coords[j] for j in range(k + 1, len(coords)))
    s = math.isqrt(d_prev * (bound * d - t))
    for x in range(-((s + c) // d), (s - c) // d + 1):
        coords[k] = x
        _short_vectors_from(k - 1, (d_prev * t + (d * x + c) ** 2) // d, bound,
                            minors, columns, coords, out, budget)
    coords[k] = 0


def gram_length_reduce(a: IntMatrix):
    """(reduced, u) with u * a * u^T = reduced and every off-diagonal at most
    half the smaller diagonal; Lagrange-style length reduction keeps the later
    short-vector enumeration small.  The transform u is a plain IntMatrix,
    unimodular by construction: it starts as the identity and takes only the
    elementary row operations."""
    n = a.rows
    w = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or w[j][j] == 0:
                    continue
                q = (2 * w[i][j] + w[j][j]) // (2 * w[j][j])
                if q != 0 and q * q * w[j][j] < 2 * q * w[i][j]:
                    # row/col i -= q * row/col j
                    _add_row(i, j, -q, w, u)
                    _add_col(i, j, -q, w)
                    changed = True
    return IntMatrix.from_rows(w, cols=n), IntMatrix.from_rows(u, cols=n)


def _pd_isometry(a: IntMatrix, b: IntMatrix, budget: SearchBudget):
    """Unimodular U with U a U^T = b for positive definite a, b, or None after
    exhausting the complete backtracking search."""
    r = a.rows
    if r == 0:
        return IntMatrix.identity(0)
    norms_needed = sorted(set(b.data[i][i] for i in range(r)))
    vectors = short_vectors(a, max(norms_needed), budget)
    by_norm = {}
    gram_cache = {}
    a_rows = [list(row) for row in a.data]
    for v in vectors:
        budget.spend()
        image = tuple([sum(a_rows[i][k] * v[k] for k in range(r)) for i in range(r)])
        gram_cache[v] = image
        q = sum(v[i] * image[i] for i in range(r))
        by_norm.setdefault(q, []).append(v)

    chosen = []
    if _extend_isometry(0, chosen, b, by_norm, gram_cache, budget):
        return IntMatrix.from_rows(chosen, cols=r)
    return None


def _extend_isometry(i, chosen, b, by_norm, gram_cache, budget):
    """Extend the images `chosen` of rows 0..i-1 to all of b's rows; False
    when no extension exists.  Module level for the reason _short_vectors_from
    is."""
    budget.spend()
    r = b.rows
    if i == r:
        return True
    for v in by_norm.get(b.data[i][i], ()):
        budget.spend()
        if all(sum(u[k] * gram_cache[v][k] for k in range(r)) == b.data[i][j]
               for j, u in enumerate(chosen)):
            chosen.append(v)
            if _extend_isometry(i + 1, chosen, b, by_norm, gram_cache, budget):
                return True
            chosen.pop()
    return False


def _reduced_core(a: IntMatrix):
    """(T, core) with T a T^T = diag(core, 0) for positive semidefinite a,
    where T is a plain transform, unimodular by construction, and core is
    positive definite and length reduced.

    T is the Hermite transform v of a, whose zero rows come last and span the
    kernel, followed by the length reduction p of the conjugate h v^T =
    v a v^T.  The reduction skips the zero rows and moves no core row against
    them, so p = diag(p_core, I).  This is the one place where a side of a
    congruence question is reduced."""
    h, v = hermite_normal_form(a)
    rank = len([row for row in h.data if any(row)])
    reduced, p = gram_length_reduce(h.mul(v.transpose()))
    return p.mul(v), reduced.submatrix(range(rank), range(rank))


def _lift(u: IntMatrix, ta: IntMatrix, tb: IntMatrix, a: IntMatrix, b: IntMatrix):
    """The congruent verdict with witness W = tb^-1 diag(u, I) ta, which
    carries a onto b when ta a ta^T = diag(c, d) and tb b tb^T =
    diag(u c u^T, d).  W is replayed before it is returned."""
    k = u.rows
    head = u.mul(ta.submatrix(range(k), range(ta.cols)))
    w = inverse_unimodular(tb).mul(IntMatrix(ta.rows, ta.cols, head.data + ta.data[k:]))
    if w.mul(a).mul(w.transpose()) != b:
        raise AssertionError("congruence witness failed replay")
    return CongruenceVerdict(CONGRUENT, witness=UnimodularWitness(w))


def _elementary_moves(n):
    """The congruence moves in search order, each as (row operation, column
    operation, arguments): negations, then row/col i += s * row/col j, then
    swaps."""
    return ([(_negate_row, _negate_col, (i,)) for i in range(n)]
            + [(_add_row, _add_col, (i, j, s))
               for i in range(n) for j in range(n) if i != j for s in (1, -1)]
            + [(_swap_rows, _swap_cols, (i, j)) for i in range(n) for j in range(i + 1, n)])


def _apply_move(state, transform, move):
    """(next state, next transform): the congruence move on the state, and its
    row operation on the transform, whose rows the copy may share."""
    row_op, col_op, args = move
    m = [list(r) for r in state]
    u = list(transform)
    row_op(*args, m, u)
    col_op(*args, m)
    return tuple([tuple(r) for r in m]), u


def _bidirectional_move_search(a: IntMatrix, b: IntMatrix, budget: SearchBudget):
    """Meet-in-the-middle breadth-first search over elementary congruence moves:
    the transforms (ua, ub) that carry a and b onto one state, or None.

    The moves generate GL_n(Z), so this is complete in the limit; in practice
    it only resolves shallow cases and everything else stays unknown.
    """
    n = a.rows
    moves = _elementary_moves(n)
    ident = IntMatrix.identity(n).data
    side_a = {a.data: ident}
    side_b = {b.data: ident}
    frontier_a = [a.data]
    frontier_b = [b.data]
    while frontier_a or frontier_b:
        grow_a = bool(frontier_a) and (not frontier_b or len(side_a) <= len(side_b))
        frontier, seen, other = (frontier_a, side_a, side_b) if grow_a \
            else (frontier_b, side_b, side_a)
        new_frontier = []
        for state in frontier:
            for move in moves:
                budget.spend()
                nxt, u = _apply_move(state, seen[state], move)
                if nxt in seen:
                    continue
                seen[nxt] = u
                new_frontier.append(nxt)
                if nxt in other:
                    ua, ub = (u, other[nxt]) if grow_a else (other[nxt], u)
                    return IntMatrix.from_rows(ua, cols=n), IntMatrix.from_rows(ub, cols=n)
        if grow_a:
            frontier_a = new_frontier
        else:
            frontier_b = new_frontier
    return None


def decide_congruence(a: IntMatrix, b: IntMatrix, budget=10**6) -> CongruenceVerdict:
    """Tri-state congruence test over the integers.

    Invariant prefilter first; for semidefinite inputs each side is reduced
    to a definite core beside a zero block, and the cores are compared by a
    complete isometry backtracking.  Indefinite pairs fall back to a bounded
    search over elementary congruence moves.  Either way a positive answer
    carries an explicit witness, lifted and replayed by `_lift`.
    """
    if not a.is_symmetric() or not b.is_symmetric():
        raise NotSymmetric("congruence is decided for symmetric matrices only")
    if a == b:
        return CongruenceVerdict(CONGRUENT, witness=UnimodularWitness(IntMatrix.identity(a.rows)))
    return _decide_from_invariants(a, b, congruence_invariants(a),
                                   congruence_invariants(b), budget)


def _decide_from_invariants(a, b, inv_a, inv_b, budget):
    """`decide_congruence` past its symmetry and equality checks, given the
    invariants of a and b."""
    for name in ("size", "rank", "det", "inertia", "snf"):
        if inv_a[name] != inv_b[name]:
            return CongruenceVerdict(NOT_CONGRUENT,
                                     separating_invariant=(name, inv_a[name], inv_b[name]))

    n_pos, n_neg, _ = inv_a["inertia"]
    counter = SearchBudget(budget)
    try:
        if n_neg == 0 or n_pos == 0:
            sign = 1 if n_neg == 0 else -1
            ta, core_a = _reduced_core(a.scale(sign))
            tb, core_b = _reduced_core(b.scale(sign))
            u_core = _pd_isometry(core_a, core_b, counter)
            if u_core is None:
                return CongruenceVerdict(
                    UNKNOWN, note="definite cores admit no isometry; no listed "
                    "invariant separates the pair")
            return _lift(u_core, ta, tb, a, b)
        meeting = _bidirectional_move_search(a, b, counter)
        if meeting is not None:
            return _lift(IntMatrix.identity(0), *meeting, a, b)
        return CongruenceVerdict(UNKNOWN, note="move search exhausted")
    except BudgetExceeded:
        return CongruenceVerdict(UNKNOWN, note=f"budget of {budget} exhausted")


def strict_row_equivalence(a: IntMatrix, b: IntMatrix):
    """UnimodularWitness u with u*a = b, or None.

    Two matrices with equal row counts are strictly row equivalent iff their
    canonical Hermite forms coincide; the witness is assembled from the two
    Hermite transforms.
    """
    w = _row_transform(a, b)
    return None if w is None else UnimodularWitness(w)


def _row_transform(a: IntMatrix, b: IntMatrix):
    """The transform of strict_row_equivalence as a plain IntMatrix,
    unimodular by construction and replayed, or None."""
    if a.cols != b.cols:
        raise ShapeMismatch("strict row equivalence needs equal column counts")
    if a.rows != b.rows:
        return None
    ha, ua = hermite_normal_form(a)
    hb, ub = hermite_normal_form(b)
    if ha != hb:
        return None
    w = inverse_unimodular(ub).mul(ua)
    if w.mul(a) != b:
        raise AssertionError("row-equivalence witness failed replay")
    return w


def loose_row_equivalence(a: IntMatrix, b: IntMatrix):
    """(equivalent, witness) where the witness relates the zero-row paddings.

    True iff the rows of a and b generate the same sublattice, which holds
    iff the paddings are strictly row equivalent.
    """
    if a.cols != b.cols:
        raise ShapeMismatch("loose row equivalence needs equal column counts")
    size = max(a.rows, b.rows)
    pad_a = a.vstack(IntMatrix.zeros(size - a.rows, a.cols))
    pad_b = b.vstack(IntMatrix.zeros(size - b.rows, b.cols))
    witness = strict_row_equivalence(pad_a, pad_b)
    return witness is not None, witness


def _resolve_orientation_signs(f1, rows1, g2, beta):
    """Column signs d making the flow rows `rows1` of g1's forest f1 match
    g2's fundamental circuits under beta, or None if no d exists.

    Each circuit ties d[y] = s * d[anchor]; d is read along a breadth-first
    forest of the ties, then every tie is checked.  Any other consistent d
    flips whole tied blocks, which leaves the columns' cut lattice alone."""
    m = g2.num_edges
    f2 = ForestCertificate.from_forest(g2, [beta[e] for e in f1.forest_edges])
    circuits2 = dict(zip(f2.cotree_edges, flow_matrix(g2, f2).data))
    ties, tie_signs = [], []  # tie k: d[y] = tie_signs[k] * d[anchor]
    for e, v in zip(f1.cotree_edges, rows1):
        w = circuits2[beta[e]]
        image = {beta[x]: v[x] for x in range(m) if v[x] != 0}
        if set(image) != {y for y in range(m) if w[y] != 0}:
            return None
        anchor = beta[e]
        # entries are +-1 and image[anchor] == w[anchor] == -1
        for y, val in image.items():
            if y != anchor:
                ties.append((y, anchor))
                tie_signs.append(w[y] * val)
    d = [1] * m
    tied = MultiGraph(m, tuple(ties))
    for y, link in _bfs_tree(adjacency(tied, range(len(ties))), range(m)).items():
        if link:
            x, k = link
            d[y] = tie_signs[k] * d[x]
    if any(d[y] != s * d[a] for (y, a), s in zip(ties, tie_signs)):
        return None
    return tuple(d)


def _apply_beta_and_signs(matrix: IntMatrix, beta, signs) -> IntMatrix:
    """Move column x to beta[x], then scale column j by signs[j]."""
    m = matrix.cols
    source = sorted(range(m), key=beta.__getitem__)  # beta[source[j]] == j
    return IntMatrix.from_rows([[signs[j] * row[source[j]] for j in range(m)]
                                for row in matrix.data], cols=m)


@dataclass(frozen=True)
class ConditionOutcome(_Verdict):
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PropertyXReport:
    cond1_reduced_congruence: CongruenceVerdict
    cond2_strict_reduced: ConditionOutcome
    cond3_loose_unreduced: ConditionOutcome
    cond4_two_isomorphism: TwoIsomorphismResult
    constructive: dict
    unreduced_proposition: dict

    def condition_statuses(self):
        return tuple([c.truth for c in (
            self.cond1_reduced_congruence, self.cond2_strict_reduced,
            self.cond3_loose_unreduced, self.cond4_two_isomorphism)])

    @property
    def consistent(self):
        """Whether no two conditions are decided differently."""
        return len(set(self.condition_statuses()) - {"unknown"}) <= 1


def _row_equivalence_on_bijection(g1, g2, cond4):
    """Conditions 2 and 3 on condition 4's bijection: the reduced incidences
    strictly, and the unreduced ones loosely, row equivalent once its columns
    are moved by beta and signed.

    Row equivalence under an edge bijection and signs carries one flow
    lattice onto the other, so the bijection is a cycle-matroid isomorphism:
    without a 2-isomorphism neither condition holds, and both take condition
    4's reading.  With one, Camion's signing theorem gives the signs, so a
    failure here is reported false for `consistent` to flag."""
    if cond4.truth != "true":
        outcome = ConditionOutcome(cond4.truth, {"note": f"condition 4 is {cond4.status}"})
        return outcome, outcome
    beta = cond4.bijection
    f1 = maximal_forest(g1)
    signs = _resolve_orientation_signs(f1, flow_matrix(g1, f1).data, g2, beta)
    witnesses = (None, None)
    if signs is not None:
        strict = strict_row_equivalence(
            _apply_beta_and_signs(reduced_incidence(g1), beta, signs), reduced_incidence(g2))
        # loose_row_equivalence's witness is None exactly when it answers no
        _, loose = loose_row_equivalence(
            _apply_beta_and_signs(incidence(g1), beta, signs), incidence(g2))
        witnesses = (strict, loose)
    return tuple([ConditionOutcome("false", {"note": "no signs on condition 4's bijection "
                                             "make the rows equivalent"}) if w is None else
                  ConditionOutcome("true", {"beta": beta, "signs": signs, "witness": w})
                  for w in witnesses])


def _constructive_strict_equivalence(g1, g2, verdict: CongruenceVerdict):
    """Replay the constructive direction: from a congruence witness between the
    reduced Laplacians, identify each V0 to a point, border the witness, and
    recover the second graph from the transformed incidence matrix.  The
    recovered graph must equal g2 with V0 identified, vertex for vertex, which
    is checked by comparing labelled Laplacians: O(n^2), with no isomorphism
    search and no size cap.  A graph without vertices has no V0 to identify,
    so nothing is replayed.

    The replay always recovers g2 from g1, since congruent reduced
    Laplacians make the non-loop edge counts equal: z fixes the all-ones
    row vector, so each non-loop column of z*a is a nonzero zero-sum vector,
    of squared norm at least 2, and the squared norms add up to the trace
    of the bordered u L1 u^T = L2, twice g2's non-loop edge count; so g1
    has at most as many, and the inverse witness gives the reverse."""
    from .duality import lemma_center_recover

    if verdict.status != CONGRUENT:
        return {"attempted": False}
    u = verdict.witness.u
    v1, v2 = _reduction(g1)[0], _reduction(g2)[0]
    if not v1 or not v2:
        return {"attempted": False}
    g1p = identify_vertices(g1, v1)
    g2p = identify_vertices(g2, v2)
    k = u.rows
    z = UnimodularWitness(IntMatrix.from_rows(
        [[1] + [1 - sum(col) for col in u.transpose().data]] + [[0] + list(row) for row in u.data],
        cols=k + 1))
    a = incidence(g1p)
    # lemma_center_recover raises unless the recovered incidence equals z*a,
    # and rows 1..k of z*a are u times rows 1..k of a: strict row equivalence
    # holds once it returns
    recovered = lemma_center_recover(a, z)
    # The rows of u are g2's kept vertices in order, so the recovered reduced
    # Laplacian is u L1 u^T = L2, and a labelled Laplacian determines a
    # multigraph up to its loops: equal Laplacians mean the same graph.
    laplacian_ok = laplacian(recovered) == laplacian(g2p)
    return {
        "attempted": True,
        "z": z,
        "recovered": recovered,
        "strict_row_equivalence_ok": True,
        "recovered_laplacian_equals_identified": laplacian_ok,
        "ok": laplacian_ok,
    }


def block_reduction_witness(g: MultiGraph) -> IntMatrix:
    """Unimodular P with P L(G) P^T = diag(reduced Laplacian, 0), for the
    default reduction, which deletes each component's smallest vertex.

    Rows for kept vertices come first in ascending order; each deleted row is
    replaced by the sum of its whole component's rows, which vanishes.  P is
    a plain IntMatrix, unimodular by construction: a row permutation of the
    identity in which each deleted row adds the other rows of its component.
    """
    n = g.num_vertices
    rows = [[int(w == v) for w in range(n)] for v in _reduction(g)[1]]
    for comp in components(g):
        members = set(comp)
        rows.append([int(w in members) for w in range(n)])
    return IntMatrix.from_rows(rows, cols=n)


def _unreduced_proposition(g1, g2, cond1, cond4, budget):
    """Unreduced counterpart: full Laplacians congruent iff 2-isomorphic with
    matching vertex and component counts.

    Rank of each Laplacian is cross-checked against vertex count minus
    component count, and a positive answer is witnessed explicitly through the
    block reductions to diag(reduced, 0).  With matching counts those
    reductions make the full Laplacians congruent exactly when the reduced
    ones are, so an unknown condition 1 leaves this side unknown; otherwise
    `decide_congruence` names the full Laplacians' separating invariant."""
    l1, l2 = laplacian(g1), laplacian(g2)
    n1, n2 = g1.num_vertices, g2.num_vertices
    c1, c2 = component_count(g1), component_count(g2)
    same_counts = n1 == n2 and c1 == c2
    # the invariants' elimination gives the inertia too, so the Smith form is
    # taken only where the decision needs it
    decide = not same_counts or cond1.status == NOT_CONGRUENT
    if decide:
        inv1, inv2 = congruence_invariants(l1), congruence_invariants(l2)
        nullities = inv1["inertia"][2], inv2["inertia"][2]
    else:
        nullities = inertia(l1)[2], inertia(l2)[2]
    # rank n - c means nullity c, which the inertia reads off
    rank_ok = nullities == (c1, c2)

    rhs = cond4.truth
    if rhs == "true" and not same_counts:
        rhs = "false"

    if decide:
        # l1 != l2 here: equal Laplacians give equal reduced ones, so
        # condition 1 would be congruent and the counts would match
        lhs = _decide_from_invariants(l1, l2, inv1, inv2, budget)
    elif cond1.status == CONGRUENT:
        lhs = _lift(cond1.witness.u, block_reduction_witness(g1),
                    block_reduction_witness(g2), l1, l2)
    else:
        lhs = CongruenceVerdict(UNKNOWN, note="condition 1 is unknown, and the "
                                "block reductions make this its question")
    agree = "unknown" in (lhs.truth, rhs) or lhs.truth == rhs
    return {"laplacian_congruence": lhs, "two_iso_with_counts": rhs,
            "agree": agree, "rank_matches_vertices_minus_components": rank_ok}


def property_x_report(g1: MultiGraph, g2: MultiGraph, budget=10**6) -> PropertyXReport:
    """Evaluate the four equivalent conditions relating reduced Laplacian
    congruence, incidence row equivalence under a column bijection, and
    2-isomorphism, plus their unreduced counterpart.

    Conditions 1 and 4 each run one search at `budget`; conditions 2 and 3
    are tested on condition 4's bijection, or take its reading when it has
    none."""
    if g1.num_loops != g2.num_loops:
        raise LoopCountMismatch(f"loop counts differ: {g1.num_loops} vs {g2.num_loops}")

    cond4 = decide_2_isomorphism_bruteforce(g1, g2, budget)
    cond1 = decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2), budget)
    cond2, cond3 = _row_equivalence_on_bijection(g1, g2, cond4)

    constructive = _constructive_strict_equivalence(g1, g2, cond1)
    unreduced = _unreduced_proposition(g1, g2, cond1, cond4, budget)

    return PropertyXReport(
        cond1_reduced_congruence=cond1,
        cond2_strict_reduced=cond2,
        cond3_loose_unreduced=cond3,
        cond4_two_isomorphism=cond4,
        constructive=constructive,
        unreduced_proposition=unreduced,
    )
