import collections
import inspect
import itertools
import math
import random
import sys

import pytest

from lapdual import (IntMatrix, LapdualError, LoopCountMismatch, MultiGraph,
                     NotSymmetric, ShapeMismatch, UnimodularWitness, congruence_invariants,
                     decide_congruence, det_bareiss, identify_vertices, incidence,
                     inertia, laplacian, loose_row_equivalence, permute_vertices,
                     property_x_report, reduced_incidence, reduced_laplacian,
                     strict_row_equivalence)
from lapdual import congruence, graphs, intmatrix
from lapdual.congruence import (ConditionOutcome, _constructive_strict_equivalence,
                                block_reduction_witness, short_vectors)
from lapdual.graphs import SearchBudget
from lapdual.laplacians import _reduction, reduced_dual_laplacian

from conftest import (grid_graph, random_connected_multigraph, random_multigraph,
                      random_unimodular, relist, shuffled_copy, wall_clock_guard)
from oracles import constructive_replay_by_bordered_witness, loopless_isomorphic


def quadrupled(g):
    return MultiGraph.from_edges(g.num_vertices, [e for e in g.edges for _ in range(4)])


def test_invariants_separate_scaled_laplacians(k3):
    a = reduced_laplacian(k3)
    b = reduced_laplacian(quadrupled(k3))
    inv_a = congruence_invariants(a)
    inv_b = congruence_invariants(b)
    assert inv_a["det"] == 3 and inv_b["det"] == 48
    assert inv_a["snf"] == (1, 3)


def test_invariants_det_and_inertia_match_their_own_eliminations():
    # det is read off the elimination behind inertia; it must equal Bareiss's
    # determinant, singular and 0 x 0 inputs included
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 0, -2, -1, 1, 2))
        a = IntMatrix.from_rows(rows, cols=n)
        inv = congruence_invariants(a)
        assert inv["det"] == det_bareiss(a), rows
        assert inv["inertia"] == inertia(a), rows


def test_invariants_identical_for_identical_input(k4):
    a = reduced_laplacian(k4)
    assert congruence_invariants(a) == congruence_invariants(a)


def test_invariants_agree_for_example1_duals(example1):
    from lapdual import ForestCertificate
    f = ForestCertificate.from_forest(example1, [0])
    u1 = reduced_dual_laplacian(example1, f).unreduced
    u2 = reduced_dual_laplacian(relist(example1, [2]), f).unreduced
    assert congruence_invariants(u1) == congruence_invariants(u2)


def test_invariants_require_symmetry():
    with pytest.raises(NotSymmetric):
        congruence_invariants(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_congruence_reflexive(k4):
    a = reduced_laplacian(k4)
    verdict = decide_congruence(a, a)
    assert verdict.status == "congruent"
    assert verdict.witness.u == IntMatrix.identity(3)


def test_congruence_of_example1_duals_with_witness(example1):
    from lapdual import ForestCertificate
    f = ForestCertificate.from_forest(example1, [0])
    u1 = reduced_dual_laplacian(example1, f).unreduced
    u2 = reduced_dual_laplacian(relist(example1, [2]), f).unreduced
    verdict = decide_congruence(u1, u2)
    assert verdict.status == "congruent"
    w = verdict.witness.u
    assert w.mul(u1).mul(w.transpose()) == u2


def test_congruence_detects_scaling(k3):
    a = reduced_laplacian(k3)
    verdict = decide_congruence(a, a.scale(4))
    assert verdict.status == "not_congruent"
    assert verdict.separating_invariant[0] == "det"
    assert verdict.separating_invariant[1:] == (3, 48)


def test_congruence_unknown_for_separated_genus():
    # distinct classes with identical size/rank/det/inertia/SNF: the honest
    # answer is unknown, never a fabricated witness
    a = IntMatrix.from_rows([[1, 0], [0, 23]])
    b = IntMatrix.from_rows([[2, 1], [1, 12]])
    verdict = decide_congruence(a, b)
    assert verdict.status == "unknown"
    assert verdict.witness is None


def test_indefinite_pair_resolved_by_move_search():
    # indefinite input skips the definite-core isometry search; the bounded
    # elementary-move search is the only path that can find this witness
    a = IntMatrix.from_rows([[1, 0], [0, -1]])
    b = IntMatrix.from_rows([[0, -1], [-1, -1]])
    assert congruence_invariants(a) == congruence_invariants(b)
    verdict = decide_congruence(a, b, budget=10**4)
    assert verdict.status == "congruent"
    w = verdict.witness.u
    assert w.mul(a).mul(w.transpose()) == b


def test_congruence_follows_random_witness():
    rng = random.Random(3)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_n=4, max_m=6)
        a = reduced_laplacian(g)
        u = random_unimodular(rng, a.rows)
        b = u.mul(a).mul(u.transpose())
        verdict = decide_congruence(a, b)
        assert verdict.status == "congruent"
        w = verdict.witness.u
        assert w.mul(a).mul(w.transpose()) == b


def test_congruence_handles_psd_kernels(k4):
    # full Laplacians are only semidefinite; the kernel is split off exactly
    a = laplacian(k4)
    b_perm = laplacian(permute_vertices(k4, (2, 3, 0, 1)))
    verdict = decide_congruence(a, b_perm)
    assert verdict.status == "congruent"
    w = verdict.witness.u
    assert w.mul(a).mul(w.transpose()) == b_perm


def test_congruence_requires_symmetry():
    with pytest.raises(NotSymmetric):
        decide_congruence(IntMatrix.from_rows([[0, 1], [2, 0]]),
                          IntMatrix.identity(2))


def test_congruence_of_relabelled_grid_returns():
    # here the short-vector search meets a coordinate range (x - 1/2)^2 <= 0
    # that holds no integer; it must come back empty, not search forever
    grid = MultiGraph.from_edges(6, [(0, 3), (0, 1), (1, 4), (1, 2), (2, 5), (3, 4), (4, 5)])
    perm = list(range(6))
    random.Random(1).shuffle(perm)
    a = reduced_laplacian(grid)
    b = reduced_laplacian(permute_vertices(grid, perm))
    with wall_clock_guard(20):
        verdict = decide_congruence(a, b, budget=10**4)
    assert verdict.status == "congruent"
    w = verdict.witness.u
    assert w.mul(a).mul(w.transpose()) == b


def test_budget_one_ends_on_the_relabelled_6x6_grid():
    # the Smith diagonal, read before any search, is not covered by the
    # budget, so it must end on its own
    perm = list(range(36))
    random.Random(0).shuffle(perm)
    a = reduced_laplacian(grid_graph(6, 6))
    b = reduced_laplacian(permute_vertices(grid_graph(6, 6), perm))
    with wall_clock_guard(20):
        verdict = decide_congruence(a, b, budget=1)
    assert verdict.status == "unknown"


def test_short_vectors_match_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 4)
        u = random_unimodular(rng, n, steps=rng.randint(0, 6))
        d = IntMatrix.from_rows([[rng.randint(1, 4) if i == j else 0 for j in range(n)]
                                 for i in range(n)])
        a = u.mul(d).mul(u.transpose())
        bound = rng.randint(0, 12)
        with wall_clock_guard(5):
            found = short_vectors(a, bound, SearchBudget(10**6))
        # v a v^T <= bound forces x_i^2 <= bound * (a^-1)_ii = bound * adj(a)_ii / det a
        det = det_bareiss(a)
        others = [[j for j in range(n) if j != i] for i in range(n)]
        box = [math.isqrt(bound * det_bareiss(a.submatrix(rest, rest)) // det) + 1
               for rest in others]
        expected = {v for v in itertools.product(*[range(-r, r + 1) for r in box])
                    if any(v) and _norm(a, v) <= bound}
        assert len(found) == len(set(found))
        assert set(found) == expected, (a, bound)
    for singular in ([[0]], [[1, 1], [1, 1]]):
        with pytest.raises(ValueError, match="not positive definite"):
            short_vectors(IntMatrix.from_rows(singular), 3, SearchBudget(100))
    for indefinite in ([[-1]], [[1, 2], [2, 1]], [[0, 1], [1, 0]]):
        with pytest.raises(ValueError, match="not positive definite"):
            short_vectors(IntMatrix.from_rows(indefinite), 3, SearchBudget(100))
    # one level per coordinate, 1,500 levels deep under a recursion limit 100
    # frames above this one: the enumeration keeps its own stack, and the
    # elimination before it skips the rows whose update is a no-op, so the
    # identity costs no cubic pass
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    budget = SearchBudget(10**6)
    try:
        with wall_clock_guard(10):
            found = short_vectors(IntMatrix.identity(1500), 0, budget)
    finally:
        sys.setrecursionlimit(limit)
    assert found == [] and budget.used == 1501


def test_searches_spend_pinned_budgets():
    # the reduced Laplacians of the 3x4 grid and of a shuffled copy
    g = grid_graph(3, 4)
    a, b = reduced_laplacian(g), reduced_laplacian(shuffled_copy(g, random.Random(1)))
    assert decide_congruence(a, b, 2019).status == "congruent"
    assert decide_congruence(a, b, 2018).status == "unknown"
    budget = SearchBudget(10**6)
    assert (len(short_vectors(a, 4, budget)), budget.used) == (118, 702)


def _norm(a, v):
    return sum(v[i] * a.data[i][j] * v[j] for i in range(a.rows) for j in range(a.rows))


def test_strict_row_equivalence_for_two_reductions(example2):
    n1 = reduced_incidence(example2, (2,))
    n2 = reduced_incidence(example2, (0,))
    u = strict_row_equivalence(n1, n2)
    assert u is not None
    assert u.u.mul(n1) == n2


def test_strict_row_equivalence_rejects_different_lattices():
    a = IntMatrix.from_rows([[1, 0]])
    b = IntMatrix.from_rows([[2, 0]])
    assert strict_row_equivalence(a, b) is None


def test_strict_row_equivalence_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        strict_row_equivalence(IntMatrix.zeros(1, 2), IntMatrix.zeros(1, 3))


def test_loose_row_equivalence_with_zero_rows(k3):
    n = incidence(k3)
    padded = n.vstack(IntMatrix.zeros(2, 3))
    ok, witness = loose_row_equivalence(n, padded)
    assert ok
    assert witness.u.mul(n.vstack(IntMatrix.zeros(2, 3))) == padded


def test_loose_row_equivalence_full_vs_reduced(k3):
    # the deleted row is minus the sum of the others, so the lattices agree
    ok, _ = loose_row_equivalence(incidence(k3), reduced_incidence(k3))
    assert ok


def test_loose_row_equivalence_negative(example1, k3):
    ok, witness = loose_row_equivalence(incidence(k3), incidence(example1).vstack(
        IntMatrix.zeros(1, 3)))
    assert not ok and witness is None


def test_condition_outcome_refuses_a_foreign_status_word():
    for word in ("true", "false", "unknown"):
        assert ConditionOutcome(word).truth == word
    for word in ("banana", "congruent", ""):
        with pytest.raises(ValueError, match="status"):
            ConditionOutcome(word)


def k4_relabel_pair(k4):
    return k4, MultiGraph.from_edges(4, [k4.edges[(k + 2) % 6] for k in range(6)])


def moved_and_signed(a, beta, signs):
    """Column x of a moved to beta[x], then column j scaled by signs[j]."""
    out = [[0] * a.cols for _ in range(a.rows)]
    for i, row in enumerate(a.data):
        for x, value in enumerate(row):
            out[i][beta[x]] = signs[beta[x]] * value
    return IntMatrix.from_rows(out, cols=a.cols)


def padded(a, rows):
    return a.vstack(IntMatrix.zeros(rows - a.rows, a.cols))


def assert_rows_replay_on_the_bijection(report, g1, g2):
    """Conditions 2 and 3 hold on condition 4's bijection, and their witnesses
    carry the moved and signed incidences of g1 onto those of g2."""
    cond2, cond3 = report.cond2_strict_reduced, report.cond3_loose_unreduced
    beta = report.cond4_two_isomorphism.bijection
    assert cond2.detail["beta"] == cond3.detail["beta"] == beta
    signs = cond2.detail["signs"]
    assert cond3.detail["signs"] == signs
    u = cond2.detail["witness"].u
    assert u.mul(moved_and_signed(reduced_incidence(g1), beta, signs)) == reduced_incidence(g2)
    full1, full2 = incidence(g1), incidence(g2)
    rows = max(full1.rows, full2.rows)
    w = cond3.detail["witness"].u
    assert w.mul(padded(moved_and_signed(full1, beta, signs), rows)) == padded(full2, rows)


def test_property_x_positive_pair(k4):
    g1, g2 = k4_relabel_pair(k4)
    report = property_x_report(g1, g2, budget=10**6)
    assert report.condition_statuses() == ("true", "true", "true", "true")
    assert report.consistent
    assert report.constructive["ok"]
    assert report.unreduced_proposition["agree"]
    assert report.unreduced_proposition["rank_matches_vertices_minus_components"]
    assert_rows_replay_on_the_bijection(report, g1, g2)


def test_property_x_runs_one_two_isomorphism_search(k4, monkeypatch):
    # the candidate generator profiles each graph once per run, so one
    # search on the pair profiles two graphs
    calls = []
    profile = graphs._shortest_circuits

    def counted(g):
        calls.append(g)
        return profile(g)

    monkeypatch.setattr(graphs, "_shortest_circuits", counted)
    report = property_x_report(*k4_relabel_pair(k4), budget=10**6)
    assert report.condition_statuses() == ("true", "true", "true", "true")
    assert len(calls) == 2


def test_property_x_negative_pair():
    p3 = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    report = property_x_report(p3, quadrupled(p3), budget=10**6)
    assert report.condition_statuses() == ("false", "false", "false", "false")
    assert report.consistent
    # conditions 2 and 3 take condition 4's reading and say so
    for outcome in (report.cond2_strict_reduced, report.cond3_loose_unreduced):
        assert outcome.detail == {"note": "condition 4 is not_two_isomorphic"}


def test_property_x_rows_take_an_exhausted_search_as_unknown(k4):
    report = property_x_report(*k4_relabel_pair(k4), budget=2)
    assert report.cond4_two_isomorphism.status == "budget_exceeded"
    for outcome in (report.cond2_strict_reduced, report.cond3_loose_unreduced):
        assert outcome.truth == "unknown"
        assert outcome.detail == {"note": "condition 4 is budget_exceeded"}


@pytest.mark.parametrize("broken", ["_resolve_orientation_signs", "strict_row_equivalence"])
def test_property_x_flags_a_bijection_the_rows_refuse(k4, monkeypatch, broken):
    # no candidate is tried after condition 4's: a bijection that the signs
    # or the row equivalence refuse makes condition 2 false, and the report
    # inconsistent
    monkeypatch.setattr(congruence, broken, lambda *args: None)
    report = property_x_report(*k4_relabel_pair(k4), budget=10**6)
    assert report.cond2_strict_reduced.truth == "false"
    assert report.cond4_two_isomorphism.truth == "true"
    assert not report.consistent


def test_property_x_on_the_empty_graph():
    # no vertex, so no V0 to identify: the constructive replay is skipped
    empty = MultiGraph(0, ())
    report = property_x_report(empty, empty)
    assert report.condition_statuses() == ("true", "true", "true", "true")
    assert report.consistent
    assert report.constructive == {"attempted": False}
    assert report.unreduced_proposition["agree"]


def test_property_x_rejects_loop_mismatch(k3):
    loopy = MultiGraph.from_edges(3, list(k3.edges) + [(0, 0)])
    with pytest.raises(LoopCountMismatch):
        property_x_report(k3, loopy)


def test_property_x_duals_are_not_two_isomorphic(example2, example2_dual):
    # drop the isthmus of example2 and the loop of its dual to equalize loop
    # counts; forests still have different sizes, so everything is false
    g1 = MultiGraph.from_edges(7, example2.edges[:3] + example2.edges[4:])
    g2 = MultiGraph.from_edges(4, [e for e in example2_dual.edges if e[0] != e[1]])
    report = property_x_report(g1, g2, budget=2 * 10**5)
    assert report.condition_statuses() == ("false", "false", "false", "false")
    assert report.consistent


def whitney_twisted_pair(seed, n=10):
    """Two blocks sharing vertices 0 and 1, and the same graph with the second
    block reattached with 0 and 1 swapped: a Whitney twist, so 2-isomorphic."""
    rng = random.Random(seed)
    a = rng.randint(4, n - 2)  # the first block is 0..a-1, the second 0, 1, a..n-1
    first = [(i, rng.randrange(i)) for i in range(1, a)]
    first += [tuple(rng.sample(range(a), 2)) for _ in range(2)]
    ends = [0, 1] + list(range(a, n))
    second = [(ends[i], ends[rng.randrange(i)]) for i in range(2, len(ends))]
    second += [tuple(rng.sample(ends, 2)) for _ in range(2)]
    swap = {0: 1, 1: 0}
    twisted = [(swap.get(u, u), swap.get(v, v)) for u, v in second]
    return MultiGraph.from_edges(n, first + second), MultiGraph.from_edges(n, first + twisted)


def relabelled_grid_pair():
    g = grid_graph(3, 4)
    perm = list(range(12))
    random.Random(1).shuffle(perm)
    return g, permute_vertices(g, perm)


# ten or more vertices: past the n <= 9 cap of an isomorphism search
@pytest.mark.parametrize("pair", [relabelled_grid_pair()] +
                         [whitney_twisted_pair(seed) for seed in range(6)],
                         ids=["grid3x4"] + [f"twisted{seed}" for seed in range(6)])
def test_property_x_decides_pairs_past_nine_vertices(pair):
    with wall_clock_guard(20):
        report = property_x_report(*pair)
    assert report.condition_statuses() == ("true", "true", "true", "true")
    assert report.consistent
    assert report.constructive["ok"]
    assert_rows_replay_on_the_bijection(report, *pair)


def test_isometry_search_spends_per_candidate():
    # the isometry search on these reduced Laplacians enters about 2,500
    # nodes but tests about 30,000 candidates, so a budget between the two
    # runs out, and a larger one decides
    g1, g2 = whitney_twisted_pair(0)
    a, b = reduced_laplacian(g1), reduced_laplacian(g2)
    with wall_clock_guard(20):
        assert decide_congruence(a, b, budget=5000).status == "unknown"
        assert decide_congruence(a, b, budget=10**5).status == "congruent"


def test_definite_decision_inverts_one_transform(monkeypatch):
    # each side is reduced by one Hermite transform, and the lift inverts one
    # of the two, through one more Hermite form
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    hnf = counted("hermite_normal_form", intmatrix.hermite_normal_form)
    monkeypatch.setattr(intmatrix, "hermite_normal_form", hnf)
    monkeypatch.setattr(congruence, "hermite_normal_form", hnf)
    monkeypatch.setattr(congruence, "inverse_unimodular",
                        counted("inverse_unimodular", congruence.inverse_unimodular))
    g1, g2 = relabelled_grid_pair()
    verdict = decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2))
    assert verdict.status == "congruent"
    assert calls == {"hermite_normal_form": 3, "inverse_unimodular": 1}


def test_definite_decision_takes_one_determinant(monkeypatch):
    # the transforms are unimodular by construction, so the one determinant
    # checks the witness the caller receives
    sizes = []
    det = intmatrix.det_bareiss

    def counted(a):
        sizes.append(a.rows)
        return det(a)

    monkeypatch.setattr(intmatrix, "det_bareiss", counted)
    g1, g2 = relabelled_grid_pair()
    a, b = reduced_laplacian(g1), reduced_laplacian(g2)
    verdict = decide_congruence(a, b)
    assert verdict.status == "congruent"
    assert sizes == [a.rows]


def test_congruent_reduced_laplacians_have_equal_edge_counts():
    # each non-loop column of z*a is a nonzero zero-sum vector, of squared
    # norm at least 2, and those norms add up to twice g2's non-loop edges,
    # so congruence carries the non-loop edge count and the constructive
    # replay always recovers g2 from g1.  Independent pairs on the same
    # vertices, with unequal counts, show the other side
    from test_witnesses import _connected_edges, _glued_pair
    rng = random.Random(31)
    pairs = []
    for _ in range(30):
        g = random_connected_multigraph(rng, max_n=7, max_m=10)
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        pairs.append((g, permute_vertices(g, perm)))
    for n in range(4, 9):
        first, second = _glued_pair(rng, n, n + 2)
        pairs.append((MultiGraph.from_edges(n, first), MultiGraph.from_edges(n, second)))
    pairs += [whitney_twisted_pair(seed) for seed in range(6)]
    for _ in range(60):
        n = rng.randint(2, 5)
        pairs.append(tuple([MultiGraph.from_edges(n, _connected_edges(rng, n, m)) for m in
                            (rng.randint(n - 1, n + 2), rng.randint(n - 1, n + 2))]))
    congruent = unequal_separated = 0
    with wall_clock_guard(60):
        for g1, g2 in pairs:
            verdict = decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2), budget=10**5)
            non_loop = [g.num_edges - g.num_loops for g in (g1, g2)]
            if verdict.status == "congruent":
                assert non_loop[0] == non_loop[1], (g1.edges, g2.edges)
                replay = _constructive_strict_equivalence(g1, g2, verdict)
                assert replay["ok"], (g1.edges, g2.edges)
                congruent += 1
            elif non_loop[0] != non_loop[1]:
                unequal_separated += verdict.status == "not_congruent"
    assert congruent >= 41 and unequal_separated >= 20


def test_labelled_laplacian_check_agrees_with_isomorphism():
    rng = random.Random(12)
    attempted = 0
    for _ in range(60):
        g1 = random_connected_multigraph(rng, max_n=9, max_m=11)
        perm = list(range(g1.num_vertices))
        rng.shuffle(perm)
        g2 = permute_vertices(g1, perm)
        with wall_clock_guard(20):
            verdict = decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2),
                                        budget=10**4)
        if verdict.status != "congruent":
            continue
        replay = _constructive_strict_equivalence(g1, g2, verdict)
        g2p = identify_vertices(g2, _reduction(g2)[0])
        assert replay["recovered_laplacian_equals_identified"] == \
            loopless_isomorphic(replay["recovered"], g2p) == replay["ok"]
        attempted += 1
    assert attempted >= 40


def _replay_outcome(replay, g1, g2, verdict):
    """The replay's dict without the bordered witness, or the error it raised."""
    try:
        result = replay(g1, g2, verdict)
    except (LapdualError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    result.pop("z", None)
    return result


def test_constructive_replay_matches_the_bordered_witness():
    # the superbase of u times g1's reduced incidence is the bordered witness
    # z times g1's incidence with V0 identified, so both replays recover the
    # same graph; the pairs are relabelled grids and multigraphs with loops,
    # parallel edges and several components, against relabelled copies, and
    # witnesses that carry no Laplacian onto a Laplacian refuse alike
    rng = random.Random(40)
    pairs = []
    for rows, cols in ((2, 3), (3, 3), (2, 5), (3, 4)):
        g = grid_graph(rows, cols)
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        pairs.append((g, permute_vertices(g, perm)))
    for _ in range(40):
        g = random_multigraph(rng, max_n=7, max_m=10)
        pairs.append((g, shuffled_copy(g, rng)))
    attempted = refused = 0
    with wall_clock_guard(60):
        for g1, g2 in pairs:
            verdict = decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2),
                                        budget=10**4)
            verdicts = [verdict]
            k = reduced_laplacian(g1).rows
            if k:
                forged = UnimodularWitness(random_unimodular(rng, k, steps=4))
                verdicts.append(congruence.CongruenceVerdict("congruent", witness=forged))
            for v in verdicts:
                got = _replay_outcome(_constructive_strict_equivalence, g1, g2, v)
                assert got == _replay_outcome(constructive_replay_by_bordered_witness,
                                              g1, g2, v), (g1.edges, g2.edges)
                attempted += isinstance(got, dict) and got["attempted"]
                refused += isinstance(got, tuple)
    assert attempted >= 40 and refused >= 10


def test_constructive_replay_takes_no_determinant(k4, petersen, monkeypatch):
    # the superbase's determinant is the congruence witness's, which the
    # verdict has already checked, so the replay builds no witness of its own
    pairs = [(k4, permute_vertices(k4, (1, 3, 2, 0))),
             (petersen, permute_vertices(petersen, (3, 1, 4, 0, 2, 8, 6, 9, 5, 7)))]
    verdicts = [decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2))
                for g1, g2 in pairs]
    calls = []
    det = intmatrix.det_bareiss

    def counted(a):
        calls.append(a.rows)
        return det(a)

    monkeypatch.setattr(intmatrix, "det_bareiss", counted)
    for (g1, g2), verdict in zip(pairs, verdicts):
        assert verdict.status == "congruent"
        assert _constructive_strict_equivalence(g1, g2, verdict)["ok"]
    assert calls == []


def test_witness_for_a_relabelled_copy_is_rejected():
    # the witness is congruent to a relabelling of g2 that fixes V0 = {0};
    # an isomorphism test would pass the recovered graph, the labelled check
    # does not
    g1 = grid_graph(2, 3)
    g2 = permute_vertices(g1, (0, 2, 1, 5, 4, 3))
    relabelled = permute_vertices(g2, (0, 1, 2, 3, 5, 4))
    with wall_clock_guard(20):
        verdict = decide_congruence(reduced_laplacian(g1), reduced_laplacian(relabelled))
    replay = _constructive_strict_equivalence(g1, g2, verdict)
    assert replay["strict_row_equivalence_ok"]
    assert loopless_isomorphic(replay["recovered"], identify_vertices(g2, (0,)))
    assert not replay["recovered_laplacian_equals_identified"]
    assert not replay["ok"]


def test_unreduced_proposition_witness(k4):
    relabeled = permute_vertices(k4, (1, 3, 2, 0))
    report = property_x_report(k4, relabeled, budget=10**6)
    lhs = report.unreduced_proposition["laplacian_congruence"]
    assert lhs.status == "congruent"
    w = lhs.witness.u
    assert w.mul(laplacian(k4)).mul(w.transpose()) == laplacian(relabeled)


def test_unreduced_proposition_asks_condition_one_once(k4, monkeypatch):
    # with matching counts the block reductions make the full Laplacians'
    # congruence condition 1's question, so an unknown answer is not re-asked
    sizes = []

    def undecided(a, b, budget):
        sizes.append(a.rows)
        return congruence.CongruenceVerdict("unknown", note="stand-in")

    monkeypatch.setattr(congruence, "decide_congruence", undecided)
    report = property_x_report(k4, permute_vertices(k4, (1, 3, 2, 0)), budget=10**5)
    assert sizes == [3]
    lhs = report.unreduced_proposition["laplacian_congruence"]
    assert lhs.status == "unknown" and "condition 1" in lhs.note
    assert report.unreduced_proposition["agree"]


def test_unreduced_proposition_eliminates_each_laplacian_once(monkeypatch):
    # where the full Laplacians are decided, their invariants' elimination
    # also gives the nullities the rank check reads
    sizes = []
    bareiss = intmatrix._symmetric_bareiss

    def counted(a):
        sizes.append(a.rows)
        return bareiss(a)

    monkeypatch.setattr(intmatrix, "_symmetric_bareiss", counted)
    monkeypatch.setattr(congruence, "_symmetric_bareiss", counted)
    c4_chord = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    other = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 2)])
    report = property_x_report(c4_chord, other, budget=10**5)
    assert sizes == [3, 3, 4, 4]
    assert report.unreduced_proposition["laplacian_congruence"].separating_invariant[0] == "snf"
    assert report.unreduced_proposition["rank_matches_vertices_minus_components"]


def test_unreduced_proposition_vertex_count_matters(k3):
    # adding an isolated vertex keeps the graphs 2-isomorphic but changes the
    # Laplacian size, so the unreduced matrices cannot be congruent
    padded = MultiGraph.from_edges(4, k3.edges)
    report = property_x_report(k3, padded, budget=10**5)
    assert report.cond4_two_isomorphism.status == "two_isomorphic"
    lhs = report.unreduced_proposition["laplacian_congruence"]
    assert lhs.status == "not_congruent"
    assert lhs.separating_invariant[0] == "size"
    assert report.unreduced_proposition["two_iso_with_counts"] == "false"
    assert report.unreduced_proposition["agree"]


def test_block_reduction_witness_diagonalizes():
    rng = random.Random(9)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_n=4, max_m=6)
        p = block_reduction_witness(g)
        conj = p.mul(laplacian(g)).mul(p.transpose())
        red = reduced_laplacian(g)
        for i in range(conj.rows):
            for j in range(conj.cols):
                expected = red.data[i][j] if i < red.rows and j < red.cols else 0
                assert conj.data[i][j] == expected
