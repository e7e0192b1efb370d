import random

import pytest

from lapdual import (ForestCertificate, IntMatrix, KuratowskiEvidence, MultiGraph,
                     NonplanarInput, Orientation, RowSumNonzero, ShapeMismatch,
                     TraceTooLarge, UnimodularWitness, classify_edges,
                     construct_abstract_dual, count_maximal_forests, decide_planarity,
                     hnf_nonzero_part, incidence, lemma_center_recover, maximal_forest,
                     superbase_matrix, superbase_trace_minimize, verify_abstract_dual,
                     verify_kuratowski_evidence)
from lapdual.laplacians import ReductionSpec, flow_matrix, reduced_laplacian

from conftest import (cycle_graph, random_connected_multigraph, random_multigraph,
                      wall_clock_guard)
from oracles import (_connected_subsets, kuratowski_oracle, loopless_isomorphic,
                     maclane_oracle, verify_abstract_dual_oracle)


def identity_witness(n):
    return UnimodularWitness(IntMatrix.identity(n))


def test_recover_example1_superbase_is_k3(example1, k3):
    f = ForestCertificate.from_forest(example1, [0])
    hat = superbase_matrix(example1, Orientation.from_flips(example1, [2]), f,
                           ReductionSpec.of([1]))
    g, o = lemma_center_recover(hat, identity_witness(3))
    assert loopless_isomorphic(g, k3)


def test_recover_example2_superbase_is_golden_dual(example2, example2_dual):
    hat = superbase_matrix(example2, None, None, ReductionSpec.of([2]))
    g, o = lemma_center_recover(hat, identity_witness(4))
    assert g.num_vertices == 4 and g.num_edges == 9
    assert loopless_isomorphic(g, example2_dual)
    assert g.is_loop(3)  # the isthmus column comes back as a loop


def test_recover_round_trips_incidence(example2):
    n = incidence(example2)
    g, o = lemma_center_recover(n, identity_witness(7))
    assert incidence(g, o) == n
    assert g.edges == example2.edges


def test_recover_round_trip_places_loops_at_zero():
    g = MultiGraph.from_edges(3, [(0, 1), (2, 2), (1, 2)])
    recovered, _ = lemma_center_recover(incidence(g), identity_witness(3))
    assert recovered.edges == ((0, 1), (0, 0), (1, 2))


def test_recover_rejects_bad_row_sums():
    with pytest.raises(RowSumNonzero):
        lemma_center_recover(IntMatrix.from_rows([[1, 0], [0, 1]]), identity_witness(2))


def test_recover_rejects_large_trace():
    # rows sum to zero but one column carries entries of magnitude 2
    a = IntMatrix.from_rows([[2, 1], [-2, -1]])
    with pytest.raises(TraceTooLarge) as err:
        lemma_center_recover(a, identity_witness(2))
    assert err.value.column == 0


def test_trace_minimize_example2_needs_no_moves(example2):
    state = superbase_trace_minimize(example2, None, None, ReductionSpec.of([2]),
                                     budget=10**5, seed=0)
    assert state.trace == 16
    assert state.move_log == ()
    assert not state.budget_exhausted


def test_trace_minimize_example3_reaches_floor_with_moves(example3):
    state = superbase_trace_minimize(example3, budget=10**6, seed=0)
    assert state.trace == 18
    assert len(state.move_log) >= 1
    v = state.basis_witness.u
    f = flow_matrix(example3)
    assert v.mul(f) == state.f_hat.submatrix(range(1, state.f_hat.rows),
                                             range(state.f_hat.cols))


def test_trace_minimize_preserves_flow_lattice(example3):
    state = superbase_trace_minimize(example3, budget=10**6, seed=1)
    f = flow_matrix(example3)
    rows = range(1, state.f_hat.rows)
    assert hnf_nonzero_part(state.f_hat.submatrix(rows, range(f.cols))) == \
        hnf_nonzero_part(f)


def test_trace_minimize_k5_stays_above_planar_floor(k5):
    state = superbase_trace_minimize(k5, budget=2 * 10**5, seed=0)
    assert state.trace > 20


def test_decide_planarity_example2(example2, example2_dual):
    result = decide_planarity(example2, budget=10**6, seed=0)
    assert result.status == "planar"
    cert = result.certificate
    assert cert.trace == 16
    assert cert.dual_graph.num_vertices == 4 and cert.dual_graph.num_edges == 9
    assert loopless_isomorphic(cert.dual_graph, example2_dual)
    assert verify_abstract_dual(example2, cert.dual_graph, cert.edge_bijection).ok
    assert cert.replay_core(example2)


def test_decide_planarity_k33(k33):
    result = decide_planarity(k33, budget=2 * 10**5, seed=0)
    assert result.status == "nonplanar"
    assert result.evidence.kind == "K3,3"
    assert verify_kuratowski_evidence(k33, result.evidence)


def test_decide_planarity_example3(example3):
    result = decide_planarity(example3, budget=10**6, seed=0)
    assert result.status == "planar"
    assert result.certificate.trace == 18


def test_decide_planarity_disconnected_core():
    # the bridge strips away, leaving two disjoint triangles; the recovered
    # dual glues their duals at one vertex, which is still an abstract dual
    g = MultiGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    result = decide_planarity(g, budget=10**5, seed=0)
    assert result.status == "planar"
    assert result.certificate.trace == 12
    assert verify_abstract_dual(g, result.certificate.dual_graph,
                                result.certificate.edge_bijection).ok
    assert result.certificate.replay_core(g)


def test_decide_planarity_loop_bouquet():
    g = MultiGraph.from_edges(2, [(0, 0), (0, 0), (1, 1)])
    result = decide_planarity(g, budget=10**4, seed=0)
    assert result.status == "planar"
    assert result.certificate.trace == 6
    assert verify_abstract_dual(g, result.certificate.dual_graph,
                                result.certificate.edge_bijection).ok


def test_decide_planarity_ignores_isolated_vertices():
    g = MultiGraph.from_edges(5, [(1, 2), (2, 3), (1, 3)])
    result = decide_planarity(g, budget=10**4, seed=0)
    assert result.status == "planar"
    assert verify_abstract_dual(g, result.certificate.dual_graph,
                                result.certificate.edge_bijection).ok


def test_decide_planarity_handles_loops_and_isthmuses():
    g = MultiGraph.from_edges(4, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3)])
    loops, isthmuses = classify_edges(g)
    result = decide_planarity(g, budget=10**5, seed=0)
    assert result.status == "planar"
    cert = result.certificate
    assert cert.trace == 2 * (g.num_edges - len(isthmuses))
    dual_loops = [e for e in range(cert.dual_graph.num_edges)
                  if cert.dual_graph.is_loop(e)]
    assert len(dual_loops) == len(isthmuses)
    assert verify_abstract_dual(g, cert.dual_graph, cert.edge_bijection).ok


def test_construct_dual_example1(example1, k3):
    cert = construct_abstract_dual(example1, budget=10**5, seed=0)
    assert loopless_isomorphic(cert.dual_graph, k3)
    assert cert.laplacian_witness is not None


def test_construct_dual_k3_gives_triple_edge(k3, example1):
    cert = construct_abstract_dual(k3, budget=10**5, seed=0)
    assert cert.dual_graph.num_vertices == 2
    assert cert.dual_graph.num_edges == 3
    assert loopless_isomorphic(cert.dual_graph, example1)


def test_construct_dual_of_tree_is_loop_bouquet():
    tree = MultiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    cert = construct_abstract_dual(tree, budget=10**5, seed=0)
    assert all(cert.dual_graph.is_loop(e) for e in range(3))
    assert verify_abstract_dual(tree, cert.dual_graph, cert.edge_bijection).ok


def test_construct_dual_rejects_nonplanar(k5):
    with pytest.raises(NonplanarInput):
        construct_abstract_dual(k5, budget=2 * 10**5, seed=0)


def test_construct_dual_congruence_witness(example3):
    from lapdual.laplacians import flow_gram
    cert = construct_abstract_dual(example3, budget=10**6, seed=0)
    w = cert.laplacian_witness.u
    assert w.mul(flow_gram(example3)).mul(w.transpose()) == \
        reduced_laplacian(cert.dual_graph)


def test_verify_dual_golden_pair(example2, example2_dual):
    assert verify_abstract_dual(example2, example2_dual, range(9)).ok


def test_dual_pairs_relate_laplacian_to_flow_gram(example1, example2, example2_dual, k3):
    # for an abstract-dual pair, the dual's reduced Laplacian is a reduced
    # dual Laplacian of the primal (congruent to its flow Gram matrix), and
    # dual loop counts match primal isthmus counts
    from lapdual import decide_congruence
    from lapdual.laplacians import flow_gram
    for primal, dual in [(example1, k3), (example2, example2_dual)]:
        loops_dual = sum(1 for e in range(dual.num_edges) if dual.is_loop(e))
        assert loops_dual == len(classify_edges(primal)[1])
        verdict = decide_congruence(reduced_laplacian(dual), flow_gram(primal))
        assert verdict.status == "congruent"
        w = verdict.witness.u
        assert w.mul(reduced_laplacian(dual)).mul(w.transpose()) == flow_gram(primal)


def test_verify_dual_k3_self_fails(k3):
    report = verify_abstract_dual(k3, k3, range(3))
    assert not report.ok
    assert not report.forest_size_identity


def test_verify_dual_example1_vs_k3(example1, k3):
    # forests of the triple edge are single edges; their complements are the
    # 2-edge forests of K3 under any bijection
    assert verify_abstract_dual(example1, k3, (0, 1, 2)).ok
    assert verify_abstract_dual(example1, k3, (2, 0, 1)).ok


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_dual_matches_the_forest_family_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        g = random_multigraph(rng, max_n=6, max_m=12)
        other = random_multigraph(rng, max_n=6, max_m=12)
        while other.num_edges != g.num_edges:
            other = random_multigraph(rng, max_n=6, max_m=12)
        beta = list(range(g.num_edges))
        rng.shuffle(beta)
        cases = [(other, beta), (g, beta)]
        result = decide_planarity(g)
        if result.status == "planar":
            cases.append((result.certificate.dual_graph, result.certificate.edge_bijection))
        for h, b in cases:
            report = verify_abstract_dual(g, h, b)
            assert report == verify_abstract_dual_oracle(g, h, b)
            assert report.forest_counts == (count_maximal_forests(g), count_maximal_forests(h))


def test_verify_dual_on_a_5x5_grid():
    grid = MultiGraph.from_edges(25, [(v, v + 1) for v in range(25) if v % 5 < 4] +
                                 [(v, v + 5) for v in range(20)])
    cert = decide_planarity(grid).certificate
    with wall_clock_guard(1):
        report = verify_abstract_dual(grid, cert.dual_graph, cert.edge_bijection)
    assert report.ok
    assert report.forest_counts == (557568000, 557568000)


def test_verify_dual_shape_mismatch(k3, k4):
    with pytest.raises(ShapeMismatch):
        verify_abstract_dual(k3, k4, range(3))


def test_maclane_goldens(k4, k5):
    assert maclane_oracle(k4) is True
    assert maclane_oracle(k5) is False
    assert maclane_oracle(cycle_graph(5)) is True


def test_maclane_handles_loops_and_multi():
    g = MultiGraph.from_edges(2, [(0, 0), (0, 1), (0, 1)])
    assert maclane_oracle(g) is True


def test_connected_subset_enumeration_matches_bruteforce():
    import itertools as it
    from lapdual.graphs import SearchBudget

    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 7)
        adj = {v: set() for v in range(n)}
        for _ in range(rng.randint(0, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        subsets, pos = _connected_subsets(sorted(adj), adj, SearchBudget(10**7))
        mine = [m for m, _ in subsets]
        assert len(mine) == len(set(mine))
        expected = set()
        for size in range(1, n + 1):
            for combo in it.combinations(range(n), size):
                chosen = set(combo)
                stack, seen = [combo[0]], {combo[0]}
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y in chosen and y not in seen:
                            seen.add(y)
                            stack.append(y)
                if seen == chosen:
                    expected.add(sum(1 << pos[v] for v in combo))
        assert set(mine) == expected


def test_kuratowski_finds_subdivided_minors():
    # subdivision vertices force path-shaped branch sets
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)]
    edges += [(0, 5), (5, 6), (6, 7), (7, 1)]
    k5_subdiv = MultiGraph.from_edges(8, edges)
    res = kuratowski_oracle(k5_subdiv, budget=10**7)
    assert res.status == "nonplanar" and res.evidence.kind == "K5"
    assert verify_kuratowski_evidence(k5_subdiv, res.evidence)

    k33_subdiv = MultiGraph.from_edges(
        9, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
            (2, 6), (6, 7), (7, 8), (8, 5)])
    res = kuratowski_oracle(k33_subdiv, budget=10**7)
    assert res.status == "nonplanar" and res.evidence.kind == "K3,3"
    assert verify_kuratowski_evidence(k33_subdiv, res.evidence)


def test_kuratowski_goldens(k5, example3, petersen):
    res = kuratowski_oracle(k5)
    assert res.status == "nonplanar" and res.evidence.kind == "K5"
    assert verify_kuratowski_evidence(k5, res.evidence)
    assert kuratowski_oracle(example3).status == "planar"
    res = kuratowski_oracle(petersen)
    assert res.status == "nonplanar" and res.evidence.kind == "K5"
    assert verify_kuratowski_evidence(petersen, res.evidence)


K5_EDGES = [(i, j) for i in range(5) for j in range(i + 1, 5)]
K33_EDGES = [(i, j) for i in range(3) for j in range(3, 6)]
SINGLETONS = ((0,), (1,), (2,), (3,), (4,), (5,))


@pytest.mark.parametrize("n, edges, kind, sets, expected", [
    (5, K5_EDGES, "K5", SINGLETONS[:5], True),
    (6, K33_EDGES, "K3,3", SINGLETONS, True),
    # K5 with edge (0, 1) subdivided by vertex 5
    (6, K5_EDGES[1:] + [(0, 5), (5, 1)], "K5", ((0, 5), (1,), (2,), (3,), (4,)), True),
    (5, K5_EDGES, "K5", SINGLETONS[:4], False),
    (5, K5_EDGES, "K5", ((0,), (1,), (2,), (3,), (3, 4)), False),
    (5, K5_EDGES, "K5", ((0,), (1,), (2,), (3,), ()), False),
    (5, K5_EDGES, "K5", ((0,), (1,), (2,), (3,), (5,)), False),
    # pendant vertex 5 hangs off 0, so the set {4, 5} is disconnected
    (6, K5_EDGES + [(0, 5)], "K5", ((0,), (1,), (2,), (3,), (4, 5)), False),
    (6, K33_EDGES[1:], "K3,3", SINGLETONS, False),
    (5, K5_EDGES, "K3,3", SINGLETONS[:5], False),
    (6, K33_EDGES, "K3,3", ((0,), (3,), (1,), (4,), (2,), (5,)), False),
    # six sets that would pass as K3,3, under a kind that names no Kuratowski graph
    (6, K33_EDGES, "K7", SINGLETONS, False),
], ids=["k5", "k33", "subdivided-k5", "four-sets", "overlap", "empty-set", "out-of-range",
        "disconnected-set", "k33-minus-edge", "k5-labelled-k33", "k33-sides-interleaved",
        "unknown-kind"])
def test_verify_kuratowski_evidence_cases(n, edges, kind, sets, expected):
    g = MultiGraph.from_edges(n, edges)
    assert verify_kuratowski_evidence(g, KuratowskiEvidence(kind, sets)) is expected


def test_kuratowski_budget_exhaustion(petersen):
    res = kuratowski_oracle(petersen, budget=5)
    assert res.status == "unknown"


def test_oracles_agree_on_random_graphs():
    rng = random.Random(41)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_n=5, max_m=8)
        dp = decide_planarity(g, budget=10**6, seed=0)
        ko = kuratowski_oracle(g)
        assert {dp.status, ko.status} - {"unknown"} != {"planar", "nonplanar"}
        if dp.status == "planar":
            assert verify_abstract_dual(g, dp.certificate.dual_graph,
                                        dp.certificate.edge_bijection).ok


def test_decide_planarity_cube():
    edges = []
    for v in range(8):
        for bit in range(3):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    cube = MultiGraph.from_edges(8, edges, name="Q3")
    result = decide_planarity(cube, budget=2 * 10**6, seed=0)
    assert result.status == "planar"
    assert result.certificate.trace == 24
    # the cube's abstract dual is the octahedron: 6 vertices, 12 edges
    assert result.certificate.dual_graph.num_vertices == 6
    assert verify_abstract_dual(cube, result.certificate.dual_graph,
                                result.certificate.edge_bijection).ok


def test_decide_planarity_icosahedron():
    # upper end of the intended scale: a 12-vertex triangulation whose dual
    # must come out with 20 vertices and 30 edges
    edges = set()
    top, upper, lower, bottom = 0, [1, 2, 3, 4, 5], [6, 7, 8, 9, 10], 11
    for i in range(5):
        edges.add((top, upper[i]))
        edges.add((upper[i], upper[(i + 1) % 5]))
        edges.add((upper[i], lower[i]))
        edges.add((upper[i], lower[(i - 1) % 5]))
        edges.add((lower[i], lower[(i + 1) % 5]))
        edges.add((bottom, lower[i]))
    ico = MultiGraph.from_edges(12, sorted(tuple(sorted(e)) for e in edges), name="ico")
    result = decide_planarity(ico, budget=10**7, seed=0)
    assert result.status == "planar"
    assert result.certificate.trace == 60
    assert result.certificate.dual_graph.num_vertices == 20
    assert result.certificate.dual_graph.num_edges == 30
    assert result.certificate.replay_core(ico)


def test_superbase_state_rows_sum_zero(example3):
    state = superbase_trace_minimize(example3, budget=10**5, seed=2)
    for j in range(state.f_hat.cols):
        assert sum(state.f_hat.column(j)) == 0
    assert state.gram.trace() % 2 == 0


def test_superbase_budget_exhaustion_is_flagged(k5):
    state = superbase_trace_minimize(k5, budget=500, seed=0)
    assert state.budget_exhausted
    assert state.trace >= 22  # best-so-far still a valid superbase


def test_decide_planarity_deterministic(example3):
    first = decide_planarity(example3, budget=10**6, seed=7)
    second = decide_planarity(example3, budget=10**6, seed=7)
    assert first == second
