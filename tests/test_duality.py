import hashlib
import json
import pathlib
import random
from dataclasses import replace

import pytest

from lapdual import (ForestCertificate, IntMatrix, InvalidReductionSpec,
                     KuratowskiEvidence, MalformedInput, MultiGraph, NonplanarInput,
                     NotMaximalForest, NotUnimodular, RowSumNonzero, ShapeMismatch,
                     TraceTooLarge, UnimodularWitness, classify_edges,
                     construct_abstract_dual, decide_planarity,
                     hnf_nonzero_part, incidence, inverse_unimodular,
                     lemma_center_recover, maximal_forest,
                     superbase_matrix, superbase_trace_minimize, verify_abstract_dual,
                     verify_kuratowski_evidence)
from lapdual.laplacians import flow_matrix, reduced_laplacian
from lapdual.serialization import certificate_from_json, dumps, graph_from_json

from conftest import (cycle_graph, grid_graph, random_connected_multigraph,
                      random_multigraph, random_unimodular, relist, wall_clock_guard)
from oracles import (_connected_subsets, count_maximal_forests, kuratowski_oracle,
                     lemma_center_recover_by_gram, loopless_isomorphic, maclane_oracle,
                     replay_core_by_product, verify_abstract_dual_oracle)


def identity_witness(n):
    return UnimodularWitness(IntMatrix.identity(n))


def test_recover_example1_superbase_is_k3(example1, k3):
    f = ForestCertificate.from_forest(example1, [0])
    hat = superbase_matrix(relist(example1, [2]), f)
    g = lemma_center_recover(hat, identity_witness(3))
    assert loopless_isomorphic(g, k3)


def test_recover_example2_superbase_is_golden_dual(example2, example2_dual):
    hat = superbase_matrix(example2)
    g = lemma_center_recover(hat, identity_witness(4))
    assert g.num_vertices == 4 and g.num_edges == 9
    assert loopless_isomorphic(g, example2_dual)
    assert g.is_loop(3)  # the isthmus column comes back as a loop


def test_recover_round_trips_incidence(example2):
    n = incidence(example2)
    g = lemma_center_recover(n, identity_witness(7))
    assert incidence(g) == n
    assert g.edges == example2.edges


def test_recover_round_trip_places_loops_at_zero():
    g = MultiGraph.from_edges(3, [(0, 1), (2, 2), (1, 2)])
    recovered = lemma_center_recover(incidence(g), identity_witness(3))
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


def _lemma_column(rng, r):
    """A signed incidence column, a zero column, or either perturbed: one
    entry moved by one, the column doubled, or a zero-sum column of a
    triangle's weights."""
    col = [0] * r
    if r >= 2 and rng.random() < 0.8:
        i, j = rng.sample(range(r), 2)
        col[i], col[j] = 1, -1
    p = rng.random()
    if r and p < 0.1:
        col[rng.randrange(r)] += rng.choice((1, -1))
    elif p < 0.15:
        col = [2 * x for x in col]
    elif r >= 3 and p < 0.2:
        i, j, k = rng.sample(range(r), 3)
        col[i] += 1
        col[j] += 1
        col[k] -= 2
    return col


def _lemma_case(rng):
    """One (a, c) pair.  c is a product of elementary row operations, or the
    identity.  a is random small entries (half of them with zero column
    sums), incidence-like columns, or c's inverse times incidence-like
    columns, so that c * a is the incidence-like matrix."""
    r, m = rng.randint(0, 5), rng.randint(0, 6)
    c = random_unimodular(rng, r, steps=rng.choice((0, 0, 2, 6)))
    kind = rng.randrange(3)
    if kind == 0:
        cols = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        if r and rng.random() < 0.5:
            for col in cols:
                col[-1] = -sum(col[:-1])
    else:
        cols = [_lemma_column(rng, r) for _ in range(m)]
    a = IntMatrix.from_rows(list(zip(*cols)) if cols else [[]] * r, cols=m)
    if kind == 2:
        a = inverse_unimodular(c).mul(a)
    return a, UnimodularWitness(c)


def _lemma_outcome(recover, a, c):
    try:
        return recover(a, c)
    except (RowSumNonzero, TraceTooLarge) as err:
        return type(err).__name__, str(err), getattr(err, "column", None)


def test_recover_matches_the_gram_oracle():
    rng = random.Random(18)
    tally = {}
    for _ in range(5000):
        a, c = _lemma_case(rng)
        got = _lemma_outcome(lemma_center_recover, a, c)
        assert got == _lemma_outcome(lemma_center_recover_by_gram, a, c)
        kind = got[0] if isinstance(got, tuple) else "recovered"
        tally[kind] = tally.get(kind, 0) + 1
    assert min(tally.get(k, 0) for k in ("recovered", "RowSumNonzero", "TraceTooLarge")) >= 100


def _count_products(monkeypatch):
    calls = []
    product = IntMatrix.mul

    def counted(self, other):
        calls.append((self.rows, self.cols, other.cols))
        return product(self, other)

    monkeypatch.setattr(IntMatrix, "mul", counted)
    return calls


def test_planar_certificate_takes_no_matrix_product(monkeypatch):
    """decide_planarity hands the lemma the face rows; the lemma forms no
    Gram matrix."""
    g = grid_graph(4, 4)
    calls = _count_products(monkeypatch)
    assert decide_planarity(g).status == "planar"
    assert calls == []
    lemma_center_recover(incidence(g), identity_witness(16))
    assert len(calls) == 1


def test_certificate_replay_and_dual_take_no_flow_product(monkeypatch):
    """replay_core reads the witness off the dual rows, and the abstract
    dual's lattice check forms no product; its congruence replay and the
    witness pair's own check form the three left."""
    g = grid_graph(4, 4)
    cert = decide_planarity(g).certificate
    calls = _count_products(monkeypatch)
    assert cert.replay_core(g)
    assert calls == []
    construct_abstract_dual(g)
    assert len(calls) == 3


def test_trace_minimize_example2_needs_no_moves(example2):
    state = superbase_trace_minimize(example2, budget=10**5, seed=0)
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


def test_replay_core_refuses_a_tampered_core(k3, k4):
    # an out-of-range forest edge fails the partition check before any edge
    # is looked up, and a core V0 that is not one vertex per component is
    # refused although the flow matrix does not read it.  Core edges and a
    # beta outside g's edges replay False, negative ones included, which
    # Python would otherwise read from the end.  So do a dual graph too small
    # for the core, a witness of the wrong size, and a trace other than twice
    # the core edges and loops
    cert = json.loads(dumps(decide_planarity(k4).certificate))
    assert certificate_from_json(cert).replay_core(k4)
    dual = cert["dual_graph"]
    identity3 = {"rows": 3, "cols": 3, "data": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    for tampered in ({"core_edges": [e - 6 for e in cert["core_edges"]]},
                     {"beta": [e - 6 for e in cert["beta"]]},
                     {"core_edges": [0, 1, 2, 3, 4, 99]},
                     {"dual_graph": dict(dual, edges=dual["edges"][:5])},
                     {"dual_graph": {"num_vertices": 2, "edges": [[0, 1]] * 6}},
                     {"witness_z": identity3},
                     {"trace": cert["trace"] - 2},
                     {"trace": cert["trace"] + 2}):
        assert not certificate_from_json(dict(cert, **tampered)).replay_core(k4)
    forest = dict(cert["core_forest"], forest_edges=[0, 1, 9])
    with pytest.raises(NotMaximalForest):
        certificate_from_json(dict(cert, core_forest=forest)).replay_core(k4)
    with pytest.raises(NotMaximalForest):
        flow_matrix(k3, ForestCertificate((0, 5), (1, 2)))
    with pytest.raises(InvalidReductionSpec):
        certificate_from_json(dict(cert, core_v0=[0, 1])).replay_core(k4)


def test_replay_core_refuses_a_forged_certificate_of_k5(k5):
    # K5 less its last edge is planar; its certificate, with that edge added
    # to the dual as a loop and beta the identity, fits every check but the
    # core, which is K5's ten edges and not the nine it lists
    minus = MultiGraph(5, k5.edges[:-1])
    cert = json.loads(dumps(decide_planarity(minus).certificate))
    assert certificate_from_json(cert).replay_core(minus)
    dual = cert["dual_graph"]
    forged = dict(cert, dual_graph=dict(dual, edges=dual["edges"] + [[0, 0]]),
                  beta=list(range(10)))
    assert not certificate_from_json(forged).replay_core(k5)
    assert not replace(certificate_from_json(cert), edge_bijection=tuple(range(10)),
                       dual_graph=graph_from_json(forged["dual_graph"])).replay_core(k5)


def _tamperings(rng, cert):
    """The JSON certificate `cert` and, with two edges or more, three seeded
    tamperings of each kind: one witness_z entry moved by one, one dual edge
    reversed or made a loop, and two beta entries swapped."""
    yield cert
    z, dual, beta = cert["witness_z"], cert["dual_graph"], cert["beta"]
    for _ in range(3 if len(beta) > 1 else 0):
        data = [[int(x) for x in row] for row in z["data"]]
        data[rng.randrange(z["rows"])][rng.randrange(z["cols"])] += rng.choice((1, -1))
        yield dict(cert, witness_z=dict(z, data=data))
        edges = [list(e) for e in dual["edges"]]
        k = rng.randrange(len(edges))
        tail, head = edges[k]
        edges[k] = rng.choice(([head, tail], [tail, tail], [head, head]))
        yield dict(cert, dual_graph=dict(dual, edges=edges))
        i, j = rng.sample(range(len(beta)), 2)
        swapped = list(beta)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield dict(cert, beta=swapped)


def test_replay_core_matches_the_dense_product(catalog6):
    # the replay reads the witness off the dual rows once they check as
    # flows; the dense product it replaced gives the same verdict on every
    # planar certificate and on every tampering that the reader accepts
    rng = random.Random(37)
    graphs = [g for g in catalog6 if decide_planarity(g).status == "planar"]
    assert len(graphs) == 129
    verdicts = []
    for g in graphs + [grid_graph(5, 5)]:
        for tampered in _tamperings(rng, json.loads(dumps(decide_planarity(g).certificate))):
            try:
                cert = certificate_from_json(tampered)
            except (MalformedInput, NotUnimodular):
                continue
            verdicts.append(cert.replay_core(g))
            assert verdicts[-1] == replay_core_by_product(cert, g), g.edges
    # the 130 honest certificates replay, and so do the tamperings that
    # leave the core's rows and the witness's read columns as they were
    assert verdicts.count(True) > 230 and verdicts.count(False) > 800


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
    cert = construct_abstract_dual(example1, budget=10**5)
    assert loopless_isomorphic(cert.dual_graph, k3)
    assert cert.laplacian_witness is not None


def test_construct_dual_k3_gives_triple_edge(k3, example1):
    cert = construct_abstract_dual(k3, budget=10**5)
    assert cert.dual_graph.num_vertices == 2
    assert cert.dual_graph.num_edges == 3
    assert loopless_isomorphic(cert.dual_graph, example1)


def test_construct_dual_of_tree_is_loop_bouquet():
    tree = MultiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    cert = construct_abstract_dual(tree, budget=10**5)
    assert all(cert.dual_graph.is_loop(e) for e in range(3))
    assert verify_abstract_dual(tree, cert.dual_graph, cert.edge_bijection).ok


def test_construct_dual_rejects_nonplanar(k5):
    with pytest.raises(NonplanarInput):
        construct_abstract_dual(k5, budget=2 * 10**5)


def test_construct_dual_refuses_dual_rows_off_the_flow_lattice(k4, monkeypatch):
    from lapdual import duality
    real = duality.reduced_incidence
    # twice the dual's incidence: flows spanning a proper sublattice, whose
    # coordinates replay but are not unimodular
    monkeypatch.setattr(duality, "reduced_incidence", lambda g: real(g).scale(2))
    with pytest.raises(NotUnimodular):
        construct_abstract_dual(k4)

    # a row off the flow lattice: forest edge 0 is bumped, so its cotree
    # coordinates do not replay
    def bumped(g):
        rows = [list(row) for row in real(g).data]
        rows[0][0] += 1
        return IntMatrix.from_rows(rows)
    monkeypatch.setattr(duality, "reduced_incidence", bumped)
    with pytest.raises(AssertionError, match="do not span the primal flow lattice"):
        construct_abstract_dual(k4)


def test_construct_dual_congruence_witness(example3):
    from lapdual.laplacians import flow_gram
    cert = construct_abstract_dual(example3, budget=10**6)
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


PLANARITY_GOLDEN = pathlib.Path(__file__).parent / "golden" / "planarity_digests.json"


def _digest(value):
    return hashlib.sha256(dumps(value).encode()).hexdigest()


def _wheel(spokes):
    rim = [(i, (i + 1) % spokes) for i in range(spokes)]
    return MultiGraph.from_edges(spokes + 1, rim + [(spokes, i) for i in range(spokes)],
                                 name=f"W{spokes}")


def planarity_digests(catalog6, k5, k33, petersen):
    """Per corpus, the digest of `dumps(decide_planarity(g))` and, for a
    planar g, of `dumps(construct_abstract_dual(g))`.  The corpora are the
    connected simple graphs on at most six vertices, K5, K3,3, Petersen,
    grids up to 8x8, wheels, and seeded random multigraphs with loops,
    parallel edges, isthmuses and several components."""
    rng = random.Random(18)
    corpora = {
        "catalog6": list(catalog6),
        "kuratowski": [k5, k33, petersen],
        "grids": [grid_graph(r, c) for r in range(1, 9) for c in range(r, 9)],
        "wheels": [_wheel(k) for k in range(3, 11)],
        "random": [random_multigraph(rng, max_n=8, max_m=14) for _ in range(200)],
    }
    out = {}
    for name, graphs in corpora.items():
        entries = []
        for g in graphs:
            result = decide_planarity(g)
            entry = [_digest(result)]
            if result.status == "planar":
                entry.append(_digest(construct_abstract_dual(g)))
            entries.append(entry)
        out[name] = entries
    return out


def test_planar_certificates_match_golden(catalog6, k5, k33, petersen):
    """Certificate and dual bytes, written before the center lemma read its
    conditions off the columns."""
    assert planarity_digests(catalog6, k5, k33, petersen) == \
        json.loads(PLANARITY_GOLDEN.read_text())
