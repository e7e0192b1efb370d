import dataclasses
import itertools
import random
import re

import pytest

from lapdual import (EmptyOrFullSet, ForestCertificate, MalformedInput, MultiGraph,
                     NotCotreeEdge, NotMaximalForest, classify_edges,
                     components, cut_vector, decide_2_isomorphism_bruteforce,
                     fundamental_circuit_vector, identify_vertices,
                     maximal_forest, permute_vertices)
from lapdual.graphs import (SearchBudget, _bfs_tree, adjacency, forest_count,
                            is_maximal_forest, two_isomorphism_candidates)
from lapdual.serialization import forest_from_json

from conftest import (complete_graph, cycle_graph, grid_graph, random_multigraph, relist,
                      shuffled_copy, wall_clock_guard)
from oracles import (CapExceeded, decide_2_isomorphism_oracle, enumerate_circuits,
                     enumerate_maximal_forests, enumerated_profile, loopless_isomorphic,
                     two_isomorphism_candidates_oracle)


def test_components_k3(k3):
    assert components(k3) == [[0, 1, 2]]


def test_components_edgeless():
    g = MultiGraph.from_edges(3, [])
    assert components(g) == [[0], [1], [2]]


def test_components_example2(example2):
    assert components(example2) == [list(range(7))]


def test_maximal_forest_greedy(k3, example2):
    assert maximal_forest(k3).forest_edges == (0, 1)
    # the golden fixture's spanning tree of example2 is exactly the greedy one
    assert maximal_forest(example2).forest_edges == (0, 1, 3, 4, 5, 7)


def test_maximal_forest_loops_only():
    g = MultiGraph.from_edges(2, [(0, 0), (1, 1)])
    f = maximal_forest(g)
    assert f.forest_edges == ()
    assert f.cotree_edges == (0, 1)


def test_example2_forest_is_acyclic_and_spanning(example2):
    f = maximal_forest(example2)
    assert is_maximal_forest(example2, f.forest_edges)
    assert len(f.forest_edges) == 7 - len(components(example2))


def test_enumerate_forests_k3(k3):
    forests = enumerate_maximal_forests(k3)
    assert len(forests) == 3
    assert [f.forest_edges for f in forests] == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_forests_example1(example1):
    forests = enumerate_maximal_forests(example1)
    assert [f.forest_edges for f in forests] == [(0,), (1,), (2,)]


def test_enumerate_forests_tree_is_unique():
    tree = MultiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    forests = enumerate_maximal_forests(tree)
    assert len(forests) == 1
    assert forests[0].forest_edges == (0, 1, 2)


def test_enumerate_forests_cap():
    with pytest.raises(CapExceeded):
        enumerate_maximal_forests(complete_graph(5), cap=10)


def test_fundamental_circuit_example1(example1):
    f = ForestCertificate.from_forest(example1, [0])
    g = relist(example1, [2])  # the C = (1, -1) orientation
    assert fundamental_circuit_vector(g, f, 1) == (1, -1, 0)
    assert fundamental_circuit_vector(g, f, 2) == (-1, 0, -1)


def test_fundamental_circuit_loop():
    g = MultiGraph.from_edges(2, [(0, 1), (1, 1)])
    f = maximal_forest(g)
    assert fundamental_circuit_vector(g, f, 1) == (0, -1)


def test_fundamental_circuit_rejects_forest_edge(k3):
    f = maximal_forest(k3)
    with pytest.raises(NotCotreeEdge):
        fundamental_circuit_vector(k3, f, 0)


def test_fundamental_circuit_rejects_non_spanning_forest(k3):
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    f = ForestCertificate.from_forest(g, [0])
    with pytest.raises(NotMaximalForest):
        fundamental_circuit_vector(g, f, 1)
    # forest edge 5 is out of range: the partition check refuses it
    with pytest.raises(NotMaximalForest):
        fundamental_circuit_vector(k3, ForestCertificate((0, 5), (1,)), 1)


def test_bfs_tree_long_path():
    # a 5,000-vertex path is deeper than the default recursion limit, so a
    # recursive walk would fail here
    n = 5000
    path = MultiGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    tree = _bfs_tree(adjacency(path, range(n - 1)), range(n))
    assert list(tree) == list(range(n))  # every vertex, in the order reached
    assert tree[0] is None
    order = {v: i for i, v in enumerate(tree)}
    assert all(order[x] < order[y] for y, (x, _) in list(tree.items())[1:])
    assert all(tree[i + 1] == (i, i) for i in range(n - 1))


def test_cut_vector_k3(k3):
    # every edge leaves vertex 0
    assert cut_vector(k3, {0}) == (-1, -1, 0)


def test_cut_vector_whole_component_is_zero():
    g = MultiGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert cut_vector(g, {3, 4}) == (0, 0, 0, 0)


def test_cut_vector_single_vertex_is_incidence_row(example2):
    # the cut at {v1} reads off row v1 of the incidence matrix
    from lapdual.laplacians import incidence
    assert cut_vector(example2, {0}) == incidence(example2).row(0)


def test_cut_vector_rejects_trivial_sets(k3):
    with pytest.raises(EmptyOrFullSet):
        cut_vector(k3, set())
    with pytest.raises(EmptyOrFullSet):
        cut_vector(k3, {0, 1, 2})
    # two vertices but one out of range: the range is checked first
    with pytest.raises(ValueError, match="out of range"):
        cut_vector(MultiGraph.from_edges(2, [(0, 1)]), {0, 5})


def test_classify_edges_example2(example2):
    loops, isthmuses = classify_edges(example2)
    assert loops == ()
    assert isthmuses == (3,)  # removing e4 disconnects the graph


def test_classify_edges_example3(example3):
    loops, isthmuses = classify_edges(example3)
    assert loops == () and isthmuses == ()


def test_classify_edges_single_loop():
    g = MultiGraph.from_edges(1, [(0, 0)])
    assert classify_edges(g) == ((0,), ())


def test_isthmuses_are_in_every_forest():
    rng = random.Random(5)
    for _ in range(20):
        g = random_multigraph(rng, max_n=4, max_m=6)
        _, isthmuses = classify_edges(g)
        forests = enumerate_maximal_forests(g)
        common = set(range(g.num_edges))
        for f in forests:
            common &= set(f.forest_edges)
        assert set(isthmuses) == common


def test_circuits_of_k3(k3):
    assert enumerate_circuits(k3) == [(0, 1, 2)]


def test_circuits_with_loops_and_parallels():
    g = MultiGraph.from_edges(2, [(0, 0), (0, 1), (0, 1)])
    assert enumerate_circuits(g) == [(0,), (1, 2)]


def test_two_isomorphism_identity(k3):
    res = decide_2_isomorphism_bruteforce(k3, k3)
    assert res.status == "two_isomorphic"
    assert res.bijection == (0, 1, 2)


def test_two_isomorphism_example1_vs_k3(example1, k3):
    res = decide_2_isomorphism_bruteforce(example1, k3)
    assert res.status == "not_two_isomorphic"


def test_two_isomorphism_quadrupled(k3):
    quadrupled = MultiGraph.from_edges(
        3, [e for e in k3.edges for _ in range(4)])
    res = decide_2_isomorphism_bruteforce(k3, quadrupled)
    assert res.status == "not_two_isomorphic"


def test_two_isomorphism_finds_relabeling(k4):
    shuffled = MultiGraph.from_edges(4, [k4.edges[(k + 3) % 6] for k in range(6)])
    res = decide_2_isomorphism_bruteforce(k4, shuffled)
    assert res.status == "two_isomorphic"
    family = {frozenset(f.forest_edges) for f in enumerate_maximal_forests(shuffled)}
    for f in enumerate_maximal_forests(k4):
        assert frozenset(res.bijection[e] for e in f.forest_edges) in family


def test_two_isomorphism_budget():
    g = complete_graph(4)
    res = decide_2_isomorphism_bruteforce(g, g, budget=2)
    assert res.status == "budget_exceeded"


def test_two_isomorphism_raises_when_the_first_candidate_fails_replay(k4, monkeypatch):
    # swapping K4's disjoint edges 01 and 23 sends triangle 012 onto the star
    # at 2; the next candidate, the identity, is never tried
    from lapdual import graphs

    def candidates(g1, g2, budget):
        yield (5, 1, 2, 3, 4, 0)
        yield (0, 1, 2, 3, 4, 5)

    monkeypatch.setattr(graphs, "two_isomorphism_candidates", candidates)
    with pytest.raises(AssertionError, match="failed replay"):
        decide_2_isomorphism_bruteforce(k4, k4)


def oracle_pairs(seed, count=60):
    """Seeded multigraphs up to 12 edges, with loops, parallels and several
    components, each paired with a vertex-relabelled, edge-shuffled copy and
    with an unrelated graph of the same edge count."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        g = random_multigraph(rng, max_n=6, max_m=12)
        copy = shuffled_copy(g, rng)
        other = random_multigraph(rng, max_n=6, max_m=12)
        while other.num_edges != g.num_edges:
            other = random_multigraph(rng, max_n=6, max_m=12)
        pairs += [(g, copy), (g, other)]
    return pairs


def first_yields(candidates, g1, g2, limit=300):
    return list(itertools.islice(candidates(g1, g2, SearchBudget(10**6)), limit))


# two pairs that pass the count and size prefilters but whose
# shortest-circuit profiles differ, one of them on edges that lie on no circuit
PROFILE_SEPARATED_PAIRS = [
    (MultiGraph.from_edges(5, [(4, 1), (0, 2), (0, 4), (0, 4), (1, 3), (2, 4), (1, 0)]),
     MultiGraph.from_edges(5, [(2, 4), (2, 1), (3, 4), (3, 4), (4, 0), (4, 2), (3, 1)])),
    (MultiGraph.from_edges(5, [(1, 2), (1, 3), (2, 1), (1, 4), (0, 4), (3, 1), (4, 0)]),
     MultiGraph.from_edges(5, [(3, 1), (1, 3), (1, 0), (4, 2), (3, 0), (0, 4), (0, 1)])),
]


@pytest.mark.parametrize("pairs", [oracle_pairs(seed) for seed in (1, 2, 3)]
                         + [PROFILE_SEPARATED_PAIRS],
                         ids=["1", "2", "3", "profile_separated"])
def test_two_isomorphism_matches_the_circuit_enumeration_oracle(pairs):
    for g1, g2 in pairs:
        assert first_yields(two_isomorphism_candidates, g1, g2) == \
            first_yields(two_isomorphism_candidates_oracle, g1, g2)
        ours = decide_2_isomorphism_bruteforce(g1, g2)
        theirs = decide_2_isomorphism_oracle(g1, g2)
        assert dataclasses.replace(ours, nodes_used=0) == \
            dataclasses.replace(theirs, nodes_used=0)


PROFILE_REASON = re.compile(r"shortest-circuit profiles differ: (\d+) against (\d+) edges "
                            r"lie on (?:no circuit|(\d+) shortest circuit\(s\) of length (\d+))")


def test_profile_separated_negatives_name_the_first_difference():
    # equal Kirchhoff counts pass every prefilter but the forest sizes; the
    # named edge counts are recomputed from the enumerated circuits
    rng = random.Random(3)
    pairs = named = 0
    while pairs < 400:
        g1, g2 = [MultiGraph.from_edges(5, [rng.sample(range(5), 2) for _ in range(7)])
                  for _ in range(2)]
        if forest_count(g1) != forest_count(g2) or forest_count(g1) == 0:
            continue
        pairs += 1
        res = decide_2_isomorphism_bruteforce(g1, g2)
        match = PROFILE_REASON.fullmatch(res.reason)
        profile1, profile2 = enumerated_profile(g1), enumerated_profile(g2)
        if res.reason == "maximal-forest sizes differ" or sorted(profile1) == sorted(profile2):
            assert match is None
            continue
        assert match, res.reason
        assert (res.status, res.nodes_used) == ("not_two_isomorphic", 0)
        c1, c2, number, length = match.groups(default="0")
        named_pair = (int(length), int(number))
        assert (profile1.count(named_pair), profile2.count(named_pair)) == (int(c1), int(c2))
        assert c1 != c2
        # no smaller pair separates them
        assert all(profile1.count(p) == profile2.count(p)
                   for p in set(profile1 + profile2) if p < named_pair)
        named += 1
    assert named >= 50


def test_two_isomorphism_search_on_a_long_cycle():
    cycle = cycle_graph(1200)
    with wall_clock_guard(30):
        first = next(two_isomorphism_candidates(cycle, cycle, SearchBudget(10**6)))
    assert first == tuple(range(1200))


def test_forest_count_takes_the_smaller_matrix():
    # a cycle's flow Gram is 1 x 1, a path's 0 x 0 and a bouquet's reduced
    # Laplacian 0 x 0, where the other matrix is over a thousand rows
    path = MultiGraph.from_edges(1500, [(i, i + 1) for i in range(1499)])
    bouquet = MultiGraph.from_edges(1, [(0, 0)] * 1499)
    with wall_clock_guard(10):
        assert forest_count(cycle_graph(1200)) == 1200
        assert forest_count(path) == forest_count(bouquet) == 1


def test_two_isomorphism_spends_one_unit_per_node_entered():
    # pinned: the 3x4 grid against a shuffled copy is decided on exactly
    # 278,148 units, the root included
    g = grid_graph(3, 4)
    h = shuffled_copy(g, random.Random(1))
    assert decide_2_isomorphism_bruteforce(g, h, 278148).status == "two_isomorphic"
    assert decide_2_isomorphism_bruteforce(g, h, 278147).status == "budget_exceeded"


def test_identify_vertices():
    g = MultiGraph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    merged = identify_vertices(g, {0, 2})
    assert merged.num_vertices == 3
    assert merged.edges == ((0, 1), (0, 2), (1, 0))


def test_relabelling_refuses_vertices_it_cannot_honour(k4):
    with pytest.raises(ValueError):
        identify_vertices(k4, [99])
    for perm in ([0, 0, 0, 0], [0, 1, 2], [0, 1, 2, 4]):
        with pytest.raises(ValueError):
            permute_vertices(k4, perm)


def test_permute_and_isomorphism(k4):
    perm = (2, 0, 3, 1)
    assert loopless_isomorphic(k4, permute_vertices(k4, perm))


def test_empty_graph():
    g = MultiGraph.from_edges(0, [])
    assert components(g) == []
    assert maximal_forest(g).forest_edges == ()
    assert enumerate_maximal_forests(g) == [maximal_forest(g)]


def test_bad_endpoints_rejected():
    with pytest.raises(ValueError):
        MultiGraph.from_edges(2, [(0, 2)])


def test_forest_certificate_refuses_repeated_edges():
    with pytest.raises(MalformedInput, match="strictly increasing"):
        forest_from_json({"forest_edges": [0, 0], "cotree_edges": [1, 1]})
    with pytest.raises(ValueError, match="forest edges must be strictly increasing"):
        ForestCertificate((0, 0), (1,))
    with pytest.raises(ValueError, match="cotree edges must be strictly increasing"):
        ForestCertificate((0,), (1, 1))
    assert ForestCertificate((0, 2), (1,)).forest_edges == (0, 2)
