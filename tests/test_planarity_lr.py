"""The left-right embedding behind decide_planarity, checked against
networkx's planarity test as an independent oracle, on the inputs the
descent and the minor search could not decide, and at sizes where a
recursive depth-first search would hit the recursion limit."""

import random
import sys
from collections import Counter

import networkx as nx
import pytest

from lapdual import (MultiGraph, classify_edges, decide_planarity,
                     maximal_forest, superbase_trace_minimize,
                     verify_kuratowski_evidence)
from lapdual.embedding import _face_basis
from lapdual.graphs import SearchBudget

from conftest import grid_graph, wall_clock_guard


def nx_planar(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.num_vertices))
    h.add_edges_from((u, v) for u, v in g.edges if u != v)
    return nx.check_planarity(h)[0]


def check_result(g, result):
    """The verdict agrees with networkx, and its witness replays."""
    assert result.status == ("planar" if nx_planar(g) else "nonplanar"), (g.num_vertices, g.edges)
    if result.status == "planar":
        cert = result.certificate
        _, isthmuses = classify_edges(g)
        assert cert.trace == 2 * (g.num_edges - len(isthmuses))
        assert cert.replay_core(g)
    else:
        assert verify_kuratowski_evidence(g, result.evidence)


def shuffled(rng, n, edges):
    """Relabel the vertices, flip and reorder the edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return MultiGraph.from_edges(n, out)


def random_multigraph(rng):
    """Up to 30 vertices, often disconnected, with loops and parallel edges."""
    n = rng.randint(1, 30)
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randrange(n)
        edges.append((u, u) if rng.random() < 0.05 else (u, rng.randrange(n)))
    return MultiGraph.from_edges(n, edges)


def stacked_triangulation(rng, n):
    """Planar triangulation grown by putting each new vertex into a face."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    return edges


def near_planar(rng):
    """A thinned stacked triangulation with parallel copies, subdivisions, an
    extra component, and sometimes one edge across it that may break
    planarity."""
    n = rng.randint(4, 22)
    edges = stacked_triangulation(rng, n)
    edges = [e for e in edges if rng.random() < 0.85]
    edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))] if edges else []
    if rng.random() < 0.5:
        edges.append((rng.randrange(n), rng.randrange(n)))
    for _ in range(rng.randint(0, 4)):
        if not edges:
            break
        i = rng.randrange(len(edges))
        u, v = edges[i]
        edges[i] = (u, n)
        edges.append((n, v))
        n += 1
    if rng.random() < 0.3:
        edges += [(n, n + 1), (n + 1, n + 2), (n, n + 2), (n + 2, n + 2)]
        n += 3
    return shuffled(rng, n, edges)


def test_verdicts_match_networkx_on_random_multigraphs():
    rng = random.Random(2009)
    statuses = set()
    for i in range(300):
        g = random_multigraph(rng) if i % 2 else near_planar(rng)
        result = decide_planarity(g, budget=10**6)
        check_result(g, result)
        statuses.add(result.status)
    assert statuses == {"planar", "nonplanar"}


def subdivided_k33():
    # every edge of K3,3 gets one inner vertex: 6 + 9 = 15 vertices
    edges = []
    inner = 6
    for a in range(3):
        for b in range(3, 6):
            edges += [(a, inner), (inner, b)]
            inner += 1
    return MultiGraph.from_edges(inner, edges)


def icosahedron_edges():
    edges = set()
    top, upper, lower, bottom = 0, [1, 2, 3, 4, 5], [6, 7, 8, 9, 10], 11
    for i in range(5):
        edges.add((top, upper[i]))
        edges.add((upper[i], upper[(i + 1) % 5]))
        edges.add((upper[i], lower[i]))
        edges.add((upper[i], lower[(i - 1) % 5]))
        edges.add((lower[i], lower[(i + 1) % 5]))
        edges.add((bottom, lower[i]))
    return sorted(edges)


def test_subdivided_k33_is_decided():
    # the minor search stopped at 13 vertices and left this graph unknown
    g = subdivided_k33()
    assert g.num_vertices == 15
    with wall_clock_guard(10):
        result = decide_planarity(g, budget=2 * 10**5)
    assert result.status == "nonplanar" and result.evidence.kind == "K3,3"
    assert verify_kuratowski_evidence(g, result.evidence)


def test_shuffled_icosahedron_is_decided():
    # the descent left this edge order unknown after 98 s at budget 2e6
    rng = random.Random(12)
    g = shuffled(rng, 12, icosahedron_edges())
    with wall_clock_guard(10):
        result = decide_planarity(g, budget=2 * 10**5)
    check_result(g, result)
    assert result.certificate.trace == 60
    assert result.certificate.dual_graph.num_vertices == 20


def cycle_with_chords(n, chords):
    return MultiGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + chords)


def test_large_inputs_stay_below_the_recursion_limit():
    # depth-first searches thousands of vertices deep; a recursive one would
    # raise RecursionError at the default limit
    assert sys.getrecursionlimit() <= 1000
    with wall_clock_guard(60):
        g = grid_graph(60, 60)
        faces = _face_basis(g, maximal_forest(g).cotree_edges, SearchBudget(10**6))
        assert len(faces) == g.num_edges - g.num_vertices + 1
        dependent = Counter()
        for face in faces:
            dependent.update({e: -x for e, x in face.items()})
        trace = sum(map(len, faces)) + sum(x * x for x in dependent.values())
        assert trace == 2 * g.num_edges

        nested = cycle_with_chords(3000, [(i, 3000 - i) for i in range(1, 40)])
        faces = _face_basis(nested, maximal_forest(nested).cotree_edges,
                            SearchBudget(10**6))
        assert len(faces) == 40

        crossing = cycle_with_chords(3000, [(0, 1500), (750, 2250), (375, 1875)])
        result = decide_planarity(crossing, budget=10**6)
    assert result.status == "nonplanar" and result.evidence.kind == "K3,3"
    assert verify_kuratowski_evidence(crossing, result.evidence)


def test_nested_chords_get_a_certificate():
    # the certificate must cost far less than a cubic pass over the
    # 399 × 399 forest block, which alone overruns the guard
    n = 400
    g = cycle_with_chords(n, [(i, n - 1 - i) for i in range(1, 40)])
    with wall_clock_guard(10):
        result = decide_planarity(g)
        assert result.status == "planar"
        assert result.certificate.replay_core(g)


@pytest.mark.parametrize("budget", [0, 1, 20])
def test_small_budget_gives_unknown(k5, budget):
    result = decide_planarity(k5, budget=budget)
    assert result.status == "unknown" and result.best_trace is None


def test_descent_reaches_floor_on_planar_corpus(catalog6, k5, k33, petersen):
    # the paper's own method still finds the face superbase that the
    # embedding now supplies directly
    planar = [g for g in list(catalog6) + [k5, k33, petersen] if nx_planar(g)]
    assert len(planar) == 129
    for g in planar:
        _, isthmuses = classify_edges(g)
        state = superbase_trace_minimize(g, budget=2 * 10**6, seed=0)
        assert state.trace == 2 * (g.num_edges - len(isthmuses)), g.edges
