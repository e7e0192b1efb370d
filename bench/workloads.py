"""Seeded inputs for the benchmark workloads.

The planarity and property-x graph structures come from one fixed catalog
(CATALOG_SEED), so every run has the same sizes, the same mix of planar and
nonplanar inputs and, as far as structure decides it, the same inputs that
exhaust a budget or hang.  `--seed` draws the labels: a vertex permutation
and an edge order for every graph.  Run time and verdicts of the library
depend on both, so a seed changes the work without changing the mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from lapdual import MultiGraph, is_connected

CATALOG_SEED = "lapdual-bench-catalog"
PLANARITY_BUDGET = 2 * 10**5
PROPERTY_X_BUDGET = 2 * 10**5
# per-op deadline, at least 2.5x the slowest op that finishes (WORKLOADS.md)
DEADLINE_S = {"planarity": 3.0, "property-x": 5.0}

# planarity: the sizes of the seeded larger graphs, one graph per entry
GRID_SHAPES = ((3, 3), (3, 5), (4, 5), (5, 6))
WHEEL_SIZES = (9, 16, 30)
STACKED_SIZES = (9, 12, 26)
DELETED_SIZES = (10, 14, 28)  # stacked triangulations before deletion
SUBDIVIDED_PADDED_SIZES = (9, 14, 26)  # for each of K5 and K3,3
DENSE_SIZES = (9, 12, 16, 25)
# property-x: vertex counts; each n gets one pair of every style at each of
# PROPERTY_X_M_STEPS edge counts spread evenly over n+1..2n
PROPERTY_X_NS = (4, 5, 6, 7, 8)
PROPERTY_X_M_STEPS = 3


@dataclass(frozen=True)
class Op:
    """One benchmark operation: its inputs plus what the construction knows."""

    kind: str  # generator family, for reports
    graphs: tuple  # one MultiGraph, or a pair
    truth: bool = None  # True: the pair is 2-isomorphic by construction


# ---------------------------------------------------------------- helpers

def relabel(rng, n, edges, name=""):
    """Random vertex permutation plus random edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return MultiGraph.from_edges(n, out, name=name)


def _canonical(n, edges):
    """Canonical edge set of a simple graph: the least relabelled edge list
    over the labellings that order vertices by (degree, neighbour degrees).
    That family is isomorphism-invariant, so the minimum is canonical."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    inv = [(len(nbrs[v]), tuple(sorted(len(nbrs[w]) for w in nbrs[v]))) for v in range(n)]
    groups = [[v for v in range(n) if inv[v] == key] for key in sorted(set(inv))]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        label = {}
        for v in itertools.chain.from_iterable(parts):
            label[v] = len(label)
        mapped = tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def connected_simple_catalog(max_n):
    """All connected simple graphs on 1..max_n vertices, one per isomorphism
    class, grown one vertex at a time with canonical dedup."""
    levels = {1: {()}}
    for n in range(2, max_n + 1):
        grown = set()
        for parent in levels[n - 1]:
            for attach in range(1, 1 << (n - 1)):
                extra = tuple((v, n - 1) for v in range(n - 1) if attach >> v & 1)
                grown.add(_canonical(n, parent + extra))
        levels[n] = grown
    return [(n, list(edges)) for n in range(1, max_n + 1) for edges in sorted(levels[n])]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


K33_EDGES = [(i, j) for i in range(3) for j in range(3, 6)]
PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
ICOSAHEDRON_EDGES = (
    [(0, i) for i in range(1, 6)]
    + [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)] + [(i, (i % 5) + 6) for i in range(1, 6)]
    + [(i, i % 5 + 6) for i in range(6, 11)] + [(11, i) for i in range(6, 11)])


def grid_edges(rows, cols):
    at = lambda r, c: r * cols + c  # noqa: E731
    out = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                out.append((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                out.append((at(r, c), at(r + 1, c)))
    return out


def wheel_edges(n):
    """Hub 0 joined to every vertex of the cycle 1..n-1."""
    rim = list(range(1, n))
    return [(0, v) for v in rim] + [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]


def stacked_edges(rng, n):
    """Stacked (Apollonian) triangulation: each new vertex goes into a random
    face and joins its three corners."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]  # inner and outer face of the triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


def delete_edges(rng, n, edges, share):
    """Drop about `share` of the edges at random, keeping the graph connected."""
    kept = list(edges)
    order = list(range(len(edges)))
    rng.shuffle(order)
    target = len(edges) - int(share * len(edges))
    for idx in order:
        if len(kept) <= target:
            break
        trial = [e for e in kept if e != edges[idx]]
        if is_connected(MultiGraph.from_edges(n, trial)):
            kept = trial
    return kept


def subdivided_padded_edges(rng, base_n, base_edges, n):
    """Subdivide random edges of a Kuratowski graph, then hang a planar
    padding (a random tree with a few chords to its parent's parent) off
    random vertices until the graph has n vertices."""
    edges = []
    v = base_n
    budget = max(0, (n - base_n) // 2)
    for a, b in base_edges:
        k = rng.randrange(0, 3) if budget else 0
        k = min(k, budget)
        budget -= k
        path = [a] + list(range(v, v + k)) + [b]
        v += k
        edges += list(zip(path, path[1:]))
    parent = {}
    while v < n:
        p = rng.randrange(v)
        edges.append((p, v))
        parent[v] = p
        if p in parent and rng.random() < 0.5:
            edges.append((parent[p], v))  # a triangle: stays planar
        v += 1
    return edges


def dense_edges(rng, n, m):
    """Connected simple random graph with m edges: random spanning tree, then
    random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_connected_multigraph(rng, n, m):
    """Loopless connected multigraph: random spanning tree, then m-n+1 random
    extra edges (parallel edges allowed)."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return edges


# ---------------------------------------------------------------- workloads

def planarity_ops(seed):
    shapes = random.Random(CATALOG_SEED)
    labels = random.Random(f"planarity:{seed}")
    structures = [("corpus", n, edges) for n, edges in connected_simple_catalog(6)]
    structures += [("corpus", 5, complete_edges(5)), ("corpus", 6, K33_EDGES),
                   ("corpus", 10, PETERSEN_EDGES)]
    structures += [("grid", r * c, grid_edges(r, c)) for r, c in GRID_SHAPES]
    structures += [("wheel", n, wheel_edges(n)) for n in WHEEL_SIZES]
    structures += [("stacked", n, stacked_edges(shapes, n)) for n in STACKED_SIZES]
    structures += [("deleted", n, delete_edges(shapes, n, stacked_edges(shapes, n), 0.25))
                   for n in DELETED_SIZES]
    structures.append(("icosahedron", 12, ICOSAHEDRON_EDGES))
    for n in SUBDIVIDED_PADDED_SIZES:
        structures.append(("subdivided-K5", n,
                           subdivided_padded_edges(shapes, 5, complete_edges(5), n)))
        structures.append(("subdivided-K33", n, subdivided_padded_edges(shapes, 6, K33_EDGES, n)))
    structures += [("dense", n, dense_edges(shapes, n, 3 * n)) for n in DENSE_SIZES]
    return [Op(kind, (relabel(labels, n, edges, kind),)) for kind, n, edges in structures]


def _glued(rng, n, m):
    """Two random blocks sharing one vertex, glued twice at different cut
    vertices.  Whitney's vertex identification moves keep the pair
    2-isomorphic; the graphs are usually not isomorphic."""
    n1 = rng.randrange(2, n)  # vertices of the first block
    n2 = n + 1 - n1
    m1 = rng.randint(n1 - 1, m - (n2 - 1))
    b1 = random_connected_multigraph(rng, n1, m1)
    b2 = random_connected_multigraph(rng, n2, m - m1)

    def glue(a, b):
        # block 2 vertex b becomes block 1 vertex a; the others follow n1
        label = {}
        nxt = n1
        for w in range(n2):
            if w == b:
                label[w] = a
            else:
                label[w] = nxt
                nxt += 1
        return b1 + [(label[u], label[v]) for u, v in b2]

    first = glue(rng.randrange(n1), rng.randrange(n2))
    second = glue(rng.randrange(n1), rng.randrange(n2))
    return first, second


def property_x_ops(seed):
    shapes = random.Random(CATALOG_SEED)
    labels = random.Random(f"property-x:{seed}")
    ops = []
    for n in PROPERTY_X_NS:
        for step in range(PROPERTY_X_M_STEPS):
            m = n + 1 + round(step * (n - 1) / (PROPERTY_X_M_STEPS - 1))
            edges = random_connected_multigraph(shapes, n, m)
            first, second = _glued(shapes, n, m)
            other = random_connected_multigraph(shapes, n, m)
            ops.append(Op("relabelled", (relabel(labels, n, edges), relabel(labels, n, edges)),
                          truth=True))
            ops.append(Op("reglued", (relabel(labels, n, first), relabel(labels, n, second)),
                          truth=True))
            ops.append(Op("independent", (relabel(labels, n, edges), relabel(labels, n, other))))
    return ops


WORKLOADS = {
    "planarity": planarity_ops,
    "property-x": property_x_ops,
}
