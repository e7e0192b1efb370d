"""Multigraphs with stable edge indices, forests, circuits, cuts and the
brute-force combinatorial oracles used to verify everything else.

Edges are unordered pairs; loops and parallel edges are allowed.  Edge k
keeps index k for the life of the object, so matrices indexed by edges stay
aligned across operations.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (BudgetExceeded, CapExceeded, EmptyOrFullSet, NotCotreeEdge,
                     NotMaximalForest)

EdgeVector = tuple  # length-m integer vector indexed by edge


@dataclass(frozen=True)
class MultiGraph:
    num_vertices: int
    edges: tuple  # tuple of (u, v) pairs, loops u == v allowed
    name: str = ""

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("negative vertex count")
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")

    @staticmethod
    def from_edges(num_vertices, edges, name=""):
        return MultiGraph(num_vertices, tuple([(int(u), int(v)) for u, v in edges]), name)

    @property
    def num_edges(self):
        return len(self.edges)

    def is_loop(self, e):
        u, v = self.edges[e]
        return u == v


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction bits; edge k runs u -> v unless reversed[k]."""

    reversed: tuple

    @staticmethod
    def default(g: MultiGraph):
        return Orientation((False,) * g.num_edges)

    @staticmethod
    def from_flips(g: MultiGraph, flipped_edges):
        flipped = set(flipped_edges)
        return Orientation(tuple([k in flipped for k in range(g.num_edges)]))

    def endpoints(self, g: MultiGraph, e):
        """(tail, head) of edge e under this orientation."""
        u, v = g.edges[e]
        return (v, u) if self.reversed[e] else (u, v)


@dataclass(frozen=True)
class ForestCertificate:
    """A maximal forest given as a sorted edge-index list plus its cotree."""

    forest_edges: tuple
    cotree_edges: tuple

    def __post_init__(self):
        if list(self.forest_edges) != sorted(self.forest_edges):
            raise ValueError("forest edges must be strictly increasing")
        if list(self.cotree_edges) != sorted(self.cotree_edges):
            raise ValueError("cotree edges must be strictly increasing")

    @staticmethod
    def from_forest(g: MultiGraph, forest_edges):
        forest = tuple(sorted(set(int(e) for e in forest_edges)))
        if forest and not (0 <= forest[0] and forest[-1] < g.num_edges):
            raise ValueError("forest edge index out of range")
        chosen = set(forest)
        cotree = tuple([e for e in range(g.num_edges) if e not in chosen])
        return ForestCertificate(forest, cotree)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def components(g: MultiGraph):
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    uf = _UnionFind(g.num_vertices)
    for u, v in g.edges:
        uf.union(u, v)
    groups = {}
    for v in range(g.num_vertices):
        groups.setdefault(uf.find(v), []).append(v)
    return [sorted(groups[root]) for root in sorted(groups, key=lambda r: min(groups[r]))]


def component_count(g: MultiGraph) -> int:
    return len(components(g))


def is_connected(g: MultiGraph) -> bool:
    return component_count(g) <= 1


def greedy_forest(g: MultiGraph, order) -> ForestCertificate:
    """Forest of the edges that join two trees so far when scanned in `order`;
    maximal when `order` lists every edge."""
    uf = _UnionFind(g.num_vertices)
    forest = [k for k in order if not g.is_loop(k) and uf.union(*g.edges[k])]
    return ForestCertificate.from_forest(g, forest)


def maximal_forest(g: MultiGraph) -> ForestCertificate:
    """Greedy maximal forest: scan edges by ascending index, keep merges."""
    return greedy_forest(g, range(g.num_edges))


def is_maximal_forest(g: MultiGraph, edge_set) -> bool:
    uf = _UnionFind(g.num_vertices)
    for e in edge_set:
        u, v = g.edges[e]
        if u == v or not uf.union(u, v):
            return False
    return len(set(edge_set)) == g.num_vertices - component_count(g)


def iter_maximal_forests(g: MultiGraph):
    """Yield every maximal forest, lexicographic by edge-index set."""
    target = g.num_vertices - component_count(g)
    non_loops = [e for e in range(g.num_edges) if not g.is_loop(e)]
    return _extend_forest(g, non_loops, target, 0, _UnionFind(g.num_vertices), [])


def _extend_forest(g, non_loops, target, start, uf, chosen):
    """Yield every maximal forest that adds edges from non_loops[start:] to
    `chosen`, whose trees `uf` holds.

    A module-level function, not a closure: a closure calling itself refers
    to itself through its own cell, and that cycle would keep its state alive
    until the cyclic collector runs."""
    if len(chosen) == target:
        yield ForestCertificate.from_forest(g, chosen)
        return
    remaining = target - len(chosen)
    for idx in range(start, len(non_loops)):
        if len(non_loops) - idx < remaining:
            break
        e = non_loops[idx]
        u, v = g.edges[e]
        if uf.find(u) != uf.find(v):
            child = _UnionFind(0)
            child.parent = uf.parent.copy()
            child.union(u, v)
            chosen.append(e)
            yield from _extend_forest(g, non_loops, target, idx + 1, child, chosen)
            chosen.pop()


def enumerate_maximal_forests(g: MultiGraph, cap=100000):
    """All maximal forests, lexicographic by edge-index set.

    Intended for desk scale; raises CapExceeded past `cap` results.
    """
    results = list(itertools.islice(iter_maximal_forests(g), cap + 1))
    if len(results) > cap:
        raise CapExceeded(f"more than {cap} maximal forests")
    return results


def count_maximal_forests(g: MultiGraph, cap=100000) -> int:
    return len(enumerate_maximal_forests(g, cap))


def adjacency(g: MultiGraph, edge_ids):
    """Vertex -> [(neighbour, edge)] over the non-loop edges among `edge_ids`,
    each list in the order of `edge_ids`."""
    adj = {}
    for k in edge_ids:
        u, v = g.edges[k]
        if u != v:
            adj.setdefault(u, []).append((v, k))
            adj.setdefault(v, []).append((u, k))
    return adj


def neighbour_sets(g: MultiGraph):
    """Vertex -> set of distinct neighbours, loops dropped."""
    adj = {v: set() for v in range(g.num_vertices)}
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def circuit_through(g: MultiGraph, o: Orientation, e: int, adj) -> EdgeVector:
    """Signed circuit vector closing edge e by the first head-to-tail path that
    a breadth-first walk over `adj` finds without using e, or None.

    Entry -1 at e; path entries are oriented so the vector lies in the kernel
    of the incidence matrix."""
    coords = [0] * g.num_edges
    coords[e] = -1
    if g.is_loop(e):
        return tuple(coords)
    tail, head = o.endpoints(g, e)
    parent = {head: None}
    queue = deque([head])
    while queue and tail not in parent:
        x = queue.popleft()
        for y, k in adj.get(x, ()):
            if k != e and y not in parent:
                parent[y] = (x, k)
                queue.append(y)
    if tail not in parent:
        return None
    cur = tail
    while parent[cur] is not None:
        prev, k = parent[cur]
        # the tail->head walk passes k from cur to prev; +1 when that agrees
        # with k's own direction
        coords[k] = 1 if o.endpoints(g, k) == (cur, prev) else -1
        cur = prev
    return tuple(coords)


def fundamental_circuit_vector(g: MultiGraph, o: Orientation, f: ForestCertificate, e: int) -> EdgeVector:
    """Signed circuit vector of cotree edge e: entry -1 at e, forest entries
    oriented so the vector lies in the kernel of the incidence matrix."""
    if e not in f.cotree_edges:
        raise NotCotreeEdge(f"edge {e} is not a cotree edge")
    circuit = circuit_through(g, o, e, adjacency(g, f.forest_edges))
    if circuit is None:
        raise NotMaximalForest(f"the forest does not join the ends of edge {e}")
    return circuit


def cut_vector(g: MultiGraph, o: Orientation, vertex_set) -> EdgeVector:
    """Signed cut vector of W: +1 for non-loop edges directed into W, -1 out."""
    w = set(vertex_set)
    if not w or len(w) >= g.num_vertices:
        raise EmptyOrFullSet("cut requires a proper nonempty vertex set")
    if not all(0 <= v < g.num_vertices for v in w):
        raise ValueError("vertex out of range")
    coords = [0] * g.num_edges
    for e in range(g.num_edges):
        if g.is_loop(e):
            continue
        tail, head = o.endpoints(g, e)
        if head in w and tail not in w:
            coords[e] = 1
        elif tail in w and head not in w:
            coords[e] = -1
    return tuple(coords)


def classify_edges(g: MultiGraph):
    """(loops, isthmuses) as sorted tuples; an isthmus is an edge on no circuit,
    that is a forest edge on no fundamental circuit."""
    loops = tuple([e for e in range(g.num_edges) if g.is_loop(e)])
    f = maximal_forest(g)
    o = Orientation.default(g)
    adj = adjacency(g, f.forest_edges)
    covered = set()
    for e in f.cotree_edges:
        covered.update(k for k, x in enumerate(circuit_through(g, o, e, adj)) if x)
    return loops, tuple([e for e in f.forest_edges if e not in covered])


def enumerate_circuits(g: MultiGraph):
    """All circuits of the cycle matroid as sorted edge tuples (desk scale)."""

    def rank_of(subset):
        uf = _UnionFind(g.num_vertices)
        r = 0
        for e in subset:
            u, v = g.edges[e]
            if u != v and uf.union(u, v):
                r += 1
        return r

    circuits = []
    m = g.num_edges
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if rank_of(subset) != size - 1:
                continue
            if all(rank_of(subset[:i] + subset[i + 1:]) == size - 1 for i in range(size)):
                circuits.append(subset)
    return circuits


def permute_vertices(g: MultiGraph, perm) -> MultiGraph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    return MultiGraph(g.num_vertices,
                      tuple([(perm[u], perm[v]) for u, v in g.edges]), g.name)


def identify_vertices(g: MultiGraph, vertex_set) -> MultiGraph:
    """Merge a vertex set into a single vertex placed at index 0; edges inside
    the set become loops.  Remaining vertices keep their relative order."""
    merged = set(vertex_set)
    if not merged:
        raise ValueError("cannot identify an empty vertex set")
    remap = {}
    nxt = 1
    for v in range(g.num_vertices):
        if v in merged:
            remap[v] = 0
        else:
            remap[v] = nxt
            nxt += 1
    return MultiGraph(nxt, tuple([(remap[u], remap[v]) for u, v in g.edges]), g.name)


def loopless_isomorphic(g1: MultiGraph, g2: MultiGraph) -> bool:
    """Brute-force isomorphism of the loop-stripped multigraphs (desk scale)."""
    if g1.num_vertices != g2.num_vertices:
        return False
    e1 = sorted(tuple(sorted(e)) for e in g1.edges if e[0] != e[1])
    e2 = sorted(tuple(sorted(e)) for e in g2.edges if e[0] != e[1])
    if len(e1) != len(e2):
        return False
    n = g1.num_vertices
    if n > 9:
        raise CapExceeded("isomorphism check enumerates vertex bijections; n <= 9")
    for perm in itertools.permutations(range(n)):
        mapped = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in e1)
        if mapped == e2:
            return True
    return False


# Each decider answers in its own wire words; this is their one reading as
# the tri-state "true" | "false" | "unknown", which reads itself unchanged.
TRI_STATE = {
    "congruent": "true", "two_isomorphic": "true", "planar": "true", "true": "true",
    "not_congruent": "false", "not_two_isomorphic": "false", "nonplanar": "false",
    "false": "false",
    "budget_exceeded": "unknown", "unknown": "unknown",
}


@dataclass(frozen=True)
class TwoIsomorphismResult:
    status: str  # "two_isomorphic" | "not_two_isomorphic" | "budget_exceeded"
    bijection: tuple = None  # edge k of g1 -> bijection[k] in g2
    reason: str = ""
    nodes_used: int = 0


def _edge_fingerprints(g, circuits):
    sizes = [[] for _ in range(g.num_edges)]
    for c in circuits:
        for e in c:
            sizes[e].append(len(c))
    return [tuple(sorted(s)) for s in sizes]


class SearchBudget:
    """Mutable node counter shared by the backtracking searches."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} nodes exhausted")


def two_isomorphism_candidates(g1: MultiGraph, g2: MultiGraph, budget: SearchBudget):
    """Yield circuit-preserving edge bijections g1 -> g2 by pruned backtracking.

    Circuit preservation is exactly cycle-matroid isomorphism, so every yield
    carries maximal forests onto maximal forests; callers re-verify anyway.
    """
    m = g1.num_edges
    if m != g2.num_edges:
        return
    circuits1 = enumerate_circuits(g1)
    circuits2 = enumerate_circuits(g2)
    if sorted(map(len, circuits1)) != sorted(map(len, circuits2)):
        return
    fp1 = _edge_fingerprints(g1, circuits1)
    fp2 = _edge_fingerprints(g2, circuits2)
    if sorted(fp1) != sorted(fp2):
        return
    circuit_set2 = set(circuits2)
    by_edge1 = [[c for c in circuits1 if e in c and max(c) == e] for e in range(m)]
    yield from _extend_bijection(0, [None] * m, [False] * m, fp1, fp2, by_edge1,
                                 circuit_set2, budget)


def _extend_bijection(e, mapping, used, fp1, fp2, by_edge1, circuit_set2, budget):
    """Yield every circuit-preserving completion of `mapping` from edge e on;
    `used` marks the images taken.  Module level for the reason _extend_forest
    is."""
    budget.spend()
    m = len(mapping)
    if e == m:
        yield tuple(mapping)
        return
    for t in range(m):
        if used[t] or fp2[t] != fp1[e]:
            continue
        mapping[e] = t
        used[t] = True
        # circuits whose largest edge is e are fully assigned now
        if all(tuple(sorted(mapping[x] for x in c)) in circuit_set2 for c in by_edge1[e]):
            yield from _extend_bijection(e + 1, mapping, used, fp1, fp2, by_edge1,
                                         circuit_set2, budget)
        mapping[e] = None
        used[t] = False


def decide_2_isomorphism_bruteforce(g1: MultiGraph, g2: MultiGraph, budget=10**6) -> TwoIsomorphismResult:
    """Search for an edge bijection carrying the maximal-forest family of g1
    onto that of g2; tri-state so exhaustion is never reported as absence."""
    m = g1.num_edges
    if m != g2.num_edges:
        return TwoIsomorphismResult("not_two_isomorphic", reason="edge counts differ")
    loops1 = sum(1 for e in range(m) if g1.is_loop(e))
    loops2 = sum(1 for e in range(m) if g2.is_loop(e))
    if loops1 != loops2:
        return TwoIsomorphismResult("not_two_isomorphic", reason="loop counts differ")
    forests1 = enumerate_maximal_forests(g1)
    forests2 = enumerate_maximal_forests(g2)
    if len(forests1) != len(forests2):
        return TwoIsomorphismResult("not_two_isomorphic", reason="maximal-forest counts differ")
    size1 = len(forests1[0].forest_edges) if forests1 else 0
    size2 = len(forests2[0].forest_edges) if forests2 else 0
    if size1 != size2:
        return TwoIsomorphismResult("not_two_isomorphic", reason="maximal-forest sizes differ")

    family2 = set(frozenset(f.forest_edges) for f in forests2)
    counter = SearchBudget(budget)
    try:
        for candidate in two_isomorphism_candidates(g1, g2, counter):
            if all(frozenset(candidate[e] for e in f.forest_edges) in family2 for f in forests1):
                return TwoIsomorphismResult("two_isomorphic", bijection=candidate,
                                            nodes_used=counter.used)
    except BudgetExceeded:
        return TwoIsomorphismResult("budget_exceeded", nodes_used=counter.used)
    return TwoIsomorphismResult("not_two_isomorphic", reason="search exhausted",
                                nodes_used=counter.used)
