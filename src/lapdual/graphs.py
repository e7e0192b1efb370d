"""Multigraphs with stable edge indices, forests, circuits and cuts, and the
GF(2) cycle-space tests that decide 2-isomorphism and abstract duality.

Loops and parallel edges are allowed.  Edge k keeps index k for the life of
the object, so matrices indexed by edges stay aligned across operations.
The signed matrices read edge (u, v) as running u -> v, so relisting it as
(v, u) reverses it; graph properties ignore the direction.

One walk serves every layer: `_bfs_tree` grows a breadth-first forest over
an `adjacency` map, and fundamental circuits, cut 2-colourings, Kuratowski
branch sets and orientation signs are read off it.  One depth-first loop
serves every backtracking search: `_depth_first` keeps its own stack of
per-level generators and spends one `SearchBudget` unit per node, and the
2-isomorphism search, the short-vector enumeration and the isometry search
each give it only their levels, so none of them recurses.  Forest sizes
n - c and Kirchhoff's forest counts have one home each: `forest_size`, and
`forest_count`, which takes the determinant of the flow Gram when it is
under half the reduced Laplacian's size, and of the reduced Laplacian
otherwise.

A graph's cycle matroid is binary, so its GF(2) cycle space (the edge sets
of even degree at every vertex) determines it (Whitney; Oxley, *Matroid
Theory*, ch. 9).  An edge bijection is a cycle-matroid isomorphism exactly
when it carries the fundamental circuits of a maximal forest into the other
graph's cycle space and the forest sizes agree, which takes O(m*n) parity
tests.  Nothing here enumerates forests: the brute-force forest and
circuit enumerators and the isomorphism test that the tests cross-check
against live in the tests' oracles.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import reduce
from operator import xor

from .errors import (BudgetExceeded, EmptyOrFullSet, NotCotreeEdge,
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

    @property
    def num_loops(self):
        return sum(1 for u, v in self.edges if u == v)

    def is_loop(self, e):
        u, v = self.edges[e]
        return u == v


@dataclass(frozen=True)
class ForestCertificate:
    """A maximal forest given as a sorted edge-index list plus its cotree."""

    forest_edges: tuple
    cotree_edges: tuple

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.forest_edges, self.forest_edges[1:])):
            raise ValueError("forest edges must be strictly increasing")
        if any(a >= b for a, b in zip(self.cotree_edges, self.cotree_edges[1:])):
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
    """Union by size without path compression, so `undo` can take back the
    latest merge still standing; backtracking searches merge and undo in
    stack order."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.merged = []  # attached roots, latest last

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.merged.append(rb)
        return True

    def undo(self):
        rb = self.merged.pop()
        ra = self.parent[rb]
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]


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


def forest_size(g: MultiGraph) -> int:
    """Edges in a maximal forest: n - c."""
    return g.num_vertices - component_count(g)


def forest_count(g: MultiGraph) -> int:
    """Maximal forests, counted by Kirchhoff as a determinant: of the r x r
    flow Gram when r = m - (n - c) is under half of n - c, else of the (n - c)
    x (n - c) reduced Laplacian.  Both count the same forests, so a cycle, a
    path or a bouquet of loops costs a tiny determinant.  The Gram is dense
    where the Laplacian is sparse, so near r = n - c (a grid) the Laplacian's
    elimination is the faster one."""
    from .intmatrix import det_bareiss
    from .laplacians import flow_gram, reduced_laplacian
    size = forest_size(g)
    return det_bareiss(flow_gram(g) if 2 * (g.num_edges - size) < size else reduced_laplacian(g))


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
    return len(set(edge_set)) == forest_size(g)


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


def _bfs_tree(adj, roots, skip=None, stop=None):
    """Breadth-first forest over an `adjacency` map: vertex -> (parent, edge)
    in the order reached, None for each root not reached before.  Edge `skip`
    is never walked; reaching the non-root vertex `stop` ends the walk."""
    tree = {}
    for root in roots:
        if root in tree:
            continue
        tree[root] = None
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, k in adj.get(x, ()):
                if k != skip and y not in tree:
                    tree[y] = (x, k)
                    if y == stop:
                        return tree
                    queue.append(y)
    return tree


def circuit_through(g: MultiGraph, e: int, adj) -> EdgeVector:
    """Signed circuit vector closing edge e by the head-to-tail path of the
    breadth-first tree that `_bfs_tree` grows over `adj` without e, or None.

    Entry -1 at e; path entries are oriented so the vector lies in the kernel
    of the incidence matrix."""
    coords = [0] * g.num_edges
    coords[e] = -1
    if g.is_loop(e):
        return tuple(coords)
    tail, head = g.edges[e]
    parent = _bfs_tree(adj, (head,), skip=e, stop=tail)
    if tail not in parent:
        return None
    cur = tail
    while parent[cur] is not None:
        prev, k = parent[cur]
        # the tail->head walk passes k from cur to prev; +1 when that agrees
        # with k's own direction
        coords[k] = 1 if g.edges[k] == (cur, prev) else -1
        cur = prev
    return tuple(coords)


def _require_maximal_forest(g: MultiGraph, f: ForestCertificate):
    # the partition check comes first: it keeps out-of-range edges away from
    # is_maximal_forest, which indexes g.edges
    if tuple(sorted(f.forest_edges + f.cotree_edges)) != tuple(range(g.num_edges)):
        raise NotMaximalForest("forest and cotree do not partition the edge set")
    if not is_maximal_forest(g, f.forest_edges):
        raise NotMaximalForest("edge set is not a maximal forest")


def fundamental_circuit_vector(g: MultiGraph, f: ForestCertificate, e: int) -> EdgeVector:
    """Signed circuit vector of cotree edge e: entry -1 at e, forest entries
    oriented so the vector lies in the kernel of the incidence matrix."""
    _require_maximal_forest(g, f)
    if e not in f.cotree_edges:
        raise NotCotreeEdge(f"edge {e} is not a cotree edge")
    return circuit_through(g, e, adjacency(g, f.forest_edges))


def cut_vector(g: MultiGraph, vertex_set) -> EdgeVector:
    """Signed cut vector of W: +1 for non-loop edges directed into W, -1 out."""
    w = set(vertex_set)
    if not all(0 <= v < g.num_vertices for v in w):
        raise ValueError("vertex out of range")
    if not w or len(w) >= g.num_vertices:
        raise EmptyOrFullSet("cut requires a proper nonempty vertex set")
    coords = [0] * g.num_edges
    for e, (tail, head) in enumerate(g.edges):
        if head in w and tail not in w:
            coords[e] = 1
        elif tail in w and head not in w:
            coords[e] = -1
    return tuple(coords)


def fundamental_circuits(g: MultiGraph):
    """Cotree edge -> the sorted edge indices of its fundamental circuit in
    maximal_forest(g).  That forest is greedy by index, so the forest edges
    before a cotree edge already join its ends: the edge is the largest in
    its circuit."""
    f = maximal_forest(g)
    adj = adjacency(g, f.forest_edges)
    return {e: tuple([k for k, x in enumerate(circuit_through(g, e, adj)) if x])
            for e in f.cotree_edges}


def in_cut_space(g: MultiGraph, edge_sets) -> bool:
    """Whether every edge set is a cut of g, a GF(2) sum of vertex stars.

    Each set 2-colours g along maximal_forest(g): a forest edge changes
    colour exactly when it is in the set.  The set is a cut exactly when
    every edge then agrees, in the set exactly when its ends differ."""
    tree = _bfs_tree(adjacency(g, maximal_forest(g).forest_edges), range(g.num_vertices))
    for edge_set in edge_sets:
        chosen = set(edge_set)
        colour = [False] * g.num_vertices
        for y, link in tree.items():  # in reach order: a parent before its child
            if link:
                x, k = link
                colour[y] = colour[x] ^ (k in chosen)
        if any((k in chosen) != (colour[u] != colour[v]) for k, (u, v) in enumerate(g.edges)):
            return False
    return True


def classify_edges(g: MultiGraph):
    """(loops, isthmuses) as sorted tuples; an isthmus is an edge on no circuit,
    that is an edge on no fundamental circuit."""
    loops = tuple([e for e in range(g.num_edges) if g.is_loop(e)])
    covered = set().union(*fundamental_circuits(g).values())
    return loops, tuple([e for e in range(g.num_edges) if e not in covered])


def permute_vertices(g: MultiGraph, perm) -> MultiGraph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    if sorted(perm) != list(range(g.num_vertices)):
        raise ValueError("perm is not a permutation of the vertices")
    return MultiGraph(g.num_vertices,
                      tuple([(perm[u], perm[v]) for u, v in g.edges]), g.name)


def identify_vertices(g: MultiGraph, vertex_set) -> MultiGraph:
    """Merge a vertex set into a single vertex placed at index 0; edges inside
    the set become loops.  Remaining vertices keep their relative order."""
    merged = set(vertex_set)
    if not merged:
        raise ValueError("cannot identify an empty vertex set")
    if not all(0 <= v < g.num_vertices for v in merged):
        raise ValueError("vertex out of range")
    remap = {}
    nxt = 1
    for v in range(g.num_vertices):
        if v in merged:
            remap[v] = 0
        else:
            remap[v] = nxt
            nxt += 1
    return MultiGraph(nxt, tuple([(remap[u], remap[v]) for u, v in g.edges]), g.name)


@dataclass(frozen=True)
class _Verdict:
    """A decider's answer.  `status` is its wire word, one of the class's
    WORDS, which name true, false and unknown in that order; `truth` reads
    it as the tri-state "true" | "false" | "unknown"."""

    WORDS = ("true", "false", "unknown")
    status: str

    def __post_init__(self):
        if self.status not in self.WORDS:
            raise ValueError(f"unknown {type(self).__name__} status {self.status!r}")

    @property
    def truth(self):
        return _Verdict.WORDS[self.WORDS.index(self.status)]


@dataclass(frozen=True)
class TwoIsomorphismResult(_Verdict):
    WORDS = ("two_isomorphic", "not_two_isomorphic", "budget_exceeded")
    bijection: tuple = None  # edge k of g1 -> bijection[k] in g2
    reason: str = ""
    nodes_used: int = 0


class SearchBudget:
    """Mutable node counter shared by the backtracking searches."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} nodes exhausted")


def _depth_first(level, depth, budget):
    """Yield each path of `depth` moves of a depth-first search, spending one
    unit of `budget` per node entered, the root included.

    `level(path)` yields the moves open after `path`; it applies each move to
    the search's state just before yielding it and undoes it when resumed.
    The yielded path is the driver's own list, valid until the next resume.
    The driver keeps a stack of these generators, one per level, so no
    depth reaches the interpreter's recursion limit."""
    path = []
    budget.spend()
    if depth == 0:
        yield path
        return
    stack = [level(path)]
    while stack:
        for move in stack[-1]:
            path.append(move)
            budget.spend()
            if len(path) < depth:
                stack.append(level(path))
                break
            yield path
            path.pop()
        else:
            stack.pop()
            if stack:
                path.pop()


def _shortest_circuits(g: MultiGraph):
    """(length, number) of the shortest circuits through each edge, an
    invariant of the cycle matroid: (1, 1) for a loop, (0, 0) for an
    isthmus, else one breadth-first count of the shortest paths that join
    the edge's ends without it."""
    adj = adjacency(g, range(g.num_edges))
    out = []
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            out.append((1, 1))
            continue
        dist, paths = {a: 0}, {a: 1}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            if b in dist and dist[x] >= dist[b]:
                break  # every path into b is counted
            for y, k in adj[x]:
                if k == e:
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    paths[y] = paths[x]
                    queue.append(y)
                elif dist[y] == dist[x] + 1:
                    paths[y] += paths[x]
        out.append((dist[b] + 1, paths[b]) if b in dist else (0, 0))
    return out


def two_isomorphism_candidates(g1: MultiGraph, g2: MultiGraph, budget: SearchBudget):
    """Yield every cycle-matroid isomorphism g1 -> g2 (edge k of g1 ->
    bijection[k]), lexicographically, by a `_depth_first` search that spends
    one budget unit per node entered.

    Edges are assigned in index order and targets tried in ascending order,
    restricted to edges with the same shortest-circuit profile.  A forest
    edge of maximal_forest(g1) must map to an edge joining two trees of the
    images of the earlier forest edges; a cotree edge must close the images
    of the rest of its fundamental circuit, which are all earlier edges, into
    an even subgraph of g2: its odd-degree vertices, as a bitmask, must be
    the XOR of theirs.  The forest restricted to a prefix is a maximal
    forest of the prefix, so a prefix passes both exactly when it is an
    isomorphism of the restrictions: no true isomorphism is ever pruned.

    When the profiles differ as multisets, as they do when the edge counts
    differ, it yields nothing and returns, as its StopIteration value, the
    reason: the first (length, number) pair, in ascending order, that a
    different number of edges have.
    """
    m = g1.num_edges
    profile1, profile2 = _shortest_circuits(g1), _shortest_circuits(g2)
    counts1, counts2 = Counter(profile1), Counter(profile2)
    for length, number in sorted(counts1.keys() | counts2.keys()):
        if counts1[length, number] != counts2[length, number]:
            on = f"{number} shortest circuit(s) of length {length}" if length else "no circuit"
            return (f"shortest-circuit profiles differ: {counts1[length, number]} against "
                    f"{counts2[length, number]} edges lie on {on}")
    rest = {e: circuit[:-1] for e, circuit in fundamental_circuits(g1).items()}
    parity = [(1 << u) ^ (1 << v) for u, v in g2.edges]  # odd-degree vertices, as a bitmask
    targets = {p: [t for t in range(m) if profile2[t] == p] for p in counts2}
    trees = _UnionFind(g2.num_vertices)  # joined by the forest edges' images
    used = [False] * m

    def level(mapping):
        e = len(mapping)
        if e in rest:
            odd = 0
            for k in rest[e]:
                odd ^= parity[mapping[k]]
            for t in targets[profile1[e]]:
                if not used[t] and parity[t] == odd:
                    used[t] = True
                    yield t
                    used[t] = False
        else:
            for t in targets[profile1[e]]:
                if not used[t] and trees.union(*g2.edges[t]):
                    used[t] = True
                    yield t
                    used[t] = False
                    trees.undo()

    for mapping in _depth_first(level, m, budget):
        yield tuple(mapping)


def decide_2_isomorphism_bruteforce(g1: MultiGraph, g2: MultiGraph, budget=10**6) -> TwoIsomorphismResult:
    """Search for an edge bijection carrying the cycle matroid of g1 onto that
    of g2; tri-state so exhaustion is never reported as absence.

    Edge, loop and maximal-forest counts and forest sizes are compared first,
    and the search names the shortest-circuit profile difference that leaves
    it no candidate.  Its first candidate is replayed on the whole graphs, or
    AssertionError raised: with equal forest sizes it is an isomorphism
    exactly when every fundamental circuit of g1 maps to an even subgraph."""
    if g1.num_edges != g2.num_edges:
        return TwoIsomorphismResult("not_two_isomorphic", reason="edge counts differ")
    if g1.num_loops != g2.num_loops:
        return TwoIsomorphismResult("not_two_isomorphic", reason="loop counts differ")
    if forest_count(g1) != forest_count(g2):
        return TwoIsomorphismResult("not_two_isomorphic", reason="maximal-forest counts differ")
    if forest_size(g1) != forest_size(g2):
        return TwoIsomorphismResult("not_two_isomorphic", reason="maximal-forest sizes differ")

    counter = SearchBudget(budget)
    try:
        candidate = next(two_isomorphism_candidates(g1, g2, counter))
    except StopIteration as stop:
        return TwoIsomorphismResult("not_two_isomorphic", reason=stop.value or "search exhausted",
                                    nodes_used=counter.used)
    except BudgetExceeded:
        return TwoIsomorphismResult("budget_exceeded", nodes_used=counter.used)
    parity = [(1 << u) ^ (1 << v) for u, v in g2.edges]
    if any(reduce(xor, [parity[candidate[k]] for k in c], 0)
           for c in fundamental_circuits(g1).values()):
        raise AssertionError("2-isomorphism candidate failed replay")
    return TwoIsomorphismResult("two_isomorphic", bijection=candidate, nodes_used=counter.used)
