"""Brute-force oracles for the tests.

Planarity: an exhaustive K5/K3,3 minor search and a MacLane cycle-basis
search.  They decide planarity by routes independent of the left-right
embedding in `lapdual.duality`, so the tests use them as voters against it.

2-isomorphism and abstract duality: a circuit enumerator that tries every
edge subset, a backtrack that checks that each circuit of the first graph
maps to a circuit of the second, and deciders that compare whole
maximal-forest families.  They are independent of the GF(2) cycle-space
tests in `lapdual.graphs` and `lapdual.duality`, which the tests compare
against them.

Maximal forests: every forest-size subset of the non-loop edges, kept when
it is acyclic.  The runtime counts forests by Kirchhoff's determinant and
finds the second one greedily; the tests check both against this list.

Isomorphism: a search over every vertex bijection of the loop-stripped
multigraphs.  Property X compares labelled Laplacians instead, and property
III reads the edge multiplicities off the Laplacian's entries; the tests
check both against it.

The center lemma: the Gram form of `lemma_center_recover`, which multiplies
out (c.a)(c.a)^T and reads its row sums and trace.  The runtime reads both
conditions off the columns of c.a instead; the tests check it against this.

Certificate replay: the dense form of `DualCertificate.replay_core`, which
multiplies the witness into the bordered flow matrix of the core.  The
runtime checks that the dual's incidence rows are flows and reads the
witness off their cotree columns instead; the tests check it against this.

Products: the dense form of `IntMatrix.mul`, a sum over a full row and
column for every entry.  The runtime adds up scaled rows over the nonzero
entries only; the tests check it against this.

Property X's constructive replay: the form with the paper's bordered
witness z, which multiplies z into the incidence matrix of g1 with V0
identified.  The runtime hands the center lemma the superbase of u times
g1's reduced incidence instead; the tests check it against this.

All of them are exponential and meant for graphs of about a dozen vertices
or edges.
"""

import itertools
import operator

from lapdual.duality import (NONPLANAR, PLANAR, UNKNOWN, DualityReport,
                             KuratowskiEvidence, PlanarityResult)
from lapdual.errors import (BudgetExceeded, LapdualError, RowSumNonzero,
                            ShapeMismatch, TraceTooLarge)
from lapdual.graphs import (ForestCertificate, MultiGraph, SearchBudget,
                            TwoIsomorphismResult, classify_edges,
                            forest_size, fundamental_circuit_vector,
                            identify_vertices, is_maximal_forest, maximal_forest,
                            neighbour_sets)
from lapdual.intmatrix import IntMatrix, UnimodularWitness
from lapdual.laplacians import (_reduction, flow_matrix, incidence, laplacian,
                                lemma_center_recover)


class CapExceeded(LapdualError):
    """An oracle's enumeration outgrew the size it is meant for."""


def _simplified_adjacency(g: MultiGraph):
    """Loop-free simple adjacency sets, then iterated removal of degree <= 1
    vertices; minor witnesses survive both reductions."""
    adj = neighbour_sets(g)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
    return adj


def _connected_subsets(vertices, nbr_of, budget: SearchBudget):
    """All connected vertex subsets as bitmasks over `vertices` positions.

    Standard banned-set enumeration: the branch that includes a frontier
    vertex runs first, after which that vertex is excluded from every later
    sibling branch, so each connected set is produced exactly once.
    """
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    nbr = [0] * n
    for v in vertices:
        mask = 0
        for w in nbr_of[v]:
            mask |= 1 << pos[w]
        nbr[pos[v]] = mask
    out = []

    def grow(mask, nbhd, frontier, banned, allowed):
        budget.spend()
        out.append((mask, nbhd))
        while frontier:
            vbit = frontier & -frontier
            v = vbit.bit_length() - 1
            frontier &= ~vbit
            new_mask = mask | vbit
            child_frontier = ((frontier | (nbr[v] & allowed))
                              & ~new_mask & ~banned)
            grow(new_mask, nbhd | nbr[v], child_frontier, banned, allowed)
            banned |= vbit

    full = (1 << n) - 1
    for s in range(n):
        allowed = full & ~((1 << (s + 1)) - 1)
        grow(1 << s, nbr[s], nbr[s] & allowed, 0, allowed)
    return out, pos


def _find_minor(adj, target, budget: SearchBudget):
    """Complete branch-set search for a K5 or K3,3 model in a simple graph.

    Blocks are drawn from the precomputed connected subsets; symmetric blocks
    are forced into increasing minimum-vertex order and every required
    adjacency is checked as soon as both endpoints are placed.
    """
    vertices = sorted(adj)
    if target == "K5":
        b = 5
        place_order = [0, 1, 2, 3, 4]
        required = {(i, j) for i in range(5) for j in range(i + 1, 5)}
        chains = [(0, 1), (1, 2), (2, 3), (3, 4)]
    else:
        b = 6
        place_order = [0, 3, 1, 4, 2, 5]
        required = {(i, j) for i in range(3) for j in range(3, 6)}
        chains = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3)]
    if len(vertices) < b:
        return None
    n = len(vertices)
    subsets, pos = _connected_subsets(vertices, adj, budget)
    # a model never needs a branch set so large that the other blocks cannot
    # fit, nor one whose outside neighborhood is smaller than its degree in
    # the target pattern
    min_degree = b - 1 if target == "K5" else 3
    subsets = [(mask, nbhd) for (mask, nbhd) in subsets
               if bin(mask).count("1") <= n - b + 1
               and bin(nbhd & ~mask).count("1") >= min_degree]
    subsets.sort(key=lambda t: (bin(t[0]).count("1"), t[0]))
    sizes = {mask: bin(mask).count("1") for mask, _ in subsets}
    blocks = [None] * b

    def low_bit(mask):
        return (mask & -mask)

    def place(step, used):
        budget.spend()
        if step == b:
            return True
        k = place_order[step]
        placed = [place_order[i] for i in range(step)]
        room = n - bin(used).count("1")
        for mask, nbhd in subsets:
            if mask & used:
                continue
            if sizes[mask] > room - (b - step - 1):
                break  # sorted by size: everything later is too big as well
            ok = True
            for (lo, hi) in chains:
                if hi == k and blocks[lo] is not None and not low_bit(mask) > low_bit(blocks[lo][0]):
                    ok = False
                    break
                if lo == k and blocks[hi] is not None and not low_bit(blocks[hi][0]) > low_bit(mask):
                    ok = False
                    break
            if not ok:
                continue
            feasible = True
            for other in placed:
                pair = (min(other, k), max(other, k))
                if pair in required and not (blocks[other][1] & mask):
                    feasible = False
                    break
            if not feasible:
                continue
            blocks[k] = (mask, nbhd)
            new_used = used | mask
            # every placed block still needs one fresh vertex per unplaced
            # required partner; partners are disjoint, so the free part of
            # its neighborhood must be at least that large
            for i in placed + [k]:
                unplaced = sum(1 for j in range(b)
                               if blocks[j] is None and j != i
                               and (min(i, j), max(i, j)) in required)
                if unplaced and bin(blocks[i][1] & ~new_used).count("1") < unplaced:
                    feasible = False
                    break
            if feasible and place(step + 1, new_used):
                return True
            blocks[k] = None
        return False

    if place(0, 0):
        # positions follow the sorted vertex order, so members come out sorted
        sets = tuple(tuple(v for v in vertices if blocks[k][0] >> pos[v] & 1)
                     for k in range(b))
        return KuratowskiEvidence("K5" if target == "K5" else "K3,3", sets)
    return None


def kuratowski_oracle(g: MultiGraph, budget=10**6) -> PlanarityResult:
    """Independent planarity ground truth by exhaustive K5/K3,3 minor search
    on the simplified graph; sound in both directions when it completes."""
    adj = _simplified_adjacency(g)
    n_eff = len(adj)
    m_eff = sum(len(s) for s in adj.values()) // 2
    if n_eff <= 4 or m_eff <= 8:
        return PlanarityResult(PLANAR, note="too small to contain a forbidden minor")
    if n_eff > 13:
        return PlanarityResult(UNKNOWN, note="simplified graph too large for the minor search")
    counter = SearchBudget(budget)
    try:
        ev = _find_minor(adj, "K5", counter)
        if ev is not None:
            return PlanarityResult(NONPLANAR, evidence=ev)
        ev = _find_minor(adj, "K33", counter)
        if ev is not None:
            return PlanarityResult(NONPLANAR, evidence=ev)
        return PlanarityResult(PLANAR, note="minor searches exhausted")
    except BudgetExceeded:
        return PlanarityResult(UNKNOWN, note=f"minor search budget {budget} exhausted")


def _gf2_cycle_space(g: MultiGraph):
    """Bitmask basis of the binary cycle space (fundamental circuits)."""
    f = maximal_forest(g)
    basis = []
    for e in f.cotree_edges:
        vec = fundamental_circuit_vector(g, f, e)
        mask = 0
        for k, x in enumerate(vec):
            if x % 2:
                mask |= 1 << k
        basis.append(mask)
    return basis


def _girth(g: MultiGraph):
    """Shortest circuit length: 1 with a loop, 2 with parallels, else BFS."""
    if any(u == v for u, v in g.edges):
        return 1
    seen = set()
    for u, v in g.edges:
        if (min(u, v), max(u, v)) in seen:
            return 2
        seen.add((min(u, v), max(u, v)))
    adj = neighbour_sets(g)
    best = None
    for root in range(g.num_vertices):
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if y == parent[x]:
                        continue
                    if y in dist:
                        cycle = dist[x] + dist[y] + 1
                        if best is None or cycle < best:
                            best = cycle
                    else:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
            queue = nxt
    return best


def maclane_oracle(g: MultiGraph, budget=10**6):
    """True/False/None: does the binary cycle space admit a basis in which
    every edge appears at most twice?  None means the search gave up."""
    basis = _gf2_cycle_space(g)
    r = len(basis)
    if r == 0:
        return True
    if r > 14:
        return None
    _, isthmuses = classify_edges(g)
    non_isthmus = [e for e in range(g.num_edges) if e not in set(isthmuses)]
    slots = 2 * len(non_isthmus)
    girth = _girth(g)
    if girth is not None and girth * (r + 1) > slots:
        return False

    # all nonzero cycle vectors, lightest first
    vectors = []
    for coeffs in range(1, 1 << r):
        v = 0
        c = coeffs
        i = 0
        while c:
            if c & 1:
                v ^= basis[i]
            c >>= 1
            i += 1
        vectors.append(v)
    vectors = sorted(set(vectors), key=lambda v: (bin(v).count("1"), v))
    weights = [bin(v).count("1") for v in vectors]
    counter = SearchBudget(budget)
    counts = [0] * g.num_edges
    echelon = {}  # pivot bit -> reduced vector

    def reduce(v):
        w = v
        while w:
            piv = w & -w
            if piv not in echelon:
                return w
            w ^= echelon[piv]
        return 0

    def feasible_tail(depth, start):
        remaining = r - depth
        if remaining == 0:
            return True
        if start >= len(vectors):
            return False
        capacity = sum(2 - counts[e] for e in non_isthmus)
        return weights[start] * remaining <= capacity

    def search(depth, start):
        counter.spend()
        if depth == r:
            # augmented element fixes parity; need every count in {1, 2}
            return all(counts[e] in (1, 2) for e in non_isthmus)
        for idx in range(start, len(vectors)):
            v = vectors[idx]
            if not feasible_tail(depth, idx):
                return False
            bad = False
            vv = v
            touched = []
            while vv:
                e = (vv & -vv).bit_length() - 1
                vv &= vv - 1
                counts[e] += 1
                touched.append(e)
                if counts[e] > 2:
                    bad = True
            if not bad:
                w = reduce(v)
                if w:
                    piv = w & -w
                    echelon[piv] = w
                    if search(depth + 1, idx + 1):
                        return True
                    del echelon[piv]
            for e in touched:
                counts[e] -= 1
        return False

    try:
        return search(0, 0)
    except BudgetExceeded:
        return None


def enumerate_circuits(g: MultiGraph):
    """All circuits of the cycle matroid as sorted edge tuples: the edge
    subsets of rank size - 1 whose every proper subset is independent."""

    def rank_of(subset):
        parent = list(range(g.num_vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        r = 0
        for e in subset:
            a, b = (find(x) for x in g.edges[e])
            if a != b:
                parent[a] = b
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


def enumerate_maximal_forests(g: MultiGraph, cap=100000):
    """All maximal forests, lexicographic by edge-index set: the forest-size
    subsets of the non-loop edges, in `itertools.combinations` order, that
    `is_maximal_forest` accepts.  Raises CapExceeded past `cap` results."""
    non_loops = [e for e in range(g.num_edges) if not g.is_loop(e)]
    subsets = itertools.combinations(non_loops, forest_size(g))
    forests = list(itertools.islice(
        (ForestCertificate.from_forest(g, s) for s in subsets if is_maximal_forest(g, s)),
        cap + 1))
    if len(forests) > cap:
        raise CapExceeded(f"more than {cap} maximal forests")
    return forests


def count_maximal_forests(g: MultiGraph, cap=100000) -> int:
    return len(enumerate_maximal_forests(g, cap))


def laplacian_automorphisms_are_isomorphisms(g: MultiGraph) -> bool:
    """Property III by permutations: the vertex permutations that fix the
    Laplacian are exactly those that fix the loop-stripped edge multiset.
    Raises CapExceeded past 8 vertices."""
    n = g.num_vertices
    if n > 8:
        raise CapExceeded("property III oracle enumerates vertex permutations; n <= 8")
    lap = laplacian(g).data
    stripped = sorted(tuple(sorted(e)) for e in g.edges if e[0] != e[1])
    for perm in itertools.permutations(range(n)):
        fixes_lap = all(lap[perm[i]][perm[j]] == lap[i][j]
                        for i in range(n) for j in range(n))
        mapped = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in stripped)
        if fixes_lap != (mapped == stripped):
            return False
    return True


def loopless_isomorphic(g1: MultiGraph, g2: MultiGraph) -> bool:
    """Isomorphism of the loop-stripped multigraphs by trying every vertex
    bijection; raises CapExceeded past 9 vertices."""
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


def _edge_fingerprints(g, circuits):
    sizes = [[] for _ in range(g.num_edges)]
    for c in circuits:
        for e in c:
            sizes[e].append(len(c))
    return [tuple(sorted(s)) for s in sizes]


def two_isomorphism_candidates_oracle(g1: MultiGraph, g2: MultiGraph, budget: SearchBudget):
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
    `used` marks the images taken."""
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


def enumerated_profile(g: MultiGraph):
    """(length, number) of the shortest circuits through each edge, (0, 0)
    for an edge on none, read off the enumerated circuits."""
    circuits = enumerate_circuits(g)
    lengths = [[len(c) for c in circuits if e in c] for e in range(g.num_edges)]
    return [(min(ls, default=0), ls.count(min(ls, default=0))) for ls in lengths]


def decide_2_isomorphism_oracle(g1: MultiGraph, g2: MultiGraph, budget=10**6) -> TwoIsomorphismResult:
    """Search for an edge bijection carrying the maximal-forest family of g1
    onto that of g2; tri-state so exhaustion is never reported as absence.

    Past the four count and size prefilters, a pair whose enumerated
    shortest-circuit profiles differ is refused in the runtime's words: the
    first (length, number) pair, in ascending order, that a different number
    of edges have."""
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
    profile1, profile2 = enumerated_profile(g1), enumerated_profile(g2)
    for length, number in sorted(set(profile1 + profile2)):
        c1, c2 = profile1.count((length, number)), profile2.count((length, number))
        if c1 != c2:
            on = f"{number} shortest circuit(s) of length {length}" if length else "no circuit"
            return TwoIsomorphismResult(
                "not_two_isomorphic",
                reason=f"shortest-circuit profiles differ: {c1} against {c2} edges lie on {on}")

    family2 = set(frozenset(f.forest_edges) for f in forests2)
    counter = SearchBudget(budget)
    try:
        for candidate in two_isomorphism_candidates_oracle(g1, g2, counter):
            if all(frozenset(candidate[e] for e in f.forest_edges) in family2 for f in forests1):
                return TwoIsomorphismResult("two_isomorphic", bijection=candidate,
                                            nodes_used=counter.used)
    except BudgetExceeded:
        return TwoIsomorphismResult("budget_exceeded", nodes_used=counter.used)
    return TwoIsomorphismResult("not_two_isomorphic", reason="search exhausted",
                                nodes_used=counter.used)


def verify_abstract_dual_oracle(g1: MultiGraph, g2: MultiGraph, beta, cap=200000) -> DualityReport:
    """Enumerate both maximal-forest families and check that beta carries the
    first family onto the complements of the second."""
    m = g1.num_edges
    if g2.num_edges != m:
        raise ShapeMismatch("abstract duals need equal edge counts")
    beta = tuple(beta)
    if sorted(beta) != list(range(m)):
        raise ShapeMismatch("beta is not an edge bijection")
    forests1 = enumerate_maximal_forests(g1, cap)
    forests2 = enumerate_maximal_forests(g2, cap)
    size1 = len(forests1[0].forest_edges) if forests1 else 0
    size2 = len(forests2[0].forest_edges) if forests2 else 0
    size_ok = size2 == m - size1
    family2 = set(frozenset(f.forest_edges) for f in forests2)
    all_edges = frozenset(range(m))
    mapped = set(all_edges - frozenset(beta[e] for e in f.forest_edges) for f in forests1)
    complement_ok = mapped == family2 and len(forests1) == len(forests2)
    return DualityReport(ok=size_ok and complement_ok,
                         forest_size_identity=size_ok,
                         complement_bijection=complement_ok,
                         forest_counts=(len(forests1), len(forests2)))


def lemma_center_recover_by_gram(a, c):
    """The center lemma by its Gram matrix: form the Gram matrix of c.u * a,
    check its row sums and trace, then read each column.
    `lemma_center_recover` reads both conditions off the columns instead."""
    ca = c.u.mul(a)
    gram = ca.mul(ca.transpose())
    if any(sum(row) != 0 for row in gram.data):
        raise RowSumNonzero("Gram matrix rows do not sum to zero")
    nonzero_cols = len(a.nonzero_columns())
    trace = gram.trace()
    if trace > 2 * nonzero_cols:
        for j in range(ca.cols):
            col = ca.column(j)
            entries = [x for x in col if x != 0]
            if entries and sorted(entries) != [-1, 1]:
                raise TraceTooLarge(
                    f"trace {trace} exceeds {2 * nonzero_cols}; column {j} is not "
                    "a signed incidence column", column=j)
        raise TraceTooLarge(f"trace {trace} exceeds {2 * nonzero_cols}", column=None)
    if ca.cols > 0 and ca.rows == 0:
        raise RowSumNonzero("cannot place edges on an empty vertex set")
    edges = []
    for j in range(ca.cols):
        col = ca.column(j)
        pos = [i for i in range(ca.rows) if col[i] == 1]
        neg = [i for i in range(ca.rows) if col[i] == -1]
        if not pos and not neg:
            edges.append((0, 0))
            continue
        if len(pos) != 1 or len(neg) != 1 or any(abs(x) > 1 for x in col):
            raise TraceTooLarge(f"column {j} is not a signed incidence column", column=j)
        edges.append((neg[0], pos[0]))
    g = MultiGraph(ca.rows, tuple(edges))
    if incidence(g) != ca:
        raise AssertionError("recovered incidence does not replay")
    return g


def replay_core_by_product(cert, g):
    """`DualCertificate.replay_core` by the dense product: re-derive the
    bordered flow matrix of the stripped core, multiply the witness into it
    and compare the dual core's incidence rows, after the same refusals in
    the same order."""
    m = g.num_edges
    if sorted(cert.edge_bijection) != list(range(m)) or cert.dual_graph.num_edges != m or \
            not all(0 <= e < m for e in cert.core_edges):
        return False
    core = cert.core_graph(g)
    fm = flow_matrix(core, cert.core_forest)
    _reduction(core, cert.core_v0)
    a = IntMatrix.zeros(1, fm.cols).vstack(fm)
    if cert.witness_z.u.rows != a.rows or cert.dual_graph.num_vertices < a.rows:
        return False
    ca = cert.witness_z.u.mul(a)
    core_cols = [cert.edge_bijection[e] for e in cert.core_edges]
    return ca == incidence(cert.dual_graph).submatrix(range(ca.rows), core_cols)


def dense_mul(a, b):
    """`IntMatrix.mul` by its definition: every entry of the product is the
    sum over a full row of a and a full column of b."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = b.transpose().data
    return IntMatrix(a.rows, b.cols,
                     tuple([tuple([sum(map(operator.mul, row, col)) for col in cols])
                            for row in a.data]))


def constructive_replay_by_bordered_witness(g1, g2, verdict):
    """Property X's constructive replay by the paper's bordered witness: z
    puts a row that fixes the all-ones vector over u, the center lemma
    recovers a graph from z times the incidence matrix of g1 with V0
    identified, and its labelled Laplacian is compared with that of g2 with
    V0 identified.  The result is the runtime's, with z under its own key."""
    if verdict.status != "congruent":
        return {"attempted": False}
    u = verdict.witness.u
    v1, v2 = _reduction(g1)[0], _reduction(g2)[0]
    if not v1 or not v2:
        return {"attempted": False}
    z = UnimodularWitness(IntMatrix.from_rows(
        [[1] + [1 - sum(col) for col in u.transpose().data]] + [[0] + list(row) for row in u.data],
        cols=u.rows + 1))
    recovered = lemma_center_recover(incidence(identify_vertices(g1, v1)), z)
    laplacian_ok = laplacian(recovered) == laplacian(identify_vertices(g2, v2))
    return {
        "attempted": True,
        "z": z,
        "recovered": recovered,
        "strict_row_equivalence_ok": True,
        "recovered_laplacian_equals_identified": laplacian_ok,
        "ok": laplacian_ok,
    }
