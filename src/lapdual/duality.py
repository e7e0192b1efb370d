"""Abstract duality and planarity through superbase traces.

A graph is planar exactly when its flow lattice has a superbase whose Gram
trace hits twice the number of non-isthmus edges.  The descent here hunts for
such a superbase; when it succeeds, the optimized matrix is itself the
incidence matrix of an abstract dual, which is recovered explicitly and
shipped as a certificate.  Failure to descend is never treated as
nonplanarity: that verdict comes only from an independent minor search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .congruence import strict_row_equivalence
from .errors import (BudgetExceeded, NonplanarInput, RowSumNonzero,
                     ShapeMismatch, TraceTooLarge)
from .graphs import (ForestCertificate, MultiGraph, Orientation, SearchBudget,
                     adjacency, circuit_through, classify_edges,
                     enumerate_maximal_forests, fundamental_circuit_vector,
                     greedy_forest, maximal_forest, neighbour_sets)
from .intmatrix import IntMatrix, UnimodularWitness
from .laplacians import (ReductionSpec, default_reduction_spec, flow_gram,
                         flow_matrix, incidence, reduced_incidence,
                         reduced_laplacian)

PLANAR = "planar"
NONPLANAR = "nonplanar"
UNKNOWN = "unknown"


def lemma_center_recover(a: IntMatrix, c: UnimodularWitness):
    """Recover the directed graph whose incidence matrix is c.u * a.

    Requires the Gram matrix of c.u * a to have zero row sums and trace at
    most twice the number of nonzero columns of a; under those conditions
    every nonzero column has exactly one +1 and one -1, and zero columns are
    returned as loops at vertex 0.
    """
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
    o = Orientation.default(g)
    if incidence(g, o) != ca:
        raise AssertionError("recovered incidence does not replay")
    return g, o


@dataclass(frozen=True)
class SuperbaseState:
    """Snapshot of the descent: explicit zero-sum row matrix, its Gram, the
    applied moves, and the basis witness mapping the starting flow matrix to
    the current one."""

    f_hat: IntMatrix
    gram: IntMatrix
    trace: int
    move_log: tuple
    basis_witness: UnimodularWitness
    budget_exhausted: bool = False

    def __post_init__(self):
        m = self.f_hat.cols
        if any(sum(self.f_hat.column(j)) != 0 for j in range(m)):
            raise ValueError("superbase rows must sum to the zero vector")
        if self.gram != self.f_hat.mul(self.f_hat.transpose()):
            raise ValueError("stored Gram does not match the superbase")
        if self.trace != self.gram.trace():
            raise ValueError("stored trace does not match the Gram")


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


class _Descent:
    """Greedy trace descent over basis moves row_i += s * row_j, with the
    dependent zero-sum row recomputed after every move."""

    def __init__(self, basis_rows, witness_rows, num_columns, budget: SearchBudget):
        self.basis = [list(r) for r in basis_rows]
        self.witness = [list(r) for r in witness_rows]
        self.budget = budget
        self.moves = []
        self.m = num_columns
        self._recompute_dep()

    def _recompute_dep(self):
        self.dep = [-sum(r[j] for r in self.basis) for j in range(self.m)]

    def trace(self):
        return sum(_dot(r, r) for r in self.basis) + _dot(self.dep, self.dep)

    def apply(self, i, j, s):
        self.basis[i] = [a + s * b for a, b in zip(self.basis[i], self.basis[j])]
        self.witness[i] = [a + s * b for a, b in zip(self.witness[i], self.witness[j])]
        self.dep = [a - s * b for a, b in zip(self.dep, self.basis[j])]
        self.moves.append((i, j, s))

    def best_move(self):
        """Most trace-reducing (i, j, s), ties to the lowest index triple."""
        r = len(self.basis)
        best = None
        best_delta = 0
        for j in range(r):
            fj = self.basis[j]
            njj = _dot(fj, fj)
            dep_j = _dot(self.dep, fj)
            for i in range(r):
                if i == j:
                    continue
                fij = _dot(self.basis[i], fj)
                for s in (1, -1):
                    self.budget.spend()
                    delta = 2 * njj + 2 * s * (fij - dep_j)
                    if delta < best_delta:
                        best_delta = delta
                        best = (i, j, s)
        return best

    def descend(self, floor_trace):
        while self.trace() > floor_trace:
            move = self.best_move()
            if move is None:
                break
            self.apply(*move)

    def shake(self, rng, count):
        r = len(self.basis)
        if r < 2:
            return
        for _ in range(count):
            i = rng.randrange(r)
            j = rng.randrange(r - 1)
            if j >= i:
                j += 1
            self.apply(i, j, rng.choice((1, -1)))

    def keep(self):
        """(basis, witness, trace, moves), copied so later moves leave it be."""
        return ([row[:] for row in self.basis], [row[:] for row in self.witness],
                self.trace(), tuple(self.moves))

    def snapshot(self, budget_exhausted=False):
        rows = [self.dep] + self.basis
        f_hat = IntMatrix.from_rows(rows, cols=self.m)
        gram = f_hat.mul(f_hat.transpose())
        return SuperbaseState(
            f_hat=f_hat, gram=gram, trace=gram.trace(), move_log=tuple(self.moves),
            basis_witness=UnimodularWitness(
                IntMatrix.from_rows(self.witness, cols=len(self.basis))),
            budget_exhausted=budget_exhausted)


def _random_forest(g, rng):
    order = list(range(g.num_edges))
    rng.shuffle(order)
    return greedy_forest(g, order)


def _short_cycle_basis(g, o, f_start):
    """Flow-lattice basis assembled from shortest circuits, as rows plus the
    witness mapping f_start onto it; None when the greedy pick comes up short.

    Planar graphs have minimal superbases made of face boundaries, so starting
    the descent from short circuits instead of long fundamental ones usually
    begins almost on the floor.
    """
    r = f_start.rows
    if r == 0:
        return None
    # over every edge, the breadth-first walk closes a shortest circuit
    adj = adjacency(g, range(g.num_edges))
    candidates = []
    for e in range(g.num_edges):
        vec = circuit_through(g, o, e, adj)
        if vec is not None:
            candidates.append(vec)
    candidates.sort(key=lambda v: sum(x * x for x in v))
    chosen = []
    echelon = {}
    for vec in candidates:
        mask = 0
        for k, x in enumerate(vec):
            if x % 2:
                mask |= 1 << k
        while mask:
            piv = mask & -mask
            if piv not in echelon:
                break
            mask ^= echelon[piv]
        if mask:
            echelon[mask & -mask] = mask
            chosen.append(vec)
            if len(chosen) == r:
                break
    if len(chosen) < r:
        return None
    basis = IntMatrix.from_rows(chosen, cols=g.num_edges)
    u = strict_row_equivalence(f_start, basis)
    if u is None:
        return None
    return basis, u


def superbase_trace_minimize(g: MultiGraph, o: Orientation = None,
                             f: ForestCertificate = None, spec: ReductionSpec = None,
                             budget=10**6, seed=0, max_hops=20000) -> SuperbaseState:
    """Seeded basin-hopping descent on the superbase Gram trace.

    Greedy descent first; afterwards the best state is repeatedly shaken by a
    few random moves and re-descended, accepting any state that does not
    increase the trace (plateau drift is what escapes the shallow local
    minima).  Occasional hops restart from a different maximal forest.  The
    trace can never go below twice the count of non-isthmus edges, so the
    search stops as soon as it gets there; budget exhaustion returns the best
    state found, flagged.
    """
    if o is None:
        o = Orientation.default(g)
    _, isthmuses = classify_edges(g)
    floor_trace = 2 * (g.num_edges - len(isthmuses))
    base_forest = f if f is not None else maximal_forest(g)
    f_start = flow_matrix(g, o, base_forest, spec)
    r = f_start.rows
    rng = random.Random(seed)
    counter = SearchBudget(budget)

    descent = _Descent(f_start.data, IntMatrix.identity(r).data, f_start.cols, counter)
    best = descent.keep()
    exhausted = False
    try:
        descent.descend(floor_trace)
        if descent.trace() <= best[2]:
            best = descent.keep()
        for hop in range(max_hops):
            if best[2] <= floor_trace or r < 2:
                break
            if hop == 0:
                short = _short_cycle_basis(g, o, f_start)
                if short is None:
                    continue
                basis_m, u = short
                descent = _Descent(basis_m.data, u.u.data, f_start.cols, counter)
                descent.moves = [("short-basis",)]
            elif hop % 64 == 63 and g.num_edges:
                alt = _random_forest(g, rng)
                f_alt = flow_matrix(g, o, alt, spec)
                u = strict_row_equivalence(f_start, f_alt)
                descent = _Descent(f_alt.data, u.u.data, f_start.cols, counter)
                descent.moves = [("forest",) + tuple(alt.forest_edges)]
            else:
                descent = _Descent(best[0], best[1], f_start.cols, counter)
                descent.moves = list(best[3])
                descent.shake(rng, 2 + rng.randrange(6))
            descent.descend(floor_trace)
            if descent.trace() <= best[2]:
                best = descent.keep()
    except BudgetExceeded:
        exhausted = True
    final = _Descent(best[0], best[1], f_start.cols, SearchBudget(1 << 62))
    final.moves = list(best[3])
    return final.snapshot(budget_exhausted=exhausted)


@dataclass(frozen=True)
class KuratowskiEvidence:
    kind: str  # "K5" | "K3,3"
    branch_sets: tuple  # tuple of sorted vertex tuples


@dataclass(frozen=True)
class DualCertificate:
    """Witnessed abstract dual: the recovered graph, the unimodular transform
    that carries the bordered flow matrix onto its incidence matrix, and the
    edge bijection (positional) between the primal and dual edge sets."""

    dual_graph: MultiGraph
    dual_orientation: Orientation
    witness_z: UnimodularWitness
    edge_bijection: tuple
    trace: int
    core_edges: tuple
    core_forest: ForestCertificate
    core_v0: ReductionSpec
    laplacian_witness: UnimodularWitness = None

    def core_graph(self, g: MultiGraph) -> MultiGraph:
        return MultiGraph(g.num_vertices, tuple(g.edges[e] for e in self.core_edges))

    def replay_core(self, g: MultiGraph) -> bool:
        """Re-derive the bordered flow matrix of the stripped core and check
        the witness maps it onto the dual core's incidence matrix."""
        core = self.core_graph(g)
        fm = flow_matrix(core, None, self.core_forest, self.core_v0)
        a = IntMatrix.zeros(1, fm.cols).vstack(fm)
        ca = self.witness_z.u.mul(a)
        core_rows = range(self.witness_z.u.rows)
        core_cols = [self.edge_bijection[e] for e in self.core_edges]
        dual_inc = incidence(self.dual_graph, self.dual_orientation)
        return ca == dual_inc.submatrix(core_rows, core_cols)


@dataclass(frozen=True)
class PlanarityResult:
    status: str
    certificate: DualCertificate = None
    evidence: KuratowskiEvidence = None
    best_trace: int = None
    note: str = ""


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


def verify_kuratowski_evidence(g: MultiGraph, ev: KuratowskiEvidence) -> bool:
    """Branch sets must be disjoint, connected in g, and pairwise adjacent in
    the target pattern."""
    sets = [set(s) for s in ev.branch_sets]
    b = len(sets)
    expected = 5 if ev.kind == "K5" else 6
    if b != expected:
        return False
    seen = set()
    for s in sets:
        if not s or s & seen or not all(0 <= v < g.num_vertices for v in s):
            return False
        seen |= s
    adj = neighbour_sets(g)
    for s in sets:
        stack = [next(iter(s))]
        reached = {stack[0]}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in s and y not in reached:
                    reached.add(y)
                    stack.append(y)
        if reached != s:
            return False

    def touching(s1, s2):
        return any(w in s2 for v in s1 for w in adj[v])

    if ev.kind == "K5":
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    else:
        pairs = [(i, j) for i in range(3) for j in range(3, 6)]
    return all(touching(sets[i], sets[j]) for i, j in pairs)


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
    o = Orientation.default(g)
    basis = []
    for e in f.cotree_edges:
        vec = fundamental_circuit_vector(g, o, f, e)
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


def _strip_for_planarity(g: MultiGraph):
    loops, isthmuses = classify_edges(g)
    skip = set(loops) | set(isthmuses)
    core_edges = tuple(e for e in range(g.num_edges) if e not in skip)
    core = MultiGraph(g.num_vertices, tuple(g.edges[e] for e in core_edges))
    return core, core_edges, loops, isthmuses


def _border_top_witness(v: UnimodularWitness) -> UnimodularWitness:
    """[[1, -column sums of V], [0, V]]; carries the zero-row-topped flow
    matrix onto the optimized superbase."""
    r = v.u.rows
    top = [1] + [-sum(v.u.data[i][j] for i in range(r)) for j in range(r)]
    rows = [top] + [[0] + list(v.u.data[i]) for i in range(r)]
    return UnimodularWitness(IntMatrix.from_rows(rows, cols=r + 1))


def _assemble_dual(g, core_edges, loops, isthmuses, dual_core, z, trace_core,
                   core_forest, core_v0):
    n_core = dual_core.num_vertices
    dual_vertices = n_core + len(loops)
    edges = [None] * g.num_edges
    for pos, e in enumerate(core_edges):
        edges[e] = dual_core.edges[pos]
    for i, e in enumerate(loops):
        edges[e] = (0, n_core + i)  # pendant isthmus in the dual
    for e in isthmuses:
        edges[e] = (0, 0)  # loop in the dual
    dual = MultiGraph(dual_vertices, tuple(edges), name=f"dual({g.name})" if g.name else "")
    return DualCertificate(
        dual_graph=dual,
        dual_orientation=Orientation.default(dual),
        witness_z=z,
        edge_bijection=tuple(range(g.num_edges)),
        trace=trace_core + 2 * len(loops),
        core_edges=core_edges,
        core_forest=core_forest,
        core_v0=core_v0,
    )


def decide_planarity(g: MultiGraph, budget=10**6, seed=0) -> PlanarityResult:
    """Certified planarity: descend on the stripped core's superbase trace and
    recover a dual on success; otherwise fall back to the minor search.

    A planar verdict always carries a DualCertificate; a nonplanar verdict
    always carries verified Kuratowski evidence."""
    core, core_edges, loops, isthmuses = _strip_for_planarity(g)
    core_forest = maximal_forest(core)
    core_v0 = default_reduction_spec(core)
    state = superbase_trace_minimize(core, None, core_forest, core_v0,
                                     budget=budget, seed=seed)
    target = 2 * core.num_edges
    if state.trace == target:
        fm = flow_matrix(core, None, core_forest, core_v0)
        a = IntMatrix.zeros(1, fm.cols).vstack(fm)
        z = _border_top_witness(state.basis_witness)
        dual_core, _ = lemma_center_recover(a, z)
        cert = _assemble_dual(g, core_edges, loops, isthmuses, dual_core, z,
                              state.trace, core_forest, core_v0)
        return PlanarityResult(PLANAR, certificate=cert, best_trace=cert.trace)
    fallback = kuratowski_oracle(core, budget)
    if fallback.status == NONPLANAR:
        if not verify_kuratowski_evidence(g, fallback.evidence):
            raise AssertionError("minor evidence failed verification")
        return PlanarityResult(NONPLANAR, evidence=fallback.evidence,
                               best_trace=state.trace + 2 * len(loops))
    note = "descent missed the planar bound" if fallback.status == PLANAR \
        else fallback.note
    return PlanarityResult(UNKNOWN, best_trace=state.trace + 2 * len(loops), note=note)


def construct_abstract_dual(g: MultiGraph, budget=10**6, seed=0) -> DualCertificate:
    """Build and verify an abstract dual of a planar graph.

    The dual's loop count equals the primal isthmus count by construction,
    and the dual's reduced Laplacian is certified congruent to the primal's
    flow Gram matrix through an explicit row-equivalence witness."""
    result = decide_planarity(g, budget, seed)
    if result.status == NONPLANAR:
        raise NonplanarInput("graph is nonplanar; it has no abstract dual")
    if result.status == UNKNOWN:
        raise BudgetExceeded(result.note or "planarity search exhausted its budget")
    cert = result.certificate
    fm = flow_matrix(g)
    n_dual = reduced_incidence(cert.dual_graph, cert.dual_orientation)
    u = strict_row_equivalence(fm, n_dual)
    if u is None:
        raise AssertionError("dual incidence rows do not span the primal flow lattice")
    base = flow_gram(g)
    if u.u.mul(base).mul(u.u.transpose()) != reduced_laplacian(cert.dual_graph):
        raise AssertionError("dual Laplacian congruence failed replay")
    return DualCertificate(
        dual_graph=cert.dual_graph,
        dual_orientation=cert.dual_orientation,
        witness_z=cert.witness_z,
        edge_bijection=cert.edge_bijection,
        trace=cert.trace,
        core_edges=cert.core_edges,
        core_forest=cert.core_forest,
        core_v0=cert.core_v0,
        laplacian_witness=u,
    )


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    forest_size_identity: bool
    complement_bijection: bool
    forest_counts: tuple


def verify_abstract_dual(g1: MultiGraph, g2: MultiGraph, beta, cap=200000) -> DualityReport:
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
