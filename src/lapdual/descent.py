"""The paper's trace descent: a superbase of the flow lattice stepped toward
the least Gram trace.

A superbase is a lattice basis f_1..f_r together with the dependent row
f_0 = -(f_1 + ... + f_r) (Conway and Sloane, "Low-dimensional lattices VI",
1992).  Its trace |f_0|^2 + ... + |f_r|^2 never falls below twice the
number of non-isthmus edges, and reaches that floor exactly when the graph
is planar, on a superbase of face boundaries.  `superbase_trace_minimize`
descends on the trace by basis moves f_i += s * f_j, in one loop of basin
hops, and returns the lowest state it reached: when the budget ends a
descent midway, the running descent counts as found.  `decide_planarity`
reaches that superbase by an embedding instead, so this layer is loaded
only by callers of the descent; the tests cross-check the two.

The descent carries no transform.  Its rows stay flows, and the starting
flow matrix is -I on its cotree columns, so the one witness W with
W * flow_matrix = rows is minus the rows' cotree columns.  It is read once,
when the descent returns, by `_flow_coordinates`, which first checks that
every row has zero net flow at each vertex; its determinant is checked by
`UnimodularWitness`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BudgetExceeded
from .graphs import (MultiGraph, SearchBudget, adjacency, circuit_through, greedy_forest,
                     maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness, _add_col, _add_row, det_bareiss
from .laplacians import _flow_coordinates, _superbase, border_first, flow_matrix

MAX_HOPS = 20000  # basin hops of superbase_trace_minimize after hop 0


@dataclass(frozen=True)
class SuperbaseState:
    """Snapshot of the descent: explicit zero-sum row matrix, its Gram, the
    applied moves, and the basis witness mapping the starting flow matrix to
    the current one, read off the basis's cotree columns."""

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


class _Descent:
    """Greedy trace descent over basis moves row_i += s * row_j.

    The Gram of the basis rows is exact state, so a move updates one of its
    rows and columns and the scan reads entries.  The dependent row's
    products are minus the Gram's column sums: dep . f_j = -sum_k f_k . f_j,
    and dep . dep is the sum of every entry."""

    def __init__(self, basis_rows, num_columns, budget: SearchBudget, moves=(), gram=None):
        self.basis = [list(r) for r in basis_rows]
        self.budget = budget
        self.moves = list(moves)
        self.m = num_columns
        if gram is None:
            b = IntMatrix.from_rows(self.basis, cols=num_columns)
            gram = b.mul(b.transpose()).data
        self.gram = [list(r) for r in gram]
        self.trace = sum(r[k] for k, r in enumerate(self.gram)) + sum(map(sum, self.gram))

    def copy(self):
        """A twin that later moves of either leave be."""
        return _Descent(self.basis, self.m, self.budget, self.moves, self.gram)

    def apply(self, i, j, s):
        gj = self.gram[j]
        # |f_i|^2 grows by 2s f_i.f_j + |f_j|^2, and |dep|^2 by -2s dep.f_j + |f_j|^2
        self.trace += 2 * gj[j] + 2 * s * (gj[i] + sum(gj))
        _add_row(i, j, s, self.basis, self.gram)
        _add_col(i, j, s, self.gram)
        self.moves.append((i, j, s))

    def best_move(self):
        """Most trace-reducing (i, j, s), ties to the lowest index triple."""
        r = len(self.basis)
        best = None
        best_delta = 0
        for j in range(r):
            gj = self.gram[j]
            njj = gj[j]
            dep_j = -sum(gj)
            for i in range(r):
                if i == j:
                    continue
                fij = gj[i]
                for s in (1, -1):
                    self.budget.spend()
                    delta = 2 * njj + 2 * s * (fij - dep_j)
                    if delta < best_delta:
                        best_delta = delta
                        best = (i, j, s)
        return best

    def descend(self, floor_trace):
        while self.trace > floor_trace:
            move = self.best_move()
            if move is None:
                break
            self.apply(*move)

    def shake(self, rng, count):
        r = len(self.basis)
        for _ in range(count):
            i = rng.randrange(r)
            j = rng.randrange(r - 1)
            if j >= i:
                j += 1
            self.apply(i, j, rng.choice((1, -1)))

    def snapshot(self, witness, budget_exhausted=False):
        # the Gram is bordered by the dependent row's products
        gram = border_first(IntMatrix.from_rows(self.gram, cols=len(self.basis)))
        return SuperbaseState(
            f_hat=_superbase(self.basis, self.m), gram=gram, trace=self.trace,
            move_log=tuple(self.moves), basis_witness=witness,
            budget_exhausted=budget_exhausted)


def _short_cycle_basis(g, forest):
    """Flow-lattice basis assembled from shortest circuits, as rows; None when
    the greedy pick comes up short.

    Circuits independent over GF(2) have nonsingular coordinates on the
    flow matrix of `forest`, read by `_flow_coordinates`, but may still span
    a proper sublattice; the rows are kept exactly when those r x r
    coordinates have determinant +-1.

    Planar graphs have minimal superbases made of face boundaries, so starting
    the descent from short circuits instead of long fundamental ones usually
    begins almost on the floor.
    """
    r = len(forest.cotree_edges)
    # over every edge, the breadth-first walk closes a shortest circuit
    adj = adjacency(g, range(g.num_edges))
    candidates = []
    for e in range(g.num_edges):
        vec = circuit_through(g, e, adj)
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
    return chosen if det_bareiss(_flow_coordinates(g, forest, chosen)) in (1, -1) else None


def superbase_trace_minimize(g: MultiGraph, budget=10**6, seed=0) -> SuperbaseState:
    """Seeded basin-hopping descent on the superbase Gram trace.

    Hop 0 descends greedily from the fundamental basis and hop 1 from the
    short-cycle basis; afterwards the best state is repeatedly shaken by a
    few random moves and re-descended, accepting any state that does not
    increase the trace (plateau drift is what escapes the shallow local
    minima).  Every 64th hop restarts from a shuffled greedy forest.  The
    trace can never go below twice the count of non-isthmus edges, so the
    search stops as soon as it gets there or after MAX_HOPS hops.  Budget
    exhaustion returns the lowest state reached, the running descent
    included, flagged.  Each candidate move scanned spends one unit of
    `budget`.
    """
    forest = maximal_forest(g)
    f_start = flow_matrix(g, forest)
    # the floor counts the edges that are not isthmuses; an isthmus lies on no
    # fundamental circuit, so it is a zero column of the flow matrix, and a
    # loop is a circuit of its own
    floor_trace = 2 * len(f_start.nonzero_columns())
    rng = random.Random(seed)
    counter = SearchBudget(budget)

    # a greedy descent never raises its trace, so hop 0 starts as the best;
    # a finished descent is never moved again, so it is kept without a copy
    best = descent = _Descent(f_start.data, f_start.cols, counter)
    exhausted = False
    try:
        for hop in range(MAX_HOPS + 1):
            if hop == 1:
                short = _short_cycle_basis(g, forest)
                if short is None:
                    continue
                descent = _Descent(short, f_start.cols, counter, [("short-basis",)])
            elif hop and hop % 64 == 0:
                order = list(range(g.num_edges))
                rng.shuffle(order)
                alt = greedy_forest(g, order)
                descent = _Descent(flow_matrix(g, alt).data, f_start.cols, counter,
                                   [("forest",) + tuple(alt.forest_edges)])
            elif hop:
                descent = best.copy()
                descent.shake(rng, 2 + rng.randrange(6))
            descent.descend(floor_trace)
            if descent.trace <= best.trace:
                best = descent
            if best.trace <= floor_trace:
                break
    except BudgetExceeded:
        # spend raises before a move is applied, so the running state is whole
        exhausted = True
        if descent.trace < best.trace:
            best = descent
    w = _flow_coordinates(g, forest, best.basis)
    if w is None:
        raise AssertionError("a descent row left the flow lattice")
    return best.snapshot(UnimodularWitness(w), budget_exhausted=exhausted)
