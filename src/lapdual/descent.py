"""The paper's trace descent: a superbase of the flow lattice stepped toward
the least Gram trace.

A superbase is a lattice basis f_1..f_r together with the dependent row
f_0 = -(f_1 + ... + f_r) (Conway and Sloane, "Low-dimensional lattices VI",
1992).  Its trace |f_0|^2 + ... + |f_r|^2 never falls below twice the
number of non-isthmus edges, and reaches that floor exactly when the graph
is planar, on a superbase of face boundaries.  `superbase_trace_minimize`
descends on the trace by basis moves f_i += s * f_j.  `decide_planarity`
reaches that superbase by an embedding instead, so this layer is loaded
only by callers of the descent; the tests cross-check the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .congruence import strict_row_equivalence
from .errors import BudgetExceeded
from .graphs import (ForestCertificate, MultiGraph, Orientation, SearchBudget,
                     adjacency, circuit_through, classify_edges, greedy_forest,
                     maximal_forest)
from .intmatrix import IntMatrix, UnimodularWitness
from .laplacians import ReductionSpec, flow_matrix

MAX_HOPS = 20000  # basin hops of superbase_trace_minimize after the first descent


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
    """Greedy trace descent over basis moves row_i += s * row_j.

    The Gram of the basis rows is exact state, so a move updates one of its
    rows and columns and the scan reads entries.  The dependent row's
    products are minus the Gram's column sums: dep . f_j = -sum_k f_k . f_j,
    and dep . dep is the sum of every entry."""

    def __init__(self, basis_rows, witness_rows, num_columns, budget: SearchBudget,
                 moves=(), gram=None):
        self.basis = [list(r) for r in basis_rows]
        self.witness = [list(r) for r in witness_rows]
        self.budget = budget
        self.moves = list(moves)
        self.m = num_columns
        if gram is None:
            gram = [[_dot(u, v) for v in self.basis] for u in self.basis]
        self.gram = [list(r) for r in gram]
        self.trace = sum(r[k] for k, r in enumerate(self.gram)) + sum(map(sum, self.gram))

    def copy(self):
        """A twin that later moves of either leave be."""
        return _Descent(self.basis, self.witness, self.m, self.budget, self.moves, self.gram)

    def apply(self, i, j, s):
        gram, gj = self.gram, self.gram[j]
        # |f_i|^2 grows by 2s f_i.f_j + |f_j|^2, and |dep|^2 by -2s dep.f_j + |f_j|^2
        self.trace += 2 * gj[j] + 2 * s * (gj[i] + sum(gj))
        self.basis[i] = [a + s * b for a, b in zip(self.basis[i], self.basis[j])]
        self.witness[i] = [a + s * b for a, b in zip(self.witness[i], self.witness[j])]
        row = [a + s * b for a, b in zip(gram[i], gj)]
        row[i] = gram[i][i] + 2 * s * gj[i] + gj[j]
        gram[i] = row
        for k, x in enumerate(row):
            gram[k][i] = x
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
        if r < 2:
            return
        for _ in range(count):
            i = rng.randrange(r)
            j = rng.randrange(r - 1)
            if j >= i:
                j += 1
            self.apply(i, j, rng.choice((1, -1)))

    def snapshot(self, budget_exhausted=False):
        dep = [-sum(r[j] for r in self.basis) for j in range(self.m)]
        f_hat = IntMatrix.from_rows([dep] + self.basis, cols=self.m)
        # bordered by the dependent row's products
        minus_sums = [-sum(r) for r in self.gram]
        gram = IntMatrix.from_rows(
            [[-sum(minus_sums)] + minus_sums]
            + [[d] + r for d, r in zip(minus_sums, self.gram)], cols=len(self.basis) + 1)
        return SuperbaseState(
            f_hat=f_hat, gram=gram, trace=self.trace, move_log=tuple(self.moves),
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
                             budget=10**6, seed=0) -> SuperbaseState:
    """Seeded basin-hopping descent on the superbase Gram trace.

    Greedy descent first; afterwards the best state is repeatedly shaken by a
    few random moves and re-descended, accepting any state that does not
    increase the trace (plateau drift is what escapes the shallow local
    minima).  Occasional hops restart from a different maximal forest.  The
    trace can never go below twice the count of non-isthmus edges, so the
    search stops as soon as it gets there or after MAX_HOPS hops; budget
    exhaustion returns the best state found, flagged.  Each candidate move
    scanned spends one unit of `budget`.
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
    # a finished descent is never moved again, so it is kept without a copy
    best = descent.copy()
    exhausted = False
    try:
        descent.descend(floor_trace)
        if descent.trace <= best.trace:
            best = descent
        for hop in range(MAX_HOPS):
            if best.trace <= floor_trace or r < 2:
                break
            if hop == 0:
                short = _short_cycle_basis(g, o, f_start)
                if short is None:
                    continue
                basis_m, u = short
                descent = _Descent(basis_m.data, u.u.data, f_start.cols, counter,
                                   [("short-basis",)])
            elif hop % 64 == 63 and g.num_edges:
                alt = _random_forest(g, rng)
                f_alt = flow_matrix(g, o, alt, spec)
                u = strict_row_equivalence(f_start, f_alt)
                descent = _Descent(f_alt.data, u.u.data, f_start.cols, counter,
                                   [("forest",) + tuple(alt.forest_edges)])
            else:
                descent = best.copy()
                descent.shake(rng, 2 + rng.randrange(6))
            descent.descend(floor_trace)
            if descent.trace <= best.trace:
                best = descent
    except BudgetExceeded:
        exhausted = True
    return best.snapshot(budget_exhausted=exhausted)
