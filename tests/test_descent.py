"""The superbase trace descent, pinned state for state: each digest in
golden/descent_states.json is the sha256 of `dumps` of a
`superbase_trace_minimize` result, written before the descent kept its Gram
as state, so a change to the spend, the move order or the tie-breaking shows."""

import hashlib
import json
import pathlib

import networkx as nx

from lapdual import descent, intmatrix, strict_row_equivalence, superbase_trace_minimize
from lapdual.laplacians import flow_matrix
from lapdual.serialization import dumps

from conftest import complete_graph, grid_graph

GOLDEN = pathlib.Path(__file__).parent / "golden" / "descent_states.json"


def _digest(state):
    return hashlib.sha256(dumps(state).encode()).hexdigest()


def _key(g):
    return f"{g.num_vertices}:" + ",".join(f"{u}-{v}" for u, v in g.edges)


def descent_digests(catalog6, example3, k5):
    """The digests of the 129 planar catalog graphs at budget 2e6, example3
    at seeds 0-2 and K5 cut off at budget 500."""
    planar = [g for g in catalog6
              if nx.check_planarity(nx.Graph(list(g.edges)))[0]]
    assert len(planar) == 129
    out = {"planar_corpus": {_key(g): _digest(superbase_trace_minimize(
        g, budget=2 * 10**6, seed=0)) for g in planar}}
    out["example3"] = [_digest(superbase_trace_minimize(example3, budget=10**6, seed=seed))
                       for seed in range(3)]
    out["k5_budget_500"] = _digest(superbase_trace_minimize(k5, budget=500, seed=0))
    return out


def test_descent_states_match_golden(catalog6, example3, k5):
    assert descent_digests(catalog6, example3, k5) == json.loads(GOLDEN.read_text())


def test_descent_takes_one_determinant(petersen, monkeypatch):
    # the short-basis and forest hops build no transform, and the short
    # basis is tested by the descent's own determinant, which this counter
    # does not see; only the returned state's basis witness, read off its
    # cotree columns, is checked
    det = intmatrix.det_bareiss
    calls = []

    def counted(a):
        calls.append(a.rows)
        return det(a)

    monkeypatch.setattr(intmatrix, "det_bareiss", counted)
    for g in (petersen, complete_graph(6), complete_graph(7)):
        calls.clear()
        state = superbase_trace_minimize(g, budget=10**5)
        assert calls == [state.basis_witness.u.rows], g.name
        basis = state.f_hat.submatrix(range(1, state.f_hat.rows), range(state.f_hat.cols))
        assert state.basis_witness == strict_row_equivalence(flow_matrix(g), basis), g.name


def test_descent_returns_the_lowest_trace_it_reached(k5, petersen, monkeypatch):
    # every state a descent enters, shakes included, is recorded; the budget
    # ends the 12x12 grid's first descent at 10^5 and 10^6, and the running
    # descent's trace is the lowest there
    reached = []
    init, apply = descent._Descent.__init__, descent._Descent.apply

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        reached.append(self.trace)

    def recorded_apply(self, *move):
        apply(self, *move)
        reached.append(self.trace)

    monkeypatch.setattr(descent._Descent, "__init__", recorded_init)
    monkeypatch.setattr(descent._Descent, "apply", recorded_apply)
    for g in (k5, petersen, grid_graph(12, 12)):
        for budget in (10**3, 10**4, 10**5, 10**6):
            reached.clear()
            state = superbase_trace_minimize(g, budget=budget)
            assert state.trace <= min(reached), (g.num_vertices, budget)
