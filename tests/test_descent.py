"""The superbase trace descent, pinned state for state: each digest in
golden/descent_states.json is the sha256 of `dumps` of a
`superbase_trace_minimize` result, written before the descent kept its Gram
as state, so a change to the spend, the move order or the tie-breaking shows."""

import hashlib
import json
import pathlib

import networkx as nx

from lapdual import superbase_trace_minimize
from lapdual.serialization import dumps

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
