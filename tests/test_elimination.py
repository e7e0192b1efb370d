"""The eliminations, pinned byte for byte: each digest in
golden/elimination_digests.json is the sha256 of `dumps` of one seeded
result, and each inertia triple is kept as it is.  The file was written
before the eliminations shared one set of row and column operations.
Replaying a witness only shows that it is a witness; these show that the
pivots, the visiting order and the arithmetic did not change.  The "snf"
list was written again when the Smith form became alternating Hermite
passes, which changed its witnesses but not its diagonals; the other lists
are as first written, so the Hermite loop kept every operation."""

import hashlib
import json
import pathlib
import random

from lapdual import (IntMatrix, decide_congruence, hermite_normal_form, inertia,
                     smith_normal_form)
from lapdual.congruence import gram_length_reduce
from lapdual.laplacians import laplacian, reduced_laplacian
from lapdual.serialization import dumps

from conftest import random_connected_multigraph, random_unimodular

GOLDEN = pathlib.Path(__file__).parent / "golden" / "elimination_digests.json"


def _digest(value):
    return hashlib.sha256(dumps(value).encode()).hexdigest()


def _random_matrix(rng, rows, cols, spread=9):
    return IntMatrix.from_rows([[rng.randint(-spread, spread) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


def _congruent_to(rng, a, steps):
    u = random_unimodular(rng, a.rows, steps=steps)
    return u.mul(a).mul(u.transpose())


def _indefinite_diagonal(rng, n):
    entries = [rng.choice((1, 2, 3)) * (1 if k % 2 == 0 else -1) for k in range(n)]
    rng.shuffle(entries)
    return IntMatrix.from_rows([[entries[i] if i == j else 0 for j in range(n)]
                                for i in range(n)], cols=n)


def elimination_digests():
    """Digests of seeded HNF (h, u), SNF, inertia, gram_length_reduce and
    decide_congruence results."""
    rng = random.Random(15)
    shapes = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(40)]
    out = {
        "hnf": [_digest(hermite_normal_form(_random_matrix(rng, r, c))) for r, c in shapes],
        "snf": [_digest(smith_normal_form(_random_matrix(rng, r, c))) for r, c in shapes],
    }
    graphs = []
    while len(graphs) < 24:
        g = random_connected_multigraph(rng, max_n=6, max_m=10)
        if g.num_vertices >= 3:
            graphs.append(g)
    reduced = [reduced_laplacian(g) for g in graphs]
    # symmetric matrices with zero diagonals exercise inertia's coupling step
    symmetric = []
    for n in range(1, 6):
        for _ in range(4):
            m = _random_matrix(rng, n, n, spread=3).data
            symmetric.append(IntMatrix.from_rows(
                [[0 if i == j and rng.random() < 0.7 else m[min(i, j)][max(i, j)]
                  for j in range(n)] for i in range(n)], cols=n))
    out["inertia"] = [list(inertia(a)) for a in symmetric + reduced]
    out["gram_length_reduce"] = [_digest(gram_length_reduce(_congruent_to(rng, a, 10)))
                                 for a in reduced]
    congruence = {}
    # reduced and full Laplacians against a random congruent image, and
    # against the Laplacian of another graph of the same order
    for g, r in zip(graphs, reduced):
        h = random_connected_multigraph(rng, max_n=6, max_m=10)
        while h.num_vertices != g.num_vertices:
            h = random_connected_multigraph(rng, max_n=6, max_m=10)
        for name, a, c in (("reduced", r, reduced_laplacian(h)),
                           ("full", laplacian(g), laplacian(h))):
            congruence.setdefault(name, []).append(_digest(
                decide_congruence(a, _congruent_to(rng, a, 12))))
            congruence.setdefault(name + "_other", []).append(_digest(
                decide_congruence(a, c)))
    # indefinite pairs go to the move search; one of them runs out of budget
    congruence["indefinite"] = []
    for _ in range(40):
        a = _indefinite_diagonal(rng, rng.choice((2, 3, 4)))
        congruence["indefinite"].append(_digest(decide_congruence(
            a, _congruent_to(rng, a, rng.randint(2, 8)), budget=2 * 10**4)))
    # budget-starved definite pairs stop at unknown, unless the image is the
    # matrix itself
    congruence["starved"] = [_digest(decide_congruence(a, _congruent_to(rng, a, 12), budget=4))
                             for a in reduced[:8]]
    out["decide_congruence"] = congruence
    return out


def test_elimination_digests_match_golden():
    assert elimination_digests() == json.loads(GOLDEN.read_text())
