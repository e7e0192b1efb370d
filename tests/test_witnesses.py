"""The congruence witnesses that no other golden pins, byte for byte.

golden/congruence_witnesses.json holds the sha256 of `dumps` of
- the unreduced proposition's `laplacian_congruence` verdict of
  `property_x_report`, which nothing serializes, on seeded relabelled,
  re-glued and independent multigraph pairs with 4 to 8 vertices, and on
  pairs with several components;
- `decide_congruence` on seeded negative semidefinite and rank-deficient
  Gram matrices, each against a congruent image and against an unrelated
  Gram matrix of the same rank and sign.

The file was written before the witness lift was shared by the definite
path, the unreduced proposition and the move search."""

import hashlib
import json
import pathlib
import random

from lapdual import IntMatrix, MultiGraph, decide_congruence, property_x_report
from lapdual.serialization import dumps

from conftest import random_unimodular

GOLDEN = pathlib.Path(__file__).parent / "golden" / "congruence_witnesses.json"


def _digest(value):
    return hashlib.sha256(dumps(value).encode()).hexdigest()


def _relabel(rng, n, edges):
    """A random vertex permutation and a random edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return MultiGraph.from_edges(n, out)


def _connected_edges(rng, n, m):
    """A loopless connected multigraph on 0..n-1: a random spanning tree,
    then random extra edges up to m, parallel ones allowed."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    while len(edges) < m:
        edges.append(tuple(rng.sample(range(n), 2)))
    return edges


def _glued_pair(rng, n, m):
    """Two blocks sharing one vertex, glued at two different pairs of
    vertices: 2-isomorphic by Whitney's vertex identification."""
    n1 = rng.randrange(2, n)
    n2 = n + 1 - n1
    m1 = rng.randint(n1 - 1, m - (n2 - 1))
    b1 = _connected_edges(rng, n1, m1)
    b2 = _connected_edges(rng, n2, m - m1)

    def glue(a, b):
        label = {w: (a if w == b else n1 + w - (w > b)) for w in range(n2)}
        return b1 + [(label[u], label[v]) for u, v in b2]

    return (glue(rng.randrange(n1), rng.randrange(n2)),
            glue(rng.randrange(n1), rng.randrange(n2)))


def _pieces(rng, sizes):
    """Disjoint connected pieces of the given sizes, one extra edge in each
    piece with two or more vertices."""
    edges, start = [], 0
    for k in sizes:
        extra = 1 if k > 1 else 0
        edges += [(start + u, start + v) for u, v in _connected_edges(rng, k, k - 1 + extra)]
        start += k
    return edges


def _graph_pairs():
    rng = random.Random(19)
    pairs = []
    for n in range(4, 9):
        for m in (n + 1, 2 * n - 1):
            edges = _connected_edges(rng, n, m)
            first, second = _glued_pair(rng, n, m)
            other = _connected_edges(rng, n, m)
            pairs.append((_relabel(rng, n, edges), _relabel(rng, n, edges)))
            pairs.append((_relabel(rng, n, first), _relabel(rng, n, second)))
            pairs.append((_relabel(rng, n, edges), _relabel(rng, n, other)))
    for sizes in ((2, 3), (3, 3), (1, 4), (2, 2, 3), (1, 1, 4), (4, 4)):
        n = sum(sizes)
        edges = _pieces(rng, sizes)
        pairs.append((_relabel(rng, n, edges), _relabel(rng, n, edges)))
        pairs.append((_relabel(rng, n, edges), _relabel(rng, n, _pieces(rng, sizes))))
    return pairs


def _gram(rng, n, r, sign):
    """sign * M M^T for a random n x r integer matrix M: semidefinite, of
    rank at most r."""
    m = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
    return IntMatrix.from_rows([[sign * sum(x * y for x, y in zip(p, q)) for q in m]
                                for p in m], cols=n)


def witness_digests():
    unreduced = [_digest(property_x_report(g1, g2, budget=2 * 10**5)
                         .unreduced_proposition["laplacian_congruence"])
                 for g1, g2 in _graph_pairs()]
    rng = random.Random(20)
    gram = []
    for n in range(1, 6):
        for r in range(n + 1):
            for sign in (-1, 1) * 2:
                if sign == 1 and r == n:
                    continue  # definite positive pairs are pinned elsewhere
                a = _gram(rng, n, r, sign)
                u = random_unimodular(rng, n, steps=10)
                b = u.mul(a).mul(u.transpose())
                gram.append(_digest(decide_congruence(a, b, budget=10**5)))
                gram.append(_digest(decide_congruence(a, _gram(rng, n, r, sign),
                                                      budget=10**5)))
    return {"unreduced_laplacian_congruence": unreduced, "semidefinite_gram": gram}


def test_witness_digests_match_golden():
    assert witness_digests() == json.loads(GOLDEN.read_text())
