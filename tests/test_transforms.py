"""The transforms an elimination builds, checked here instead of at run time.

A transform built from the elementary row and column operations, starting
from an identity, is unimodular by construction, so the library hands it back
as a plain IntMatrix and checks a determinant only where a witness leaves it.
These tests check on seeded inputs that every such transform has determinant
+-1 and replays: the Hermite transforms, the Smith transforms, the length
reduction, the reduced core of a semidefinite side and the block reduction of
a Laplacian."""

import random

from lapdual import IntMatrix, det_bareiss, hermite_normal_form, inertia, smith_normal_form
from lapdual.congruence import _reduced_core, block_reduction_witness, gram_length_reduce
from lapdual.intmatrix import _smith_elimination, inverse_unimodular
from lapdual.laplacians import laplacian, reduced_laplacian

from conftest import random_multigraph, random_unimodular


def _random_matrix(rng, rows, cols, spread=6):
    return IntMatrix.from_rows([[rng.randint(-spread, spread) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


def _gram(rng, n, rank):
    """A positive semidefinite n x n Gram matrix of rank at most `rank`."""
    rows = _random_matrix(rng, n, rank, spread=3)
    return rows.mul(rows.transpose())


def _matrices(seed, count=150):
    """Seeded matrices of every shape up to 5 x 5, zero rows and columns and
    rank-deficient products included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = _random_matrix(rng, r, c)
        if r and c and rng.random() < 0.3:
            k = rng.randint(1, min(r, c))
            a = _random_matrix(rng, r, k).mul(_random_matrix(rng, k, c))
        out.append(a)
    return out


def _diagonal_embedding(diag, rows, cols):
    return IntMatrix.from_rows([[diag[i] if i == j and i < len(diag) else 0
                                 for j in range(cols)] for i in range(rows)], cols=cols)


def _block(core, n):
    """diag(core, 0) of size n."""
    k = core.rows
    return IntMatrix.from_rows([[core.data[i][j] if i < k and j < k else 0
                                 for j in range(n)] for i in range(n)], cols=n)


def test_hermite_transforms_are_unimodular_and_replay():
    for a in _matrices(20):
        h, u = hermite_normal_form(a)
        assert isinstance(u, IntMatrix) and (u.rows, u.cols) == (a.rows, a.rows)
        assert det_bareiss(u) in (1, -1)
        assert u.mul(a) == h


def test_inverse_is_unimodular_and_inverts():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(0, 6)
        v = random_unimodular(rng, n, steps=rng.randint(0, 20))
        inv = inverse_unimodular(v)
        assert det_bareiss(inv) in (1, -1)
        assert inv.mul(v) == IntMatrix.identity(n) == v.mul(inv)


def test_smith_transforms_are_unimodular_and_replay():
    for a in _matrices(22):
        left = IntMatrix.identity(a.rows).to_lists()
        right_t = IntMatrix.identity(a.cols).to_lists()
        diag = _smith_elimination(a, [left], [right_t])
        left = IntMatrix.from_rows(left, cols=a.rows)
        right = IntMatrix.from_rows(right_t, cols=a.cols).transpose()
        assert det_bareiss(left) in (1, -1) and det_bareiss(right) in (1, -1)
        assert left.mul(a).mul(right) == _diagonal_embedding(diag, a.rows, a.cols)
        # handed no transforms, the loop reads the same diagonal; smith_normal_form
        # checks the same transforms at the boundary
        assert _smith_elimination(a) == diag
        snf = smith_normal_form(a)
        assert (snf.diag, snf.left.u, snf.right.u) == (diag, left, right)


def test_length_reduction_transforms_are_unimodular_and_replay():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(0, 5)
        a = _gram(rng, n, rng.randint(0, n))
        if rng.random() < 0.5:
            v = random_unimodular(rng, n, steps=10)
            a = v.mul(a).mul(v.transpose())
        reduced, u = gram_length_reduce(a)
        assert isinstance(u, IntMatrix)
        assert det_bareiss(u) in (1, -1)
        assert u.mul(a).mul(u.transpose()) == reduced


def test_reduced_core_is_unimodular_and_splits_off_the_kernel():
    rng = random.Random(24)
    sides = [_gram(rng, n, rng.randint(0, n)) for n in range(0, 6) for _ in range(15)]
    for _ in range(30):
        g = random_multigraph(rng, max_n=6, max_m=9)
        sides += [laplacian(g), reduced_laplacian(g)]
    for a in sides:
        t, core = _reduced_core(a)
        assert det_bareiss(t) in (1, -1)
        assert t.mul(a).mul(t.transpose()) == _block(core, a.rows)
        # the core is positive definite and its size is the rank of a
        assert inertia(core) == (core.rows, 0, 0) == (a.rows - inertia(a)[2], 0, 0)


def test_block_reduction_witness_is_unimodular_and_splits_off_the_kernel():
    rng = random.Random(25)
    for _ in range(60):
        g = random_multigraph(rng, max_n=7, max_m=9)
        p = block_reduction_witness(g)
        assert isinstance(p, IntMatrix)
        assert det_bareiss(p) in (1, -1)
        assert p.mul(laplacian(g)).mul(p.transpose()) == _block(reduced_laplacian(g),
                                                                 g.num_vertices)
