import random

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from lapdual import (IntMatrix, NotSquare, NotSymmetric, NotUnimodular,
                     ShapeMismatch, UnimodularWitness, det_bareiss, hermite_normal_form,
                     hnf_nonzero_part, inertia, inverse_unimodular,
                     permute_vertices, rank, smith_normal_form)
from lapdual.laplacians import flow_gram, incidence, laplacian, reduced_laplacian

from conftest import (complete_graph, det_cofactor, grid_graph, random_unimodular,
                      wall_clock_guard)
from oracles import count_maximal_forests, dense_mul


def test_det_identity():
    assert det_bareiss(IntMatrix.identity(3)) == 1
    assert det_bareiss(IntMatrix.identity(0)) == 1


def test_det_reduced_laplacian_k3_counts_trees(k3):
    red = reduced_laplacian(k3)
    assert red.data == ((2, -1), (-1, 2))
    # oracle: the spanning trees of K3, counted by enumeration
    assert det_bareiss(red) == count_maximal_forests(k3) == 3


def test_det_flow_gram_example1_counts_forests(example1):
    gram = flow_gram(example1)
    assert gram.data == ((2, 1), (1, 2))
    assert det_bareiss(gram) == count_maximal_forests(example1) == 3


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(IntMatrix.from_rows(rows, cols=n)) == det_cofactor(rows)
    # sparse rows: some have one nonzero entry, or come to one as the rows
    # expanded along them drop out, and some are zero
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.choice([-2, -1, 1, 3]) if rng.random() < 0.3 else 0 for _ in range(n)]
                for _ in range(n)]
        assert det_bareiss(IntMatrix.from_rows(rows, cols=n)) == det_cofactor(rows)


def test_product_matches_the_dense_definition():
    # the product adds scaled rows over nonzero entries only; it must equal
    # the full row-by-column sums on sparse and dense inputs with negative
    # entries, zero rows and columns, and shapes with no rows or columns
    rng = random.Random(40)

    def draw(rows, cols, density):
        m = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rows and cols and rng.random() < 0.5:
            m[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        return IntMatrix.from_rows(m, cols=cols)

    for _ in range(400):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        density = rng.random()
        a, b = draw(n, k, density), draw(k, m, density)
        assert a.mul(b) == dense_mul(a, b), (a, b)
    assert IntMatrix.zeros(3, 0).mul(IntMatrix.zeros(0, 2)) == IntMatrix.zeros(3, 2)
    for a, b in ((IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3)),
                 (IntMatrix.zeros(0, 1), IntMatrix.zeros(0, 1))):
        with pytest.raises(ShapeMismatch):
            a.mul(b)


def test_det_requires_square():
    with pytest.raises(NotSquare):
        det_bareiss(IntMatrix.zeros(2, 3))


def test_hnf_zero_matrix():
    z = IntMatrix.zeros(3, 2)
    h, u = hermite_normal_form(z)
    assert h == z
    assert u == IntMatrix.identity(3)


def test_hnf_golden_2x2():
    a = IntMatrix.from_rows([[2, 4], [1, 1]])
    h, u = hermite_normal_form(a)
    assert h.data == ((1, 1), (0, 2))
    assert u.mul(a) == h
    assert det_bareiss(u) in (1, -1)


def test_hnf_canonical_under_unimodular_row_action():
    rng = random.Random(11)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)],
                                cols=c)
        v = random_unimodular(rng, r)
        assert hnf_nonzero_part(a) == hnf_nonzero_part(v.mul(a))
        h, u = hermite_normal_form(a)
        assert u.mul(a) == h


def test_hnf_shape_canonical():
    rng = random.Random(13)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)],
                                cols=c)
        h, _ = hermite_normal_form(a)
        pivots = []
        for i in range(h.rows):
            row = h.data[i]
            nz = [j for j in range(c) if row[j]]
            if not nz:
                # zero rows collected at the bottom
                assert all(not any(h.data[k]) for k in range(i, h.rows))
                break
            pivots.append(nz[0])
            assert row[nz[0]] > 0
            for k in range(i):
                assert 0 <= h.data[k][nz[0]] < row[nz[0]]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


def test_snf_identity():
    res = smith_normal_form(IntMatrix.identity(4))
    assert res.diag == (1, 1, 1, 1)


def test_snf_reduced_laplacian_k3(k3):
    res = smith_normal_form(reduced_laplacian(k3))
    assert res.diag == (1, 3)


def test_snf_minors_gcd_oracle(k3):
    # d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    from math import gcd
    red = reduced_laplacian(k3)
    entries = [x for row in red.data for x in row]
    d1 = 0
    for x in entries:
        d1 = gcd(d1, x)
    assert smith_normal_form(red).diag[0] == d1 == 1
    assert smith_normal_form(red).diag[1] == det_bareiss(red) // d1 == 3


def _snf_inputs():
    """Seeded small matrices, the relabelled 6x6 and 7x7 grid Laplacians, dense
    12x12 and 15x15 matrices, divisibility cases and empty and singular shapes."""
    rng = random.Random(23)
    out = []
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        out.append(IntMatrix.from_rows([[rng.randint(-7, 7) for _ in range(c)]
                                        for _ in range(r)], cols=c))
    for k in (6, 7):
        for s in range(8):
            perm = list(range(k * k))
            random.Random(s).shuffle(perm)
            out.append(reduced_laplacian(permute_vertices(grid_graph(k, k), perm)))
    for n in (12, 15):
        for s in range(2):
            dense = random.Random(s)
            out.append(IntMatrix.from_rows([[dense.randint(-9, 9) for _ in range(n)]
                                            for _ in range(n)], cols=n))
    out += [IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.from_rows([[4, 0], [0, 6]]),
            IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), laplacian(grid_graph(3, 3))]
    return out


def test_snf_transform_replay_and_sympy_agreement():
    with wall_clock_guard(60):
        results = [(a, smith_normal_form(a)) for a in _snf_inputs()]
    # diagonal entries that do not divide one another
    chains = {((2, 0), (0, 3)): (1, 6), ((4, 0), (0, 6)): (2, 12)}
    for a, res in results:
        r, c = a.rows, a.cols
        product = res.left.u.mul(a).mul(res.right.u)
        for i in range(r):
            for j in range(c):
                expected = res.diag[i] if i == j and i < len(res.diag) else 0
                assert product.data[i][j] == expected
        for i in range(len(res.diag) - 1):
            if res.diag[i + 1] != 0 or res.diag[i] != 0:
                assert res.diag[i + 1] % max(res.diag[i], 1) == 0 or res.diag[i] == 0
        if r and c:
            oracle = sympy_snf(Matrix(a.to_lists()), domain=ZZ)
            oracle_diag = tuple(abs(oracle[i, i]) for i in range(min(r, c)))
        else:
            oracle_diag = ()
        assert res.diag == oracle_diag
        assert chains.get(a.data, res.diag) == res.diag


def test_snf_congruence_invariance():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
        am = IntMatrix.from_rows(a, cols=n)
        u = random_unimodular(rng, n)
        conj = u.mul(am).mul(u.transpose())
        assert smith_normal_form(am).diag == smith_normal_form(conj).diag
        assert det_bareiss(am) == det_bareiss(conj)


def test_inverse_unimodular_goldens(example2):
    assert inverse_unimodular(IntMatrix.from_rows([[-1]])) == IntMatrix.from_rows([[-1]])
    assert inverse_unimodular(IntMatrix.identity(3)) == IntMatrix.identity(3)
    # the reduced forest incidence of example2 is unimodular; check the product
    from lapdual import maximal_forest
    f = maximal_forest(example2)
    kept = [v for v in range(example2.num_vertices) if v != 2]
    block = incidence(example2).submatrix(kept, f.forest_edges)
    inv = inverse_unimodular(block)
    assert inv.mul(block) == IntMatrix.identity(6)
    assert block.mul(inv) == IntMatrix.identity(6)


def test_inverse_unimodular_rejects():
    with pytest.raises(NotUnimodular):
        inverse_unimodular(IntMatrix.from_rows([[2]]))
    with pytest.raises(NotSquare):
        inverse_unimodular(IntMatrix.zeros(1, 2))


def test_unimodular_witness_validates():
    with pytest.raises(NotUnimodular):
        UnimodularWitness(IntMatrix.from_rows([[2, 0], [0, 1]]))


def _inertia_oracle(rows):
    """Descartes sign-variation count on the characteristic polynomial; exact
    because symmetric integer matrices have real spectra."""
    coeffs = Matrix(rows).charpoly().all_coeffs()
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    n_pos = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    n = len(rows)
    return (n_pos, n - n_zero - n_pos, n_zero)


def test_inertia_goldens(k3, example2):
    from lapdual.laplacians import laplacian, superbase_matrix
    assert inertia(laplacian(k3)) == (2, 0, 1)
    assert inertia(IntMatrix.zeros(1, 1)) == (0, 0, 1)
    hat = superbase_matrix(example2)
    assert inertia(hat.mul(hat.transpose())) == (3, 0, 1)


def test_inertia_matches_charpoly_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        assert inertia(IntMatrix.from_rows(a, cols=n)) == _inertia_oracle(a)


def test_inertia_requires_symmetric():
    with pytest.raises(NotSymmetric):
        inertia(IntMatrix.from_rows([[0, 1], [0, 0]]))


def test_rank_via_hnf():
    assert rank(IntMatrix.zeros(3, 3)) == 0
    assert rank(IntMatrix.identity(3)) == 3
    g = complete_graph(4)
    from lapdual.laplacians import laplacian
    assert rank(laplacian(g)) == 3
    # rank reads the kernel of A A^T; the HNF's nonzero rows count it directly
    rng = random.Random(17)
    for _ in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = IntMatrix.from_rows([[rng.choice((0, 0, -2, -1, 1, 2)) for _ in range(cols)]
                                 for _ in range(rows)], cols=cols)
        assert rank(a) == hnf_nonzero_part(a).rows, a


def test_bignum_safety():
    # entries grow far beyond machine words without losing exactness
    a = IntMatrix.from_rows([[10**40, 1], [1, 10**40]])
    assert det_bareiss(a) == 10**80 - 1
    res = smith_normal_form(a)
    assert res.left.u.mul(a).mul(res.right.u).data[1][1] == res.diag[1]
