"""Exact-integer matrices, stored dense, with Hermite/Smith normal forms.

A product reads only nonzero entries: row i of a * b adds x times row k of
b, over that row's nonzeros, for each nonzero x at column k of row i of a
(F. G. Gustavson, ACM TOMS 4, 1978).  The flow, incidence and witness
matrices the layers above multiply are mostly zeros, so on them a product
costs about the number of nonzero pairs it meets, not a cubic pass.

Every elimination, here and in the layers above, moves rows and columns
through one set of elementary operations: swap, add a multiple and negate,
for rows and for columns.  Each operation is mirrored on the transform as it
is applied, so no transform is built as a product of elementary matrices.

Each of these operations has determinant +-1, so a transform built from them,
starting from an identity, is unimodular by construction and is handed back
as a plain IntMatrix.  Its determinant is checked once, by
UnimodularWitness, where a witness leaves the library: in a result a caller
receives, and in every witness a JSON reader builds.

Both normal forms run one Hermite loop, `_hermite`.  The Smith form
alternates it on the rows and on the transpose until the matrix is diagonal
(Kannan and Bachem, SIAM J. Comput. 8, 1979).  Where d_i does not divide a
later d_j, column j is added into column i, and the next pass puts
gcd(d_i, d_j) < d_i at i.  A pass only shrinks the leading entries, and a
fix leaves d_0 .. d_(i-1) alone and shrinks d_i, so the loop ends.

Everything here works on arbitrary-precision Python ints; normal-form
intermediates and determinant pivots grow far beyond 64 bits even on small
inputs, so no fixed-width arithmetic is used anywhere.  There are no
rationals anywhere: the symmetric elimination behind ``inertia`` and the
short-vector search is fraction-free.

Rows are built at their final size: from a list, or by a builtin that sizes
its own result, never as ``tuple(<generator>)``.  A generator has no length,
so CPython grows such a tuple from a small one and frees it onto the free
list of its final size; each call then strands one small block until the
next full collection, and a long-lived caller's memory grows with its calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSquare, NotSymmetric, NotUnimodular, ShapeMismatch


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple  # row-major tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged row")

    @staticmethod
    def from_rows(rows, cols=None):
        """Build from an iterable of row iterables; `cols` disambiguates 0-row shapes."""
        data = tuple([tuple([int(x) for x in row]) for row in rows])
        if data:
            width = len(data[0])
        else:
            width = 0 if cols is None else cols
        return IntMatrix(len(data), width, data)

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple([tuple([1 if i == j else 0 for j in range(n)])
                                      for i in range(n)]))

    @staticmethod
    def zeros(rows, cols):
        return IntMatrix(rows, cols, ((0,) * cols,) * rows)

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple([row[j] for row in self.data])

    def transpose(self):
        if not self.rows:
            return IntMatrix(self.cols, 0, ((),) * self.cols)
        return IntMatrix(self.cols, self.rows, tuple(list(zip(*self.data))))

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in other.data]
        data = []
        for row in self.data:
            acc = [0] * other.cols
            for x, nz in zip(row, nonzeros):
                if x:
                    for j, y in nz:
                        acc[j] += x * y
            data.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(data))

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch in add")
        return IntMatrix(self.rows, self.cols,
                         tuple([tuple([a + b for a, b in zip(ra, rb)])
                                for ra, rb in zip(self.data, other.data)]))

    def scale(self, k):
        return IntMatrix(self.rows, self.cols,
                         tuple([tuple([k * a for a in row]) for row in self.data]))

    def submatrix(self, row_indices, col_indices):
        ri = tuple(row_indices)
        ci = tuple(col_indices)
        return IntMatrix(len(ri), len(ci),
                         tuple([tuple([self.data[i][j] for j in ci]) for i in ri]))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ShapeMismatch("vstack col mismatch")
        return IntMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of non-square matrix")
        return sum(self.data[i][i] for i in range(self.rows))

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == self.data[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def nonzero_columns(self):
        return [j for j in range(self.cols) if any(self.data[i][j] for i in range(self.rows))]

    def to_lists(self):
        return [list(row) for row in self.data]


@dataclass(frozen=True)
class UnimodularWitness:
    """A square integer matrix with determinant +-1, checked at construction."""

    u: IntMatrix

    def __post_init__(self):
        if self.u.rows != self.u.cols:
            raise NotUnimodular("witness must be square")
        if det_bareiss(self.u) not in (1, -1):
            raise NotUnimodular("witness determinant is not +-1")


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form d1 | d2 | ... with left*a*right = diagonal embedding."""

    diag: tuple
    left: UnimodularWitness
    right: UnimodularWitness

    def __post_init__(self):
        if len(self.diag) != min(self.left.u.rows, self.right.u.rows):
            raise ValueError("Smith diagonal length must be the smaller dimension")
        if any(d < 0 for d in self.diag):
            raise ValueError("Smith diagonal entries must be nonnegative")
        for d, nxt in zip(self.diag, self.diag[1:]):
            if d == 0 and nxt != 0:
                raise ValueError("zero entries must close the Smith diagonal")
            if d != 0 and nxt % d != 0:
                raise ValueError("Smith diagonal must form a divisibility chain")


# The elementary operations.  Each applies one row or column operation in
# place to every matrix it is passed, given as a list of rows, so a transform
# moves with its matrix.  A row operation rebinds the rows it changes and a
# column operation edits every row, so a matrix that only ever takes row
# operations may share its rows with a copy.  A congruence move on a symmetric
# matrix is a row operation followed by the same column operation.

def _swap_rows(i, j, *ms):
    for m in ms:
        m[i], m[j] = m[j], m[i]


def _add_row(dst, src, k, *ms):
    # row dst += k * row src
    if k == 0:
        return
    for m in ms:
        m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]


def _negate_row(i, *ms):
    for m in ms:
        m[i] = [-a for a in m[i]]


def _swap_cols(i, j, *ms):
    for m in ms:
        for row in m:
            row[i], row[j] = row[j], row[i]


def _add_col(dst, src, k, *ms):
    # column dst += k * column src
    if k == 0:
        return
    for m in ms:
        for row in m:
            row[dst] += k * row[src]


def _negate_col(i, *ms):
    for m in ms:
        for row in m:
            row[i] = -row[i]


def det_bareiss(a: IntMatrix) -> int:
    """Exact determinant: expand along each row left with one nonzero entry,
    then eliminate what is left fraction-free (Bareiss).

    Expanding along a row whose one nonzero entry is at column j leaves that
    entry times the minor without the row and column j, up to sign.  The
    signs of all the expansions come to that of the permutation sending each
    expanded row to its column and the rows left, in order, to the columns
    left.  An identity expands to the end, and so does the witness of a
    planar certificate: past e_0 its rows are the faces' cotree columns, the
    incidence of a spanning tree of the dual less one vertex, and every
    other leaf face's row has one nonzero entry.  Bareiss skips a row whose
    entry in the pivot column is 0 while the pivot equals the previous one,
    where its update is the identity."""
    if a.rows != a.cols:
        raise NotSquare("determinant of non-square matrix")
    n = a.rows
    support = [{j for j, x in enumerate(row) if x} for row in a.data]
    rows_at = [[i for i, row in enumerate(a.data) if row[j]] for j in range(n)]
    sigma = [None] * n  # the column each row goes to
    det = 1
    todo = [i for i in range(n) if len(support[i]) < 2]
    while todo:
        i = todo.pop()
        if not support[i]:
            return 0
        j = sigma[i] = support[i].pop()
        det *= a.data[i][j]
        for r in rows_at[j]:
            if sigma[r] is None:
                support[r].discard(j)
                if len(support[r]) == 1:
                    todo.append(r)
    left = [i for i in range(n) if sigma[i] is None]
    cols = sorted(set(range(n)).difference(sigma))
    m = [[a.data[i][j] for j in cols] for i in left]
    for i, j in zip(left, cols):
        sigma[i] = j
    for i in range(n):
        while sigma[i] != i:  # one transposition per swap
            k = sigma[i]
            sigma[i], sigma[k] = sigma[k], k
            det = -det
    n = len(m)
    prev = 1
    for k in range(n - 1):
        i = next((i for i in range(k, n) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            _swap_rows(k, i, m)
            det = -det
        for i in range(k + 1, n):
            if m[i][k] == 0 and m[k][k] == prev:
                continue  # the update would leave row i as it is
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return det * m[-1][-1] if m else det


def _transposed(m, cols):
    """m's transpose; `cols` sizes it when m has no rows."""
    return list(map(list, zip(*m))) if m else [[] for _ in range(cols)]


def _hermite(m, cols, *ts):
    """Bring m, a list of rows with `cols` columns, to the canonical row HNF
    in place, applying every row operation to each transform in `ts` too."""
    rows = len(m)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # gcd-reduce column c among rows r.. until one nonzero survives
        nz = [i for i in range(r, rows) if m[i][c]]
        while len(nz) > 1:
            pivot_row = min(nz, key=lambda i: abs(m[i][c]))
            if pivot_row != r:
                _swap_rows(r, pivot_row, m, *ts)
            # the other nonzero rows, row r's entries now at pivot_row; each
            # reduction reads only row r, so their order is free
            p = m[r][c]
            for i in [pivot_row if i == r else i for i in nz if i != pivot_row]:
                _add_row(i, r, -(m[i][c] // p), m, *ts)
            nz = [i for i in range(r, rows) if m[i][c]]
        if nz:
            if nz[0] != r:
                _swap_rows(r, nz[0], m, *ts)
            if m[r][c] < 0:
                _negate_row(r, m, *ts)
            p = m[r][c]
            for i in range(r):
                if m[i][c]:
                    _add_row(i, r, -(m[i][c] // p), m, *ts)
            r += 1


def hermite_normal_form(a: IntMatrix):
    """Canonical row HNF: returns (h, u) with u*a = h.  The transform u is a
    plain IntMatrix, unimodular by construction: it starts as the identity
    and takes only the elementary row operations.

    Convention: pivots positive, pivot columns strictly increasing, entries
    above each pivot reduced into [0, pivot), zero rows collected at the
    bottom.  Two matrices generate the same row lattice iff their nonzero
    HNF rows coincide.
    """
    m = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]
    _hermite(m, a.cols, u)
    return IntMatrix.from_rows(m, cols=a.cols), IntMatrix.from_rows(u, cols=a.rows)


def hnf_nonzero_part(a: IntMatrix) -> IntMatrix:
    """Nonzero rows of the canonical HNF; the canonical label of a row lattice."""
    h, _ = hermite_normal_form(a)
    keep = [i for i in range(h.rows) if any(h.data[i])]
    return h.submatrix(keep, range(h.cols))


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with checked unimodular left/right witnesses."""
    left, right_t = IntMatrix.identity(a.rows).to_lists(), IntMatrix.identity(a.cols).to_lists()
    diag = _smith_elimination(a, [left], [right_t])
    return SnfResult(diag, UnimodularWitness(IntMatrix.from_rows(left, cols=a.rows)),
                     UnimodularWitness(IntMatrix.from_rows(right_t, cols=a.cols).transpose()))


def _smith_elimination(a: IntMatrix, left=(), right_t=()):
    """The Smith diagonal of `a`.  Row operations move every transform in
    `left`; a column operation is a row operation on the transpose, and it
    moves every transform in `right_t` so.  Identities come back as L and
    the transpose of R, with L a R the diagonal embedding."""
    m, cols = [list(row) for row in a.data], a.cols
    ts, other = left, right_t
    while True:
        _hermite(m, cols, *ts)
        # an echelon form is diagonal when nothing lies right of its diagonal
        if not any(any(row[i + 1:]) for i, row in enumerate(m)):
            diag = [m[i][i] for i in range(min(len(m), cols))]
            pair = next(((i, j) for i, d in enumerate(diag)
                         for j in range(len(diag) - 1, i, -1) if d and diag[j] % d), None)
            if pair is None:
                break
            # row j into row i here is column j into column i for the next
            # pass; the last such j sends lcm(d_i, d_j) furthest back
            _add_row(*pair, 1, m, *ts)
        m, cols = _transposed(m, cols), len(m)
        ts, other = other, ts
    return tuple(diag)


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unimodular matrix: the Hermite transform u,
    since u*a = h = I."""
    if a.rows != a.cols:
        raise NotSquare("inverse of non-square matrix")
    h, u = hermite_normal_form(a)
    if h != IntMatrix.identity(a.rows):
        raise NotUnimodular("matrix is not invertible over the integers")
    return u


def _symmetric_bareiss(a: IntMatrix):
    """Symmetric fraction-free (Bareiss) elimination: (order, minors, columns).

    Each step takes the first active row p with a nonzero diagonal.  When
    every active diagonal vanishes it first applies the congruence move
    row/col i += row/col j to the first coupled pair; when no pair couples,
    the rows left over span the kernel.  The Schur update
    w[i][j] = (w[i][j] * d - w[i][p] * w[p][j]) // prev, where prev is the
    previous pivot, divides exactly (Bareiss); a coupling move is a
    unimodular congruence on the active rows, so it keeps that so.  A row
    with w[i][p] = 0 is skipped while d equals prev, where its update changes
    nothing, so an identity matrix costs no cubic pass.

    `order[k]` is the k-th pivot row and `minors[k]` its Bareiss minor D_k:
    the leading principal minor of size k + 1, in pivot order, of a matrix
    unimodularly congruent to `a`.  The true pivot is D_k / D_(k-1) with
    D_(-1) = 1, and the last minor is det `a` when no row is left over.
    `columns[k]` is row `order[k]`, which by symmetry is its column, as it
    was when taken; on the rows active then it holds the integers
    lambda_ik = D_k * l_ik of the LDL^T factor l.
    """
    n = a.rows
    w = [list(row) for row in a.data]
    active = list(range(n))
    order, minors, columns = [], [], []
    prev = 1
    while active:
        p = next((k for k in active if w[k][k]), None)
        if p is None:
            pair = next(((i, j) for i in active for j in active if i != j and w[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # the congruence move row/col i += row/col j turns w[i][i] into 2*w[i][j]
            _add_row(i, j, 1, w)
            _add_col(i, j, 1, w)
            continue
        active.remove(p)
        wp = w[p]
        d = wp[p]
        order.append(p)
        minors.append(d)
        columns.append(wp[:])
        for i in active:
            wi = w[i]
            f = wi[p]
            if f == 0 and d == prev:
                continue  # the update would leave row i as it is
            for j in active:
                wi[j] = (wi[j] * d - f * wp[j]) // prev
        prev = d
    return order, minors, columns


def _pivot_inertia(minors, n):
    """(n_pos, n_neg, n_zero) of an n x n symmetric matrix from its
    `_symmetric_bareiss` minors: the true pivot D_k / D_(k-1) has the sign
    sign(D_k) * sign(D_(k-1)), and rows left over count as zero."""
    n_pos = sum((d > 0) == (prev > 0) for prev, d in zip([1] + minors, minors))
    return (n_pos, len(minors) - n_pos, n - len(minors))


def inertia(a: IntMatrix):
    """(n_pos, n_neg, n_zero) of a symmetric matrix, by fraction-free pivoting."""
    if not a.is_symmetric():
        raise NotSymmetric("inertia requires a symmetric matrix")
    return _pivot_inertia(_symmetric_bareiss(a)[1], a.rows)


def rank(a: IntMatrix) -> int:
    # rank A = rank A A^T over the rationals, and A A^T is symmetric
    return a.rows - inertia(a.mul(a.transpose()))[2]
