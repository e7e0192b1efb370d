"""Shared graphs, generators and independent oracles for the test suite."""

import contextlib
import itertools
import random
import signal

import pytest

from lapdual import MultiGraph


def complete_graph(n, name=None):
    return MultiGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)], name=name or f"K{n}")


def cycle_graph(n):
    return MultiGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def k5():
    return complete_graph(5)


@pytest.fixture(scope="session")
def k33():
    return MultiGraph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)],
                                 name="K33")


@pytest.fixture(scope="session")
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph.from_edges(10, outer + spokes + inner, name="petersen")


# two vertices joined by three parallel edges; dual to K3
@pytest.fixture(scope="session")
def example1():
    return MultiGraph.from_edges(2, [(0, 1), (0, 1), (0, 1)], name="example1")


# the 7-vertex, 9-edge graph whose incidence/flow matrices are pinned below
@pytest.fixture(scope="session")
def example2():
    return MultiGraph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
        name="example2")


# the golden abstract dual of example2 (e4 is a loop; tree {e3,e7,e9})
@pytest.fixture(scope="session")
def example2_dual():
    return MultiGraph.from_edges(
        4, [(1, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (2, 0), (0, 3), (3, 0)],
        name="example2_dual")


# square with one diagonal plus an apex joined to all four corners; 9 edges,
# 5 vertices, no isthmus, planar, and no spanning-tree superbase is minimal
@pytest.fixture(scope="session")
def example3():
    return MultiGraph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4), (4, 1), (0, 4), (3, 4)],
        name="example3")


EXAMPLE2_INCIDENCE = [
    [-1, -1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, -1, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, -1, -1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, -1, -1, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
]

EXAMPLE2_FLOW = [
    [-1, 1, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 1, -1, 0, 0],
    [0, 0, 0, 0, 1, -1, 0, 1, -1],
]

EXAMPLE2_SUPERBASE_GRAM = [
    [6, -3, -1, -2],
    [-3, 3, 0, 0],
    [-1, 0, 3, -2],
    [-2, 0, -2, 4],
]

EXAMPLE1_UNREDUCED_PM = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]  # C = (1, -1)
EXAMPLE1_UNREDUCED_PP = [[2, 1, -3], [1, 2, -3], [-3, -3, 6]]    # C = (1, 1)


def random_multigraph(rng, max_n=5, max_m=8, connected=False, allow_loops=True):
    """Seeded random multigraph; resamples until connected when asked."""
    from lapdual import is_connected
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(0, max_m)
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            if allow_loops and rng.random() < 0.12:
                edges.append((u, u))
            else:
                v = rng.randrange(n)
                edges.append((u, v))
        g = MultiGraph.from_edges(n, edges)
        if not connected or is_connected(g):
            return g


def relist(g, flipped):
    """g with each edge in `flipped` listed as (v, u), which reverses it."""
    flipped = set(flipped)
    return MultiGraph(g.num_vertices, tuple([(v, u) if k in flipped else (u, v)
                                             for k, (u, v) in enumerate(g.edges)]), g.name)


def shuffled_copy(g, rng):
    """g with its vertices relabelled by a permutation shuffled by `rng`, then
    its edges listed in an order shuffled by the same generator."""
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return MultiGraph.from_edges(g.num_vertices, edges)


def random_connected_multigraph(rng, max_n=5, max_m=8, allow_loops=True):
    return random_multigraph(rng, max_n, max_m, connected=True, allow_loops=allow_loops)


def grid_graph(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return MultiGraph.from_edges(rows * cols, edges)


def _canonical_edges(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def connected_simple_catalog(max_n):
    """All connected simple graphs on at most max_n vertices, one per
    isomorphism class, generated by vertex extension with canonical dedup."""
    levels = {1: {()}}
    for n in range(2, max_n + 1):
        grown = set()
        for parent in levels[n - 1]:
            for attach in range(1, 1 << (n - 1)):
                extra = tuple((v, n - 1) for v in range(n - 1) if attach >> v & 1)
                grown.add(_canonical_edges(n, parent + extra))
        levels[n] = grown
    out = []
    for n in range(1, max_n + 1):
        for edges in sorted(levels[n]):
            out.append(MultiGraph.from_edges(n, edges, name=f"n{n}catalog"))
    return out


@pytest.fixture(scope="session")
def catalog6():
    cat = connected_simple_catalog(6)
    by_n = {}
    for g in cat:
        by_n[g.num_vertices] = by_n.get(g.num_vertices, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    return cat


def det_cofactor(rows):
    """Independent determinant oracle by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def random_unimodular(rng, n, steps=12):
    """Product of random elementary row operations applied to the identity."""
    from lapdual import IntMatrix
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if n < 2:
            break
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if kind == 0:
            k = rng.choice((1, -1, 2, -2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i] = [-a for a in rows[i]]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows, cols=n)


@contextlib.contextmanager
def wall_clock_guard(seconds):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""

    def alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
