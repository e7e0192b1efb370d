"""Randomized invariant suites for every module, driven by hypothesis.

EXECUTED counts the generated cases so the acceptance gate can confirm the
whole randomized load; CASE_BUDGETS is the per-test example allocation.
"""

from collections import Counter

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lapdual import (IntMatrix, MultiGraph, UnimodularWitness,
                     classify_edges, components, cut_vector,
                     decide_2_isomorphism_bruteforce, decide_congruence,
                     decide_planarity, det_bareiss, fundamental_circuit_vector,
                     hermite_normal_form, hnf_nonzero_part, incidence, inertia,
                     inverse_unimodular, is_connected, laplacian,
                     lemma_center_recover, maximal_forest, permute_vertices,
                     reduced_incidence, reduced_laplacian, smith_normal_form,
                     strict_row_equivalence, superbase_trace_minimize, verify_abstract_dual,
                     verify_kuratowski_evidence)
from lapdual.graphs import forest_count
from lapdual.laplacians import cut_block, flow_gram, flow_matrix

from conftest import relist, wall_clock_guard
from oracles import (count_maximal_forests, enumerate_maximal_forests,
                     kuratowski_oracle, maclane_oracle)

EXECUTED = Counter()

CASE_BUDGETS = {
    "test_matrix_tree_counts": 700,
    "test_circuits_orthogonal_to_cuts": 700,
    "test_isthmuses_are_forest_intersection": 500,
    "test_two_isomorphism_reflexive_symmetric": 250,
    "test_hnf_witness_and_canonicality": 800,
    "test_snf_and_det_congruence_invariance": 600,
    "test_inertia_sylvester_invariance": 600,
    "test_inverse_unimodular_round_trip": 600,
    "test_incidence_gram_identity": 800,
    "test_incidence_forest_factorization": 700,
    "test_flow_rows_circuits_and_orthogonality": 700,
    "test_flow_hnf_independent_of_choices": 500,
    "test_edge_reversal_action_on_flow_gram": 500,
    "test_forest_count_equals_both_determinants": 600,
    "test_loop_and_isthmus_insertion_invariance": 400,
    "test_congruence_verdicts_replay": 400,
    "test_congruence_agrees_with_two_isomorphism": 150,
    "test_dual_gram_congruence_tracks_two_isomorphism": 150,
    "test_superbase_state_invariants": 400,
    "test_recover_round_trip": 600,
    "test_planarity_certificates_sound": 200,
    "test_maclane_agrees_with_minor_search": 200,
}

assert sum(CASE_BUDGETS.values()) >= 10**4


def prop_settings(name):
    return settings(max_examples=CASE_BUDGETS[name], deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much,
                                           HealthCheck.data_too_large])


@st.composite
def multigraphs(draw, max_n=5, max_m=7, min_n=1, allow_loops=True):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(0, max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if not allow_loops and u == v:
            v = (v + 1) % n if n > 1 else u
            if u == v:
                continue
        edges.append((u, v))
    return MultiGraph.from_edges(n, edges)


@st.composite
def small_symmetric(draw, max_n=4, bound=4):
    n = draw(st.integers(1, max_n))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(st.integers(-bound, bound))
    rows = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(rows, cols=n)


@st.composite
def small_matrix(draw, max_r=4, max_c=4, bound=6):
    r = draw(st.integers(1, max_r))
    c = draw(st.integers(1, max_c))
    rows = [[draw(st.integers(-bound, bound)) for _ in range(c)] for _ in range(r)]
    return IntMatrix.from_rows(rows, cols=c)


@st.composite
def unimodular(draw, n, steps=8):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        kind = draw(st.integers(0, 2))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        if j >= i:
            j += 1
        if kind == 0:
            k = draw(st.sampled_from((1, -1, 2)))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i] = [-a for a in rows[i]]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows, cols=n)


def random_spec(g, pick_last):
    comps = components(g)
    return tuple((comp[-1] if pick_last else comp[0]) for comp in comps)


# ---------------------------------------------------------------- graph-core

@prop_settings("test_matrix_tree_counts")
@given(g=multigraphs(max_n=5, max_m=7))
def test_matrix_tree_counts(g):
    EXECUTED["test_matrix_tree_counts"] += 1
    count = count_maximal_forests(g)
    assert det_bareiss(reduced_laplacian(g)) == count


@prop_settings("test_circuits_orthogonal_to_cuts")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=7, min_n=2))
def test_circuits_orthogonal_to_cuts(data, g):
    EXECUTED["test_circuits_orthogonal_to_cuts"] += 1
    f = maximal_forest(g)
    size = data.draw(st.integers(1, g.num_vertices - 1))
    w = set(data.draw(st.permutations(range(g.num_vertices)))[:size])
    cut = cut_vector(g, w)
    for e in f.cotree_edges:
        circ = fundamental_circuit_vector(g, f, e)
        assert sum(a * b for a, b in zip(circ, cut)) == 0


@prop_settings("test_isthmuses_are_forest_intersection")
@given(g=multigraphs(max_n=5, max_m=7))
def test_isthmuses_are_forest_intersection(g):
    EXECUTED["test_isthmuses_are_forest_intersection"] += 1
    loops, isthmuses = classify_edges(g)
    common = set(range(g.num_edges))
    for f in enumerate_maximal_forests(g):
        common &= set(f.forest_edges)
    assert set(isthmuses) == common
    assert set(loops) == {e for e in range(g.num_edges) if g.is_loop(e)}


@prop_settings("test_two_isomorphism_reflexive_symmetric")
@given(g=multigraphs(max_n=4, max_m=6), seed=st.integers(0, 10**6))
def test_two_isomorphism_reflexive_symmetric(g, seed):
    EXECUTED["test_two_isomorphism_reflexive_symmetric"] += 1
    assert decide_2_isomorphism_bruteforce(g, g).status == "two_isomorphic"
    import random
    perm = list(range(g.num_vertices))
    random.Random(seed).shuffle(perm)
    h = permute_vertices(g, perm)
    forward = decide_2_isomorphism_bruteforce(g, h)
    backward = decide_2_isomorphism_bruteforce(h, g)
    assert forward.status == backward.status == "two_isomorphic"


# -------------------------------------------------------------- exact-matrix

@prop_settings("test_hnf_witness_and_canonicality")
@given(data=st.data(), a=small_matrix())
def test_hnf_witness_and_canonicality(data, a):
    EXECUTED["test_hnf_witness_and_canonicality"] += 1
    h, u = hermite_normal_form(a)
    assert u.mul(a) == h
    v = data.draw(unimodular(a.rows))
    assert hnf_nonzero_part(a) == hnf_nonzero_part(v.mul(a))


@prop_settings("test_snf_and_det_congruence_invariance")
@given(data=st.data(), a=small_symmetric())
def test_snf_and_det_congruence_invariance(data, a):
    EXECUTED["test_snf_and_det_congruence_invariance"] += 1
    u = data.draw(unimodular(a.rows))
    conj = u.mul(a).mul(u.transpose())
    assert smith_normal_form(a).diag == smith_normal_form(conj).diag
    assert det_bareiss(a) == det_bareiss(conj)


@prop_settings("test_inertia_sylvester_invariance")
@given(data=st.data(), a=small_symmetric())
def test_inertia_sylvester_invariance(data, a):
    EXECUTED["test_inertia_sylvester_invariance"] += 1
    u = data.draw(unimodular(a.rows))
    assert inertia(a) == inertia(u.mul(a).mul(u.transpose()))


@prop_settings("test_inverse_unimodular_round_trip")
@given(data=st.data(), n=st.integers(1, 4))
def test_inverse_unimodular_round_trip(data, n):
    EXECUTED["test_inverse_unimodular_round_trip"] += 1
    u = data.draw(unimodular(n))
    inv = inverse_unimodular(u)
    assert inv.mul(u) == IntMatrix.identity(n)
    assert u.mul(inv) == IntMatrix.identity(n)


# ------------------------------------------------------------- laplacian-core

@prop_settings("test_incidence_gram_identity")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=7))
def test_incidence_gram_identity(data, g):
    EXECUTED["test_incidence_gram_identity"] += 1
    spec = random_spec(g, data.draw(st.booleans()))
    n_full = incidence(g)
    assert n_full.mul(n_full.transpose()) == laplacian(g)
    n_red = reduced_incidence(g, spec)
    assert n_red.mul(n_red.transpose()) == reduced_laplacian(g, spec)


@prop_settings("test_incidence_forest_factorization")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=7))
def test_incidence_forest_factorization(data, g):
    EXECUTED["test_incidence_forest_factorization"] += 1
    spec = random_spec(g, data.draw(st.booleans()))
    n_red = reduced_incidence(g, spec)
    any_forest = data.draw(st.sampled_from(enumerate_maximal_forests(g, cap=4096)))
    for f in (maximal_forest(g), any_forest):
        forest_block = n_red.submatrix(range(n_red.rows), f.forest_edges)
        c = cut_block(g, f)
        # the forest block times (identity | cut block) rebuilds every column
        rebuilt = [[0] * g.num_edges for _ in range(n_red.rows)]
        for i, e in enumerate(f.forest_edges):
            for v in range(n_red.rows):
                rebuilt[v][e] = forest_block.data[v][i]
        for j, e in enumerate(f.cotree_edges):
            for v in range(n_red.rows):
                rebuilt[v][e] = sum(forest_block.data[v][i] * c.data[i][j]
                                    for i in range(c.rows))
        assert IntMatrix.from_rows(rebuilt, cols=g.num_edges) == n_red, f


@prop_settings("test_flow_rows_circuits_and_orthogonality")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=7))
def test_flow_rows_circuits_and_orthogonality(data, g):
    EXECUTED["test_flow_rows_circuits_and_orthogonality"] += 1
    spec = random_spec(g, data.draw(st.booleans()))
    f = maximal_forest(g)
    fm = flow_matrix(g, f)
    assert fm.mul(reduced_incidence(g, spec).transpose()).is_zero()
    assert fm.mul(incidence(g).transpose()).is_zero()
    for row, e in zip(fm.data, f.cotree_edges):
        assert row == fundamental_circuit_vector(g, f, e)


@prop_settings("test_flow_hnf_independent_of_choices")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=6))
def test_flow_hnf_independent_of_choices(data, g):
    EXECUTED["test_flow_hnf_independent_of_choices"] += 1
    forests = enumerate_maximal_forests(g, cap=4096)
    f1 = maximal_forest(g)
    f2 = data.draw(st.sampled_from(forests))
    lattices = {hnf_nonzero_part(flow_matrix(g, f)) for f in (f1, f2)}
    assert len(lattices) == 1


def sign_matrix(edges, flipped):
    """Diagonal matrix indexed by `edges`: -1 at the flipped ones, +1 elsewhere."""
    return IntMatrix.from_rows([[(-1 if e in flipped else 1) if i == j else 0
                                 for j in range(len(edges))] for i, e in enumerate(edges)],
                               cols=len(edges))


@prop_settings("test_edge_reversal_action_on_flow_gram")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=7))
def test_edge_reversal_action_on_flow_gram(data, g):
    # the matrices are taken for any orientation: relisting the edges F as
    # (v, u) negates their columns (D) and the rows of the cotree edges
    # among them (S), and leaves the Laplacian alone
    EXECUTED["test_edge_reversal_action_on_flow_gram"] += 1
    bits = data.draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
    flipped = {e for e, bit in enumerate(bits) if bit}
    h = relist(g, flipped)
    f = maximal_forest(g)
    assert maximal_forest(h) == f
    d = sign_matrix(range(g.num_edges), flipped)
    s = sign_matrix(f.cotree_edges, flipped)
    assert laplacian(h) == laplacian(g)
    assert incidence(h) == incidence(g).mul(d)
    assert flow_matrix(h, f) == s.mul(flow_matrix(g, f)).mul(d)
    assert flow_gram(h, f) == s.mul(flow_gram(g, f)).mul(s)


@prop_settings("test_forest_count_equals_both_determinants")
@given(data=st.data(), g=multigraphs(max_n=5, max_m=7))
def test_forest_count_equals_both_determinants(data, g):
    EXECUTED["test_forest_count_equals_both_determinants"] += 1
    forests = enumerate_maximal_forests(g)
    f = data.draw(st.sampled_from(forests))
    spec = random_spec(g, data.draw(st.booleans()))
    assert det_bareiss(reduced_laplacian(g, spec)) == len(forests)
    assert det_bareiss(flow_gram(g, f)) == len(forests)
    assert forest_count(g) == len(forests)


@prop_settings("test_loop_and_isthmus_insertion_invariance")
@given(g=multigraphs(max_n=4, max_m=6))
def test_loop_and_isthmus_insertion_invariance(g):
    EXECUTED["test_loop_and_isthmus_insertion_invariance"] += 1
    with_loop = MultiGraph(g.num_vertices, g.edges + ((0, 0),))
    assert laplacian(with_loop) == laplacian(g)
    pendant = MultiGraph(g.num_vertices + 1, g.edges + ((0, g.num_vertices),))
    assert flow_gram(pendant) == flow_gram(g)


# ---------------------------------------------------------------- congruence

@prop_settings("test_congruence_verdicts_replay")
@given(data=st.data(), g=multigraphs(max_n=6, max_m=10))
def test_congruence_verdicts_replay(data, g):
    EXECUTED["test_congruence_verdicts_replay"] += 1
    a = reduced_laplacian(g)
    kind = data.draw(st.sampled_from(("unimodular", "relabelled", "independent")))
    if kind == "unimodular":
        u = data.draw(unimodular(a.rows))
        b = u.mul(a).mul(u.transpose())
    elif kind == "relabelled":
        perm = data.draw(st.permutations(range(g.num_vertices)))
        b = reduced_laplacian(permute_vertices(g, perm))
    else:
        h = data.draw(multigraphs(max_n=6, max_m=10))
        b = reduced_laplacian(h)
    # a hang in the search must fail the test, not stall the suite
    with wall_clock_guard(20):
        verdict = decide_congruence(a, b, budget=10**5)
    if kind != "independent":
        assert verdict.status != "not_congruent"
    if verdict.status == "congruent":
        w = verdict.witness.u
        assert w.mul(a).mul(w.transpose()) == b
    elif verdict.status == "not_congruent":
        name, left, right = verdict.separating_invariant
        assert left != right
        from lapdual import congruence_invariants
        assert congruence_invariants(a)[name] == left
        assert congruence_invariants(b)[name] == right


@prop_settings("test_congruence_agrees_with_two_isomorphism")
@given(data=st.data(), g1=multigraphs(max_n=4, max_m=6), g2=multigraphs(max_n=4, max_m=6))
def test_congruence_agrees_with_two_isomorphism(data, g1, g2):
    EXECUTED["test_congruence_agrees_with_two_isomorphism"] += 1
    loops1 = sum(1 for e in range(g1.num_edges) if g1.is_loop(e))
    loops2 = sum(1 for e in range(g2.num_edges) if g2.is_loop(e))
    assume(loops1 == loops2)
    cond1 = decide_congruence(reduced_laplacian(g1), reduced_laplacian(g2),
                              budget=10**5)
    cond4 = decide_2_isomorphism_bruteforce(g1, g2, budget=10**5)
    if cond1.status != "unknown" and cond4.status != "budget_exceeded":
        assert (cond1.status == "congruent") == (cond4.status == "two_isomorphic")


@prop_settings("test_dual_gram_congruence_tracks_two_isomorphism")
@given(data=st.data(), g1=multigraphs(max_n=4, max_m=6), g2=multigraphs(max_n=4, max_m=6))
def test_dual_gram_congruence_tracks_two_isomorphism(data, g1, g2):
    # flow-side counterpart: with matching isthmus counts, congruent flow
    # Gram matrices go hand in hand with 2-isomorphism
    EXECUTED["test_dual_gram_congruence_tracks_two_isomorphism"] += 1
    isth1 = len(classify_edges(g1)[1])
    isth2 = len(classify_edges(g2)[1])
    assume(isth1 == isth2)
    left = decide_congruence(flow_gram(g1), flow_gram(g2), budget=10**5)
    right = decide_2_isomorphism_bruteforce(g1, g2, budget=10**5)
    if left.status != "unknown" and right.status != "budget_exceeded":
        assert (left.status == "congruent") == (right.status == "two_isomorphic")


# ------------------------------------------------------------------- duality

@prop_settings("test_superbase_state_invariants")
@given(g=multigraphs(max_n=4, max_m=6), seed=st.integers(0, 100))
def test_superbase_state_invariants(g, seed):
    EXECUTED["test_superbase_state_invariants"] += 1
    state = superbase_trace_minimize(g, budget=20000, seed=seed)
    for j in range(state.f_hat.cols):
        assert sum(state.f_hat.column(j)) == 0
    _, isthmuses = classify_edges(g)
    assert state.trace % 2 == 0
    assert state.trace >= 2 * (g.num_edges - len(isthmuses))
    basis = state.f_hat.submatrix(range(1, state.f_hat.rows), range(state.f_hat.cols))
    assert hnf_nonzero_part(basis) == hnf_nonzero_part(flow_matrix(g))
    assert state.basis_witness == strict_row_equivalence(flow_matrix(g), basis)


@prop_settings("test_recover_round_trip")
@given(g=multigraphs(max_n=5, max_m=7))
def test_recover_round_trip(g):
    EXECUTED["test_recover_round_trip"] += 1
    n = incidence(g)
    recovered = lemma_center_recover(n, UnimodularWitness(IntMatrix.identity(g.num_vertices)))
    assert incidence(recovered) == n
    non_loops = [e for e in range(g.num_edges) if not g.is_loop(e)]
    for e in non_loops:
        assert recovered.edges[e] == g.edges[e]


@prop_settings("test_planarity_certificates_sound")
@given(g=multigraphs(max_n=5, max_m=8), seed=st.integers(0, 20))
def test_planarity_certificates_sound(g, seed):
    EXECUTED["test_planarity_certificates_sound"] += 1
    result = decide_planarity(g, budget=2 * 10**5, seed=seed)
    oracle = kuratowski_oracle(g, budget=10**6)
    decided = {result.status, oracle.status} - {"unknown"}
    assert decided != {"planar", "nonplanar"}
    if result.status == "planar":
        cert = result.certificate
        assert verify_abstract_dual(g, cert.dual_graph, cert.edge_bijection).ok
        _, isthmuses = classify_edges(g)
        assert cert.trace == 2 * (g.num_edges - len(isthmuses))
    elif result.status == "nonplanar":
        assert verify_kuratowski_evidence(g, result.evidence)


@prop_settings("test_maclane_agrees_with_minor_search")
@given(g=multigraphs(max_n=5, max_m=8))
def test_maclane_agrees_with_minor_search(g):
    EXECUTED["test_maclane_agrees_with_minor_search"] += 1
    verdict = maclane_oracle(g, budget=10**5)
    oracle = kuratowski_oracle(g, budget=10**6)
    if verdict is True:
        assert oracle.status != "nonplanar"
    elif verdict is False:
        assert oracle.status != "planar"
