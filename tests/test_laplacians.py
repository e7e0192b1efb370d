import hashlib
import json
import pathlib
import random

import pytest

from lapdual import (BudgetExceeded, ForestCertificate, IntMatrix,
                     InvalidReductionSpec, LapdualError, MultiGraph, NotMaximalForest,
                     UnknownTag, components, det_bareiss,
                     fundamental_circuit_vector, maximal_forest, permute_vertices)
from lapdual import laplacians, properties
from lapdual.errors import PROPERTY_TAGS
from lapdual.laplacians import (DualLaplacianPair, _reduction, border_first,
                                border_last, cut_block, cut_gram,
                                flow_gram, flow_matrix,
                                incidence, laplacian, reduced_dual_laplacian,
                                reduced_incidence, reduced_laplacian,
                                reduction_change_witness, superbase_matrix)
from lapdual.properties import verify_property
from lapdual.serialization import dumps

from conftest import (EXAMPLE1_UNREDUCED_PM, EXAMPLE1_UNREDUCED_PP,
                      EXAMPLE2_FLOW, EXAMPLE2_INCIDENCE,
                      EXAMPLE2_SUPERBASE_GRAM, complete_graph, grid_graph,
                      random_connected_multigraph, random_multigraph, relist,
                      wall_clock_guard)
from oracles import (count_maximal_forests, enumerate_maximal_forests,
                     laplacian_automorphisms_are_isomorphisms)


def test_laplacian_k3(k3):
    assert laplacian(k3).to_lists() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_laplacian_example1(example1):
    assert laplacian(example1).to_lists() == [[3, -3], [-3, 3]]


def test_laplacian_single_loop():
    assert laplacian(MultiGraph.from_edges(1, [(0, 0)])).to_lists() == [[0]]


def test_reduced_laplacian_k3(k3):
    red = reduced_laplacian(k3, (2,))
    assert red.to_lists() == [[2, -1], [-1, 2]]
    assert det_bareiss(red) == 3


def test_reduced_laplacian_example1(example1):
    red = reduced_laplacian(example1, (1,))
    assert red.to_lists() == [[3]]
    assert det_bareiss(red) == 3


def test_reduced_laplacian_of_tree_has_det_one():
    tree = MultiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert det_bareiss(reduced_laplacian(tree)) == 1


def test_reduction_spec_validation(k3):
    with pytest.raises(InvalidReductionSpec):
        reduced_laplacian(k3, (0, 1))
    disco = MultiGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidReductionSpec):
        reduced_laplacian(disco, (0,))
    assert reduced_laplacian(disco, (0, 2)).rows == 2


def test_v0_is_any_list_with_one_vertex_per_component():
    # order and repeats in V0 change nothing; a V0 that is out of range,
    # takes two vertices of a component or misses one is refused
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        g = random_multigraph(rng, max_n=7, max_m=5)
        comps = components(g)
        if len(comps) < 2:
            continue
        v0s = [tuple(sorted(rng.choice(comp) for comp in comps)) for _ in range(3)]
        for v0 in v0s:
            given = list(v0) + [rng.choice(v0) for _ in range(2)]
            rng.shuffle(given)
            n_red, lap = reduced_incidence(g, given), reduced_laplacian(g, given)
            assert lap == n_red.mul(n_red.transpose())
            assert (n_red, lap) == (reduced_incidence(g, v0), reduced_laplacian(g, v0))
        for v0_from, v0_to in zip(v0s, v0s[1:]):
            u = reduction_change_witness(g, v0_from, v0_to).u
            assert u.mul(reduced_incidence(g, v0_from)) == reduced_incidence(g, v0_to)
            assert u.mul(reduced_laplacian(g, v0_from)).mul(u.transpose()) == \
                reduced_laplacian(g, v0_to)
        i = rng.randrange(len(comps))
        bad = [(v0s[0] + (-1,), "vertex out of range"),
               (v0s[0] + (g.num_vertices,), "vertex out of range"),
               (tuple(v for v in v0s[0] if v not in comps[i]),
                f"need exactly one vertex from component {comps[i]}")]
        wide = [comp for comp in comps if len(comp) > 1]
        if wide:
            extra = next(v for v in wide[0] if v not in v0s[0])
            bad.append((v0s[0] + (extra,),
                        f"need exactly one vertex from component {wide[0]}"))
        for v0, message in bad:
            for reduce in (reduced_laplacian, reduced_incidence):
                with pytest.raises(InvalidReductionSpec) as exc:
                    reduce(g, v0)
                assert str(exc.value) == message
        checked += 1
    assert checked >= 50


def test_incidence_example2_matches_golden(example2):
    assert incidence(example2).to_lists() == EXAMPLE2_INCIDENCE


def test_incidence_reversal_negates_single_column(k3):
    base = incidence(k3)
    flipped = incidence(relist(k3, [1]))
    for e in range(3):
        col = [(-x if e == 1 else x) for x in base.column(e)]
        assert list(flipped.column(e)) == col


def test_incidence_loops_only():
    g = MultiGraph.from_edges(2, [(0, 0), (1, 1)])
    assert incidence(g) == IntMatrix.zeros(2, 2)


def test_cut_block_example1(example1):
    f = ForestCertificate.from_forest(example1, [0])
    assert cut_block(example1, f).to_lists() == [[1, 1]]
    assert cut_block(relist(example1, [2]), f).to_lists() == [[1, -1]]


def test_cut_block_tree_is_empty():
    tree = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    c = cut_block(tree)
    assert (c.rows, c.cols) == (2, 0)


def test_cut_block_rejects_non_forest(k3):
    with pytest.raises(NotMaximalForest):
        cut_block(k3, ForestCertificate.from_forest(k3, [0]))


def test_incidence_factorization(example2):
    # reduced incidence equals the forest block times (identity | cut block)
    # written back into edge order
    spec = (2,)
    f = maximal_forest(example2)
    n_red = reduced_incidence(example2, spec)
    forest_block = n_red.submatrix(range(n_red.rows), f.forest_edges)
    c = cut_block(example2, f)
    for i, e in enumerate(f.forest_edges):
        assert n_red.column(e) == forest_block.column(i)
    for j, e in enumerate(f.cotree_edges):
        assert list(n_red.column(e)) == [
            sum(forest_block.data[v][i] * c.data[i][j] for i in range(c.rows))
            for v in range(n_red.rows)]


def test_flow_matrix_example2_matches_golden(example2):
    fm = flow_matrix(example2)
    assert fm.to_lists() == EXAMPLE2_FLOW


def test_flow_matrix_example1(example1):
    f = ForestCertificate.from_forest(example1, [0])
    fm = flow_matrix(relist(example1, [2]), f)
    assert fm.to_lists() == [[1, -1, 0], [-1, 0, -1]]


def test_flow_matrix_of_forest_is_empty():
    tree = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    fm = flow_matrix(tree)
    assert (fm.rows, fm.cols) == (0, 2)


def test_cut_block_recoverable_from_flow_matrix(example2):
    # the transposed cut block sits in the forest columns of the flow matrix
    f = maximal_forest(example2)
    c = cut_block(example2, f)
    fm = flow_matrix(example2, f)
    recovered = [[fm.data[j][e] for j in range(fm.rows)] for e in f.forest_edges]
    assert IntMatrix.from_rows(recovered, cols=c.cols) == c


def test_flow_rows_are_fundamental_circuits(example2):
    f = maximal_forest(example2)
    fm = flow_matrix(example2, f)
    for row, e in zip(fm.data, f.cotree_edges):
        assert row == fundamental_circuit_vector(example2, f, e)


def test_flow_orthogonal_to_reduced_incidence(example2):
    fm = flow_matrix(example2)
    n_red = reduced_incidence(example2)
    assert fm.mul(n_red.transpose()).is_zero()


def test_isthmus_column_of_flow_matrix_is_zero(example2):
    fm = flow_matrix(example2)
    assert all(fm.data[i][3] == 0 for i in range(fm.rows))


def test_superbase_example2(example2):
    hat = superbase_matrix(example2)
    assert hat.mul(hat.transpose()).to_lists() == EXAMPLE2_SUPERBASE_GRAM
    assert hat.mul(hat.transpose()).trace() == 16  # = 2 * (9 edges - 1 isthmus)


def test_superbase_example1_gives_k3_laplacian(example1, k3):
    f = ForestCertificate.from_forest(example1, [0])
    hat = superbase_matrix(relist(example1, [2]), f)
    assert hat.mul(hat.transpose()) == laplacian(k3)


def test_superbase_of_forest_is_zero_row():
    tree = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    hat = superbase_matrix(tree)
    assert hat == IntMatrix.zeros(1, 2)
    assert hat.mul(hat.transpose()).to_lists() == [[0]]


def test_reduced_dual_laplacian_example1(example1):
    f = ForestCertificate.from_forest(example1, [0])
    pair_pp = reduced_dual_laplacian(example1, f)
    assert pair_pp.reduced.to_lists() == [[2, 1], [1, 2]]
    assert pair_pp.unreduced.to_lists() == EXAMPLE1_UNREDUCED_PP
    pair_pm = reduced_dual_laplacian(relist(example1, [2]), f)
    assert pair_pm.unreduced.to_lists() == EXAMPLE1_UNREDUCED_PM


def test_dual_pair_with_witness(example1):
    from lapdual import UnimodularWitness
    u = UnimodularWitness(IntMatrix.from_rows([[1, 1], [0, 1]]))
    base = flow_gram(example1)
    reduced = u.u.mul(base).mul(u.u.transpose())
    pair = DualLaplacianPair(reduced, border_last(reduced), u, base)
    assert pair.reduced == u.u.mul(pair.gram_base).mul(u.u.transpose())
    assert pair.unreduced == border_last(pair.reduced)


def test_property_xi_witness(k3):
    # the forest block of the reduced incidence conjugates the cut Gram
    # matrix onto the reduced Laplacian
    v0, kept = _reduction(k3)
    f = maximal_forest(k3)
    block = incidence(k3).submatrix(kept, f.forest_edges)
    gram = cut_gram(k3, f)
    assert block.mul(gram).mul(block.transpose()) == reduced_laplacian(k3, v0)


def test_two_forests_of_k4_give_congruent_duals(k4):
    from lapdual import strict_row_equivalence
    forests = enumerate_maximal_forests(k4)
    f1, f2 = forests[0], forests[5]
    fm1 = flow_matrix(k4, f1)
    fm2 = flow_matrix(k4, f2)
    u = strict_row_equivalence(fm1, fm2)
    assert u is not None
    r1 = flow_gram(k4, f1)
    r2 = flow_gram(k4, f2)
    assert u.u.mul(r1).mul(u.u.transpose()) == r2


def test_matrix_tree_for_flow_gram(k4):
    count = count_maximal_forests(k4)
    assert count == 16
    for f in enumerate_maximal_forests(k4):
        assert det_bareiss(flow_gram(k4, f)) == count


def test_reduction_change_witness_moves_both_matrices(example2):
    spec1 = (2,)
    spec2 = (6,)
    u = reduction_change_witness(example2, spec1, spec2)
    assert u.u.mul(reduced_incidence(example2, spec1)) == reduced_incidence(example2, spec2)
    assert u.u.mul(reduced_laplacian(example2, spec1)).mul(u.u.transpose()) == \
        reduced_laplacian(example2, spec2)


def test_border_helpers():
    r = IntMatrix.from_rows([[2, 1], [1, 2]])
    # a non-symmetric input: its row and column sums differ
    skew = IntMatrix.from_rows([[1, 2], [3, 4]])
    for m in (border_last(r), border_first(r), border_last(skew), border_first(skew)):
        assert all(sum(row) == 0 for row in m.data)
        assert all(sum(m.column(j)) == 0 for j in range(m.cols))
    assert border_last(r).to_lists() == [[2, 1, -3], [1, 2, -3], [-3, -3, 6]]
    assert border_first(r).to_lists() == [[6, -3, -3], [-3, 2, 1], [-3, 1, 2]]
    assert border_last(skew).to_lists() == [[1, 2, -3], [3, 4, -7], [-4, -6, 10]]


@pytest.mark.parametrize("tag", PROPERTY_TAGS)
def test_verify_property_all_tags_on_example2(example2, tag):
    assert verify_property(example2, tag).passed


def test_verify_property_trace_detail(example2):
    rep = verify_property(example2, "V")
    assert rep.details == {"trace": 18, "expected": 18}


AWKWARD_GRAPHS = [
    MultiGraph.from_edges(2, [(0, 0), (0, 1), (1, 1), (0, 1)]),
    MultiGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    MultiGraph.from_edges(1, []),
]


def test_verify_property_on_awkward_graphs():
    for g in AWKWARD_GRAPHS:
        for tag in PROPERTY_TAGS:
            assert verify_property(g, tag).passed, (g.edges, tag)


def property_digests(graphs):
    """Map "<graph name> <tag>" to the sha256 of `dumps(verify_property(g,
    tag))`, or to the name of the error that call raises."""
    out = {}
    for name, g in graphs.items():
        for tag in PROPERTY_TAGS:
            try:
                text = dumps(verify_property(g, tag))
            except LapdualError as exc:
                out[f"{name} {tag}"] = type(exc).__name__
            else:
                out[f"{name} {tag}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_verify_property_output_matches_golden_digests(example2, k3):
    graphs = {"example2": example2, "K3": k3, "empty": MultiGraph.from_edges(0, [])}
    graphs.update((f"awkward{i}", g) for i, g in enumerate(AWKWARD_GRAPHS))
    golden = pathlib.Path(__file__).parent / "golden" / "verify_property_digests.json"
    assert property_digests(graphs) == json.loads(golden.read_text())


@pytest.mark.parametrize("tag", ["VIII*", "IX*"])
def test_forest_change_properties_on_k7(tag):
    # K7 has 16,807 maximal forests; only the first two are needed
    assert verify_property(complete_graph(7), tag).passed


@pytest.mark.parametrize("tag", ["VIII*", "IX*"])
def test_forest_change_properties_on_a_long_path(tag):
    # a tree is its only maximal forest: all 1,499 edges are isthmuses
    path = MultiGraph.from_edges(1500, [(i, i + 1) for i in range(1499)])
    assert verify_property(path, tag).passed


def test_second_forest_is_the_enumerators_second(k4):
    rng = random.Random(11)
    graphs = [k4] + [random_multigraph(rng, max_n=6, max_m=10) for _ in range(150)]
    for g in graphs:
        forests = enumerate_maximal_forests(g)
        assert properties._forest_change(g)[1] == forests[min(1, len(forests) - 1)], g.edges


def test_flow_coordinates_equal_the_hermite_witness(catalog6):
    # the flow matrix has full row rank, so the witness carrying it onto any
    # basis of the flow lattice is unique: minus that basis's cotree columns
    # equal the transform the two Hermite forms give
    from lapdual import NonplanarInput, construct_abstract_dual, strict_row_equivalence
    from lapdual.congruence import _row_transform
    from lapdual.graphs import greedy_forest
    rng = random.Random(29)
    graphs = list(catalog6) + [random_multigraph(rng, max_n=6, max_m=10) for _ in range(150)]
    assert any(g.num_loops for g in graphs)
    for g in graphs:
        f1, _, fm1, fm2, u = properties._forest_change(g)
        assert u == strict_row_equivalence(fm1, fm2), g.edges
        hop = flow_matrix(g, greedy_forest(g, rng.sample(range(g.num_edges), g.num_edges)))
        assert laplacians._flow_coordinates(f1, hop.data) == _row_transform(fm1, hop), g.edges
        try:
            cert = construct_abstract_dual(g)
        except NonplanarInput:
            continue
        assert cert.laplacian_witness == \
            strict_row_equivalence(fm1, reduced_incidence(cert.dual_graph)), g.edges


def test_forest_change_refuses_rows_spanning_a_sublattice(k4, monkeypatch):
    # twice the second forest's flow matrix spans a proper sublattice: its
    # coordinates have determinant 8, so there is no witness
    real = laplacians.flow_matrix
    f1 = maximal_forest(k4)
    monkeypatch.setattr(properties, "flow_matrix",
                        lambda g, f: real(g, f).scale(1 if f == f1 else 2))
    assert properties._forest_change(k4)[4] is None
    assert not verify_property(k4, "VIII*").passed
    assert not verify_property(k4, "IX*").passed


def test_second_forest_of_a_tree_is_the_first():
    tree = MultiGraph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    f1, f2 = properties._forest_change(tree)[:2]
    assert f2 == f1 == maximal_forest(tree)


def test_verify_property_unknown_tag(k3):
    with pytest.raises(UnknownTag):
        verify_property(k3, "III*")


def test_property_iii_has_no_vertex_cap():
    path = MultiGraph.from_edges(9, [(i, i + 1) for i in range(8)])
    assert verify_property(path, "III").passed


def test_property_iii_agrees_with_the_permutation_oracle():
    rng = random.Random(23)
    for _ in range(60):
        g = random_multigraph(rng, max_n=6, max_m=9)
        assert verify_property(g, "III").passed == laplacian_automorphisms_are_isomorphisms(g)


def test_property_iii_fails_on_a_laplacian_missing_an_edge(monkeypatch, example2):
    def drop_last_edge(g):
        return laplacian(MultiGraph(g.num_vertices, g.edges[:-1], g.name))

    monkeypatch.setattr(properties, "laplacian", drop_last_edge)
    assert not verify_property(example2, "III").passed


def test_property_iv_star_compares_with_the_forest_count(monkeypatch, example2):
    report = verify_property(example2, "IV*")
    assert report.passed
    assert report.details == {"forest_count": count_maximal_forests(example2)}
    monkeypatch.setattr(properties, "forest_count",
                        lambda g: report.details["forest_count"] + 1)
    assert not verify_property(example2, "IV*").passed


def test_every_tag_but_x_passes_on_a_relabelled_6x6_grid():
    perm = list(range(36))
    random.Random(0).shuffle(perm)
    grid = permute_vertices(grid_graph(6, 6), perm)
    with wall_clock_guard(30):
        for tag in PROPERTY_TAGS:
            if tag != "X":
                assert verify_property(grid, tag).passed, tag


def test_property_table_follows_the_tag_list():
    assert list(properties._PROPERTY_CHECKS) == list(PROPERTY_TAGS)


@pytest.mark.parametrize("name", ["k5", "petersen"])
def test_property_x_beyond_nine_edges(name, request):
    assert verify_property(request.getfixturevalue(name), "X").passed


def test_property_x_out_of_budget_raises_budget_exceeded():
    # the 3x4 grid with each vertex's vertical edge listed first: against its
    # edge-rotated copy condition 4's 2-isomorphism search runs out of its 2e5
    # budget, and conditions 2 and 3 take its reading, so 2-4 stay unknown
    # while congruence holds
    g = MultiGraph.from_edges(12, sorted(grid_graph(3, 4).edges, key=lambda e: (e[0], -e[1])))
    with wall_clock_guard(60), pytest.raises(BudgetExceeded):
        verify_property(g, "X")


def test_random_graphs_satisfy_core_properties():
    rng = random.Random(17)
    for _ in range(15):
        g = random_multigraph(rng, max_n=4, max_m=6)
        for tag in ("IV", "V", "VII", "IX", "XI", "IV*", "V*", "VII*"):
            assert verify_property(g, tag).passed, (g.edges, tag)
