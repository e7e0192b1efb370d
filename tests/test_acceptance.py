"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime.  Every tolerance here is exact; nothing is calibrated later.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import random
import time

from lapdual import (ForestCertificate, IntMatrix, MultiGraph,
                     classify_edges, components, decide_planarity, det_bareiss,
                     incidence,
                     lemma_center_recover, maximal_forest,
                     property_x_report, superbase_matrix,
                     superbase_trace_minimize, UnimodularWitness,
                     verify_abstract_dual, verify_kuratowski_evidence)
from lapdual.laplacians import (cut_block, flow_gram,
                                flow_matrix, reduced_dual_laplacian,
                                reduced_laplacian)

from conftest import (EXAMPLE1_UNREDUCED_PM, EXAMPLE1_UNREDUCED_PP,
                      EXAMPLE2_FLOW, EXAMPLE2_INCIDENCE,
                      EXAMPLE2_SUPERBASE_GRAM, random_connected_multigraph, relist)
from oracles import (enumerate_maximal_forests, kuratowski_oracle, loopless_isomorphic,
                     maclane_oracle)


def _report(name, started, limit):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, limit {limit}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s runtime bound"


def test_criterion_1_example1_goldens(example1):
    started = time.monotonic()
    forest = ForestCertificate.from_forest(example1, [0])
    g_pp = example1
    g_pm = relist(example1, [2])
    blocks = {cut_block(g, forest).data[0] for g in (g_pp, g_pm)}
    assert blocks == {(1, 1), (1, -1)}
    assert reduced_dual_laplacian(g_pm, forest).unreduced.to_lists() \
        == EXAMPLE1_UNREDUCED_PM
    assert reduced_dual_laplacian(g_pp, forest).unreduced.to_lists() \
        == EXAMPLE1_UNREDUCED_PP
    _report("criterion 1 (triple-edge goldens)", started, 1.0)


def test_criterion_2_example2_goldens(example2, example2_dual):
    started = time.monotonic()
    forest = maximal_forest(example2)
    assert forest.forest_edges == (0, 1, 3, 4, 5, 7)
    assert incidence(example2).to_lists() == EXAMPLE2_INCIDENCE
    assert flow_matrix(example2, forest).to_lists() == EXAMPLE2_FLOW
    hat = superbase_matrix(example2, forest)
    gram = hat.mul(hat.transpose())
    assert gram.to_lists() == EXAMPLE2_SUPERBASE_GRAM
    loops, isthmuses = classify_edges(example2)
    assert gram.trace() == 16 == 2 * (example2.num_edges - len(isthmuses))
    recovered = lemma_center_recover(hat, UnimodularWitness(IntMatrix.identity(4)))
    assert loopless_isomorphic(recovered, example2_dual)
    assert verify_abstract_dual(example2, recovered, range(9)).ok
    _report("criterion 2 (seven-vertex goldens and dual recovery)", started, 5.0)


def test_criterion_3_example3_trace_floor(example3):
    started = time.monotonic()
    state = superbase_trace_minimize(example3, budget=10**6, seed=0)
    assert state.trace == 18 == 2 * (9 - 0)
    assert len(state.move_log) >= 1
    # exhaustive: no spanning-tree superbase attains 18 under any orientation
    best_raw = None
    for f in enumerate_maximal_forests(example3):
        for flips in itertools.product((False, True), repeat=9):
            hat = superbase_matrix(relist(example3, itertools.compress(range(9), flips)), f)
            tr = hat.mul(hat.transpose()).trace()
            best_raw = tr if best_raw is None else min(best_raw, tr)
    assert best_raw > 18
    _report(f"criterion 3 (descent 18; raw minimum {best_raw})", started, 60.0)


def test_criterion_4_matrix_tree_corpus():
    started = time.monotonic()
    rng = random.Random(2024)
    graphs = []
    while len(graphs) < 500:
        g = random_connected_multigraph(rng, max_n=5, max_m=8)
        # bias half the corpus toward dense multigraphs so the forest
        # families are nontrivial
        if len(graphs) % 2 and g.num_edges < g.num_vertices + 2:
            extra = [(rng.randrange(g.num_vertices), rng.randrange(g.num_vertices))
                     for _ in range(8 - g.num_edges)]
            g = MultiGraph.from_edges(g.num_vertices, list(g.edges) + extra)
        graphs.append(g)
    checked = 0
    for g in graphs:
        forests = enumerate_maximal_forests(g)
        count = len(forests)
        spec_default = None
        spec_random = tuple(rng.choice(comp) for comp in components(g))
        assert det_bareiss(reduced_laplacian(g, spec_default)) == count
        assert det_bareiss(reduced_laplacian(g, spec_random)) == count
        for f in forests:
            assert det_bareiss(flow_gram(g, f)) == count
            checked += 1
    assert len(graphs) >= 500
    _report(f"criterion 4 (matrix-tree, {len(graphs)} graphs, "
            f"{checked} forests)", started, 300.0)


def _pair_corpus(rng, count):
    pairs = []
    while len(pairs) < count:
        g1 = random_connected_multigraph(rng, max_n=4, max_m=8)
        style = len(pairs) % 3
        if style == 0:
            perm = list(range(g1.num_vertices))
            rng.shuffle(perm)
            relabel = list(permute_edges(g1, rng).edges)
            g2 = MultiGraph.from_edges(
                g1.num_vertices, [(perm[u], perm[v]) for u, v in relabel])
        elif style == 1:
            g2 = random_connected_multigraph(rng, max_n=4, max_m=8)
        else:
            g2 = MultiGraph.from_edges(g1.num_vertices + 1,
                                       list(g1.edges) + [(0, g1.num_vertices)])
        loops1 = sum(1 for e in range(g1.num_edges) if g1.is_loop(e))
        loops2 = sum(1 for e in range(g2.num_edges) if g2.is_loop(e))
        if loops1 == loops2:
            pairs.append((g1, g2))
    return pairs


def permute_edges(g, rng):
    order = list(range(g.num_edges))
    rng.shuffle(order)
    return MultiGraph.from_edges(g.num_vertices, [g.edges[e] for e in order])


def test_criterion_5_property_x_consistency():
    started = time.monotonic()
    rng = random.Random(99)
    pairs = _pair_corpus(rng, 100)
    decided_pairs = 0
    constructive_hits = 0
    for g1, g2 in pairs:
        report = property_x_report(g1, g2, budget=2 * 10**5)
        statuses = report.condition_statuses()
        decided = {s for s in statuses if s != "unknown"}
        assert len(decided) <= 1, (g1.edges, g2.edges, statuses)
        assert report.consistent
        if decided:
            decided_pairs += 1
        if report.constructive.get("attempted"):
            assert report.constructive["ok"], (g1.edges, g2.edges)
            constructive_hits += 1
        assert report.unreduced_proposition["agree"]
        assert report.unreduced_proposition["rank_matches_vertices_minus_components"]
    assert decided_pairs >= 90
    assert constructive_hits >= 20
    _report(f"criterion 5 (property X on {len(pairs)} pairs, "
            f"{constructive_hits} constructive replays)", started, 300.0)


def test_criterion_6_planarity_cross_validation(catalog6, k5, k33, petersen):
    started = time.monotonic()
    corpus = list(catalog6) + [k5, k33, petersen]
    n6 = sum(1 for g in catalog6 if g.num_vertices == 6)
    assert n6 == 112
    undecided = 0
    for g in corpus:
        dp = decide_planarity(g, budget=2 * 10**6, seed=0)
        ko = kuratowski_oracle(g, budget=10**6)
        mo = maclane_oracle(g, budget=2 * 10**5)
        votes = {dp.status, ko.status}
        if mo is True:
            votes.add("planar")
        elif mo is False:
            votes.add("nonplanar")
        votes.discard("unknown")
        assert len(votes) <= 1, (g.name, g.edges, dp.status, ko.status, mo)
        if dp.status == "planar":
            cert = dp.certificate
            loops, isthmuses = classify_edges(g)
            assert cert.trace == 2 * (g.num_edges - len(isthmuses))
            assert verify_abstract_dual(g, cert.dual_graph, cert.edge_bijection).ok
            assert cert.replay_core(g)
        elif dp.status == "nonplanar":
            assert verify_kuratowski_evidence(g, dp.evidence)
        else:
            undecided += 1
    assert undecided == 0, "every corpus graph must be decided"
    _report(f"criterion 6 (planarity on {len(corpus)} graphs)", started, 900.0)


def test_criterion_7_randomized_invariant_load():
    started = time.monotonic()
    import test_properties as props

    assert sum(props.CASE_BUDGETS.values()) >= 10**4
    props.EXECUTED.clear()
    for name in props.CASE_BUDGETS:
        getattr(props, name)()
    total = sum(props.EXECUTED.values())
    assert total >= 10**4, f"only {total} randomized cases executed"
    _report(f"criterion 7 (property suites, {total} cases)", started, 900.0)
