"""The benchmark's contract with the library: every seed-1 op of both
workloads runs through `bench/ops.py` as the benchmark runs it, finishes
within its deadline, is decided, and passes the benchmark's own check.  The
bench reads the verdicts' wire words, so this pins them too."""

import pathlib
import signal

import pytest

from lapdual.serialization import graph_to_json

BENCH = pathlib.Path(__file__).parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import ops
    import workloads
    handler = signal.getsignal(signal.SIGALRM)
    yield ops, workloads
    # `execute` leaves its SIGALRM handler installed
    signal.signal(signal.SIGALRM, handler)


@pytest.mark.parametrize("workload", ["planarity", "property-x"])
def test_seed_one_ops_are_decided_and_checked(bench, workload):
    ops, workloads = bench
    for op in workloads.WORKLOADS[workload](1):
        wire = [graph_to_json(g) for g in op.graphs]
        outcome = ops.execute(workload, wire, workloads.DEADLINE_S[workload],
                              keep_result=True)
        edges = [g.edges for g in op.graphs]
        assert outcome.error is None, (op.kind, edges, outcome.error, outcome.where)
        assert outcome.decided, (op.kind, edges, outcome.status)
        assert ops.check(workload, op, outcome) is None, (op.kind, edges)
