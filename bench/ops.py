"""Execute one benchmark operation the way the CLI does, and check its answer.

`execute` builds the input from its JSON wire form, calls the library and
serializes the result with `serialization.dumps`, all inside the timed
region.  `check` runs afterwards, outside it, against networkx and sympy as
independent oracles plus explicit witness replays; both are imported inside
the checks, so they stay out of the timed passes and of `peak_rss_mb`.
Library functions are looked up on their modules at call time, so a traced
pass sees its wrappers.
"""

from __future__ import annotations

import hashlib
import signal
import time
from dataclasses import dataclass

from lapdual import congruence, duality, laplacians, serialization

import workloads

LIBRARY_ROOT = "lapdual"


class Deadline(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler in
    the library can swallow it.  `where` lists the library frames that were
    running, outermost first, each as (module.function, is public)."""

    def __init__(self, where):
        super().__init__("deadline")
        self.where = where


def _on_alarm(signum, frame):
    where = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.split(".")[0] == LIBRARY_ROOT:
            name = frame.f_code.co_name
            public = getattr(frame.f_globals.get(name), "__code__", None) is frame.f_code \
                and not name.startswith("_")
            where.append((f"{module.split('.')[-1]}.{name}", public))
        frame = frame.f_back
    raise Deadline(tuple(reversed(where)))


@dataclass
class Outcome:
    seconds: float
    status: str = None  # verdict summary; None when the op did not finish
    decided: bool = False
    digest: str = None
    result: object = None
    error: str = None  # "deadline", or the exception the library raised
    where: tuple = ()


def _verdict(workload, result):
    if workload == "planarity":
        return result.status, result.status in ("planar", "nonplanar")
    statuses = result.condition_statuses()
    return ",".join(statuses), "unknown" not in statuses


def _call(workload, wire):
    graphs = [serialization.graph_from_json(w) for w in wire]
    if workload == "planarity":
        return duality.decide_planarity(graphs[0], workloads.PLANARITY_BUDGET, 0)
    return congruence.property_x_report(*graphs, workloads.PROPERTY_X_BUDGET)


def execute(workload, wire, deadline_s, keep_result=False):
    """Run one op under a SIGALRM deadline; never raises for library errors."""
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = _call(workload, wire)
            text = serialization.dumps(result)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline as exc:
        return Outcome(time.perf_counter() - start, error="deadline", where=exc.where)
    except Exception as exc:  # a library failure is a failed op, not a crash
        return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    status, decided = _verdict(workload, result)
    return Outcome(seconds, status, decided,
                   hashlib.sha256(text.encode()).hexdigest(),
                   result if keep_result else None)


# ---------------------------------------------------------------- checks

def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _replays(w, a, b):
    """W A W^T == B on plain nested lists, without the library's IntMatrix."""
    wt = [list(col) for col in zip(*w)]
    return _matmul(_matmul(w, a), wt) == [list(row) for row in b]


def _nx_graph(g):
    """networkx copy of a planarity input; those are simple graphs."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.num_vertices))
    h.add_edges_from(g.edges)
    return h


def nx_planar(g):
    import networkx as nx
    return nx.check_planarity(_nx_graph(g))[0]


def _check_planarity(op, result):
    import networkx as nx
    g = op.graphs[0]
    planar = nx_planar(g)
    if result.status == "planar":
        if not planar:
            return "planar verdict on a nonplanar graph"
        bridges = list(nx.bridges(_nx_graph(g)))
        if result.certificate.trace != 2 * (g.num_edges - len(bridges)):
            return "certificate trace is not 2 * (non-isthmus edges)"
        if not result.certificate.replay_core(g):
            return "certificate does not replay"
    elif result.status == "nonplanar":
        if planar:
            return "nonplanar verdict on a planar graph"
        if not duality.verify_kuratowski_evidence(g, result.evidence):
            return "Kuratowski evidence does not verify"
    return None


def _check_verdict(verdict, a, b):
    """Replay a congruence witness, or recompute a separating invariant with
    sympy."""
    if verdict.status == "congruent" and not _replays(verdict.witness.u.data, a.data, b.data):
        return "congruence witness does not replay"
    if verdict.status == "not_congruent":
        name, left, right = verdict.separating_invariant
        if left == right:
            return f"separating invariant {name} does not separate"
        if (sympy_invariant(name, a.data), sympy_invariant(name, b.data)) != (left, right):
            return f"sympy does not confirm the separating invariant {name}"
    return None


def _check_property_x(op, report):
    g1, g2 = op.graphs
    cond1 = report.cond1_reduced_congruence
    err = _check_verdict(cond1, laplacians.reduced_laplacian(g1), laplacians.reduced_laplacian(g2))
    if err:
        return err
    lhs = report.unreduced_proposition["laplacian_congruence"]
    err = _check_verdict(lhs, laplacians.laplacian(g1), laplacians.laplacian(g2))
    if err:
        return "unreduced: " + err
    if not report.consistent:
        return "the four conditions disagree"
    if report.constructive.get("attempted") and not report.constructive.get("ok"):
        return "constructive direction failed"
    if not report.unreduced_proposition["agree"]:
        return "unreduced proposition disagrees"
    if op.truth is True:
        if report.cond4_two_isomorphism.status == "not_two_isomorphic":
            return "2-isomorphic by construction, reported not 2-isomorphic"
        if cond1.status == "not_congruent":
            return "congruent by construction, reported not congruent"
    return None


def sympy_invariant(name, rows):
    """Recompute a determinant or Smith form with sympy.  On the connected
    graphs of these workloads size, rank and inertia always agree, so det
    and snf are the invariants that separate."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form
    m = sympy.Matrix(rows)
    if name == "det":
        return int(m.det(method="bareiss"))
    if name == "snf":
        d = smith_normal_form(m, domain=sympy.ZZ)
        return tuple(abs(int(d[i, i])) for i in range(min(d.shape)))
    return None


CHECKS = {
    "planarity": _check_planarity,
    "property-x": _check_property_x,
}


def check(workload, op, outcome):
    """None when the op's answer is right, else a one-line reason."""
    return CHECKS[workload](op, outcome.result)
