"""lapdual benchmark: the planarity and property-x workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload planarity --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each op starts when the previous one
has returned.  Pass 0 runs every seeded input under a per-op SIGALRM
deadline; inputs that miss it are abandoned, reported with their edge lists
and left out of the repeat passes, which run until `--seconds` have passed
since pass 0 began (at least one).  Every repeat must give pass 0's `dumps`
bytes again, and every answer is checked after the timed passes.

--trace 0 reports the end-to-end metrics; --trace 1 runs one traced repeat
pass instead and reports the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with exactly
the metrics BENCHMARK.json declares.  bench/WORKLOADS.md documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup_s is the median of 15 fresh interpreters, run in three batches spread
# over the run, because CPU speed on a shared host drifts over seconds
SETUP_BATCH = 5
SETUP_CODE = "import lapdual.cli as cli; cli.build_parser()"
TRACED_DEADLINE_FACTOR = 4


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def setup_samples():
    """Wall times of SETUP_BATCH fresh interpreters importing the CLI and
    building its parser: the cold start every `lapdual` invocation pays."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


class Run:
    """The passes of one workload and what they found."""

    def __init__(self, workload, ops_, deadline_s):
        self.workload = workload
        self.ops = ops_
        self.wire = [[serialization.graph_to_json(g) for g in op.graphs] for op in ops_]
        self.deadline_s = deadline_s
        self.first = []  # pass 0 outcomes, results kept for the checks
        self.times = [[] for _ in ops_]  # per op: seconds in each pass it finished
        self.pass_seconds = []  # per pass: summed time of the ops that finished
        self.mismatches = []  # (op index, pass number)
        self.repeat_errors = []  # (op index, pass number, error)

    def first_pass(self):
        for i, wire in enumerate(self.wire):
            o = ops.execute(self.workload, wire, self.deadline_s, keep_result=True)
            self.first.append(o)
            if o.error is None:
                self.times[i].append(o.seconds)
        self.live = [i for i, o in enumerate(self.first) if o.error is None]
        self.pass_seconds.append(sum(self.first[i].seconds for i in self.live))

    def repeat_pass(self, deadline_s=None, record=True):
        """Re-run the ops that finished in pass 0; returns the summed time."""
        total = 0.0
        number = len(self.pass_seconds)
        for i in self.live:
            o = ops.execute(self.workload, self.wire[i], deadline_s or self.deadline_s)
            if o.error is not None:
                self.repeat_errors.append((i, number, o.error))
                continue
            if o.digest != self.first[i].digest:
                self.mismatches.append((i, number))
            total += o.seconds
            if record:
                self.times[i].append(o.seconds)
        if record:
            self.pass_seconds.append(total)
        return total

    def latencies(self):
        """Per op, its median over passes; an op that never finished counts
        at the deadline, slower than every op that did."""
        return [statistics.median(t) if t else self.deadline_s for t in self.times]

    def failures(self):
        return [i for i, o in enumerate(self.first) if o.error is not None]

    def digest(self):
        h = hashlib.sha256()
        for o in self.first:
            h.update((o.digest or o.error).encode())
        return h.hexdigest()[:16]


def run_checks(run):
    wrong = []
    for i in run.live:
        reason = ops.check(run.workload, run.ops[i], run.first[i])
        if reason:
            wrong.append((i, reason))
    return wrong


def end_to_end(run, setup_s, peak_rss_mb):
    attempted = len(run.ops)
    decided = sum(1 for o in run.first if o.decided)
    wall = statistics.median(run.pass_seconds)
    latencies = run.latencies()
    return {
        "op_p50_ms": (1e3 * _percentile(latencies, 50), "ms"),
        "op_p90_ms": (1e3 * _percentile(latencies, 90), "ms"),
        "wall_s": (wall, "s"),
        "decided_ratio": (decided / attempted, "ratio"),
        "decided_per_s": (decided / wall if wall else 0.0, "1/s"),
        "ok_ratio": (len(run.live) / attempted, "ratio"),
        "failed_ratio": (len(run.failures()) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


SEARCHES = ("duality.superbase_trace_minimize", "duality.kuratowski_oracle",
            "graphs.decide_2_isomorphism_bruteforce", "congruence.decide_congruence")
LAYER_STATS = {
    "duality.superbase_trace_minimize": ("self_s", "units", "units_per_s"),
    "duality.kuratowski_oracle": ("self_s", "units_per_s", "decided_ratio"),
    "duality.lemma_center_recover": ("self_s",),
    "duality.verify_kuratowski_evidence": ("self_s",),
    "graphs.classify_edges": ("calls", "self_s"),
    "graphs.enumerate_circuits": ("self_s",),
    "graphs.enumerate_maximal_forests": ("self_s",),
    "graphs.loopless_isomorphic": ("self_s",),
    "graphs.decide_2_isomorphism_bruteforce": ("self_s", "units_per_s", "decided_ratio"),
    "congruence.decide_congruence": ("self_s", "units_per_s", "decided_ratio"),
    "congruence.congruence_invariants": ("self_s",),
    "congruence.strict_row_equivalence": ("calls", "self_s"),
    "congruence.loose_row_equivalence": ("calls", "self_s"),
    "intmatrix.smith_normal_form": ("calls", "self_s"),
    "intmatrix.inertia": ("calls", "self_s"),
    "intmatrix.det_bareiss": ("calls", "self_s"),
    "intmatrix.hermite_normal_form": ("calls", "self_s"),
    "intmatrix.inverse_unimodular": ("calls", "self_s"),
    "intmatrix.IntMatrix.mul": ("calls", "self_s"),
    "laplacians.flow_matrix": ("self_s",),
    "laplacians.reduced_laplacian": ("self_s",),
    "laplacians.reduced_incidence": ("self_s",),
    "serialization.dumps": ("self_s",),
    "cli.build_parser": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "units": "count", "units_per_s": "1/s",
         "decided_ratio": "ratio"}


def traced_pass(run):
    """One pass over the inputs that finished untraced, under the tracer;
    returns (tracer, traced seconds)."""
    tracer = Tracer()
    with tracer:
        cli.build_parser()  # the CLI front end's own cost, once per pass
        seconds = run.repeat_pass(TRACED_DEADLINE_FACTOR * run.deadline_s, record=False)
    return tracer, seconds


def per_layer(run, tracer, traced_s, floor_ratio):
    out = {}
    for fn, stats in LAYER_STATS.items():
        for name in stats:
            out[f"{fn}.{name}"] = (getattr(tracer.stats[fn], name), UNITS[name])
    out["duality.superbase_trace_minimize.floor_ratio"] = (floor_ratio, "ratio")
    rates = [tracer.stats[s].units_per_s for s in SEARCHES if tracer.stats[s].units_per_s]
    out["budget.units_per_s_spread"] = (max(rates) / min(rates) if rates else 1.0, "ratio")
    untraced = run.pass_seconds[0]
    out["trace.overhead_ratio"] = (traced_s / untraced if untraced else 1.0, "ratio")
    # top-level spans are the op's library calls; the parser is built outside ops
    top = tracer.top_level_s - tracer.stats["cli.build_parser"].total_s
    out["trace.top_level_share"] = (top / traced_s if traced_s else 1.0, "ratio")
    return out


def floor_ratio(run):
    """Planar inputs (by networkx) whose descent reached the trace floor, which
    is exactly when decide_planarity answers `planar`."""
    if run.workload != "planarity":
        return 0.0
    planar = [i for i, op in enumerate(run.ops) if ops.nx_planar(op.graphs[0])]
    reached = sum(1 for i in planar if run.first[i].status == "planar")
    return reached / len(planar) if planar else 0.0


def report(run, metrics, wrong):
    slowest = max((max(t) for t in run.times if t), default=0.0)
    print(f"workload {run.workload}: {len(run.ops)} inputs, {len(run.pass_seconds)} untraced "
          f"passes, deadline {run.deadline_s} s, slowest finished op {slowest:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6g} {unit}")
    decided = {}
    for op, o in zip(run.ops, run.first):
        counts = decided.setdefault(op.kind, [0, 0])
        counts[0] += o.decided
        counts[1] += 1
    print("  decided by kind: " + ", ".join(f"{k} {d}/{n}" for k, (d, n) in decided.items()))
    print(f"  output digest {run.digest()}")
    for i in run.failures():
        o = run.first[i]
        print("  failed " + json.dumps({
            "op": i, "kind": run.ops[i].kind, "error": o.error,
            "in": [name for name, public in o.where if public],
            "at": [name for name, _ in o.where[-1:]],
            "graphs": [[g.num_vertices, [list(e) for e in g.edges]] for g in run.ops[i].graphs],
        }))
    for i, reason in wrong:
        print(f"  wrong op {i} ({run.ops[i].kind}): {reason}")
    for i, number in run.mismatches:
        print(f"  nondeterministic op {i} ({run.ops[i].kind}): pass {number} bytes differ")
    for i, number, error in run.repeat_errors:
        print(f"  op {i} ({run.ops[i].kind}) finished in pass 0 but not in pass {number}: {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, workloads.WORKLOADS[args.workload](args.seed),
              workloads.DEADLINE_S[args.workload])
    setup = []
    started = time.perf_counter()
    run.first_pass()
    if args.trace:
        tracer, traced_s = traced_pass(run)
    else:
        setup += setup_samples()
        while True:
            run.repeat_pass()
            if time.perf_counter() - started >= args.seconds:
                break
        setup += setup_samples()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = run_checks(run)
    if args.trace:
        metrics = per_layer(run, tracer, traced_s, floor_ratio(run))
    else:
        setup += setup_samples()
        metrics = end_to_end(run, statistics.median(setup), peak_rss_mb)
    report(run, metrics, wrong)

    # attempted and failed count inputs, not executions: how many repeat
    # passes fit in --seconds varies from run to run, and the counts of two
    # runs of one seed must agree
    failed = set(run.failures())
    failed.update(i for i, _ in wrong)
    failed.update(i for i, _ in run.mismatches)
    failed.update(i for i, _, _ in run.repeat_errors)
    errors = [o.error for o in run.first] + [error for _, _, error in run.repeat_errors]
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": not wrong and not run.mismatches
        and all(error in (None, "deadline") for error in errors),
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0


def _declared_metrics(kind):
    """Names of the metrics BENCHMARK.json declares; the report above prints
    more, the result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


if not os.path.isdir(os.path.join(SRC, "lapdual")):
    sys.exit(f"{SRC}/lapdual not found: run from the root of a lapdual checkout")
sys.path[:0] = [SRC, HERE]

from lapdual import cli, serialization  # noqa: E402

import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
