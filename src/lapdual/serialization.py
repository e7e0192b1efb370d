"""JSON wire formats and DOT emission.

Matrix entries are serialized as decimal strings uniformly so that arbitrary
precision survives any JSON reader; graphs are 0-based edge lists whose list
position is the edge index.
"""

from __future__ import annotations

import functools
import json
from dataclasses import is_dataclass

from .congruence import CongruenceVerdict, PropertyXReport
from .duality import (DualCertificate, DualityReport, KuratowskiEvidence,
                      PlanarityResult, SuperbaseState)
from .errors import MalformedInput
from .graphs import (ForestCertificate, MultiGraph, Orientation,
                     TwoIsomorphismResult)
from .intmatrix import IntMatrix, SnfResult, UnimodularWitness
from .laplacians import DualLaplacianPair, PropertyReport, ReductionSpec


def _reader(what):
    """Make a JSON reader raise MalformedInput("bad <what> JSON: ...") when the
    object does not fit its schema."""

    def decorate(read):
        @functools.wraps(read)
        def reader(obj):
            try:
                return read(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedInput(f"bad {what} JSON: {exc}") from exc

        return reader

    return decorate


def graph_to_json(g: MultiGraph) -> dict:
    return {"name": g.name, "num_vertices": g.num_vertices,
            "edges": [[u, v] for u, v in g.edges]}


@_reader("graph")
def graph_from_json(obj) -> MultiGraph:
    if not isinstance(obj, dict):
        raise MalformedInput("graph JSON must be an object")
    name = obj.get("name", "")
    n = int(obj["num_vertices"])
    edges = [(int(u), int(v)) for u, v in obj["edges"]]
    return MultiGraph.from_edges(n, edges, name=str(name))


def matrix_to_json(a: IntMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols,
            "data": [[str(x) for x in row] for row in a.data]}


@_reader("matrix")
def matrix_from_json(obj) -> IntMatrix:
    if not isinstance(obj, dict):
        raise MalformedInput("matrix JSON must be an object")
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    data = [[int(x) for x in row] for row in obj["data"]]
    m = IntMatrix.from_rows(data, cols=cols)
    if m.rows != rows or m.cols != cols:
        raise MalformedInput("matrix JSON shape mismatch")
    return m


def witness_from_json(obj) -> UnimodularWitness:
    return UnimodularWitness(matrix_from_json(obj))


@_reader("forest")
def forest_from_json(obj) -> ForestCertificate:
    return ForestCertificate(tuple(int(e) for e in obj["forest_edges"]),
                             tuple(int(e) for e in obj["cotree_edges"]))


@_reader("SNF")
def snf_from_json(obj) -> SnfResult:
    return SnfResult(diag=tuple(int(d) for d in obj["diag"]),
                     left=witness_from_json(obj["left"]),
                     right=witness_from_json(obj["right"]))


@_reader("verdict")
def verdict_from_json(obj) -> CongruenceVerdict:
    sep = obj.get("separating_invariant")
    if sep is not None:
        left = sep["left"]
        right = sep["right"]
        if isinstance(left, list):
            left = tuple(int(x) for x in left)
            right = tuple(int(x) for x in right)
        sep = (sep["name"], left, right)
    witness = obj.get("witness")
    return CongruenceVerdict(
        status=obj["status"],
        witness=witness_from_json(witness) if witness else None,
        separating_invariant=sep,
        note=obj.get("note", ""))


@_reader("2-isomorphism")
def two_iso_from_json(obj) -> TwoIsomorphismResult:
    bij = obj.get("bijection")
    return TwoIsomorphismResult(
        status=obj["status"],
        bijection=tuple(int(x) for x in bij) if bij is not None else None,
        reason=obj.get("reason", ""),
        nodes_used=int(obj.get("nodes_used", 0)))


@_reader("minor-evidence")
def evidence_from_json(obj) -> KuratowskiEvidence:
    return KuratowskiEvidence(
        kind=obj["kind"],
        branch_sets=tuple(tuple(int(v) for v in s) for s in obj["branch_sets"]))


@_reader("certificate")
def certificate_from_json(obj) -> DualCertificate:
    """Rebuild a dual certificate; the dual orientation is always the default
    orientation of the serialized dual graph."""
    dual = graph_from_json(obj["dual_graph"])
    lap = obj.get("laplacian_witness")
    return DualCertificate(
        dual_graph=dual,
        dual_orientation=Orientation.default(dual),
        witness_z=witness_from_json(obj["witness_z"]),
        edge_bijection=tuple(int(x) for x in obj["beta"]),
        trace=int(obj["trace"]),
        core_edges=tuple(int(e) for e in obj["core_edges"]),
        core_forest=forest_from_json(obj["core_forest"]),
        core_v0=ReductionSpec.of(obj["core_v0"]),
        laplacian_witness=witness_from_json(lap) if lap else None)


@_reader("planarity")
def planarity_from_json(obj) -> PlanarityResult:
    cert = obj.get("certificate")
    ev = obj.get("evidence")
    best = obj.get("best_trace")
    return PlanarityResult(
        status=obj["status"],
        certificate=certificate_from_json(cert) if cert else None,
        evidence=evidence_from_json(ev) if ev else None,
        best_trace=int(best) if best is not None else None,
        note=obj.get("note", ""))


@_reader("duality-report")
def duality_report_from_json(obj) -> DualityReport:
    return DualityReport(ok=bool(obj["ok"]),
                         forest_size_identity=bool(obj["forest_size_identity"]),
                         complement_bijection=bool(obj["complement_bijection"]),
                         forest_counts=tuple(int(x) for x in obj["forest_counts"]))


@_reader("dual-Laplacian")
def dual_pair_from_json(obj) -> DualLaplacianPair:
    return DualLaplacianPair(reduced=matrix_from_json(obj["reduced"]),
                             unreduced=matrix_from_json(obj["unreduced"]),
                             witness=witness_from_json(obj["witness"]),
                             gram_base=matrix_from_json(obj["gram_base"]))


def to_jsonable(value):
    """Best-effort conversion of result objects into JSON-ready structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, IntMatrix):
        return matrix_to_json(value)
    if isinstance(value, UnimodularWitness):
        return matrix_to_json(value.u)
    if isinstance(value, MultiGraph):
        return graph_to_json(value)
    if isinstance(value, Orientation):
        return [bool(b) for b in value.reversed]
    if isinstance(value, ForestCertificate):
        return {"forest_edges": list(value.forest_edges),
                "cotree_edges": list(value.cotree_edges)}
    if isinstance(value, ReductionSpec):
        return list(value.v0)
    if isinstance(value, SnfResult):
        return {"diag": [str(d) for d in value.diag],
                "left": matrix_to_json(value.left.u),
                "right": matrix_to_json(value.right.u)}
    if isinstance(value, CongruenceVerdict):
        sep = value.separating_invariant
        return {"status": value.status,
                "witness": matrix_to_json(value.witness.u) if value.witness else None,
                "separating_invariant": None if sep is None else
                {"name": sep[0], "left": to_jsonable(sep[1]), "right": to_jsonable(sep[2])},
                "note": value.note}
    if isinstance(value, TwoIsomorphismResult):
        return {"status": value.status,
                "bijection": list(value.bijection) if value.bijection else None,
                "reason": value.reason, "nodes_used": value.nodes_used}
    if isinstance(value, KuratowskiEvidence):
        return {"kind": value.kind,
                "branch_sets": [list(s) for s in value.branch_sets]}
    if isinstance(value, DualCertificate):
        return {"dual_graph": graph_to_json(value.dual_graph),
                "witness_z": matrix_to_json(value.witness_z.u),
                "beta": list(value.edge_bijection),
                "trace": value.trace,
                "core_edges": list(value.core_edges),
                "core_forest": to_jsonable(value.core_forest),
                "core_v0": to_jsonable(value.core_v0),
                "laplacian_witness": matrix_to_json(value.laplacian_witness.u)
                if value.laplacian_witness else None}
    if isinstance(value, PlanarityResult):
        return {"status": value.status,
                "certificate": to_jsonable(value.certificate),
                "evidence": to_jsonable(value.evidence),
                "best_trace": value.best_trace,
                "note": value.note}
    if isinstance(value, SuperbaseState):
        return {"f_hat": matrix_to_json(value.f_hat),
                "gram": matrix_to_json(value.gram),
                "trace": value.trace,
                "move_log": [list(mv) for mv in value.move_log],
                "budget_exhausted": value.budget_exhausted}
    if isinstance(value, DualLaplacianPair):
        return {"reduced": matrix_to_json(value.reduced),
                "unreduced": matrix_to_json(value.unreduced),
                "witness": matrix_to_json(value.witness.u),
                "gram_base": matrix_to_json(value.gram_base)}
    if isinstance(value, (PropertyReport,)):
        return {"tag": value.tag, "passed": value.passed,
                "details": {k: to_jsonable(v) for k, v in value.details.items()}}
    if isinstance(value, PropertyXReport):
        return {"cond1": to_jsonable(value.cond1_reduced_congruence),
                "cond2": {"status": value.cond2_strict_reduced.status},
                "cond3": {"status": value.cond3_loose_unreduced.status},
                "cond4": to_jsonable(value.cond4_two_isomorphism),
                "consistent": value.consistent,
                "constructive_ok": value.constructive.get("ok"),
                "unreduced_agree": value.unreduced_proposition.get("agree")}
    if isinstance(value, DualityReport):
        return {"ok": value.ok,
                "forest_size_identity": value.forest_size_identity,
                "complement_bijection": value.complement_bijection,
                "forest_counts": list(value.forest_counts)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [to_jsonable(v) for v in seq]
    if is_dataclass(value):
        return {k: to_jsonable(v) for k, v in vars(value).items()}
    return str(value)


def dumps(value) -> str:
    """Canonical, byte-stable JSON text."""
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2) + "\n"


def emit_dot(g: MultiGraph, o: Orientation = None) -> str:
    """Presentation-only DOT rendering; carries no mathematical content."""
    if o is None:
        o = Orientation.default(g)
    lines = ["digraph {0} {{".format(json.dumps(g.name or "g"))]
    for v in range(g.num_vertices):
        lines.append(f"  v{v};")
    for e in range(g.num_edges):
        tail, head = o.endpoints(g, e)
        lines.append(f"  v{tail} -> v{head} [label=\"e{e + 1}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
