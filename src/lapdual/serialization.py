"""JSON wire formats and DOT emission.

Matrix entries are serialized as decimal strings uniformly so that arbitrary
precision survives any JSON reader; graphs are 0-based edge lists whose list
position is the edge index.

Only the graph layer is imported up front: each reader imports the class it
builds, so reading and drawing a graph loads no matrix layer.
"""

from __future__ import annotations

import functools
import json
from dataclasses import is_dataclass

from .errors import MalformedInput
from .graphs import (ForestCertificate, MultiGraph, Orientation,
                     TwoIsomorphismResult)


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
    from .intmatrix import IntMatrix
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    data = [[int(x) for x in row] for row in obj["data"]]
    m = IntMatrix.from_rows(data, cols=cols)
    if m.rows != rows or m.cols != cols:
        raise MalformedInput("matrix JSON shape mismatch")
    return m


def witness_from_json(obj) -> UnimodularWitness:
    from .intmatrix import UnimodularWitness
    return UnimodularWitness(matrix_from_json(obj))


@_reader("forest")
def forest_from_json(obj) -> ForestCertificate:
    return ForestCertificate(tuple([int(e) for e in obj["forest_edges"]]),
                             tuple([int(e) for e in obj["cotree_edges"]]))


@_reader("SNF")
def snf_from_json(obj) -> SnfResult:
    from .intmatrix import SnfResult
    return SnfResult(diag=tuple([int(d) for d in obj["diag"]]),
                     left=witness_from_json(obj["left"]),
                     right=witness_from_json(obj["right"]))


@_reader("verdict")
def verdict_from_json(obj) -> CongruenceVerdict:
    from .congruence import CongruenceVerdict
    sep = obj.get("separating_invariant")
    if sep is not None:
        left = sep["left"]
        right = sep["right"]
        if isinstance(left, list):
            left = tuple([int(x) for x in left])
            right = tuple([int(x) for x in right])
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
        bijection=tuple([int(x) for x in bij]) if bij is not None else None,
        reason=obj.get("reason", ""),
        nodes_used=int(obj.get("nodes_used", 0)))


@_reader("minor-evidence")
def evidence_from_json(obj) -> KuratowskiEvidence:
    from .duality import KURATOWSKI_SETS, KuratowskiEvidence
    if obj["kind"] not in KURATOWSKI_SETS:
        raise ValueError(f"unknown kind {obj['kind']!r}")
    return KuratowskiEvidence(
        kind=obj["kind"],
        branch_sets=tuple([tuple([int(v) for v in s]) for s in obj["branch_sets"]]))


@_reader("certificate")
def certificate_from_json(obj) -> DualCertificate:
    """Rebuild a dual certificate, whose dual graph carries the default
    orientation."""
    from .duality import DualCertificate
    from .laplacians import ReductionSpec
    lap = obj.get("laplacian_witness")
    return DualCertificate(
        dual_graph=graph_from_json(obj["dual_graph"]),
        witness_z=witness_from_json(obj["witness_z"]),
        edge_bijection=tuple([int(x) for x in obj["beta"]]),
        trace=int(obj["trace"]),
        core_edges=tuple([int(e) for e in obj["core_edges"]]),
        core_forest=forest_from_json(obj["core_forest"]),
        core_v0=ReductionSpec.of(obj["core_v0"]),
        laplacian_witness=witness_from_json(lap) if lap else None)


@_reader("planarity")
def planarity_from_json(obj) -> PlanarityResult:
    from .duality import PlanarityResult
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
    from .duality import DualityReport
    return DualityReport(ok=bool(obj["ok"]),
                         forest_size_identity=bool(obj["forest_size_identity"]),
                         complement_bijection=bool(obj["complement_bijection"]),
                         forest_counts=tuple([int(x) for x in obj["forest_counts"]]))


@_reader("dual-Laplacian")
def dual_pair_from_json(obj) -> DualLaplacianPair:
    from .laplacians import DualLaplacianPair
    return DualLaplacianPair(reduced=matrix_from_json(obj["reduced"]),
                             unreduced=matrix_from_json(obj["unreduced"]),
                             witness=witness_from_json(obj["witness"]),
                             gram_base=matrix_from_json(obj["gram_base"]))


def _verdict_json(v):
    sep = v.separating_invariant
    return {"status": v.status,
            "witness": matrix_to_json(v.witness.u) if v.witness else None,
            "separating_invariant": None if sep is None else
            {"name": sep[0], "left": to_jsonable(sep[1]), "right": to_jsonable(sep[2])},
            "note": v.note}


def _certificate_json(c):
    return {"dual_graph": graph_to_json(c.dual_graph),
            "witness_z": matrix_to_json(c.witness_z.u),
            "beta": list(c.edge_bijection),
            "trace": c.trace,
            "core_edges": list(c.core_edges),
            "core_forest": to_jsonable(c.core_forest),
            "core_v0": to_jsonable(c.core_v0),
            "laplacian_witness": matrix_to_json(c.laplacian_witness.u)
            if c.laplacian_witness else None}


def _property_x_json(r):
    return {"cond1": to_jsonable(r.cond1_reduced_congruence),
            "cond2": {"status": r.cond2_strict_reduced.status},
            "cond3": {"status": r.cond3_loose_unreduced.status},
            "cond4": to_jsonable(r.cond4_two_isomorphism),
            "consistent": r.consistent,
            "constructive_ok": r.constructive.get("ok"),
            "unreduced_agree": r.unreduced_proposition.get("agree")}


# wire form of each result class, by class name: classes are matched without
# importing their layers, which a value of such a class has loaded already
_TO_JSON = {
    "IntMatrix": matrix_to_json,
    "UnimodularWitness": lambda w: matrix_to_json(w.u),
    "MultiGraph": graph_to_json,
    "Orientation": lambda o: [bool(b) for b in o.reversed],
    "ForestCertificate": lambda f: {"forest_edges": list(f.forest_edges),
                                    "cotree_edges": list(f.cotree_edges)},
    "ReductionSpec": lambda spec: list(spec.v0),
    "SnfResult": lambda r: {"diag": [str(d) for d in r.diag],
                            "left": matrix_to_json(r.left.u),
                            "right": matrix_to_json(r.right.u)},
    "CongruenceVerdict": _verdict_json,
    "TwoIsomorphismResult": lambda r: {"status": r.status,
                                       "bijection": list(r.bijection) if r.bijection else None,
                                       "reason": r.reason, "nodes_used": r.nodes_used},
    "KuratowskiEvidence": lambda ev: {"kind": ev.kind,
                                      "branch_sets": [list(s) for s in ev.branch_sets]},
    "DualCertificate": _certificate_json,
    "PlanarityResult": lambda r: {"status": r.status,
                                  "certificate": to_jsonable(r.certificate),
                                  "evidence": to_jsonable(r.evidence),
                                  "best_trace": r.best_trace,
                                  "note": r.note},
    "SuperbaseState": lambda st: {"f_hat": matrix_to_json(st.f_hat),
                                  "gram": matrix_to_json(st.gram),
                                  "trace": st.trace,
                                  "move_log": [list(mv) for mv in st.move_log],
                                  "budget_exhausted": st.budget_exhausted},
    "DualLaplacianPair": lambda p: {"reduced": matrix_to_json(p.reduced),
                                    "unreduced": matrix_to_json(p.unreduced),
                                    "witness": matrix_to_json(p.witness.u),
                                    "gram_base": matrix_to_json(p.gram_base)},
    "PropertyReport": lambda r: {"tag": r.tag, "passed": r.passed,
                                 "details": {k: to_jsonable(v) for k, v in r.details.items()}},
    "PropertyXReport": _property_x_json,
    "DualityReport": lambda r: {"ok": r.ok,
                                "forest_size_identity": r.forest_size_identity,
                                "complement_bijection": r.complement_bijection,
                                "forest_counts": list(r.forest_counts)},
}


def to_jsonable(value):
    """Best-effort conversion of result objects into JSON-ready structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    convert = _TO_JSON.get(type(value).__name__)
    if convert is not None:
        return convert(value)
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
