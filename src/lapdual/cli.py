"""Batch command-line front end.

Reads graph/matrix JSON, runs one subcommand, prints one JSON document (or
DOT text) and exits with: 0 success or affirmative decision, 1 negative
decision, 2 unknown (budget ran out), 64 usage error, 65 malformed input.

Each subcommand is declared once, as a row of `_COMMANDS`: its help line,
argument names and runner.  `build_parser` adds one subparser per row, and
`run` hands the parsed arguments to the row's runner, so the parser holds
every default.  Only the four searches (`check-congruence`, `check-2iso`,
`planarity`, `find-dual`) take `--budget`, whose default `LAPDUAL_BUDGET`
overrides; no other command reads either, and one given `--budget` fails
with a usage error that names the four.

The front end loads only `argparse`, `os`, `sys` and `errors`.  `_load_json`
imports `json`, and a runner reaches its layers through the package's lazy
exports, so `--help` and usage errors load none of them.
"""

import argparse
import os
import sys

import lapdual

from .errors import (PROPERTY_TAGS, BudgetExceeded, LapdualError, MalformedInput,
                     NonplanarInput, UnknownTag)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_MALFORMED = 65

# a decision exits by its tri-state reading
DECISION_EXITS = {"true": EXIT_OK, "false": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}
# an error exits by the first row whose types it matches; every other library
# error is the violation of an input contract: the file parsed, but its
# content cannot be used with the requested operation
ERROR_EXITS = (((UnknownTag, ValueError), EXIT_USAGE),
               (BudgetExceeded, EXIT_UNKNOWN),
               (NonplanarInput, EXIT_NEGATIVE),
               (LapdualError, EXIT_MALFORMED))

DEFAULT_BUDGET = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_index_tokens(text, prefix):
    """Comma-separated indices; bare integers are 0-based, `e3`/`v3` style
    tokens use 1-based labels."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token[0].lower() == prefix:
            out.append(int(token[1:]) - 1)
        else:
            out.append(int(token))
    return out


def _load_json(path):
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _graph(path):
    from .serialization import graph_from_json
    return graph_from_json(_load_json(path))


def _matrix(path):
    from .serialization import matrix_from_json
    return matrix_from_json(_load_json(path))


def _v0(args):
    return None if args.v0 is None else _parse_index_tokens(args.v0, "v")


def _ok(payload):
    return payload, EXIT_OK


def _decision(result):
    return result, DECISION_EXITS[result.truth]


def _on_forest(build, args):
    """build(g, forest) on the input graph and the --forest edges; a build
    takes the greedy maximal forest when none is given."""
    g = _graph(args.graph)
    f = None if args.forest is None else \
        lapdual.ForestCertificate.from_forest(g, _parse_index_tokens(args.forest, "e"))
    return _ok(build(g, f))


def _verify_property(args):
    report = lapdual.verify_property(_graph(args.graph), args.tag)
    return report, EXIT_OK if report.passed else EXIT_NEGATIVE


def _verify_dual(args):
    g1, g2 = _graph(args.graph_a), _graph(args.graph_b)
    beta = range(g1.num_edges) if args.beta == "identity" else \
        _parse_index_tokens(args.beta, "e")
    report = lapdual.verify_abstract_dual(g1, g2, beta)
    return report, EXIT_OK if report.ok else EXIT_NEGATIVE


def _emit_dot(args):
    from .serialization import emit_dot
    return _ok(emit_dot(_graph(args.graph)))


# subcommand -> (help, arguments, runner), in --help order.  A command's
# arguments are added in the order given, so --budget, which only the four
# searches take, stays ahead of --out in their help.  A runner maps the parsed
# arguments to (payload, exit code), the payload being a raw string for DOT
_COMMANDS = {
    "laplacian": ("Laplacian matrix", ("--out", "graph"),
                  lambda a: _ok(lapdual.laplacian(_graph(a.graph)))),
    "reduced-laplacian": ("reduced Laplacian", ("--out", "graph", "--v0"),
                          lambda a: _ok(lapdual.reduced_laplacian(_graph(a.graph), _v0(a)))),
    "incidence": ("incidence matrix (reduced when --v0 is given)", ("--out", "graph", "--v0"),
                  lambda a: _ok(lapdual.incidence(_graph(a.graph)) if a.v0 is None else
                                lapdual.reduced_incidence(_graph(a.graph), _v0(a)))),
    "cut-block": ("fundamental-cut block", ("--out", "graph", "--forest"),
                  lambda a: _on_forest(lapdual.cut_block, a)),
    "flow-matrix": ("fundamental-circuit matrix", ("--out", "graph", "--forest"),
                    lambda a: _on_forest(lapdual.flow_matrix, a)),
    "dual-laplacian": ("reduced and bordered dual Laplacian", ("--out", "graph", "--forest"),
                       lambda a: _on_forest(lapdual.reduced_dual_laplacian, a)),
    "snf": ("Smith normal form with witnesses", ("--out", "matrix"),
            lambda a: _ok(lapdual.smith_normal_form(_matrix(a.matrix)))),
    "check-congruence": ("integer congruence of two symmetric matrices",
                         ("--budget", "--out", "matrix_a", "matrix_b"),
                         lambda a: _decision(lapdual.decide_congruence(
                             _matrix(a.matrix_a), _matrix(a.matrix_b), a.budget))),
    "check-2iso": ("2-isomorphism of two multigraphs",
                   ("--budget", "--out", "graph_a", "graph_b"),
                   lambda a: _decision(lapdual.decide_2_isomorphism_bruteforce(
                       _graph(a.graph_a), _graph(a.graph_b), a.budget))),
    "verify-property": ("check one Laplacian property tag", ("--out", "tag", "graph"),
                        _verify_property),
    "planarity": ("certified planarity decision", ("--budget", "--out", "graph"),
                  lambda a: _decision(lapdual.decide_planarity(_graph(a.graph), a.budget))),
    "find-dual": ("construct and verify an abstract dual", ("--budget", "--out", "graph"),
                  lambda a: _ok(lapdual.construct_abstract_dual(_graph(a.graph), a.budget))),
    "verify-dual": ("verify an abstract-dual edge bijection",
                    ("--out", "graph_a", "graph_b", "--beta"), _verify_dual),
    "emit-dot": ("render a graph as DOT text", ("--out", "graph"), _emit_dot),
}

# the arguments that need more than a bare name
_ARGUMENTS = {
    "tag": {"metavar": "TAG", "help": "one of: " + ", ".join(PROPERTY_TAGS)},
    "--out": {"help": "write the JSON/DOT result to this path"},
    "--forest": {"help": "explicit forest edges, e.g. e1,e2,e4 (1-based) or 0,1,3"},
    "--v0": {"help": "deleted vertices, e.g. v3 (1-based) or 2"},
    "--beta": {"default": "identity",
               "help": "comma-separated image positions, or 'identity'"},
}


def build_parser():
    # argparse runs a string default through `type` when the flag is absent,
    # so a non-integer LAPDUAL_BUDGET is a usage error like a bad --budget
    arguments = {**_ARGUMENTS, "--budget": {
        "type": int, "default": os.environ.get("LAPDUAL_BUDGET", DEFAULT_BUDGET),
        "help": "elementary steps allowed for searches"}}
    parser = _Parser(prog="lapdual",
                     description="Exact integer Laplacian/dual-Laplacian toolkit "
                                 "for multigraphs: congruence, 2-isomorphism, "
                                 "duality and planarity certificates.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, names, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in names:
            p.add_argument(arg, **arguments.get(arg, {}))
    return parser


def _error(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def run(args) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    from . import serialization

    try:
        payload, code = _COMMANDS[args.command][2](args)
    except (ValueError, LapdualError) as exc:
        payload = _error(exc)
        code = next(code for types, code in ERROR_EXITS if isinstance(exc, types))
    text = payload if isinstance(payload, str) else serialization.dumps(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            # an --out that cannot be written is a usage error, reported on stdout
            text, code = serialization.dumps(_error(exc)), EXIT_USAGE
    sys.stdout.write(text)
    return code


def _unrecognized(leftovers):
    """argparse's message for arguments no parser took, unless one is
    --budget: then the message names the commands that take it."""
    if any(arg.split("=")[0] == "--budget" for arg in leftovers):
        searches = [name for name, (_, names, _) in _COMMANDS.items() if "--budget" in names]
        return f"--budget is taken only by {', '.join(searches[:-1])} and {searches[-1]}"
    return "unrecognized arguments: " + " ".join(leftovers)


def main(argv=None) -> int:
    parser = build_parser()
    args, leftovers = parser.parse_known_args(argv)
    if leftovers:
        parser.error(_unrecognized(leftovers))
    if getattr(args, "budget", 0) < 0:
        parser.error("--budget must be nonnegative")
    # lift CPython's 4,300-digit limit on int <-> str while the command runs
    if not hasattr(sys, "set_int_max_str_digits"):
        return run(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return run(args)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
