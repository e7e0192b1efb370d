"""Batch command-line front end.

Reads graph/matrix JSON, dispatches one subcommand, prints one JSON document
(or DOT text) and exits with: 0 success or affirmative decision, 1 negative
decision, 2 unknown (budget ran out), 64 usage error, 65 malformed input.

Each subcommand is declared once, as a row of `_COMMANDS`: its help line,
positional names and flags.  `build_parser` adds one subparser per row, and
`config_from_args` reads the input paths and flag values from the same row.

The front end loads only `argparse`, `os`, `sys` and `errors`.  `_load_json`
imports `json`, and `_dispatch` and `run` only the layers the subcommand runs,
so `--help` and usage errors load none of them.
"""

import argparse
import os
import sys

from .errors import (PROPERTY_TAGS, BudgetExceeded, EmptyOrFullSet,
                     InvalidReductionSpec, LapdualError, LoopCountMismatch,
                     MalformedInput, NotCotreeEdge, NotMaximalForest, NotSquare,
                     NotSymmetric, NotUnimodular, RowSumNonzero, ShapeMismatch,
                     TraceTooLarge, UnknownTag)

# violations of an input contract: the file parsed, but its content cannot be
# used with the requested operation
INPUT_ERRORS = (MalformedInput, InvalidReductionSpec, NotMaximalForest,
                NotCotreeEdge, EmptyOrFullSet, NotSymmetric, NotSquare,
                NotUnimodular, ShapeMismatch, LoopCountMismatch, RowSumNonzero,
                TraceTooLarge)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_MALFORMED = 65

# a decision exits by its tri-state reading
DECISION_EXITS = {"true": EXIT_OK, "false": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}
# an error exits by the first row whose types it matches
ERROR_EXITS = (((UnknownTag, ValueError), EXIT_USAGE),
               (INPUT_ERRORS, EXIT_MALFORMED),
               (BudgetExceeded, EXIT_UNKNOWN),
               (LapdualError, EXIT_NEGATIVE))

DEFAULT_BUDGET = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliConfig:
    """One parsed invocation: subcommand, input paths and the shared knobs."""

    __slots__ = ("command", "inputs", "budget", "forest", "v0", "beta", "tag", "out")

    def __init__(self, command: str, inputs: tuple, budget: int = DEFAULT_BUDGET,
                 forest: str = None, v0: str = None, beta: str = "identity",
                 tag: str = None, out: str = None):
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.command = command
        self.inputs = inputs
        self.budget = budget
        self.forest = forest
        self.v0 = v0
        self.beta = beta
        self.tag = tag
        self.out = out


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


# subcommand -> (help, positional names, flag names), in --help order; every
# subcommand also takes the common --budget and --out
_COMMANDS = {
    "laplacian": ("Laplacian matrix", ("graph",), ()),
    "reduced-laplacian": ("reduced Laplacian", ("graph",), ("--v0",)),
    "incidence": ("incidence matrix (reduced when --v0 is given)", ("graph",), ("--v0",)),
    "cut-block": ("fundamental-cut block", ("graph",), ("--forest",)),
    "flow-matrix": ("fundamental-circuit matrix", ("graph",), ("--forest",)),
    "dual-laplacian": ("reduced and bordered dual Laplacian", ("graph",), ("--forest",)),
    "snf": ("Smith normal form with witnesses", ("matrix",), ()),
    "check-congruence": ("integer congruence of two symmetric matrices",
                         ("matrix_a", "matrix_b"), ()),
    "check-2iso": ("2-isomorphism of two multigraphs", ("graph_a", "graph_b"), ()),
    "verify-property": ("check one Laplacian property tag", ("tag", "graph"), ()),
    "planarity": ("certified planarity decision", ("graph",), ()),
    "find-dual": ("construct and verify an abstract dual", ("graph",), ()),
    "verify-dual": ("verify an abstract-dual edge bijection", ("graph_a", "graph_b"),
                    ("--beta",)),
    "emit-dot": ("render a graph as DOT text", ("graph",), ()),
}

# the arguments that need more than a bare name
_ARGUMENTS = {
    "tag": {"metavar": "TAG", "help": "one of: " + ", ".join(PROPERTY_TAGS)},
    "--forest": {"help": "explicit forest edges, e.g. e1,e2,e4 (1-based) or 0,1,3"},
    "--v0": {"help": "deleted vertices, e.g. v3 (1-based) or 2"},
    "--beta": {"default": "identity",
               "help": "comma-separated image positions, or 'identity'"},
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    # argparse runs a string default through `type` when the flag is absent,
    # so a non-integer LAPDUAL_BUDGET is a usage error like a bad --budget
    common.add_argument("--budget", type=int,
                        default=os.environ.get("LAPDUAL_BUDGET", DEFAULT_BUDGET),
                        help="elementary steps allowed for searches")
    common.add_argument("--out", help="write the JSON/DOT result to this path")

    parser = _Parser(prog="lapdual",
                     description="Exact integer Laplacian/dual-Laplacian toolkit "
                                 "for multigraphs: congruence, 2-isomorphism, "
                                 "duality and planarity certificates.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, positionals, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        for arg in positionals + flags:
            p.add_argument(arg, **_ARGUMENTS.get(arg, {}))
    return parser


def _dispatch(config: CliConfig):
    """Returns (payload, exit_code); payload may be a raw string for DOT.

    Reading an input loads serialization and graphs, which is all the first
    two branches run.  Every other command loads laplacians and intmatrix;
    only the commands that run congruence or duality load those layers."""
    from . import graphs, serialization

    def graph(i=0):
        return serialization.graph_from_json(_load_json(config.inputs[i]))

    def matrix(i=0):
        return serialization.matrix_from_json(_load_json(config.inputs[i]))

    def forest(g):
        if config.forest is None:
            return graphs.maximal_forest(g)
        edges = _parse_index_tokens(config.forest, "e")
        return graphs.ForestCertificate.from_forest(g, edges)

    def v0():
        return None if config.v0 is None else _parse_index_tokens(config.v0, "v")

    def decision(result):
        return result, DECISION_EXITS[result.truth]

    cmd = config.command
    if cmd == "emit-dot":
        return serialization.emit_dot(graph()), EXIT_OK
    if cmd == "check-2iso":
        return decision(graphs.decide_2_isomorphism_bruteforce(graph(0), graph(1),
                                                               config.budget))
    from . import laplacians

    if cmd == "laplacian":
        return laplacians.laplacian(graph()), EXIT_OK
    if cmd == "reduced-laplacian":
        return laplacians.reduced_laplacian(graph(), v0()), EXIT_OK
    if cmd == "incidence":
        if config.v0 is None:
            return laplacians.incidence(graph()), EXIT_OK
        return laplacians.reduced_incidence(graph(), v0()), EXIT_OK
    if cmd == "cut-block":
        g = graph()
        return laplacians.cut_block(g, forest(g)), EXIT_OK
    if cmd == "flow-matrix":
        g = graph()
        return laplacians.flow_matrix(g, forest(g)), EXIT_OK
    if cmd == "dual-laplacian":
        g = graph()
        return laplacians.reduced_dual_laplacian(g, forest(g)), EXIT_OK
    if cmd == "snf":
        from .intmatrix import smith_normal_form
        return smith_normal_form(matrix()), EXIT_OK
    if cmd == "check-congruence":
        from . import congruence
        return decision(congruence.decide_congruence(matrix(0), matrix(1), config.budget))
    if cmd == "verify-property":
        report = laplacians.verify_property(graph(), config.tag)
        return report, EXIT_OK if report.passed else EXIT_NEGATIVE
    if cmd == "planarity":
        from . import duality
        return decision(duality.decide_planarity(graph(), config.budget))
    if cmd == "find-dual":
        from . import duality
        return duality.construct_abstract_dual(graph(), config.budget), EXIT_OK
    if cmd == "verify-dual":
        from . import duality
        g1 = graph(0)
        g2 = graph(1)
        if config.beta == "identity":
            beta = tuple(range(g1.num_edges))
        else:
            beta = tuple(_parse_index_tokens(config.beta, "e"))
        report = duality.verify_abstract_dual(g1, g2, beta)
        return report, EXIT_OK if report.ok else EXIT_NEGATIVE
    raise AssertionError(f"unhandled command {cmd}")


def config_from_args(args) -> CliConfig:
    _, positionals, flags = _COMMANDS[args.command]
    # every positional but `tag` is an input path; each flag sets its field: `--v0`, `v0`
    return CliConfig(args.command,
                     tuple([getattr(args, name) for name in positionals if name != "tag"]),
                     args.budget, tag=getattr(args, "tag", None), out=args.out,
                     **{flag[2:]: getattr(args, flag[2:]) for flag in flags})


def _error(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def run(config: CliConfig) -> int:
    """Execute one configured invocation; returns the process exit code."""
    from . import serialization

    try:
        payload, code = _dispatch(config)
    except (ValueError, LapdualError) as exc:
        payload = _error(exc)
        code = next(code for types, code in ERROR_EXITS if isinstance(exc, types))
    text = payload if isinstance(payload, str) else serialization.dumps(payload)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            # an --out that cannot be written is a usage error, reported on stdout
            text, code = serialization.dumps(_error(exc)), EXIT_USAGE
    sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error("--budget must be nonnegative")
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
