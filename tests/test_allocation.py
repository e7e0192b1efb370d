"""Repeated calls leave no memory behind, every tuple in the package is
built at its final size (the rule in the intmatrix module docstring), and
no function in it calls itself."""

import ast
import gc
import pathlib
import platform
import sys

import pytest

import lapdual
from lapdual import (MultiGraph, decide_2_isomorphism_bruteforce, decide_planarity,
                     permute_vertices, property_x_report, reduced_laplacian,
                     verify_abstract_dual)

from conftest import grid_graph

WARM_UP = 3
CALLS = 30
# tuple(<generator>) strands one block per tuple built, and a closure that
# calls itself keeps its state alive until the cyclic collector runs; these
# calls build dozens of tuples each, so 30 of them left thousands of blocks
BLOCK_LIMIT = 100


def wheel(n):
    """Hub 0 joined to a rim cycle 1..n-1."""
    rim = list(range(1, n))
    return MultiGraph.from_edges(n, [(0, v) for v in rim] +
                                 [(v, rim[(k + 1) % len(rim)]) for k, v in enumerate(rim)])


def block_growth(call):
    """Blocks still allocated after CALLS calls, with the collector paused
    and WARM_UP calls made first."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(WARM_UP):
            call()
        before = sys.getallocatedblocks()
        for _ in range(CALLS):
            call()
        return sys.getallocatedblocks() - before
    finally:
        if was_enabled:
            gc.enable()


LAPLACIAN = reduced_laplacian(grid_graph(3, 4))
GRID = grid_graph(2, 3)
RELABELLED = permute_vertices(GRID, (5, 3, 4, 1, 2, 0))
DUAL = decide_planarity(grid_graph(3, 4)).certificate
REPEATED_CALLS = {
    "planarity-wheel16": lambda: decide_planarity(wheel(16)),
    "planarity-grid3x4": lambda: decide_planarity(grid_graph(3, 4)),
    "intmatrix-mul": lambda: LAPLACIAN.mul(LAPLACIAN),
    "intmatrix-transpose": LAPLACIAN.transpose,
    # not 10 wide: tuple(<generator>) starts at 10 slots, so a 10-tuple needs
    # no resize and strands nothing
    "intmatrix-submatrix": lambda: LAPLACIAN.submatrix(range(8), range(3, 11)),
    # short vectors, the isometry backtrack and the 2-isomorphism search
    "property-x-grid2x3": lambda: property_x_report(GRID, RELABELLED, budget=2 * 10**5),
    "two-isomorphism-grid2x3": lambda: decide_2_isomorphism_bruteforce(GRID, RELABELLED),
    "abstract-dual-grid3x4": lambda: verify_abstract_dual(grid_graph(3, 4), DUAL.dual_graph,
                                                          DUAL.edge_bijection),
}


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="free lists and sys.getallocatedblocks are CPython's")
@pytest.mark.parametrize("name", sorted(REPEATED_CALLS))
def test_repeated_calls_leave_no_blocks_behind(name):
    assert block_growth(REPEATED_CALLS[name]) < BLOCK_LIMIT


def unsized_tuple_calls(tree):
    """Line numbers of tuple(...) calls whose argument has no length: a
    generator expression, or a map, filter or zip call."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and node.args):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id in ("map", "filter", "zip")):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_unsized_tuple_calls():
    tree = ast.parse("tuple(x for x in y)\ntuple(map(f, y))\ntuple(zip(a, b))\n"
                     "tuple(filter(f, y))\ntuple([x for x in y])\ntuple(y)\n")
    assert unsized_tuple_calls(tree) == [1, 2, 3, 4]


def test_every_tuple_is_built_at_its_final_size():
    package = pathlib.Path(lapdual.__file__).parent
    offenders = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
                 for line in unsized_tuple_calls(ast.parse(path.read_text()))]
    assert offenders == []


def self_calls(tree):
    """Names of the functions that call themselves by name, as `name` or as
    `self.name`, anywhere in their bodies."""
    names = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and (
                    isinstance(call.func, ast.Name) and call.func.id == node.name
                    or isinstance(call.func, ast.Attribute) and call.func.attr == node.name
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "self"):
                names.append(node.name)
                break
    return names


def test_scan_finds_self_calls():
    tree = ast.parse("def f(x):\n    return f(x - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n"
                     "def h(x):\n    def inner():\n        return h(x)\n    return inner\n"
                     "def k(x):\n    return g(x)\n")
    assert sorted(self_calls(tree)) == ["f", "g", "h"]


def test_no_function_calls_itself():
    # searches keep their own stacks, so no input's size meets the recursion
    # limit; to_jsonable's depth is the nesting of the result types instead
    package = pathlib.Path(lapdual.__file__).parent
    offenders = [f"{path.name}:{name}" for path in sorted(package.glob("*.py"))
                 for name in self_calls(ast.parse(path.read_text()))]
    assert offenders == ["serialization.py:to_jsonable"]
