"""The package exposes no public helper that only the tests use.

Every public top-level function in src/sdcil must be called from another
module of the package, or be one of the contracts listed below. Names that
__init__ re-exports do not count as calls.
"""

import ast
from fnmatch import fnmatch
from pathlib import Path

import sdcil

SRC = Path(sdcil.__file__).parent

# module.function patterns of the public contracts: the entry points that
# nothing inside the package calls
CONTRACTS = (
    "cil.add_class*",  # registering a class
    "cil.predict*",  # predicting
    "cil.load",
    "cil.save",
    "cil.new_model",
    "cil.class_payload",  # the canonical bytes criterion 5 compares
    "cil.pair_payload",
    "kernels.gram",  # the exactly symmetric Gram matrix the solvers require
    "cli.main",  # the sdcil console script and its commands
    "cli.cmd_*",
    "cli.run_trials",  # Table II trials
    "cli.map_grid",  # the decision map of a 2-D model
    "cli.bench_cil_config",  # the benchmark's training configuration
)


def public_functions(tree: ast.Module) -> list[str]:
    return [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def references(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every package function this module uses, through
    `from .module import name` or `from . import module` then module.name."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            used.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return used


def test_every_public_function_is_called_or_a_contract():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    called = set()
    for name, tree in trees.items():
        if name != "__init__":
            called |= {(module, fn) for module, fn in references(tree) if module != name}
    unused = [
        f"{module}.{fn}" for module, tree in trees.items() for fn in public_functions(tree)
        if (module, fn) not in called and not any(fnmatch(f"{module}.{fn}", c) for c in CONTRACTS)
    ]
    assert unused == [], f"public functions no other module calls: {unused}"


def test_scan_sees_calls_and_reexports():
    # the scan itself: a call through either import form counts, a
    # re-export in __init__ does not
    tree = ast.parse("from .kernels import squared_norms\nfrom . import cil\nsquared_norms(x)\ncil.load(p)\n")
    assert references(tree) == {("kernels", "squared_norms"), ("cil", "load")}
    assert references(ast.parse("from .kernels import gram\n")) == set()
