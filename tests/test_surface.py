"""The package exposes no public helper that only the tests use, and keeps
no private one that nothing uses.

Every public top-level function in src/sdcil must be called from another
module of the package, or be one of the contracts listed below. Every
top-level private function or class must be used by package code outside
its own definition. Names that __init__ re-exports do not count as uses.
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


def cross_references(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every package function or class that another
    module, __init__ aside, uses."""
    used = set()
    for name, tree in trees.items():
        if name != "__init__":
            used |= {(module, fn) for module, fn in references(tree) if module != name}
    return used


def orphans(trees: dict[str, ast.Module]) -> list[str]:
    """module.name of each top-level private function or class that no
    package code outside its own definition uses."""
    used = cross_references(trees)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                loaded = {
                    n.id for other in tree.body if other is not node for n in ast.walk(other)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                if node.name not in loaded and (module, node.name) not in used:
                    found.append(f"{module}.{node.name}")
    return found


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_called_or_a_contract():
    trees = package_trees()
    called = cross_references(trees)
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


def test_every_private_definition_is_used():
    assert orphans(package_trees()) == [], "private functions or classes no package code uses"


def test_orphan_scan_sees_uses_elsewhere_only():
    # a private name counts as used by another top-level statement of its
    # module or through an import elsewhere, not by its own body
    trees = {
        "a": ast.parse("def _dead():\n    return _dead()\ndef _used():\n    pass\nclass _Kept:\n    pass\nx = _used()\n"),
        "b": ast.parse("from .a import _Kept\n_Kept()\n"),
        "__init__": ast.parse("from .a import _dead\n_dead\n"),
    }
    assert orphans(trees) == ["a._dead"]
