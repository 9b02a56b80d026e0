"""The package holds what its commands, scripts and benchmark run: every
top-level function and class of photonpurity, private helpers included, and
every public method of its public classes has a caller in src/, scripts/ or
perfbench/, other than its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "photonpurity"
# Only their tests call them.  They stay until the filter definition is
# settled: test_flat_top_limit and the half-maximum test disagree at order 12,
# and deleting them would delete that test instead of deciding which is right.
UNCALLED = {"super_gaussian", "SuperGaussianFilter"}
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                yield node.name


def _helpers_and_methods():
    """module.name of every private top-level function and class, and
    module.Class.method of every public method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                yield from (f"{path.stem}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _referenced_names():
    """Every name read in src/, scripts/ and perfbench/, as a bare name or an
    attribute, except inside a package definition of that name itself."""
    names = set()

    def visit(node, own):
        if isinstance(node, DEFINITIONS) and own is not None:
            own = own | {node.name}
        if isinstance(node, ast.Name) and node.id not in (own or ()):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in (own or ()):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            visit(ast.parse(path.read_text()), set() if path.parent == PACKAGE else None)
    return names


def test_every_public_definition_has_a_caller():
    referenced = _referenced_names()
    assert sorted(name for name in _public_definitions()
                  if name not in referenced and name not in UNCALLED) == []


def test_every_helper_and_method_has_a_caller():
    # a helper or a method that only tests call is test code
    referenced = _referenced_names()
    assert sorted(name for name in _helpers_and_methods()
                  if name.rpartition(".")[2] not in referenced) == []
