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


# Every output format is cli's but two that a command also reads back, each
# beside its reader: photostream's integer CSVs and analysis' decay CSV.
FILE_WRITERS = {"photostream.write_int_csv", "analysis.write_decay_csv"}


def _file_writers():
    """module.function of each function outside cli that calls open() with a
    mode that writes ("w", "wb", "a", "x" or "+"; a mode that is not a
    literal counts too), methods as module.Class.method."""
    found = set()

    def visit(node, where):
        if isinstance(node, DEFINITIONS):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes):
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "cli":
            visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_cli_writes_output_files():
    # equality, not a subset: the two writers that stay show that the scan finds one
    assert _file_writers() == FILE_WRITERS
