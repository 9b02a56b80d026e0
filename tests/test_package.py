"""The package holds what its commands, scripts and benchmark run: every
public top-level function and class of photonpurity has a caller in src/,
scripts/ or perfbench/, other than its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "photonpurity"
# Only their tests call them.  They stay until the filter definition is
# settled: test_flat_top_limit and the half-maximum test disagree at order 12,
# and deleting them would delete that test instead of deciding which is right.
UNCALLED = {"super_gaussian", "SuperGaussianFilter"}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name


def _referenced_names():
    """Every name read in src/, scripts/ and perfbench/, as a bare name or an
    attribute, except in the top-level definition of that name itself."""
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                own = getattr(top, "name", None) if path.parent == PACKAGE else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and node.id != own:
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute) and node.attr != own:
                        names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller():
    referenced = _referenced_names()
    assert sorted(name for name in _public_definitions()
                  if name not in referenced and name not in UNCALLED) == []
