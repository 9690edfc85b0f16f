"""The public surface of ``aptkit``: every public name is served, or listed here."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names with no reader in src/, demos/ or perfbench/ and none in the
# README, each with the reason it stays.
UNREAD = {
    "catalog.catalog_cones": "fixture of the geometry property sweeps",
    "catalog.exact_triples": "fixture of the cut-off and toric property sweeps",
    "catalog.presentation_names": "fixture: the tests list the catalog presentations by it",
    "cutoff.is_theta_dual_open": "predicate of the cut-off tests",
    "cutoff.stratum_points": "the sample points of the stratum tests",
    "geometry.Cone.from_halfspaces": "builds the tests' cones from H-data",
    "geometry.Cone.relint_contains": "predicate of the geometry tests",
    "barcodes.DecoratedInterval.length": "read by the interleaving oracle of tests/oracles.py",
    "polyhedra.OpenPolyhedron.whole_space": "constructor of the polyhedra tests",
}


def _public_names(path):
    """The public top-level functions and classes of a module, and the public
    methods of its classes, as ``module.name`` and ``module.Class.method``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}"
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}"


def _read_names():
    """Every name the code of src/, demos/ and perfbench/ reads: names,
    attributes, imports, and strings that are identifiers (looked up by name)."""
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                    read.add(node.value)
    return read


def test_every_public_name_is_read_or_listed():
    read = _read_names() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    public = [name for path in sorted((ROOT / "src" / "aptkit").glob("*.py")) for name in _public_names(path)]
    unread = {name for name in public if name.rsplit(".", 1)[-1] not in read}
    assert unread == set(UNREAD)
