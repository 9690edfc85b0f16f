"""The public surface of ``aptkit``: every public name is served."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _public_names(path):
    """The public top-level functions, classes and constants (module-level
    assignments) of a module, and the public methods of its classes, as
    ``module.name`` and ``module.Class.method``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (f"{path.stem}.{name}" for name in names if not name.startswith("_"))
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield f"{path.stem}.{node.name}.{item.name}"


def _read_names():
    """Every name the code of src/, demos/ and perfbench/ reads: names and
    attributes in Load context, imports, and strings that are identifiers
    (looked up by name).  An assignment is no read."""
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                    read.add(node.value)
    return read


def test_every_public_name_is_read_or_listed():
    read = _read_names() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    public = [name for path in sorted((ROOT / "src" / "aptkit").glob("*.py")) for name in _public_names(path)]
    assert [name for name in public if name.rsplit(".", 1)[-1] not in read] == []
