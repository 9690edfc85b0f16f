"""The public surface of ``aptkit``: every public name is served."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _defined(node):
    """The names a statement defines: a function's or class's own, the
    fields a ``__slots__`` assignment lists, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
        return [n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def _public_names(path):
    """The public top-level functions, classes and constants (module-level
    assignments) of a module, and the public methods, class-level attributes
    and slot fields of its classes, as ``module.name`` and ``module.Class.member``."""
    for node in ast.parse(path.read_text()).body:
        yield from (f"{path.stem}.{name}" for name in _defined(node) if not name.startswith("_"))
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            yield from (f"{path.stem}.{node.name}.{name}" for name in _defined(item) if not name.startswith("_"))


def _reads():
    """What the code of src/, demos/ and perfbench/ reads: the attributes it
    loads and, outside src/, its strings that are identifiers (perfbench's
    tracer looks names up by them), as bare names, and the top-level names
    it reads as ``module.name``: loaded in their defining module, imported
    from it, or loaded as its attribute.  An assignment is no read, and
    neither is a read of another definition that shares the name, nor a
    string of the library's own, such as a digit or a message."""
    attributes, strings, qualified = set(), set(), set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            own = path.stem if path.parent.name == "aptkit" else None
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
                    qualified.add(f"{own}.{node.id}")
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                    if isinstance(node.value, ast.Name):
                        qualified.add(f"{node.value.id}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module:
                    source = node.module.rsplit(".", 1)[-1]
                    qualified.update(f"{source}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier() \
                        and folder != "src":
                    strings.add(node.value)
    return attributes, strings, qualified


def _documented():
    """What the README's inline code spans name: each dotted name written
    there and every tail of it, so that `aptkit.rational.dot` documents
    ``dot`` and `DecoratedInterval.intersect` that method."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    chains = [m.split(".") for span in re.findall(r"`([^`\n]+)`", text) for m in re.findall(r"\w+(?:\.\w+)*", span)]
    return {".".join(chain[k:]) for chain in chains for k in range(len(chain))}


def _is_read(name, attributes, strings, qualified):
    """A method is read through an attribute, a top-level name as itself;
    either by a string of its name."""
    last = name.rsplit(".", 1)[-1]
    return last in strings or (last in attributes if name.count(".") == 2 else name in qualified)


def test_every_public_name_is_read_or_listed():
    reads = _reads()
    documented = _documented()
    public = [name for path in sorted((ROOT / "src" / "aptkit").glob("*.py")) for name in _public_names(path)]
    unread = [name for name in public if not _is_read(name, *reads)]
    # a method is documented as Class.method, a top-level name as itself
    assert [name for name in unread if name.split(".", 1)[1] not in documented] == []


def test_a_name_read_only_by_another_definition_is_unread():
    # perfbench's own ``dot`` and ``geometry.intersect`` share a name with
    # ``rational.dot`` and a method of ``DecoratedInterval``: neither reads them
    reads = _reads()
    assert not _is_read("rational.dot", *reads)
    assert not _is_read("barcodes.DecoratedInterval.intersect", *reads)
    assert _is_read("geometry.intersect", *reads)
    assert _is_read("modules.eval_at", *reads)
    assert _is_read("barcodes.DecoratedInterval.translate", *reads)


def test_class_attributes_are_scanned_and_library_strings_are_no_reads():
    # Cone's H-views are class-level ``_view`` attributes, not methods; the
    # "e" digit of rational._written_digits reads no name k0.e
    names = set(_public_names(ROOT / "src" / "aptkit" / "geometry.py"))
    assert {"geometry.Cone.facet_normals", "geometry.Cone.span_normals"} <= names
    # a slot field is a member some code must read, as a method is
    assert {"geometry.Cone.dim", "geometry.Cone.cone_dim", "geometry.Fan.ids"} <= names
    reads = _reads()
    assert not _is_read("geometry.Cone.facet_normals", *reads)
    assert not _is_read("k0.e", *reads)
