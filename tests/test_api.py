"""No dead public API: every public name in src/ has a caller in src/.

A public method, or a public module-level function that the package does not
export from suparg/__init__.py, must be referenced somewhere in src/ outside
its own definition.  A reference is a name, an attribute, or a string equal
to the name (rows name their provers by string).
"""

import ast
from collections import Counter
from pathlib import Path

import suparg

SRC = Path(suparg.__file__).parent


def _references(node) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _definitions():
    """(module name, class name or None, def node) for every function and
    method of the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, None, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.stem, node.name, item


def test_every_public_function_and_method_has_a_caller():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    exported = _exported()
    dead = []
    for module, cls_name, node in _definitions():
        name = node.name
        if name.startswith("_"):
            continue
        if cls_name is None and name in exported:
            continue
        if everywhere[name] - _references(node)[name] <= 0:
            owner = f"{cls_name}." if cls_name else ""
            dead.append(f"{module}.{owner}{name}")
    assert not dead, f"public API with no caller in src/: {dead}"
