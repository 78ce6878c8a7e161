"""Every function, class and method of the package is used by the package.

A definition counts as used when its name is referenced (as a name or an
attribute) somewhere in src/perdec outside its own body; imports and the
re-exports in __init__.py do not count.  Code reached only from tests is
dead code.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perdec"

# public entry points kept for callers outside the package: the acceptance
# criteria and the benchmark tracer call verify_transfer
ALLOWED = {"verify_transfer"}


def _references(node):
    """Counter of the names a subtree refers to."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """Top-level functions and classes, and non-dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__"))):
                    yield item


def test_every_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert trees, f"no modules found under {PACKAGE}"
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    unused = []
    for name, tree in trees.items():
        for node in _definitions(tree):
            outside = total[node.name] - _references(node)[node.name]
            if outside <= 0 and node.name not in ALLOWED:
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, "defined but never used in src/perdec: " + \
        ", ".join(unused)
