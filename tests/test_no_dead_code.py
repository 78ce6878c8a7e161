"""Every function, class and method of the package is used by the package.

A top-level function or class counts as used when its name is referenced
(as a name or an attribute) somewhere in src/perdec outside its own body;
a method counts as used only through an attribute reference (`x.method`),
so a local variable or a function of the same name does not hide it.
Imports and the re-exports in __init__.py do not count.  Code reached only
from tests is dead code.  Every name a module imports is referenced in that
module, apart from `from __future__ import annotations`.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perdec"

# definitions kept for callers outside the package, by qualified name
ALLOWED = {
    # the acceptance criteria and the benchmark tracer call it
    "verify_transfer",
    # argparse calls it on a usage error
    "_Parser.error",
}


def _references(node):
    """Counters of the names and of the attribute names a subtree refers
    to."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _definitions(tree):
    """(qualified name, node, is a method) of the top-level functions and
    classes and of the non-dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item, True


def _unused(trees):
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names += n
        attrs += a
    unused = []
    for module, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            own_names, own_attrs = _references(node)
            outside = attrs[node.name] - own_attrs[node.name]
            if not method:
                outside += names[node.name] - own_names[node.name]
            if outside <= 0 and qualname not in ALLOWED:
                unused.append(f"{module}:{node.lineno} {qualname}")
    return unused


def test_every_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert trees, f"no modules found under {PACKAGE}"
    unused = _unused(trees)
    assert not unused, "defined but never used in src/perdec: " + \
        ", ".join(unused)


def _unused_imports(tree):
    """The names a module imports and never references."""
    names = _references(tree)[0]
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not names[name]:
                    unused.append(f"{node.lineno} {name}")
    return unused


def test_every_import_is_referenced_in_its_module():
    unused = [f"{path.name}:{entry}"
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for entry in _unused_imports(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from math import gcd, lcm\n"
                     "from . import x as y\n"
                     "print(os.sep, gcd(4, 6))\n")
    assert _unused_imports(tree) == ["3 lcm", "4 y"]


def test_a_method_is_not_used_through_a_name():
    # a local variable named like a method does not count as a use of it
    tree = ast.parse(
        "class A:\n"
        "    def span(self):\n"
        "        return 1\n"
        "    def used(self):\n"
        "        return 2\n"
        "def f(a):\n"
        "    span = a.used()\n"
        "    return span\n"
        "f(A())\n")
    assert _unused({"m.py": tree}) == ["m.py:2 A.span"]
