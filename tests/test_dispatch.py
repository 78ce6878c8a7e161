"""Each configuration representation answers its own queries.

A representation is a class of src/perdec that defines `value_at`, or a
subclass of one.  An `isinstance` test against a representation, outside
`__eq__`, dispatches on the representation.  Such a branch belongs in a
method of each class (`convolve`, `annihilated_by`, `period_multiple`, the
readers), so that a new representation touches its own class, not a chain
of branches in every query.  Only the functions allowed below keep such
tests: they mix representations, or run a different algorithm on each.

Run as a script, this file prints the dispatch table: the number of
representation tests in each function.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perdec"

# module -> the functions that may test a representation; None allows every
# function of the module
ALLOWED = {
    "config.py": {
        "add_views",  # the one table of mixing rules
    },
    "decompose.py": {
        "Decomposition.verify_on_window",  # a window is checked on its own box
        "_require_v_periodic",  # exact and not automatic for fiber sums only
        "annihilator_from_periodizer",  # g*c must be strongly periodic
        "search_difference_annihilator",  # a periodic view takes a periodizer
    },
    "serialize.py": {"config_to_obj"},  # the file format, beside its reader
    "cli.py": {  # output helpers
        "RunContext.write_config", "_cmd_act", "_cmd_sparse",
        "_sparse_report",
    },
    "sparse.py": None,  # per-representation algorithms
    "tiling.py": None,
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def representations(trees):
    """Classes that define value_at, and their subclasses."""
    classes = {node.name: node for tree in trees.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    found = {name for name, node in classes.items()
             if any(isinstance(item, ast.FunctionDef)
                    and item.name == "value_at" for item in node.body)}
    while True:
        more = {name for name, node in classes.items() if name not in found
                and any(isinstance(base, ast.Name) and base.id in found
                        for base in node.bases)}
        if not more:
            return found
        found |= more


def _dispatches(tree, reps):
    """Qualified names of the functions holding each representation test."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and len(child.args) == 2
                    and scope[-1:] != ("__eq__",)
                    and {sub.id for sub in ast.walk(child.args[1])
                         if isinstance(sub, ast.Name)} & reps):
                out.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return out


def dispatch_table():
    """Counter of (module, function) -> representation tests."""
    trees = _trees()
    reps = representations(trees)
    return Counter((name, func) for name, tree in trees.items()
                   for func in _dispatches(tree, reps))


def allowed(module, func):
    funcs = ALLOWED.get(module, set())
    return funcs is None or func in funcs


def test_representations_are_found():
    assert representations(_trees()) >= {
        "WindowConfig", "PeriodicConfig", "FiberSum", "LazyConfig",
        "_Combination", "_TransferEvaluator"}


def test_representation_tests_stay_in_the_allowed_functions():
    table = dispatch_table()
    assert table, f"no representation tests found under {PACKAGE}"
    stray = sorted(f"{module}:{func}" for module, func in table
                   if not allowed(module, func))
    assert not stray, ("representation isinstance tests outside the "
                       "allowed functions: " + ", ".join(stray))


if __name__ == "__main__":
    table = dispatch_table()
    for (module, func), n in sorted(table.items()):
        mark = "" if allowed(module, func) else "  (not allowed)"
        print(f"{n:4d}  {module}:{func}{mark}")
    print(f"{sum(table.values()):4d}  in all")
