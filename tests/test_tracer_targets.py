"""Every target of the benchmark tracer still exists where it is looked up.

perfbench/tracer.py wraps each TARGETS entry by name: a module attribute,
or a method read from its class's own `__dict__`, so a method moved to a
base class or renamed would fail only the traced benchmark run.  This test
resolves every entry the same way.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    """TARGETS as the tracer module lists it, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"])


@pytest.mark.parametrize("modname, attr", [
    (modname, attr) for modname, attr, _, _ in _targets()])
def test_tracer_target_resolves(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), \
            f"{modname}.{cls_name} defines no {meth} of its own"
    else:
        assert callable(getattr(module, attr, None)), \
            f"{modname} has no {attr}"
