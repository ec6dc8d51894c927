import ast
import importlib
import types
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _span_names():
    # Parsed, not imported: perfbench/ is a directory of scripts, not a
    # package on the test path.
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    names = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("_CALLS_BUSY", "_BUSY")}
    assert set(names) == {"_CALLS_BUSY", "_BUSY"}
    return sorted(name for group in names.values() for name in group)


@pytest.mark.parametrize("span", _span_names())
def test_benchmark_span_names_a_public_library_function(span):
    # The tracer wraps only public functions defined in their own module, so
    # a span whose function was renamed or made private reads 0 for good.
    module_name, _, name = span.partition(".")
    module = importlib.import_module(f"semilink.{module_name}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert isinstance(fn, types.FunctionType), f"{span} is not a function"
    assert fn.__module__ == module.__name__, f"{span} is defined in {fn.__module__}"
