import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "semilink" / "__init__.py"


def _exported_names():
    # Parsed, not imported, as the perfbench span names are.
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _references():
    """Names read, attributes read and string constants in the library,
    the demos and the benchmark scripts, apart from the package's own
    import list.  A definition's own name is a def or class node, not a
    reference; a string counts as the whole string and as the part after
    its last dot, so a span name "module.function" names the function."""
    seen = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    seen.update({node.value, node.value.rpartition(".")[2]})
    return seen


_REFERENCES = _references()


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_has_a_caller_outside_the_tests(name):
    # A public function that only tests call restates a rule the library
    # already states once.  Methods are not covered: an unused method of an
    # exported class goes unnoticed here.
    assert name in _REFERENCES, f"semilink.{name} is exported but never used"
