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


def _nodes(*folders):
    """Every AST node of the Python files under ``folders``, apart from the
    package's own import list."""
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != INIT:
                yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _references():
    """Names read, attributes read and string constants in the library,
    the demos and the benchmark scripts.  A definition's own name is a def
    or class node, not a reference; a string counts as the whole string and
    as the part after its last dot, so a span name "module.function" names
    the function."""
    seen = set()
    for node in _nodes("src", "demos", "perfbench"):
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _dataclass_fields():
    """(class, field) for every annotated field of a @dataclass in the package."""
    return sorted((node.name, item.target.id) for node in _nodes("src/semilink")
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


_ATTRIBUTES_READ = {node.attr for node in _nodes("src", "demos", "perfbench", "tests")
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("cls, field", _dataclass_fields())
def test_dataclass_field_is_read(cls, field):
    # A field that no code reads is a fact stored for nobody.  Fields are
    # matched by name only, so one that shares its name with an attribute
    # read anywhere else passes.
    assert field in _ATTRIBUTES_READ, f"{cls}.{field} is set but never read"


def test_only_the_id_readers_import_operator():
    # digraph reads caller vertex ids for the whole library (operator.index
    # rejects 0.5 where int() truncates it), the oracle's terminals included;
    # certificates, the verifier that shares no code with it, keeps a reader
    # of its own.  Any other module importing operator is one more reader.
    importers = set()
    for path in sorted((ROOT / "src" / "semilink").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "operator" in names:
                importers.add(path.stem)
    assert importers <= {"digraph", "certificates"}, importers
