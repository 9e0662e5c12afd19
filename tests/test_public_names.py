"""Every public name in missfair has a caller: code in src/ or the acceptance tests."""

import ast
import pathlib

import missfair

SRC = pathlib.Path(missfair.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"

# Public names allowed without a caller, each with the reason it stays.
ALLOWED = {
    "missingness.describe",     # ROADMAP item 4 gives it a caller (the per-run theory check)
}


def _definitions(tree, module):
    """(qualified name, name) of the public functions, classes and methods of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree):
    """Identifiers a module uses: names, attributes, imported names and string constants
    (getattr targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    used |= set(_references(ast.parse(ACCEPTANCE.read_text())))
    unused = [qualified for module, tree in trees.items()
              for qualified, name in _definitions(tree, module)
              if name not in used and qualified not in ALLOWED]
    assert unused == []
