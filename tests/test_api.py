"""The package namespace is exactly what the README's "Library use"
example imports, plus ``__version__``; and every public function and
class of the package is used by the package or named in the README."""

import ast
import re
from pathlib import Path

import graphica

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(graphica.__file__).resolve().parent


def library_use_imports():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    match = re.search(r"from graphica import \(([^)]*)\)", block)
    assert match, "README Library use block imports nothing from graphica"
    return [name.strip() for name in match.group(1).split(",") if name.strip()]


def test_readme_library_use_names_import():
    for name in library_use_imports():
        assert callable(getattr(graphica, name)), name


def test_public_api_is_the_readme_names():
    assert sorted(graphica.__all__) == sorted(library_use_imports() + ["__version__"])


def test_every_public_definition_has_a_caller():
    """A public module-level function or class that only tests use
    belongs in ``tests/``, not in the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    readme = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in used | readme]
    assert unused == []
