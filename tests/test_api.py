"""The package namespace is exactly what the README's "Library use"
example imports, plus ``__version__``."""

import re
from pathlib import Path

import graphica

README = Path(__file__).resolve().parents[1] / "README.md"


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
