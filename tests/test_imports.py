"""The package uses the standard library only: every absolute import in
``src/secatm`` names the package itself or a standard-library module
(``sys.stdlib_module_names``, present from Python 3.10, the requires-python
floor)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "secatm"


def absolute_imports(path: Path) -> list:
    """The top-level module of each absolute import in the file at path."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


def test_every_import_is_the_package_or_the_standard_library():
    allowed = sys.stdlib_module_names | {"secatm"}
    imports = {path.name: absolute_imports(path) for path in sorted(SRC.rglob("*.py"))}
    assert "fractions" in imports["linalg.py"]  # the walk finds imports
    outside = {name: sorted(set(found) - allowed) for name, found in imports.items()}
    assert not {name: found for name, found in outside.items() if found}
