"""``reference.py`` is what the tests hold curv4's values against, so it
must not be built from curv4: it may import numpy and nothing else."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")


def imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


def test_reference_imports_only_numpy():
    assert imported_modules(REFERENCE) == {"__future__", "numpy"}


def test_the_check_sees_a_curv4_import(tmp_path):
    path = tmp_path / "mixed.py"
    path.write_text("import numpy as np\n"
                    "def f():\n    from curv4.core import wedge\n    return wedge\n")
    assert "curv4.core" in imported_modules(path)
