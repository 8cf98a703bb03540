"""Module boundaries of the package: no module reaches into another's
private names, so each data format stays behind the module that owns it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qgauss"


def private_imports(path: Path) -> list:
    """(line, module, name) of each underscore name imported from another
    qgauss module in the file, relatively or as qgauss.x."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qgauss"):
            found += [(node.lineno, node.module, alias.name)
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_walk_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .chain import _stack, add\n"
                     "from qgauss.dg import limit_grid, _hidden\n"
                     "from __future__ import annotations\n")
    assert private_imports(probe) == [(1, "chain", "_stack"),
                                      (2, "qgauss.dg", "_hidden")]


def test_no_module_imports_another_modules_private_names():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {path.name: private_imports(path) for path in files}
    assert {name: hits for name, hits in found.items() if hits} == {}
