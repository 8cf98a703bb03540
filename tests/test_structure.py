"""Module boundaries of the package: no module reaches into another's
private names, so each data format stays behind the module that owns it;
precision lives in the context module alone; a double run loads no
mpmath; and every public name of the package has a caller outside the
tests."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgauss"

# Public names that nothing outside the tests reaches yet, each with its
# reason. Keep the list exact: a name that gains a caller leaves it.
TEST_ONLY = {
    # paper claims that only pytest checks until a `constructions` suite
    # runs them from `qgauss verify`
    "build_by_raising": "f_n by raising equals its closed form",
    "number_operator_check": "b'b B_n = lambda_n B_n",
    "mac_coeffs": "the closed-form E^n_k match their recursion",
    "arik_coon_eigenvalues_by_recursion": "lambda_{n+1} = q lambda_n + 1",
    "macfarlane_eigenvalues_by_recursion": "q lambda_{n+1} = lambda_n - 1",
    # the reference the contracted weighted Grams are compared against
    "mixed_weighted_inner": "one daughter expansion per entry",
}


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


def global_precision_uses(source: str) -> list:
    """(line, text) of each use of mpmath's global precision in the source:
    a `.prec()` block, `workdps`, or any mpmath attribute that computes on
    the global context (`mpmath.libmp` is pure, and `mpmath.MPContext`
    builds a context of its own)."""
    found = [(n, line.strip()) for n, line in
             enumerate(source.splitlines(), 1)
             if re.search(r"\.prec\(\)|workdps|workprec|mpmath\.mp\b", line)]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "mpmath"
                and node.attr not in ("libmp", "MPContext")):
            found.append((node.lineno, f"mpmath.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found.append((node.lineno, "from mpmath import"))
    return sorted(set(found))


def test_the_walk_sees_a_global_precision_use():
    source = ("import mpmath\n"
              "with ctx.prec():\n    x = mpmath.mp.prec\n"
              "y = mpmath.fdot([1], [2])\n"
              "z = mpmath.libmp.dps_to_prec(10) + mpmath.MPContext().prec\n")
    assert [n for n, _ in global_precision_uses(source)] == [2, 3, 3, 4]


def test_precision_lives_in_the_context_module():
    """No module of src/qgauss computes at mpmath's global precision: each
    context's numbers carry their own, so nothing sets or reads the global
    one."""
    found = {path.name: global_precision_uses(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_a_double_run_loads_no_mpmath():
    """import qgauss and every suite in double at its default size leave
    mpmath unloaded."""
    code = ("import sys, qgauss\n"
            "for name in qgauss.SUITES:\n"
            "    qgauss.run_suite(name, qgauss.QContext(q=0.43))\n"
            "print(sorted(m for m in sys.modules if m.startswith('mpmath')))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def public_definitions(source: str) -> list:
    """The public top-level functions and classes of a module."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(source: str) -> set:
    """(owner, name) of every name the source mentions in code: a bare
    name, an attribute or an imported name, owner being the top-level
    definition the mention sits in, None outside any. A string naming a
    function (as the benchmark tracer's name sets do) calls nothing."""
    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                found.add((owner, node.name.rsplit(".", 1)[-1]))
    return found


def readme_examples() -> str:
    """The Python code blocks of the README, one source."""
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))


def uncalled(modules: dict, callers: dict) -> list:
    """(module, name) of each public definition in modules {name: source}
    that no source in callers {name: source} mentions outside the
    definition itself."""
    seen = {key: references(source) for key, source in callers.items()}
    return [(module, name) for module, source in sorted(modules.items())
            for name in public_definitions(source)
            if not any(mention == name and (key, owner) != (module, name)
                       for key, found in seen.items()
                       for owner, mention in found)]


def test_the_walk_sees_an_uncalled_function():
    modules = {"a.py": "def recursive():\n    return recursive()\n"
                       "def used():\n    return 1\n"
                       "def wrapped():\n    return used()\n"
                       "class Traced:\n    pass\n",
               "b.py": "def caller():\n    return wrapped()\n"}
    callers = {**modules, "bench.py": "NAMES = {'a.Traced'}\n"}
    assert uncalled(modules, callers) == [("a.py", "recursive"),
                                          ("a.py", "Traced"),
                                          ("b.py", "caller")]


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public function or class of src/qgauss is reached from the
    package itself, a demo, the benchmark or a README example; the
    package's __init__ re-exports do not count."""
    modules = {path.name: path.read_text() for path in SRC.glob("*.py")
               if path.name != "__init__.py"}
    callers = {**modules, "README.md": readme_examples()}
    for folder in ("demos", "perfbench"):
        callers.update({f"{folder}/{path.name}": path.read_text()
                        for path in (ROOT / folder).glob("*.py")})
    found = {name: module for module, name in uncalled(modules, callers)}
    assert sorted(set(found) - set(TEST_ONLY)) == []
    assert sorted(set(TEST_ONLY) - set(found)) == []
