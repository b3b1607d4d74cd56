"""The test configuration itself, and the fence around the library surface."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import syncword

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # warnings are errors; Hypothesis's failure report must not turn into
    # an INTERNALERROR that skips every later test
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


# ---------------------------------------------------------------------------
# the library surface: what the package defines is what its users call

SRC = ROOT / "src" / "syncword"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tour() -> str:
    """The code of the README's library tour."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library tour\n+```python\n(.*?)```", readme, re.S)[1]


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _references(tree: ast.Module) -> set[str]:
    """Names the code reads: loaded names, attributes and imported names,
    each outside the statement that defines it.  Comments and docstrings
    are not code."""
    out = set()
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
        out |= refs - _defined(stmt)
    return out


def _users() -> list[ast.Module]:
    """The code that uses the library, besides the package's re-exports:
    its modules, the demos, the benchmark and the README tour."""
    paths = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py"))
    return [ast.parse(p.read_text()) for p in paths] + [ast.parse(_tour())]


def test_every_public_name_has_a_caller_outside_the_tests():
    pyproject = (ROOT / "pyproject.toml").read_text()
    used = set(re.findall(r'= "syncword\.[\w.]+:(\w+)"', pyproject))
    for tree in _users():
        used |= _references(tree)
    unused = [f"{path.stem}.{name}" for path in MODULES
              for stmt in ast.parse(path.read_text()).body
              for name in sorted(_defined(stmt))
              if not name.startswith("_") and name not in used]
    assert not unused, f"no caller outside the tests: {unused}"


def test_the_package_re_exports_what_its_users_import():
    imported = set()
    for tree in _users():
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "syncword"
                     for alias in node.names}
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    missing = sorted(imported - exported - {path.stem for path in MODULES})
    assert not missing, f"imported from syncword but not re-exported: {missing}"
    # beyond those, only the types and errors they return or raise
    extra = sorted(name for name in exported - imported
                   if not isinstance(getattr(syncword, name), type))
    assert not extra, f"re-exported but imported by no user: {extra}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in loaded]
    assert not unused, f"imported but never used: {unused}"
