"""Source hygiene: every name a module of `src/krawbound`, `tests` or
`scripts` imports is read in that module. The one exception is a package
`__init__.py`, whose relative imports (`from .module import name`) are its
re-exports; any other import there must be read like anywhere else. Each
script also loads, without running its `main`, and every attribute it reads
of a krawbound module exists, so that a renamed name fails here rather than
at the script's next run."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "krawbound"
TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def _unread_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    package_init = path.name == "__init__.py"
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if package_init and isinstance(node, ast.ImportFrom) and node.level > 0:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))], ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_test_module_import_is_read(path):
    assert _unread_imports(path) == []


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_loads_and_reads_only_existing_krawbound_names(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = getattr(script, node.value.id, None)
            if isinstance(module, types.ModuleType) and module.__name__.startswith("krawbound"):
                if not hasattr(module, node.attr):
                    missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    assert missing == []


def test_scan_flags_an_unread_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import log2, pi as PI\n"
        "from .sibling import name\n"
        "__all__ = ['log2', 'name']\n"
        "print(os.sep, PI)\n"
    )
    assert _unread_imports(module) == ["log2 (line 3)", "name (line 4)"]


def test_scan_takes_only_relative_imports_of_a_package_init_as_exports(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text(
        "import os\n"
        "from math import pi\n"
        "from .sibling import name\n"
        "from . import sibling\n"
    )
    assert _unread_imports(init) == ["os (line 1)", "pi (line 2)"]
