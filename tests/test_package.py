"""The package surface: every name trifault.__all__ lists is importable,
and no module imports a name it never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import trifault

MODULE_DIR = Path(trifault.__file__).parent


def test_star_import_binds_every_public_name():
    # a stale entry left in __all__ still passes `import trifault`
    namespace: dict = {}
    exec("from trifault import *", namespace)
    assert [name for name in trifault.__all__ if name not in namespace] == []
    assert len(set(trifault.__all__)) == len(trifault.__all__)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in MODULE_DIR.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(imported - read) == []
