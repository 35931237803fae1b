"""The package surface: the package under test is this source tree, every
name trifault.__all__ lists is importable, no module imports a name it
never reads, every public name has a reader besides its own tests, and
importing the command leaves the process pool out."""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trifault

MODULE_DIR = Path(trifault.__file__).parent
REPO_DIR = Path(__file__).resolve().parents[1]


def test_the_package_under_test_is_this_source_tree():
    # run from outside the checkout, the tests import an installed copy;
    # a stale or incomplete install must fail here, not pass quietly
    def modules(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.glob("*.py")}

    assert modules(MODULE_DIR) == modules(REPO_DIR / "src" / "trifault")


def test_importing_the_cli_leaves_out_the_process_pool():
    # only train --jobs N > 1 starts worker processes, so only it imports
    # multiprocessing, which every other command would pay for at start
    path = os.pathsep.join(filter(None, [str(MODULE_DIR.parent), os.environ.get("PYTHONPATH")]))
    probe = "import sys, trifault.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each public module-level function, class or assigned name, with the
    statement that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in defined.items() if not name.startswith("_")}


def _names_read(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names, attributes and imported names that a tree reads outside the
    subtree skip; with strings, also its string constants, which is how
    the benchmark's tracer names the functions it rebinds."""
    read: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return read


def test_every_public_name_has_a_reader():
    # a public name that only its own tests read is code no pipeline runs;
    # a re-export in __init__.py or __all__ is no reader
    modules = {
        p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULE_DIR.glob("*.py") if p.name != "__init__.py"
    }
    outside = _names_read(ast.parse((REPO_DIR / "tests" / "test_acceptance.py").read_text()))
    for path in (REPO_DIR / "perfbench").glob("*.py"):
        outside |= _names_read(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    unread = []
    for name, tree in sorted(modules.items()):
        elsewhere = outside.union(*(_names_read(t) for n, t in modules.items() if n != name))
        for public, node in _public_definitions(tree).items():
            if public not in elsewhere and public not in _names_read(tree, skip=node):
                unread.append(f"{name}: {public}")
    assert unread == []
