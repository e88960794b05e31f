"""Static checks of the package surface, written with the standard library only.

No module imports a name it never uses or imports scipy at module level,
``cardioprior.__all__`` is exactly the package's public namespace, and only
``volume`` writes files.
"""

import __future__
import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import cardioprior

SRC = pathlib.Path(cardioprior.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level import bindings (name -> line), ``from __future__`` excluded."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, plus the re-exports listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in tree.body if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"], \
        f"{path.name} imports scipy at module level"


def test_import_generate_and_swap_boundary_load_no_scipy():
    code = (
        "import sys, cardioprior as cp\n"
        "spec = cp.PhantomSpec(grid=cp.FovSpec((12, 12, 12), 8.0))\n"
        "_, labels = cp.generate(spec, 0)\n"
        "cp.degrade(labels, 'swap_boundary', 0.2, seed=1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_all_names_resolve():
    missing = [n for n in cardioprior.__all__ if not hasattr(cardioprior, n)]
    assert not missing
    assert len(set(cardioprior.__all__)) == len(cardioprior.__all__)


def test_every_public_attribute_is_in_all():
    public = {
        name for name, value in vars(cardioprior).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and value is not __future__.annotations
    }
    assert public - set(cardioprior.__all__) == set()


def _writes(node: ast.AST) -> bool:
    """A ``json.dump`` call, or an ``open`` call whose mode can write."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "dump" \
            and isinstance(func.value, ast.Name) and func.value.id == "json":
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    for mode in node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]:
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True  # a mode computed at run time may write
        if set(mode.value) & set("wax+"):
            return True
    return False


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "volume.py"],
                         ids=lambda p: p.name)
def test_only_volume_writes_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if _writes(node)]
    assert not lines, f"{path.name}: writes a file outside volume.write_file at lines {lines}"


def test_write_guard_catches_each_form():
    calls = ['json.dump(d, fh)', 'open(p, "w")', 'open(p, mode="ab")', 'open(p, "r+")',
             'open(p, m)']
    assert all(_writes(ast.parse(c).body[0].value) for c in calls)
    assert not any(_writes(ast.parse(c).body[0].value)
                   for c in ['open(p)', 'open(p, "rb")', 'json.dumps(d)'])
